"""Decoupling tests: encoder sharing, reconstruction fixtures, the margin
loss against an exhaustive enumeration oracle, orthogonality fixtures, and
finite-difference checks through the full stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modal_distill.data import MODALITIES, Modality
from modal_distill.decouple import (
    Decoupler,
    DecoupledPair,
    loss_cyc,
    loss_dec,
    loss_margin,
    loss_ort,
    loss_rec,
)
from modal_distill.errors import ShapeError
from modal_distill.tensor import RowLayout, Tensor, concat, margin_hinge, reshape

from conftest import (
    check_grads,
    margin_oracle,
    margin_triplets,
    set_averaging_decoder,
    set_identity_two_layer,
    tag_arrays,
)

L, V, A = Modality.LANGUAGE, Modality.VISION, Modality.AUDIO

SMALL_RAW = {L: 6, V: 5, A: 4}


def make_decoupler(d=4, seed=0, params=None):
    """A decoupler drawn from ``seed``, registering its parameters in ``params``."""
    return Decoupler(np.random.default_rng(seed), {} if params is None else params,
                     SMALL_RAW, d=d)


def one(x):
    """The layout of a batch of one sequence, ``x``."""
    return RowLayout([x.shape[0]])


def pooled_rows(h, p):
    """A pair whose pooled rows are the tensors ``h`` and ``p``."""
    return DecoupledPair(homo=h, hetero=p, homo_pooled=h, hetero_pooled=p)


def pooled_pair(homo_vec, hetero_vec):
    """A batch of one whose pooled vectors are the given ones."""
    return pooled_rows(Tensor(np.asarray(homo_vec, dtype=float)[None]),
                       Tensor(np.asarray(hetero_vec, dtype=float)[None]))


# ---- shallow encoding and decoupling ----


def test_shallow_encode_shape():
    dec = make_decoupler(d=16)
    rng = np.random.default_rng(1)
    out = dec.shallow_encode(rng.standard_normal((8, SMALL_RAW[V])), V, RowLayout([8]))
    assert out.shape == (8, 16)
    assert dec.shallow_encode(rng.standard_normal((8, SMALL_RAW[V])), V,
                              RowLayout([3, 1, 4])).shape == (8, 16)


def test_shallow_encode_rejects_wrong_dim():
    dec = make_decoupler()
    with pytest.raises(ShapeError):
        dec.shallow_encode(np.zeros((8, SMALL_RAW[V] + 1)), V, RowLayout([8]))


def test_shared_encoder_is_one_parameter_set():
    dec = make_decoupler(d=4)
    x = Tensor(np.random.default_rng(2).standard_normal((5, 4)))
    as_l = dec.decouple(x, L, one(x))
    as_v = dec.decouple(x, V, one(x))
    np.testing.assert_array_equal(as_l.homo.data, as_v.homo.data)
    assert not np.array_equal(as_l.hetero.data, as_v.hetero.data)


@pytest.mark.parametrize("t", [1, 7, 50])
def test_decouple_preserves_shapes(t):
    dec = make_decoupler(d=4)
    x = Tensor(np.random.default_rng(t).standard_normal((t, 4)))
    pair = dec.decouple(x, A, one(x))
    assert pair.homo.shape == (t, 4) and pair.hetero.shape == (t, 4)
    assert pair.homo_pooled.shape == (1, 4) and pair.hetero_pooled.shape == (1, 4)


def test_pooled_vectors_are_temporal_means():
    dec = make_decoupler(d=3)
    x = Tensor(np.random.default_rng(5).standard_normal((6, 3)))
    pair = dec.decouple(x, L, RowLayout([2, 4]))
    np.testing.assert_allclose(pair.homo_pooled.data, [pair.homo.data[:2].mean(axis=0),
                                                       pair.homo.data[2:].mean(axis=0)],
                               atol=1e-15)


def test_pooling_and_rec_cyc_ignore_padded_rows():
    # a sequence packed beside another keeps its own pooled vectors and
    # rec/cyc terms, whatever the other's rows hold: they take the place
    # the padded rows of a padded batch had
    dec = make_decoupler(d=3)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 3))
    for other in (rng.standard_normal((2, 3)), np.full((2, 3), 50.0)):
        rows = RowLayout([4, 2])
        both = Tensor(np.vstack([x, other]))
        pair = dec.decouple(both, L, rows)
        recon = dec.reconstruct(pair, L)
        alone = dec.decouple(Tensor(x), L, RowLayout([4]))
        alone_recon = dec.reconstruct(alone, L)
        np.testing.assert_allclose(pair.homo_pooled.data[0], alone.homo_pooled.data[0], atol=1e-14)
        np.testing.assert_allclose(pair.hetero_pooled.data[0], alone.hetero_pooled.data[0],
                                   atol=1e-14)
        other_pair = dec.decouple(Tensor(other), L, RowLayout([2]))
        other_recon = dec.reconstruct(other_pair, L)
        assert loss_rec(both, recon).item() == pytest.approx(
            loss_rec(Tensor(x), alone_recon).item()
            + loss_rec(Tensor(other), other_recon).item(), rel=1e-12, abs=1e-12)
        assert loss_cyc(pair.hetero, dec.reencode_private(recon, L)).item() == pytest.approx(
            loss_cyc(alone.hetero, dec.reencode_private(alone_recon, L)).item()
            + loss_cyc(other_pair.hetero, dec.reencode_private(other_recon, L)).item(),
            rel=1e-12, abs=1e-12)


# ---- reconstruction losses ----


def test_loss_rec_zero_when_equal():
    x = Tensor(np.random.default_rng(0).standard_normal((3, 4)))
    assert loss_rec(x, Tensor(x.data.copy())).item() == 0.0
    assert loss_rec(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 4)))).item() == 0.0


def test_loss_rec_unit_differences():
    x = Tensor(np.zeros((2, 2)))
    recon = Tensor(np.ones((2, 2)))
    assert loss_rec(x, recon).item() == pytest.approx(4.0, abs=1e-15)


def test_loss_cyc_fixtures():
    h = Tensor(np.array([[2.0]]))
    assert loss_cyc(h, Tensor(np.array([[3.0]]))).item() == pytest.approx(1.0, abs=1e-15)
    assert loss_cyc(h, Tensor(np.array([[2.0]]))).item() == 0.0


def test_identity_autoencoder_zeros_rec_and_cyc():
    dec = make_decoupler(d=4)
    set_identity_two_layer(dec.shared_encoder)
    for m in MODALITIES:
        set_identity_two_layer(dec.private_encoders[m])
        set_averaging_decoder(dec.decoders[m])
    # non-negative input keeps the decoder's hidden relu in its linear region
    x = Tensor(np.random.default_rng(3).uniform(0.1, 2.0, size=(5, 4)))
    for m in MODALITIES:
        pair = dec.decouple(x, m, RowLayout([2, 3]))
        recon = dec.reconstruct(pair, m)
        assert loss_rec(x, recon).item() < 1e-10
        assert loss_cyc(pair.hetero, dec.reencode_private(recon, m)).item() < 1e-10


# ---- margin loss ----


def oracle_margin(vectors, tags, alpha):
    """Per-triplet enumeration with plain numpy cosines."""
    def cos(u, v):
        nu = max(np.linalg.norm(u), 1e-12)
        nv = max(np.linalg.norm(v), 1e-12)
        return float(u @ v) / (nu * nv)

    vals = []
    n = len(vectors)
    for i in range(n):
        for j in range(n):
            if tags[j][0] == tags[i][0] or tags[j][1] != tags[i][1]:
                continue
            for k in range(n):
                if tags[k][0] != tags[i][0] or tags[k][1] == tags[i][1]:
                    continue
                vals.append(max(0.0, alpha - cos(vectors[i], vectors[j])
                                + cos(vectors[i], vectors[k])))
    return (sum(vals) / len(vals), len(vals)) if vals else (0.0, 0)


def items_from(vectors, tags):
    """The (rows, modality indices, classes) arguments of ``loss_margin``."""
    return (Tensor(np.stack(vectors)), *tag_arrays(tags))


def test_margin_zero_when_separated():
    # cos(i,j)=1, cos(i,k)=-1 with one valid triplet
    vectors = [np.array([1.0, 0.0]), np.array([2.0, 0.0]), np.array([-1.0, 0.0])]
    tags = [(L, 1), (V, 1), (L, 2)]
    loss, count = loss_margin(*items_from(vectors, tags), alpha=0.2)
    assert count == 1
    assert loss.item() == 0.0


def test_margin_single_triplet_forced_value():
    # cos(i,j)=cos(i,k)=0.5 -> hinge = alpha
    vectors = [np.array([1.0, 0.0]),
               np.array([0.5, np.sqrt(3) / 2]),
               np.array([0.5, -np.sqrt(3) / 2])]
    tags = [(L, 1), (V, 1), (L, 2)]
    loss, count = loss_margin(*items_from(vectors, tags), alpha=0.2)
    assert count == 1
    assert loss.item() == pytest.approx(0.2, abs=1e-12)


def test_margin_empty_set_is_zero():
    vectors = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    tags = [(L, 1), (L, 1)]  # same modality: no cross-modal positive exists
    loss, count = loss_margin(*items_from(vectors, tags), alpha=0.2)
    assert count == 0 and loss.item() == 0.0 and not loss.requires_grad


@pytest.mark.parametrize("seed", range(20))
def test_margin_matches_exhaustive_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 13))
    vectors = [rng.standard_normal(4) for _ in range(n)]
    tags = [(MODALITIES[rng.integers(0, 3)], int(rng.integers(-3, 4))) for _ in range(n)]
    loss, count = loss_margin(*items_from(vectors, tags), alpha=0.2)
    expected, expected_count = oracle_margin(vectors, tags, alpha=0.2)
    assert count == expected_count
    assert abs(loss.item() - expected) < 1e-12


@given(st.floats(0.5, 100.0), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_margin_invariant_to_positive_rescaling(scale, which):
    rng = np.random.default_rng(42)
    vectors = [rng.standard_normal(3) for _ in range(4)]
    tags = [(L, 1), (V, 1), (L, 2), (A, 1)]
    base, _ = loss_margin(*items_from(vectors, tags), alpha=0.2)
    scaled = [v * scale if i == which else v for i, v in enumerate(vectors)]
    rescaled, _ = loss_margin(*items_from(scaled, tags), alpha=0.2)
    assert rescaled.item() == pytest.approx(base.item(), abs=1e-9)


def test_margin_triplet_enumeration_structure():
    tags = [(L, 1), (V, 1), (A, 2), (L, 2)]
    triplets = list(zip(*margin_triplets(tags)))
    assert (0, 1, 3) in triplets
    for i, j, k in triplets:
        assert tags[j][0] != tags[i][0] and tags[j][1] == tags[i][1]
        assert tags[k][0] == tags[i][0] and tags[k][1] != tags[i][1]


@given(b=st.integers(1, 12), levels=st.sampled_from([1, 2, 4, 8]),
       alpha=st.sampled_from([0.25, 0.5, 1.0, 1.5, 0.3]), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_margin_hinge_matches_enumeration_at_ties(b, levels, alpha, seed):
    # cosines on a coarse grid make (alpha - c_ij) + c_ik hit exactly 0 often;
    # the hinge must treat every tie as the enumeration does
    rng = np.random.default_rng(seed)
    n = 3 * b
    cos = np.round(rng.uniform(-1.0, 1.0, (n, n)) * levels) / levels
    mods = rng.integers(0, 3, n) if seed % 2 else np.tile(np.arange(3), b)
    classes = rng.integers(-3, 4, n) if seed % 3 else np.repeat(rng.integers(-1, 2, b), 3)
    tags = [(MODALITIES[m], int(c)) for m, c in zip(mods, classes)]
    want, want_count, want_grad = margin_oracle(cos, tags, alpha)
    leaf = Tensor(cos.copy(), requires_grad=True)
    loss, count = margin_hinge(leaf, mods, classes, alpha)
    assert count == want_count
    assert abs(loss.item() - want) <= 1e-12
    if count:
        loss.backward()
        np.testing.assert_array_equal(leaf.grad, want_grad)


# ---- orthogonality and combined loss ----


def test_ort_fixtures():
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    orth = {m: pooled_pair(e1, e2) for m in MODALITIES}
    assert loss_ort(orth).item() == pytest.approx(0.0, abs=1e-12)
    same = {m: pooled_pair(e1 * 2, e1 * 2) for m in MODALITIES}
    assert loss_ort(same).item() == pytest.approx(3.0, abs=1e-12)
    mixed = {L: pooled_pair(e1, -e1), V: pooled_pair(e1, e2), A: pooled_pair(e2, e1)}
    assert loss_ort(mixed).item() == pytest.approx(-1.0, abs=1e-12)


def test_ort_range():
    rng = np.random.default_rng(9)
    pairs = {m: pooled_pair(rng.standard_normal(5), rng.standard_normal(5))
             for m in MODALITIES}
    assert -3.0 <= loss_ort(pairs).item() <= 3.0


def test_ort_matches_per_row_cosines():
    # a batch of three per modality, one pooled shared row all zero: its
    # cosine counts as 0
    rng = np.random.default_rng(10)
    homo = {m: rng.standard_normal((3, 4)) for m in MODALITIES}
    hetero = {m: rng.standard_normal((3, 4)) for m in MODALITIES}
    homo[V][1] = 0.0
    pairs = {m: pooled_rows(Tensor(homo[m]), Tensor(hetero[m])) for m in MODALITIES}
    want = 0.0
    for m in MODALITIES:
        for u, v in zip(homo[m], hetero[m]):
            nu, nv = np.linalg.norm(u), np.linalg.norm(v)
            want += u @ v / (nu * nv) if nu > 0 else 0.0
    assert loss_ort(pairs).item() == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_ort_gradcheck_with_a_zero_shared_row():
    # the zero shared row's cosine is 0 whatever its private row holds, so
    # that row's gradient is 0, and the other rows' stay finite and exact
    rng = np.random.default_rng(11)
    leaves = {m.tag: Tensor(rng.standard_normal((2, 3)), requires_grad=True)
              for m in MODALITIES}
    homo = {m: Tensor(rng.standard_normal((2, 3))) for m in MODALITIES}
    homo[L].data[0] = 0.0
    pairs = {m: pooled_rows(homo[m], leaves[m.tag]) for m in MODALITIES}
    check_grads(lambda: loss_ort(pairs), leaves, tol=1e-5)
    # the gradient that check_grads' own backward left
    np.testing.assert_array_equal(leaves[L.tag].grad[0], 0.0)


def test_loss_dec_weighted_sum():
    out = loss_dec(Tensor(1.0), Tensor(1.0), Tensor(2.0), Tensor(2.0), gamma=0.1)
    assert out.item() == pytest.approx(2.4, abs=1e-12)
    only_recon = loss_dec(Tensor(1.5), Tensor(0.5), Tensor(9.0), Tensor(9.0), gamma=0.0)
    assert only_recon.item() == pytest.approx(2.0, abs=1e-12)


# ---- gradients through the full decoupling stack ----


@pytest.mark.parametrize("seed", range(3))
def test_decoupling_losses_gradcheck(seed):
    # a batch of two samples with different class bins so the margin set is
    # non-empty
    params = {}
    dec = make_decoupler(d=3, seed=seed, params=params)
    rng = np.random.default_rng(1000 + seed)
    # each modality's two sequences have their own lengths, one of them a
    # single step
    layouts = {L: RowLayout([4, 1]), V: RowLayout([2, 3]), A: RowLayout([3, 3])}
    feats = {m: rng.standard_normal((layouts[m].size, SMALL_RAW[m])) for m in MODALITIES}
    tags = [(m, c) for c in (1, -2) for m in MODALITIES]

    def build():
        total_rec, total_cyc = Tensor(0.0), Tensor(0.0)
        pairs = {}
        for m in MODALITIES:
            x = dec.shallow_encode(feats[m], m, layouts[m])
            pair = dec.decouple(x, m, layouts[m])
            pairs[m] = pair
            recon = dec.reconstruct(pair, m)
            total_rec = total_rec + loss_rec(x, recon)
            total_cyc = total_cyc + loss_cyc(pair.hetero, dec.reencode_private(recon, m))
        rows = reshape(concat([pairs[m].homo_pooled for m in MODALITIES], axis=-1), (6, 3))
        mar, count = loss_margin(rows, *tag_arrays(tags), alpha=0.2)
        assert count > 0
        return loss_dec(total_rec, total_cyc, mar, loss_ort(pairs), gamma=0.1)

    check_grads(build, params, tol=1e-5)


def test_margin_gradcheck():
    rng = np.random.default_rng(77)
    leaves = {"x": Tensor(rng.standard_normal((4, 3)), requires_grad=True)}
    tags = [(L, 1), (V, 1), (L, 2), (A, 1)]

    def build():
        loss, _ = loss_margin(leaves["x"], *tag_arrays(tags), alpha=0.5)
        return loss

    check_grads(build, leaves, tol=1e-5)
