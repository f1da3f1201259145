"""Crossmodal attention tests: agreement with a per-head numpy oracle,
singleton-source collapse, shape contracts, row-stochastic attention,
source-permutation invariance, determinism, and finite-difference checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modal_distill.crossmodal import (
    CrossmodalPair,
    CrossmodalReinforcer,
    incoming_sources,
    passthrough,
)
from modal_distill.data import MODALITIES, Modality
from modal_distill.errors import ShapeError
from modal_distill.tensor import RowLayout, Tensor, tsum

from conftest import check_grads

L, V, A = Modality.LANGUAGE, Modality.VISION, Modality.AUDIO


def make_pair(d=8, heads=4, seed=0):
    return CrossmodalPair(np.random.default_rng(seed), d, heads)


def rand(shape, seed=0):
    """A batch of one sequence of ``shape``, as packed rows."""
    return Tensor(np.random.default_rng(seed).standard_normal(shape))


def one(x):
    """The layout of a batch of one sequence, ``x``."""
    return RowLayout([x.shape[0]])


def packed(seqs):
    """Sequences of unequal length as packed rows and their layout."""
    return Tensor(np.concatenate(seqs)), RowLayout([len(s) for s in seqs])


def per_head_attention(pair, src, tgt):
    """Oracle in plain numpy: one loop iteration per head, head h using
    feature columns h*head_dim .. (h+1)*head_dim of Q, K and V."""
    q = tgt @ pair.proj_q.weight.data
    k = src @ pair.proj_k.weight.data
    v = src @ pair.proj_v.weight.data
    head_dim = q.shape[1] // pair.heads
    outputs, maps = [], []
    for h in range(pair.heads):
        cols = slice(h * head_dim, (h + 1) * head_dim)
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(head_dim)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        maps.append(attn)
        outputs.append(attn @ v[:, cols])
    out = np.concatenate(outputs, axis=1) @ pair.proj_out.weight.data + pair.proj_out.bias.data
    return out, np.stack(maps)


@given(heads=st.sampled_from([1, 2, 4]), width=st.integers(1, 3),
       lengths=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       t_tgt=st.integers(1, 6), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_heads_axis_matches_per_head_oracle(heads, width, lengths, t_tgt, seed):
    # the fused attention node, heads as an axis, against one loop
    # iteration per head for each sequence of a packed batch
    d = heads * width
    pair = make_pair(d=d, heads=heads, seed=seed)
    rng = np.random.default_rng(seed + 1)
    srcs = [rng.standard_normal((t, d)) for t in lengths]
    tgts = [rng.standard_normal((t_tgt, d)) for _ in lengths]
    (src, src_rows), (tgt, tgt_rows) = packed(srcs), packed(tgts)
    out, maps = pair.forward(src, tgt, src_rows, tgt_rows)
    assert out.shape == (t_tgt * len(lengths), d)
    assert maps.shape == (len(lengths), heads, t_tgt, max(lengths))
    for b, t in enumerate(lengths):
        want_out, want_maps = per_head_attention(pair, srcs[b], tgts[b])
        assert np.all(maps[b, :, :, t:] == 0.0)
        np.testing.assert_allclose(maps[b, :, :, :t], want_maps, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data[b * t_tgt:(b + 1) * t_tgt], want_out,
                                   rtol=0, atol=1e-12)


@given(heads=st.sampled_from([1, 2]), lengths=st.lists(st.integers(1, 6), min_size=1, max_size=4),
       data=st.data(), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_padded_keys_get_zero_weight(heads, lengths, data, seed):
    # inside the attention node each source is padded to the longest one:
    # every key past a source's end gets weight exactly 0, even beside
    # large real values, and each packed sequence attends as it would alone
    t_tgts = data.draw(st.lists(st.integers(1, 4), min_size=len(lengths),
                                max_size=len(lengths)))
    d = 2 * heads
    pair = make_pair(d=d, heads=heads, seed=seed)
    rng = np.random.default_rng(seed + 1)
    srcs = [rng.standard_normal((t, d)) * 30.0 for t in lengths]
    tgts = [rng.standard_normal((t, d)) for t in t_tgts]
    (src, src_rows), (tgt, tgt_rows) = packed(srcs), packed(tgts)
    out, maps = pair.forward(src, tgt, src_rows, tgt_rows)
    assert np.all(np.isfinite(maps))
    for b, (t, t_tgt) in enumerate(zip(lengths, t_tgts)):
        assert np.all(maps[b, :, :, t:] == 0.0)
        want_out, want_maps = per_head_attention(pair, srcs[b], tgts[b])
        np.testing.assert_allclose(maps[b, :, :t_tgt, :t], want_maps, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data[tgt_rows.starts[b]:tgt_rows.starts[b] + t_tgt],
                                   want_out, rtol=0, atol=1e-12)


def test_singleton_source_uniform_attention():
    pair = make_pair()
    src = rand((1, 8), 1)
    tgt = rand((5, 8), 2)
    out, maps = pair.forward(src, tgt, one(src), one(tgt))
    for m in maps[0]:
        np.testing.assert_array_equal(m, np.ones((5, 1)))
    # every output row attends to the same single source step
    for row in range(1, 5):
        np.testing.assert_array_equal(out.data[row], out.data[0])


def test_output_shape_follows_target():
    pair = make_pair()
    src, tgt = rand((9, 8), 3), rand((4, 8), 4)
    assert pair(src, tgt, one(src), one(tgt)).shape == (4, 8)


def test_attention_rows_are_distributions():
    pair = make_pair(seed=5)
    src, tgt = rand((7, 8), 6), rand((3, 8), 7)
    _, maps = pair.forward(src, tgt, one(src), one(tgt))
    for m in maps[0]:
        assert m.shape == (3, 7)
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(m >= 0.0)


def test_source_permutation_leaves_output_unchanged():
    pair = make_pair(seed=8)
    src = np.random.default_rng(9).standard_normal((6, 8))
    tgt = rand((4, 8), 10)
    base = pair(Tensor(src), tgt, RowLayout([6]), one(tgt))
    perm = np.random.default_rng(11).permutation(6)
    permuted = pair(Tensor(src[perm]), tgt, RowLayout([6]), one(tgt))
    np.testing.assert_allclose(permuted.data, base.data, atol=1e-9)


def test_dim_and_mask_mismatch_errors():
    # the projections' and attention's own operand checks: a wrong feature
    # dim, a layout of another row count, and layouts of two batch sizes;
    # empty sources never get here, RowLayout rejects them
    pair = make_pair()
    src, tgt = rand((5, 8), 1), rand((4, 8), 2)
    with pytest.raises(ShapeError):
        pair(rand((5, 6), 1), tgt, one(src), one(tgt))
    with pytest.raises(ShapeError):
        pair(src, tgt, RowLayout([4]), one(tgt))
    with pytest.raises(ShapeError):
        pair(src, tgt, RowLayout([2, 3]), one(tgt))


def test_attention_gradcheck():
    pair = make_pair(d=4, heads=2, seed=12)
    rng = np.random.default_rng(13)
    src = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    tgt = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    weight = Tensor(rng.standard_normal((3, 4)))
    # the second source is shorter, the first target shorter still
    src_rows, tgt_rows = RowLayout([3, 2]), RowLayout([1, 2])
    leaves = {"src": src, "tgt": tgt, **pair.parameters("ca")}
    check_grads(lambda: tsum(pair(src, tgt, src_rows, tgt_rows) * weight), leaves, tol=1e-5)


def test_reinforce_shapes_and_source_order():
    d = 8
    reinf = CrossmodalReinforcer(np.random.default_rng(20), d, heads=4)
    hetero = {L: rand((6, d), 1), V: rand((4, d), 2), A: rand((9, d), 3)}
    out = reinf.reinforce(hetero, {m: one(hetero[m]) for m in MODALITIES})
    assert out[L].shape == (6, 2 * d)
    assert out[V].shape == (4, 2 * d)
    assert out[A].shape == (9, 2 * d)
    assert incoming_sources(L) == (V, A)
    assert incoming_sources(V) == (L, A)
    assert incoming_sources(A) == (L, V)


def test_reinforce_deterministic_under_seed():
    hetero = {m: rand((3, 8), i) for i, m in enumerate(MODALITIES)}
    rows = {m: one(hetero[m]) for m in MODALITIES}
    a = CrossmodalReinforcer(np.random.default_rng(7), 8).reinforce(hetero, rows)
    b = CrossmodalReinforcer(np.random.default_rng(7), 8).reinforce(hetero, rows)
    for m in MODALITIES:
        np.testing.assert_array_equal(a[m].data, b[m].data)


def test_passthrough_duplicates_target():
    hetero = {m: rand((4, 8), i) for i, m in enumerate(MODALITIES)}
    out = passthrough(hetero)
    for m in MODALITIES:
        assert out[m].shape == (4, 16)
        np.testing.assert_array_equal(out[m].data[..., :8], hetero[m].data)
        np.testing.assert_array_equal(out[m].data[..., 8:], hetero[m].data)
