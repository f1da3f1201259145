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
from modal_distill.tensor import Tensor, tsum

from conftest import check_grads

L, V, A = Modality.LANGUAGE, Modality.VISION, Modality.AUDIO


def make_pair(d=8, heads=4, seed=0):
    return CrossmodalPair(np.random.default_rng(seed), d, heads)


def rand(shape, seed=0):
    """A batch of one sequence of ``shape``."""
    return Tensor(np.random.default_rng(seed).standard_normal((1, *shape)))


def valid(x):
    """The all-valid mask of a batch of sequences."""
    return np.ones(x.shape[:2])


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
    # iteration per head for each sequence of a padded batch
    d = heads * width
    pair = make_pair(d=d, heads=heads, seed=seed)
    rng = np.random.default_rng(seed + 1)
    t_pad = max(lengths)
    src = rng.standard_normal((len(lengths), t_pad, d))
    tgt = rng.standard_normal((len(lengths), t_tgt, d))
    mask = (np.arange(t_pad)[None, :] < np.array(lengths)[:, None]).astype(float)
    out, maps = pair.forward(Tensor(src), Tensor(tgt), mask)
    assert maps.shape == (len(lengths), heads, t_tgt, t_pad)
    assert np.all(maps[np.broadcast_to(mask[:, None, None, :] == 0, maps.shape)] == 0.0)
    for b, t in enumerate(lengths):
        want_out, want_maps = per_head_attention(pair, src[b, :t], tgt[b])
        np.testing.assert_allclose(maps[b, :, :, :t], want_maps, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data[b], want_out, rtol=0, atol=1e-12)


@given(heads=st.sampled_from([1, 2]), lengths=st.lists(st.integers(1, 6), min_size=1, max_size=4),
       t_tgt=st.integers(1, 4), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_padded_keys_get_zero_weight(heads, lengths, t_tgt, seed):
    # each sequence of a padded batch attends exactly as it would alone,
    # even with large values in its padded source rows
    d = 2 * heads
    pair = make_pair(d=d, heads=heads, seed=seed)
    rng = np.random.default_rng(seed + 1)
    t_pad = max(lengths)
    src = rng.standard_normal((len(lengths), t_pad, d)) * 30.0
    tgt = rng.standard_normal((len(lengths), t_tgt, d))
    mask = (np.arange(t_pad)[None, :] < np.array(lengths)[:, None]).astype(float)
    out, maps = pair.forward(Tensor(src), Tensor(tgt), mask)
    padded = np.broadcast_to(mask[:, None, None, :] == 0, maps.shape)
    assert np.all(np.isfinite(maps)) and np.all(maps[padded] == 0.0)
    for b, t in enumerate(lengths):
        want_out, want_maps = per_head_attention(pair, src[b, :t], tgt[b])
        np.testing.assert_allclose(maps[b, :, :, :t], want_maps, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data[b], want_out, rtol=0, atol=1e-12)


def test_singleton_source_uniform_attention():
    pair = make_pair()
    src = rand((1, 8), 1)
    tgt = rand((5, 8), 2)
    out, maps = pair.forward(src, tgt, valid(src))
    for m in maps[0]:
        np.testing.assert_array_equal(m, np.ones((5, 1)))
    # every output row attends to the same single source step
    for row in range(1, 5):
        np.testing.assert_array_equal(out.data[0, row], out.data[0, 0])


def test_output_shape_follows_target():
    pair = make_pair()
    src = rand((9, 8), 3)
    out = pair(src, rand((4, 8), 4), valid(src))
    assert out.shape == (1, 4, 8)


def test_attention_rows_are_distributions():
    pair = make_pair(seed=5)
    src = rand((7, 8), 6)
    _, maps = pair.forward(src, rand((3, 8), 7), valid(src))
    for m in maps[0]:
        assert m.shape == (3, 7)
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(m >= 0.0)


def test_source_permutation_leaves_output_unchanged():
    pair = make_pair(seed=8)
    src = np.random.default_rng(9).standard_normal((1, 6, 8))
    tgt = rand((4, 8), 10)
    base = pair(Tensor(src), tgt, np.ones((1, 6)))
    perm = np.random.default_rng(11).permutation(6)
    permuted = pair(Tensor(src[:, perm]), tgt, np.ones((1, 6)))
    np.testing.assert_allclose(permuted.data, base.data, atol=1e-9)


def test_dim_and_mask_mismatch_errors():
    # the projections' and attention's own operand checks; empty sources
    # never get here, make_batch rejects them
    pair = make_pair()
    with pytest.raises(ShapeError):
        pair(rand((5, 6), 1), rand((4, 8), 2), np.ones((1, 5)))
    with pytest.raises(ShapeError):
        pair(rand((5, 8), 1), rand((4, 8), 2), np.ones((1, 4)))


def test_attention_gradcheck():
    pair = make_pair(d=4, heads=2, seed=12)
    rng = np.random.default_rng(13)
    src = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    tgt = Tensor(rng.standard_normal((2, 2, 4)), requires_grad=True)
    weight = Tensor(rng.standard_normal((2, 2, 4)))
    mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])  # second source padded
    leaves = {"src": src, "tgt": tgt, **pair.parameters("ca")}
    check_grads(lambda: tsum(pair(src, tgt, mask) * weight), leaves, tol=1e-5)


def test_reinforce_shapes_and_source_order():
    d = 8
    reinf = CrossmodalReinforcer(np.random.default_rng(20), d, heads=4)
    hetero = {L: rand((6, d), 1), V: rand((4, d), 2), A: rand((9, d), 3)}
    out = reinf.reinforce(hetero, {m: valid(hetero[m]) for m in MODALITIES})
    assert out[L].shape == (1, 6, 2 * d)
    assert out[V].shape == (1, 4, 2 * d)
    assert out[A].shape == (1, 9, 2 * d)
    assert incoming_sources(L) == (V, A)
    assert incoming_sources(V) == (L, A)
    assert incoming_sources(A) == (L, V)


def test_reinforce_deterministic_under_seed():
    hetero = {m: rand((3, 8), i) for i, m in enumerate(MODALITIES)}
    masks = {m: valid(hetero[m]) for m in MODALITIES}
    a = CrossmodalReinforcer(np.random.default_rng(7), 8).reinforce(hetero, masks)
    b = CrossmodalReinforcer(np.random.default_rng(7), 8).reinforce(hetero, masks)
    for m in MODALITIES:
        np.testing.assert_array_equal(a[m].data, b[m].data)


def test_passthrough_duplicates_target():
    hetero = {m: rand((4, 8), i) for i, m in enumerate(MODALITIES)}
    out = passthrough(hetero)
    for m in MODALITIES:
        assert out[m].shape == (1, 4, 16)
        np.testing.assert_array_equal(out[m].data[..., :8], hetero[m].data)
        np.testing.assert_array_equal(out[m].data[..., 8:], hetero[m].data)
