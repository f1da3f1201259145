"""Engine-level tests: forward values against hand or numpy oracles, every
backward pass against central finite differences."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modal_distill.errors import ShapeError
from modal_distill.tensor import (
    Tensor,
    absolute,
    affine,
    attention,
    concat,
    conv1d,
    cosine,
    gram,
    l2_normalize,
    margin_hinge,
    mean_pool_time,
    reshape,
    RowLayout,
    sigmoid,
    softmax,
    sq_distance,
    tmean,
    tsum,
    two_layer,
)

from conftest import check_grads, numeric_grad, rel_err


def make(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def one(t):
    """The layout of a single sequence of ``t`` steps."""
    return RowLayout([t])


def padded(x, rows):
    """Packed rows ``[N, d]`` as a zero-padded ``[B, t_pad, d]`` batch."""
    out = np.zeros((rows.lengths.size, rows.t_pad, x.shape[-1]))
    out[rows.seq, rows.pos] = x
    return out


def padded_conv(x_pad, kernel, bias):
    """The convolution of a zero-padded ``[B, T, d_in]`` batch as one
    product of its im2col matrix (row t holds the window centred on step t)
    with the flattened kernel: the padded computation the packed one
    replaces.  Zero rows after a sequence's end act as its padding, so
    every real row is that sequence's own same-padding result."""
    w, d_in, d_out = kernel.shape
    t = x_pad.shape[1]
    ext = np.pad(x_pad, ((0, 0), (w // 2, w // 2), (0, 0)))
    col = np.concatenate([ext[:, k:k + t] for k in range(w)], axis=-1)
    return col @ kernel.reshape(w * d_in, d_out) + bias


def padded_attention(q, k, v, heads, lengths):
    """Multi-head attention of padded ``[B, T, d]`` batches with keys past
    each source's length masked out: the padded computation packed
    attention replaces."""
    b, t_q, d = q.shape
    hd = d // heads
    split = lambda x: x.reshape(b, -1, heads, hd).transpose(0, 2, 1, 3)
    scores = split(q) @ np.swapaxes(split(k), -1, -2) / np.sqrt(hd)
    valid = np.arange(k.shape[1]) < np.asarray(lengths)[:, None]
    scores = np.where(valid[:, None, None, :], scores, -np.inf)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    maps = e / e.sum(axis=-1, keepdims=True)
    return (maps @ split(v)).transpose(0, 2, 1, 3).reshape(b, t_q, d), maps


# ---- forward fixtures ----
# The engine's matrix products are ``affine`` (``x @ w``, plus a bias when
# given) and ``gram`` (``x @ x.T``).


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(affine(eye, m).data, m.data)
    np.testing.assert_array_equal(gram(eye).data, np.eye(2))


def test_matmul_forced_zero():
    a = Tensor([[1.0, 0.0]])
    b = Tensor([[0.0], [5.0]])
    np.testing.assert_array_equal(affine(a, b).data, [[0.0]])
    # orthogonal rows: the off-diagonal entries are exactly zero
    np.testing.assert_array_equal(gram(Tensor([[1.0, 0.0], [0.0, 5.0]])).data,
                                  [[1.0, 0.0], [0.0, 25.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_matmul_batched_matches_numpy():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 2, 4))
    b = rng.standard_normal((4, 5))
    np.testing.assert_array_equal(affine(Tensor(a), Tensor(b)).data, a @ b)
    # gram multiplies by a contiguous copy of x.T, not numpy's symmetric path
    x = rng.standard_normal((6, 4))
    np.testing.assert_array_equal(gram(Tensor(x)).data, x @ x.T.copy())


def test_matmul_batched_shape_errors():
    with pytest.raises(ShapeError) as exc:
        affine(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 5, 3))))
    assert "(2, 3, 4)" in str(exc.value) and "(2, 5, 3)" in str(exc.value)
    with pytest.raises(ShapeError, match=r"\(2, 3, 4\)"):
        gram(Tensor(np.zeros((2, 3, 4))))


def test_softmax_symmetry():
    out = softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_softmax_large_inputs_stable():
    out = softmax(Tensor([1000.0, 1000.0]))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-12)


def test_softmax_empty_axis_errors():
    with pytest.raises(ShapeError):
        softmax(Tensor(np.zeros((3, 0))))


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_sum_to_one(values):
    out = softmax(Tensor(values)).data
    assert abs(out.sum() - 1.0) <= 1e-9
    assert np.all((out >= 0.0) & (out <= 1.0))


def test_conv1d_width_one_identity():
    # only the centre tap is nonzero: a width-one identity
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((6, 3)))
    kernel = Tensor(np.stack([np.zeros((3, 3)), np.eye(3), np.zeros((3, 3))]))
    np.testing.assert_allclose(conv1d(x, kernel, Tensor(np.zeros(3)), one(6)).data, x.data,
                               atol=1e-15)


def test_conv1d_preserves_temporal_length():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((5, 2)))
    kernel = Tensor(rng.standard_normal((3, 2, 4)))
    assert conv1d(x, kernel, Tensor(np.zeros(4)), one(5)).shape == (5, 4)
    rows = RowLayout([2, 3])
    assert conv1d(x, kernel, Tensor(np.zeros(4)), rows).shape == (5, 4)
    with pytest.raises(ShapeError):
        conv1d(x, kernel, Tensor(np.zeros(4)), one(4))
    with pytest.raises(ShapeError):  # the conv is width 3, one tap per neighbour
        conv1d(x, Tensor(rng.standard_normal((5, 2, 4))), Tensor(np.zeros(4)), one(5))


def test_conv1d_matches_direct_convolution():
    # oracle: explicit loop over output steps and taps with zero padding
    rng = np.random.default_rng(2)
    t_in, d_in, d_out, w = 7, 3, 4, 3
    x = rng.standard_normal((t_in, d_in))
    k = rng.standard_normal((w, d_in, d_out))
    b = rng.standard_normal(d_out)
    expected = np.zeros((t_in, d_out))
    pad = w // 2
    for t in range(t_in):
        for tap in range(w):
            src = t + tap - pad
            if 0 <= src < t_in:
                expected[t] += x[src] @ k[tap]
        expected[t] += b
    got = conv1d(Tensor(x), Tensor(k), Tensor(b), one(t_in)).data
    np.testing.assert_allclose(got, expected, atol=1e-12)


@given(lengths=st.lists(st.integers(1, 7), min_size=1, max_size=5), seed=st.integers(0, 2**16))
@example(lengths=[1, 2, 6, 1], seed=0)
@settings(max_examples=60, deadline=None)
def test_packed_conv_matches_padded_conv(lengths, seed):
    # every real row of the packed conv is the padded conv's row, sequences
    # of one and two steps included
    rng = np.random.default_rng(seed)
    rows = RowLayout(lengths)
    x = rng.standard_normal((rows.size, 3))
    k = rng.standard_normal((3, 3, 4))
    b = rng.standard_normal(4)
    got = conv1d(Tensor(x), Tensor(k), Tensor(b), rows).data
    want = padded_conv(padded(x, rows), k, b)[rows.seq, rows.pos]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_row_layout_neighbours_stay_in_their_sequence():
    rows = RowLayout([3, 1, 2])
    np.testing.assert_array_equal(rows.starts, [0, 3, 4])
    np.testing.assert_array_equal(rows.seq, [0, 0, 0, 1, 2, 2])
    np.testing.assert_array_equal(rows.pos, [0, 1, 2, 0, 0, 1])
    assert (rows.size, rows.t_pad) == (6, 3)
    np.testing.assert_array_equal(rows.prev, [6, 0, 1, 6, 6, 4])
    np.testing.assert_array_equal(rows.next, [1, 2, 6, 6, 5, 6])
    for bad in ([], [2, 0], [[1, 2]]):
        with pytest.raises(ShapeError):
            RowLayout(bad)


def test_cosine_fixed_points():
    u = Tensor([1.0, 2.0, -3.0])
    assert cosine(u, Tensor([1.0, 2.0, -3.0])).item() == pytest.approx(1.0, abs=1e-12)
    assert cosine(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])).item() == pytest.approx(0.0, abs=1e-12)
    assert cosine(u, Tensor([-1.0, -2.0, 3.0])).item() == pytest.approx(-1.0, abs=1e-12)


def test_cosine_zero_vector_returns_zero():
    out = cosine(Tensor([0.0, 0.0]), Tensor([1.0, 2.0]))
    assert out.item() == 0.0
    out.backward()  # must stay finite


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=6),
       st.lists(st.floats(-10, 10), min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_cosine_bounded(u, v):
    n = min(len(u), len(v))
    val = cosine(Tensor(u[:n]), Tensor(v[:n])).item()
    assert -1.0 - 1e-9 <= val <= 1.0 + 1e-9


def test_cosine_along_last_axis():
    rng = np.random.default_rng(3)
    u = rng.standard_normal((2, 3, 4))
    v = rng.standard_normal((2, 3, 4))
    got = cosine(Tensor(u), Tensor(v)).data
    assert got.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        assert got[idx] == pytest.approx(cosine(Tensor(u[idx]), Tensor(v[idx])).item(),
                                         abs=1e-15)


@given(lengths=st.lists(st.integers(1, 7), min_size=1, max_size=5), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_masked_mean_pool_ignores_padding(lengths, seed):
    # the segment mean of packed rows is the masked mean of the padded
    # batch, whatever its padded rows hold
    rng = np.random.default_rng(seed)
    rows = RowLayout(lengths)
    x = rng.standard_normal((rows.size, 3))
    x_pad = np.full((len(lengths), rows.t_pad, 3), 99.0)
    x_pad[rows.seq, rows.pos] = x
    mask = (np.arange(rows.t_pad) < np.array(lengths)[:, None]).astype(float)
    want = (x_pad * mask[..., None]).sum(axis=1) / mask.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(mean_pool_time(Tensor(x), rows).data, want, rtol=0, atol=1e-14)


def test_mean_pool_time_batch_and_errors():
    x = np.arange(8.0).reshape(4, 2)
    out = mean_pool_time(Tensor(x), RowLayout([3, 1]))
    np.testing.assert_array_equal(out.data, [x[:3].mean(axis=0), x[3]])
    with pytest.raises(ShapeError):
        mean_pool_time(Tensor(x), RowLayout([3, 2]))
    with pytest.raises(ShapeError, match="lengths >= 1"):
        RowLayout([4, 0])


def test_margin_hinge_rejects_bad_shapes():
    cos = Tensor(np.zeros((2, 2)))
    mods, classes = np.array([0, 1]), np.array([0, 0])
    with pytest.raises(ShapeError):
        margin_hinge(Tensor(np.zeros((3, 3))), mods, classes, 0.2)
    with pytest.raises(ShapeError):
        margin_hinge(cos, mods, np.array([0, 0, 1]), 0.2)


def test_margin_hinge_non_finite_cosine_gives_nan():
    # anchors 0 (L, 0) and 2 (L, 1); 1 (V, 0) is 0's positive, 2 its negative
    cos = np.full((3, 3), 0.5)
    mods, classes = np.array([0, 1, 0]), np.array([0, 0, 1])
    for bad in (np.nan, np.inf, -np.inf):
        c = Tensor(cos.copy(), requires_grad=True)
        c.data[0, 2] = bad
        loss, count = margin_hinge(c, mods, classes, 0.2)
        assert count == 1 and np.isnan(loss.item())
        loss.backward()
        assert np.isnan(c.grad).all()


def test_two_layer_keeps_nan():
    # identity weights, so the output is the hidden relu of the input
    x = Tensor(np.array([[np.nan], [-1.0], [-0.0], [2.0]]), requires_grad=True)
    one, zero = Tensor(np.eye(1), requires_grad=True), Tensor(np.zeros(1), requires_grad=True)
    out = two_layer(x, one, zero, one, zero)
    np.testing.assert_array_equal(out.data[:, 0], [np.nan, 0.0, 0.0, 2.0])
    assert not np.signbit(out.data[2, 0])
    tsum(out).backward()
    np.testing.assert_array_equal(x.grad[:, 0], [0.0, 0.0, 0.0, 1.0])
    assert np.isnan(one.grad).all()  # the NaN reaches the weights' gradient


def test_fused_ops_match_their_numpy_chains():
    # each fused node runs the numpy operations of the node chain it
    # replaced, in the same order, so its forward values are bit-identical
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 5, 4))
    y = rng.standard_normal((2, 5, 4))
    w1, b1 = rng.standard_normal((4, 6)), rng.standard_normal(6)
    w2, b2 = rng.standard_normal((6, 3)), rng.standard_normal(3)
    fused = two_layer(Tensor(x), Tensor(w1), Tensor(b1), Tensor(w2), Tensor(b2)).data
    np.testing.assert_array_equal(fused, np.maximum(x @ w1 + b1, 0.0) @ w2 + b2)
    np.testing.assert_array_equal(sq_distance(Tensor(x), Tensor(y)).data,
                                  ((x - y) * (x - y)).sum())
    eps = 1e-12
    nx = np.sqrt(np.maximum((x * x).sum(axis=-1), eps * eps))
    ny = np.sqrt(np.maximum((y * y).sum(axis=-1), eps * eps))
    np.testing.assert_array_equal(cosine(Tensor(x), Tensor(y)).data,
                                  (x * y).sum(axis=-1) / np.maximum(nx * ny, eps))
    norms = np.sqrt(np.maximum((x * x).sum(axis=-1, keepdims=True), 1e-24))
    np.testing.assert_array_equal(l2_normalize(Tensor(x)).data, x / norms)
    rows, packed_x = RowLayout([3, 7]), x.reshape(10, 4)
    np.testing.assert_array_equal(mean_pool_time(Tensor(packed_x), rows).data,
                                  np.add.reduceat(packed_x, [0, 3], axis=0) / [[3], [7]])


def test_fused_op_shape_errors():
    x = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError):
        two_layer(x, Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)),
                  Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))
    with pytest.raises(ShapeError):
        sq_distance(x, Tensor(np.zeros((2, 3, 5))))
    with pytest.raises(ShapeError):
        mean_pool_time(x, RowLayout([1, 2]))
    with pytest.raises(ShapeError):
        l2_normalize(Tensor(3.0))


def test_affine_matches_matmul_plus_bias():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 4))
    w = rng.standard_normal((4, 5))
    b = rng.standard_normal(5)
    np.testing.assert_array_equal(affine(Tensor(x), Tensor(w), Tensor(b)).data, x @ w + b)
    np.testing.assert_array_equal(affine(Tensor(x[0]), Tensor(w)).data, x[0] @ w)
    with pytest.raises(ShapeError):
        affine(Tensor(x), Tensor(w.T))
    with pytest.raises(ShapeError):
        affine(Tensor(x), Tensor(w), Tensor(b[:4]))


def test_attention_shape_errors():
    q, kv = Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 4)))
    q_rows, kv_rows = RowLayout([2, 1]), RowLayout([3, 2])
    attention(q, kv, kv, 2, q_rows, kv_rows)
    with pytest.raises(ShapeError):
        attention(q, kv, kv, 2, q_rows, RowLayout([3, 1]))  # the layout misses a key
    with pytest.raises(ShapeError):
        attention(q, kv, kv, 2, q_rows, RowLayout([5]))  # another batch
    with pytest.raises(ShapeError):
        attention(q, kv, Tensor(np.zeros((4, 4))), 2, q_rows, kv_rows)


@given(heads=st.sampled_from([1, 2, 4]), q_lengths=st.lists(st.integers(1, 5), min_size=1,
                                                             max_size=4),
       data=st.data(), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_packed_attention_matches_padded_attention(heads, q_lengths, data, seed):
    # real rows equal the padded computation, and every key past its
    # sequence's end gets weight exactly 0
    k_lengths = data.draw(st.lists(st.integers(1, 5), min_size=len(q_lengths),
                                   max_size=len(q_lengths)))
    rng = np.random.default_rng(seed)
    q_rows, k_rows = RowLayout(q_lengths), RowLayout(k_lengths)
    d = 2 * heads
    q = rng.standard_normal((q_rows.size, d))
    k = rng.standard_normal((k_rows.size, d)) * 10.0
    v = rng.standard_normal((k_rows.size, d))
    out, maps = attention(Tensor(q), Tensor(k), Tensor(v), heads, q_rows, k_rows)
    want_out, want_maps = padded_attention(padded(q, q_rows), padded(k, k_rows),
                                           padded(v, k_rows), heads, k_lengths)
    np.testing.assert_allclose(out.data, want_out[q_rows.seq, q_rows.pos], rtol=0, atol=1e-12)
    for b, (t_q, t_k) in enumerate(zip(q_lengths, k_lengths)):
        np.testing.assert_allclose(maps[b, :, :t_q, :t_k], want_maps[b, :, :t_q, :t_k],
                                   rtol=0, atol=1e-12)
        assert np.all(maps[b, :, :, t_k:] == 0.0)


def test_conv1d_batch_matches_sequences_alone():
    # each packed sequence keeps its own same-padding result: no tap reads
    # a neighbouring sequence's rows
    rng = np.random.default_rng(4)
    k = Tensor(rng.standard_normal((3, 2, 3)))
    b = Tensor(rng.standard_normal(3))
    short, long = rng.standard_normal((2, 2)), rng.standard_normal((5, 2))
    out = conv1d(Tensor(np.vstack([short, long])), k, b, RowLayout([2, 5]))
    np.testing.assert_allclose(out.data[:2], conv1d(Tensor(short), k, b, one(2)).data,
                               atol=1e-15)
    np.testing.assert_allclose(out.data[2:], conv1d(Tensor(long), k, b, one(5)).data,
                               atol=1e-15)


# ---- backward: finite differences on every differentiable op ----


@pytest.mark.parametrize("seed", range(20))
def test_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    a = make(rng, 3, 4)
    b = make(rng, 3, 4)
    c = make(rng, 4, 2)
    v = make(rng, 5)
    w = make(rng, 5)
    row = make(rng, 1, 4)
    batch = make(rng, 2, 3, 4)
    out_w = Tensor(rng.standard_normal((2, 3, 2)))
    conv_k = make(rng, 3, 4, 2)
    bias = make(rng, 2)
    # packed sequences of 3, 1 and 2 steps (both conv taps of the single
    # step read padding), and keys of 2, 3 and 1
    rows, key_rows = RowLayout([3, 1, 2]), RowLayout([2, 3, 1])
    packed = make(rng, 6, 4)
    packed_c = make(rng, 6, 4)
    packed_w = Tensor(rng.standard_normal((6, 2)))
    keys = make(rng, 6, 4)
    values = make(rng, 6, 4)
    mix_w = Tensor(rng.standard_normal((6, 4)))
    pool_w = Tensor(rng.standard_normal((3, 4)))
    cos = make(rng, 6, 6)
    hidden_w = make(rng, 2, 3)
    hidden_b = make(rng, 3)
    out_3 = Tensor(rng.standard_normal((2, 3, 3)))
    zero_row = Tensor(np.vstack([np.zeros(4), rng.standard_normal((2, 4))]))
    w_rows = Tensor(rng.standard_normal(3))
    mods, classes = np.tile(np.arange(3), 2), np.repeat([0, 1], 3)

    cases = {
        "add": (lambda: tsum(a + b), {"a": a, "b": b}),
        "add_broadcast": (lambda: tsum(a + row), {"a": a, "row": row}),
        "sub": (lambda: tsum(a - b), {"a": a, "b": b}),
        "mul": (lambda: tsum(mul_ab()), {"a": a, "b": b}),
        "reshape": (lambda: tsum(reshape(a, (4, 3)) * 2.0), {"a": a}),
        "sigmoid": (lambda: tsum(sigmoid(a)), {"a": a}),
        "abs_shifted": (lambda: tsum(absolute(a + 0.5)), {"a": a}),
        "mean": (lambda: tmean(a * a), {"a": a}),
        "softmax": (lambda: tsum(softmax(a) * b), {"a": a, "b": b}),
        "concat": (lambda: tsum(mul_concat()), {"a": a, "b": b}),
        "gram": (lambda: tsum(gram(a) * out_3.data[0]), {"a": a}),
        "gram_wide": (lambda: tsum(gram(c) * cos.data[:4, :4]), {"c": c}),
        "gram_margin": (lambda: margin_hinge(gram(l2_normalize(packed)), mods, classes,
                                             0.5)[0], {"packed": packed}),
        "cosine": (lambda: cosine(v, w), {"v": v, "w": w}),
        "cosine_zero_row": (lambda: tsum(cosine(zero_row, b) * w_rows), {"b": b}),
        "l2_normalize": (lambda: tsum(l2_normalize(a) * b), {"a": a, "b": b}),
        "sq_distance": (lambda: sq_distance(packed, packed_c) * 0.5,
                        {"packed": packed, "packed_c": packed_c}),
        "two_layer": (lambda: tsum(two_layer(a, c, bias, hidden_w, hidden_b) * out_3),
                      {"a": a, "c": c, "bias": bias, "hidden_w": hidden_w, "hidden_b": hidden_b}),
        "two_layer_3d": (lambda: tsum(two_layer(batch, c, bias, hidden_w, hidden_b) * out_3),
                         {"batch": batch, "c": c, "bias": bias, "hidden_w": hidden_w,
                          "hidden_b": hidden_b}),
        "mean_pool": (lambda: tsum(mean_pool_time(a, one(3)) * row), {"a": a, "row": row}),
        "mean_pool_packed": (lambda: tsum(mean_pool_time(packed, rows) * pool_w),
                             {"packed": packed}),
        "cosine_rows": (lambda: tsum(cosine(a, b)), {"a": a, "b": b}),
        "conv1d_packed": (lambda: tsum(conv1d(packed, conv_k, bias, rows) * 0.5),
                          {"packed": packed, "conv_k": conv_k, "bias": bias}),
        "conv1d_weighted": (lambda: tsum(conv1d(packed, conv_k, bias, rows) * packed_w),
                            {"packed": packed, "conv_k": conv_k, "bias": bias}),
        "affine": (lambda: tsum(affine(a, c) * out_w.data[0]), {"a": a, "c": c}),
        "affine_bias": (lambda: tsum(affine(a, c, bias) * out_w.data[1]),
                        {"a": a, "c": c, "bias": bias}),
        "affine_3d": (lambda: tsum(affine(batch, c) * out_w), {"batch": batch, "c": c}),
        "affine_3d_bias": (lambda: tsum(affine(batch, c, bias) * out_w),
                           {"batch": batch, "c": c, "bias": bias}),
        "attention": (lambda: tsum(attention(packed, keys, values, 2, rows, key_rows)[0]
                                   * mix_w),
                      {"packed": packed, "keys": keys, "values": values}),
        "margin_hinge": (lambda: margin_hinge(cos, mods, classes, 0.5)[0] * 3.0, {"cos": cos}),
    }

    def mul_ab():
        return a * b

    def mul_concat():
        return concat([a, b], axis=1) * concat([b, a], axis=1)

    for name, (build, leaves) in cases.items():
        check_grads(build, leaves, tol=1e-5)


@pytest.mark.parametrize("seed", range(5))
def test_matmul_gradient_tight(seed):
    rng = np.random.default_rng(100 + seed)
    a = make(rng, 3, 4)
    b = make(rng, 4, 2)
    w = Tensor(rng.standard_normal((3, 3)))
    check_grads(lambda: tsum(affine(a, b)), {"a": a, "b": b}, tol=1e-6)
    check_grads(lambda: tsum(gram(a) * w), {"a": a}, tol=1e-6)


@pytest.mark.parametrize("seed", range(5))
def test_softmax_gradient_tight(seed):
    rng = np.random.default_rng(200 + seed)
    x = make(rng, 6)
    w = Tensor(rng.standard_normal(6))
    check_grads(lambda: tsum(softmax(x) * w), {"x": x}, tol=1e-6)


@pytest.mark.parametrize("seed", range(5))
def test_conv1d_gradient_tight(seed):
    rng = np.random.default_rng(300 + seed)
    x = make(rng, 6, 3)
    k = make(rng, 3, 3, 2)
    b = make(rng, 2)
    w = Tensor(rng.standard_normal((6, 2)))
    for rows in (one(6), RowLayout([1, 2, 3]), RowLayout([2, 1, 1, 2])):
        check_grads(lambda: tsum(conv1d(x, k, b, rows) * w), {"x": x, "k": k, "b": b}, tol=1e-6)


def test_masked_pool_gradient():
    # the segment mean of sequences of unequal length
    rng = np.random.default_rng(7)
    x = make(rng, 8, 3)
    w = Tensor(rng.standard_normal((2, 3)))
    check_grads(lambda: tsum(mean_pool_time(x, RowLayout([3, 5])) * w), {"x": x}, tol=1e-6)


# ---- graph semantics ----


def test_shared_subexpression_accumulates():
    x = Tensor(3.0, requires_grad=True)
    y = x * x + x * x
    y.backward()
    assert x.grad == pytest.approx(12.0)
    # oracle: perturb the shared leaf directly
    num = numeric_grad(lambda: (x * x + x * x).item(), x)
    assert rel_err(np.asarray(12.0), num) < 1e-8


def test_diamond_graph_gradient():
    x = Tensor(2.0, requires_grad=True)
    s = x + x
    z = s * s
    z.backward()
    assert x.grad == pytest.approx(16.0)


def test_backward_requires_scalar():
    with pytest.raises(ShapeError):
        Tensor(np.zeros(3), requires_grad=True).backward()


def test_backward_frees_interior_gradients():
    x = Tensor([1.0, 2.0], requires_grad=True)
    hidden = x * x
    out = tsum(hidden * 3.0)
    out.backward()
    np.testing.assert_array_equal(x.grad, [6.0, 12.0])
    assert hidden.grad is None
    assert out.grad == 1.0


def test_grads_accumulate_until_reset():
    x = Tensor(4.0, requires_grad=True)
    (x * x).backward()
    (x * x).backward()
    assert x.grad == pytest.approx(16.0)  # two passes, no zeroing in between


def test_no_tape_recorded_without_requires_grad():
    a = Tensor([1.0, 2.0])
    out = a * a + a
    assert out._parents == () and not out.requires_grad


def test_forward_values_stay_finite():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((4, 4)) * 20.0)
    eye, zero = Tensor(np.eye(4)), Tensor(np.zeros(4))
    for op in (lambda t: two_layer(t, eye, zero, eye, zero), sigmoid, softmax):
        assert np.all(np.isfinite(op(x).data))
