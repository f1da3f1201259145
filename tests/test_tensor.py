"""Engine-level tests: forward values against hand or numpy oracles, every
backward pass against central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modal_distill.errors import ConfigError, ShapeError
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
    masked_sq_distance,
    mean_pool_time,
    reshape,
    sigmoid,
    softmax,
    tmean,
    tsum,
    two_layer,
)

from conftest import check_grads, numeric_grad, rel_err


def make(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


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
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((6, 3)))
    kernel = Tensor(np.eye(3).reshape(1, 3, 3))
    np.testing.assert_allclose(conv1d(x, kernel, Tensor(np.zeros(3))).data, x.data, atol=1e-15)


def test_conv1d_preserves_temporal_length():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((5, 2)))
    kernel = Tensor(rng.standard_normal((3, 2, 4)))
    assert conv1d(x, kernel, Tensor(np.zeros(4))).shape == (5, 4)


def test_conv1d_even_width_rejected():
    with pytest.raises(ConfigError):
        conv1d(Tensor(np.zeros((4, 2))), Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros(3)))


def test_conv1d_matches_direct_convolution():
    # oracle: explicit loop over output steps and taps with zero padding
    rng = np.random.default_rng(2)
    t_in, d_in, d_out, w = 7, 3, 4, 5
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
    got = conv1d(Tensor(x), Tensor(k), Tensor(b)).data
    np.testing.assert_allclose(got, expected, atol=1e-12)


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


def test_masked_mean_pool_ignores_padding():
    x = np.zeros((4, 2))
    x[:2] = [[1.0, 2.0], [3.0, 4.0]]
    x[2:] = 99.0  # padded garbage must not leak through the mask
    mask = np.array([1.0, 1.0, 0.0, 0.0])
    out = mean_pool_time(Tensor(x[None]), mask[None])
    np.testing.assert_allclose(out.data, [[2.0, 3.0]], atol=1e-15)


def test_mean_pool_time_batch_and_errors():
    x = np.arange(12.0).reshape(2, 3, 2)
    mask = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
    out = mean_pool_time(Tensor(x), mask)
    np.testing.assert_allclose(out.data, [x[0].mean(axis=0), x[1, 0]], atol=1e-15)
    with pytest.raises(ShapeError):
        mean_pool_time(Tensor(x), mask[:, :2])
    with pytest.raises(ShapeError, match="no valid step"):
        mean_pool_time(Tensor(x), np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


def test_margin_hinge_rejects_bad_alpha_and_shapes():
    cos = Tensor(np.zeros((2, 2)))
    mods, classes = np.array([0, 1]), np.array([0, 0])
    for alpha in (0.0, 2.0, -0.1, float("nan")):
        with pytest.raises(ConfigError, match="alpha"):
            margin_hinge(cos, mods, classes, alpha)
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
    mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0, 1.0]])
    fused = two_layer(Tensor(x), Tensor(w1), Tensor(b1), Tensor(w2), Tensor(b2)).data
    np.testing.assert_array_equal(fused, np.maximum(x @ w1 + b1, 0.0) @ w2 + b2)
    masked = (x - y) * mask[..., None]
    np.testing.assert_array_equal(masked_sq_distance(Tensor(x), Tensor(y), mask).data,
                                  (masked * masked).sum())
    eps = 1e-12
    nx = np.sqrt(np.maximum((x * x).sum(axis=-1), eps * eps))
    ny = np.sqrt(np.maximum((y * y).sum(axis=-1), eps * eps))
    np.testing.assert_array_equal(cosine(Tensor(x), Tensor(y)).data,
                                  (x * y).sum(axis=-1) / np.maximum(nx * ny, eps))
    norms = np.sqrt(np.maximum((x * x).sum(axis=-1, keepdims=True), 1e-24))
    np.testing.assert_array_equal(l2_normalize(Tensor(x), 1e-24).data, x / norms)
    weights = mask / mask.sum(axis=-1, keepdims=True)
    np.testing.assert_array_equal(mean_pool_time(Tensor(x), mask).data,
                                  (weights[:, None, :] @ x)[:, 0])


def test_fused_op_shape_errors():
    x = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError):
        two_layer(x, Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)),
                  Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))
    with pytest.raises(ShapeError):
        masked_sq_distance(x, Tensor(np.zeros((2, 3, 5))), np.ones((2, 3)))
    with pytest.raises(ShapeError):
        masked_sq_distance(x, x, np.ones((2, 4)))
    with pytest.raises(ShapeError):
        l2_normalize(Tensor(3.0), 1e-24)


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
    q, kv = Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 5, 4)))
    with pytest.raises(ShapeError):
        attention(q, kv, kv, 3, np.zeros((2, 5)))  # 4 features over 3 heads
    with pytest.raises(ShapeError):
        attention(q, kv, kv, 2, np.zeros((2, 4)))  # bias misses a key
    with pytest.raises(ShapeError):
        attention(q, kv, Tensor(np.zeros((2, 4, 4))), 2, np.zeros((2, 5)))


def test_conv1d_batch_matches_sequences_alone():
    # a zero-padded shorter sequence keeps its same-padding result on its
    # valid rows
    rng = np.random.default_rng(4)
    k = Tensor(rng.standard_normal((3, 2, 3)))
    b = Tensor(rng.standard_normal(3))
    short, long = rng.standard_normal((2, 2)), rng.standard_normal((5, 2))
    padded = np.zeros((2, 5, 2))
    padded[0, :2], padded[1] = short, long
    out = conv1d(Tensor(padded), k, b)
    np.testing.assert_allclose(out.data[0, :2], conv1d(Tensor(short), k, b).data, atol=1e-15)
    np.testing.assert_allclose(out.data[1], conv1d(Tensor(long), k, b).data, atol=1e-15)


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
    keys = make(rng, 2, 5, 4)
    values = make(rng, 2, 5, 4)
    mix_w = Tensor(rng.standard_normal((2, 3, 4)))
    key_bias = np.zeros((2, 5))
    key_bias[1, 3:] = -1e30  # the second sequence has two padded keys
    cos = make(rng, 6, 6)
    batch_c = make(rng, 2, 3, 4)
    pad_mask = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])  # the second sequence is padded
    conv_wide = make(rng, 5, 4, 2)  # wider than the 3 steps, so some taps read only padding
    hidden_w = make(rng, 2, 3)
    hidden_b = make(rng, 3)
    out_3 = Tensor(rng.standard_normal((2, 3, 3)))
    zero_row = Tensor(np.vstack([np.zeros(4), rng.standard_normal((2, 4))]))
    w_rows = Tensor(rng.standard_normal(3))
    mods, classes = np.tile(np.arange(3), 2), np.repeat([0, 1], 3)
    rows = make(rng, 6, 4)

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
        "gram_margin": (lambda: margin_hinge(gram(l2_normalize(rows, 1e-24)), mods, classes,
                                             0.5)[0], {"rows": rows}),
        "cosine": (lambda: cosine(v, w), {"v": v, "w": w}),
        "cosine_zero_row": (lambda: tsum(cosine(zero_row, b) * w_rows), {"b": b}),
        "l2_normalize": (lambda: tsum(l2_normalize(a, 1e-24) * b), {"a": a, "b": b}),
        "masked_sq_distance": (lambda: masked_sq_distance(batch, batch_c, pad_mask) * 0.5,
                               {"batch": batch, "batch_c": batch_c}),
        "two_layer": (lambda: tsum(two_layer(a, c, bias, hidden_w, hidden_b) * out_3),
                      {"a": a, "c": c, "bias": bias, "hidden_w": hidden_w, "hidden_b": hidden_b}),
        "two_layer_3d": (lambda: tsum(two_layer(batch, c, bias, hidden_w, hidden_b) * out_3),
                         {"batch": batch, "c": c, "bias": bias, "hidden_w": hidden_w,
                          "hidden_b": hidden_b}),
        "mean_pool": (lambda: tsum(mean_pool_time(a, np.ones(3)) * row), {"a": a, "row": row}),
        "cosine_rows": (lambda: tsum(cosine(a, b)), {"a": a, "b": b}),
        "conv1d_batch": (lambda: tsum(conv1d(batch, conv_k, bias) * 0.5),
                         {"batch": batch, "conv_k": conv_k, "bias": bias}),
        "conv1d_wide_bias": (lambda: tsum(conv1d(batch, conv_wide, bias) * out_w),
                             {"batch": batch, "conv_wide": conv_wide, "bias": bias}),
        "affine": (lambda: tsum(affine(a, c) * out_w.data[0]), {"a": a, "c": c}),
        "affine_bias": (lambda: tsum(affine(a, c, bias) * out_w.data[1]),
                        {"a": a, "c": c, "bias": bias}),
        "affine_3d": (lambda: tsum(affine(batch, c) * out_w), {"batch": batch, "c": c}),
        "affine_3d_bias": (lambda: tsum(affine(batch, c, bias) * out_w),
                           {"batch": batch, "c": c, "bias": bias}),
        "attention": (lambda: tsum(attention(batch, keys, values, 2, key_bias)[0] * mix_w),
                      {"batch": batch, "keys": keys, "values": values}),
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
    check_grads(lambda: tsum(conv1d(x, k, b) * 0.5), {"x": x, "k": k, "b": b}, tol=1e-6)


def test_masked_pool_gradient():
    rng = np.random.default_rng(7)
    x = make(rng, 2, 5, 3)
    mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0, 1.0]])
    w = Tensor(rng.standard_normal((2, 3)))
    check_grads(lambda: tsum(mean_pool_time(x, mask) * w), {"x": x}, tol=1e-6)


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
