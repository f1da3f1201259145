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
    clamp_min,
    concat,
    conv1d,
    cosine,
    frobenius_sq,
    matmul,
    mean_pool_time,
    relu,
    reshape,
    sigmoid,
    softmax,
    sqrt,
    stop_gradient,
    take_rc,
    tmean,
    transpose,
    tsum,
)

from conftest import check_grads, numeric_grad, rel_err


def make(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


# ---- forward fixtures ----


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(matmul(eye, m).data, m.data)


def test_matmul_forced_zero():
    a = Tensor([[1.0, 0.0]])
    b = Tensor([[0.0], [5.0]])
    np.testing.assert_array_equal(matmul(a, b).data, [[0.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_matmul_batched_matches_numpy():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 2, 4))
    b = rng.standard_normal((4, 5))
    np.testing.assert_array_equal(matmul(Tensor(a), Tensor(b)).data, a @ b)
    np.testing.assert_array_equal(transpose(Tensor(a)).data, np.swapaxes(a, 1, 2))


def test_matmul_batched_shape_errors():
    with pytest.raises(ShapeError) as exc:
        matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 5, 3))))
    assert "(2, 3, 4)" in str(exc.value) and "(2, 5, 3)" in str(exc.value)
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))


def test_softmax_symmetry():
    out = softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_softmax_large_inputs_stable():
    out = softmax(Tensor([1000.0, 1000.0]))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-12)


def test_softmax_empty_axis_errors():
    with pytest.raises(ShapeError):
        softmax(Tensor(np.zeros((3, 0))), axis=-1)


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
    np.testing.assert_allclose(conv1d(x, kernel).data, x.data, atol=1e-15)


def test_conv1d_preserves_temporal_length():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((5, 2)))
    kernel = Tensor(rng.standard_normal((3, 2, 4)))
    assert conv1d(x, kernel).shape == (5, 4)


def test_conv1d_even_width_rejected():
    with pytest.raises(ConfigError):
        conv1d(Tensor(np.zeros((4, 2))), Tensor(np.zeros((2, 2, 3))))


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


def test_take_rc_gathers_and_scatters():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = take_rc(a, [0, 1, 0], [2, 1, 2])  # repeated index exercises scatter-add
    np.testing.assert_array_equal(out.data, [2.0, 4.0, 2.0])
    tsum(out).backward()
    np.testing.assert_array_equal(a.grad, [[0, 0, 2], [0, 1, 0]])


@given(rows=st.integers(1, 6), cols=st.integers(1, 6), n=st.integers(0, 60),
       seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_take_rc_backward_matches_add_at(rows, cols, n, seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.standard_normal((rows, cols)), requires_grad=True)
    ri = rng.integers(0, rows, size=n)  # n > rows * cols forces repeats
    ci = rng.integers(0, cols, size=n)
    w = rng.standard_normal(n)
    tsum(take_rc(a, ri, ci) * w).backward()
    want = np.zeros((rows, cols))
    np.add.at(want, (ri, ci), w)
    np.testing.assert_array_equal(a.grad, want)


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
    batch_b = make(rng, 2, 4, 2)
    out_w = Tensor(rng.standard_normal((2, 3, 2)))
    conv_k = make(rng, 3, 4, 2)
    bias = make(rng, 2)
    keys = make(rng, 2, 5, 4)
    values = make(rng, 2, 5, 4)
    mix_w = Tensor(rng.standard_normal((2, 3, 4)))
    key_bias = np.zeros((2, 5))
    key_bias[1, 3:] = -1e30  # the second sequence has two padded keys

    cases = {
        "add": (lambda: tsum(a + b), {"a": a, "b": b}),
        "add_broadcast": (lambda: tsum(a + row), {"a": a, "row": row}),
        "sub": (lambda: tsum(a - b), {"a": a, "b": b}),
        "mul": (lambda: tsum(mul_ab()), {"a": a, "b": b}),
        "div": (lambda: tsum(a / (b * b + 1.0)), {"a": a, "b": b}),
        "neg": (lambda: tsum(-(a * a)), {"a": a}),
        "matmul": (lambda: tsum(matmul(a, c)), {"a": a, "c": c}),
        "transpose": (lambda: tsum(matmul(transpose(a), a)), {"a": a}),
        "reshape": (lambda: tsum(reshape(a, (4, 3)) * 2.0), {"a": a}),
        "relu": (lambda: tsum(relu(a)), {"a": a}),
        "sigmoid": (lambda: tsum(sigmoid(a)), {"a": a}),
        "sqrt": (lambda: tsum(sqrt(a * a + 1.0)), {"a": a}),
        "abs_shifted": (lambda: tsum(absolute(a + 0.5)), {"a": a}),
        "clamp": (lambda: tsum(clamp_min(a, 0.1)), {"a": a}),
        "sum_axis": (lambda: tsum(tsum(a, axis=0) * tsum(a, axis=0)), {"a": a}),
        "mean": (lambda: tmean(a * a), {"a": a}),
        "mean_axis": (lambda: tsum(tmean(a, axis=1) * 3.0), {"a": a}),
        "softmax": (lambda: tsum(softmax(a, axis=1) * b), {"a": a, "b": b}),
        "concat": (lambda: tsum(mul_concat()), {"a": a, "b": b}),
        "matmul_3d": (lambda: tsum(matmul(batch, batch_b) * out_w),
                      {"batch": batch, "batch_b": batch_b}),
        "matmul_broadcast": (lambda: tsum(matmul(a, batch_b) * out_w),
                             {"a": a, "batch_b": batch_b}),
        "transpose_3d": (lambda: tsum(matmul(transpose(batch), batch)), {"batch": batch}),
        "cosine": (lambda: cosine(v, w), {"v": v, "w": w}),
        "frobenius": (lambda: frobenius_sq(a - b), {"a": a, "b": b}),
        "mean_pool": (lambda: tsum(mean_pool_time(a, np.ones(3)) * tsum(b, axis=0)),
                      {"a": a, "b": b}),
        "cosine_rows": (lambda: tsum(cosine(a, b)), {"a": a, "b": b}),
        "conv1d_batch": (lambda: tsum(conv1d(batch, conv_k) * 0.5),
                         {"batch": batch, "conv_k": conv_k}),
        "affine": (lambda: tsum(affine(a, c) * out_w.data[0]), {"a": a, "c": c}),
        "affine_bias": (lambda: tsum(affine(a, c, bias) * out_w.data[1]),
                        {"a": a, "c": c, "bias": bias}),
        "affine_3d": (lambda: tsum(affine(batch, c) * out_w), {"batch": batch, "c": c}),
        "affine_3d_bias": (lambda: tsum(affine(batch, c, bias) * out_w),
                           {"batch": batch, "c": c, "bias": bias}),
        "attention": (lambda: tsum(attention(batch, keys, values, 2, key_bias)[0] * mix_w),
                      {"batch": batch, "keys": keys, "values": values}),
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
    check_grads(lambda: tsum(matmul(a, b)), {"a": a, "b": b}, tol=1e-6)


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


def test_stop_gradient_identity_and_blocking():
    x = Tensor([1.0, 2.0], requires_grad=True)
    frozen = stop_gradient(x)
    assert np.shares_memory(frozen.data, x.data)
    out = tsum(frozen * x)
    out.backward()
    # with d(frozen)/dx forced to zero: d/dx sum(c*x) = c, not 2x
    np.testing.assert_array_equal(x.grad, [1.0, 2.0])


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
    for op in (relu, sigmoid, lambda t: softmax(t, axis=1)):
        assert np.all(np.isfinite(op(x).data))
