"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation records a backward closure on the output tensor; calling
``backward()`` on a scalar walks the recorded graph once in reverse
topological order and accumulates gradients into the leaves.  The tape is
rebuilt on every forward pass, so a tensor graph is a throwaway value: there
are no retained-graph semantics and no global state, which also makes
independent graphs safe to build on different threads.

Tensors are treated as immutable once created inside a forward pass.  The
optimizer mutates parameter ``data`` buffers only between steps.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError

Array = np.ndarray


def _as_array(data) -> Array:
    return np.asarray(data, dtype=np.float64)


class Tensor:
    """A numpy-backed value in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data: Array = _as_array(data)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # ---- basic introspection ----

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ---- graph construction ----

    @staticmethod
    def _result(data: Array, parents: tuple[Tensor, ...], backward) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accum(self, g: Array) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph.

        Iterative post-order traversal; each node's closure runs exactly once,
        after all of its consumers, so gradients of shared subexpressions
        accumulate correctly.  Interior nodes drop their gradient once their
        closure has run, so only leaves (and this root) hold one afterwards.
        """
        if self.data.shape != ():
            raise ShapeError(f"backward() needs a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones((), dtype=np.float64)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # an interior gradient is dead once handed to the parents;
                # leaves and the root keep theirs
                if node is not self:
                    node.grad = None

    # ---- arithmetic ----

    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _lift(other))

    # ---- method forms of common ops ----

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape) -> "Tensor":
        return reshape(self, shape)

    @property
    def T(self) -> "Tensor":
        return transpose(self)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ---- elementwise binary ops (numpy broadcasting rules) ----


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(g):
        a._accum(_unbroadcast(g, a.shape))
        b._accum(_unbroadcast(g, b.shape))

    return Tensor._result(out_data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def backward(g):
        a._accum(_unbroadcast(g, a.shape))
        b._accum(_unbroadcast(-g, b.shape))

    return Tensor._result(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g):
        a._accum(_unbroadcast(g * b.data, a.shape))
        b._accum(_unbroadcast(g * a.data, b.shape))

    return Tensor._result(out_data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data

    def backward(g):
        a._accum(_unbroadcast(g / b.data, a.shape))
        b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return Tensor._result(out_data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        a._accum(-g)

    return Tensor._result(-a.data, (a,), backward)


# ---- matrix ops ----


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast, as in
    numpy ``@``."""
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    try:
        out_data = a.data @ b.data
    except ValueError:
        raise ShapeError(f"matmul: leading axes of {a.shape} and {b.shape} do not broadcast")

    def backward(g):
        a._accum(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        b._accum(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return Tensor._result(out_data, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.ndim < 2:
        raise ShapeError(f"transpose needs at least 2 axes, got shape {a.shape}")

    def backward(g):
        a._accum(np.swapaxes(g, -1, -2))

    return Tensor._result(np.swapaxes(a.data, -1, -2).copy(), (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in (shape if isinstance(shape, (tuple, list)) else (shape,)))
    old_shape = a.shape

    def backward(g):
        a._accum(g.reshape(old_shape))

    return Tensor._result(a.data.reshape(shape), (a,), backward)


# ---- unary elementwise ----


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0

    def backward(g):
        a._accum(g * mask)

    return Tensor._result(np.where(mask, a.data, 0.0), (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(g):
        a._accum(g * out_data * (1.0 - out_data))

    return Tensor._result(out_data, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)

    def backward(g):
        a._accum(g * 0.5 / out_data)

    return Tensor._result(out_data, (a,), backward)


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.data)  # subgradient 0 at exactly 0

    def backward(g):
        a._accum(g * sign)

    return Tensor._result(np.abs(a.data), (a,), backward)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    open_mask = a.data > floor

    def backward(g):
        a._accum(g * open_mask)

    return Tensor._result(np.maximum(a.data, floor), (a,), backward)


def stop_gradient(a: Tensor) -> Tensor:
    """Identity forward (bit-identical, shared buffer); blocks all gradient."""
    return Tensor(a.data)


# ---- reductions ----


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        ge = g if axis is None or keepdims else np.expand_dims(g, axis)
        a._accum(np.broadcast_to(ge, a.shape).copy())

    return Tensor._result(out_data, (a,), backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else a.shape[axis]
    out_data = a.data.mean(axis=axis, keepdims=keepdims)

    def backward(g):
        ge = g if axis is None or keepdims else np.expand_dims(g, axis)
        a._accum(np.broadcast_to(ge / n, a.shape).copy())

    return Tensor._result(out_data, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``, stabilized by max subtraction."""
    if a.data.size == 0 or a.shape[axis] == 0:
        raise ShapeError(f"softmax over an empty axis (shape {a.shape}, axis {axis})")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        a._accum(out_data * (g - dot))

    return Tensor._result(out_data, (a,), backward)


# ---- structural ops ----


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    if not tensors:
        raise ShapeError("concat of an empty tensor list")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis if axis >= 0 else t.ndim + axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis if axis >= 0 else g.ndim + axis] = slice(lo, hi)
            t._accum(g[tuple(idx)])

    return Tensor._result(out_data, tuple(tensors), backward)


def take_rc(a: Tensor, rows: Array, cols: Array) -> Tensor:
    """Gather entries a[rows[k], cols[k]] into a vector."""
    if a.ndim != 2:
        raise ShapeError(f"take_rc expects a matrix, got shape {a.shape}")
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)

    flat = rows * a.shape[1] + cols

    def backward(g):
        a._accum(np.bincount(flat, weights=g, minlength=a.data.size).reshape(a.shape))

    return Tensor._result(a.data[rows, cols], (a,), backward)


# ---- temporal convolution ----


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor | None = None) -> Tensor:
    """1-D temporal convolution with zero same-padding.

    ``x`` is time-major ``[..., T, d_in]`` (leading axes are independent
    sequences); ``kernel`` is ``[w, d_in, d_out]`` with odd width ``w`` so
    the output keeps the input temporal length.  Zero rows after a shorter
    sequence's end act exactly like its padding, so a zero-padded batch
    gives every sequence's valid rows as if it were convolved alone.
    """
    if x.ndim < 2 or kernel.ndim != 3:
        raise ShapeError(f"conv1d: expected [..., T, d_in] and [w, d_in, d_out], got {x.shape} and {kernel.shape}")
    w, d_in, d_out = kernel.shape
    if w % 2 == 0:
        raise ConfigError(f"conv1d kernel width must be odd, got {w}")
    if x.shape[-1] != d_in:
        raise ShapeError(f"conv1d: input feature dim {x.shape[-1]} != kernel d_in {d_in}")
    lead, t_in = x.shape[:-2], x.shape[-2]
    pad = w // 2
    xp = np.zeros(lead + (t_in + 2 * pad, d_in))
    xp[..., pad:pad + t_in, :] = x.data
    # im2col: row t holds the width-w window centered on input step t
    col = np.empty(lead + (t_in, w * d_in))
    for k in range(w):
        col[..., k * d_in:(k + 1) * d_in] = xp[..., k:k + t_in, :]
    k_flat = kernel.data.reshape(w * d_in, d_out)
    out_data = col @ k_flat
    if bias is not None:
        out_data = out_data + bias.data

    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def backward(g):
        kernel._accum((col.reshape(-1, w * d_in).T @ g.reshape(-1, d_out)).reshape(w, d_in, d_out))
        if bias is not None:
            bias._accum(g.reshape(-1, d_out).sum(axis=0))
        if not x.requires_grad:
            return
        g_col = g @ k_flat.T
        g_xp = np.zeros(lead + (t_in + 2 * pad, d_in))
        for k in range(w):
            g_xp[..., k:k + t_in, :] += g_col[..., k * d_in:(k + 1) * d_in]
        x._accum(g_xp[..., pad:pad + t_in, :])

    return Tensor._result(out_data, parents, backward)


# ---- composite helpers used throughout the model ----


def cosine(u: Tensor, v: Tensor, eps: float = 1e-12) -> Tensor:
    """Cosine similarity along the last axis, in [-1, 1]; ``[..., d]``
    inputs give ``[...]``.

    The denominator is clamped at ``eps`` so an all-zero vector yields 0
    instead of dividing by zero (and keeps the backward pass finite).
    """
    if u.ndim < 1 or u.shape != v.shape:
        raise ShapeError(f"cosine expects equal-shape vectors, got {u.shape} and {v.shape}")
    num = tsum(mul(u, v), axis=-1)
    nu = sqrt(clamp_min(tsum(mul(u, u), axis=-1), eps * eps))
    nv = sqrt(clamp_min(tsum(mul(v, v), axis=-1), eps * eps))
    return div(num, clamp_min(mul(nu, nv), eps))


def frobenius_sq(a: Tensor) -> Tensor:
    """Squared Frobenius norm: sum of squared entries."""
    return tsum(mul(a, a))


def mean_pool_time(x: Tensor, mask: Array) -> Tensor:
    """Temporal mean of ``[..., T, d]`` over the valid steps of each
    sequence, giving ``[..., d]``.

    ``mask`` is a constant 0/1 array shaped ``[..., T]``; the pool is one
    matmul with weights ``mask / length``, so padded rows contribute exactly
    zero and the divisor is the true length, never the padded one.
    """
    if x.ndim < 2 or np.shape(mask) != x.shape[:-1]:
        raise ShapeError(f"mean_pool_time: got x {x.shape}, mask {np.shape(mask)}")
    lengths = mask.sum(axis=-1, keepdims=True)
    if np.any(lengths == 0):
        raise ShapeError("mean_pool_time: a sequence has no valid step")
    weights = mask / lengths
    pooled = matmul(Tensor(weights[..., None, :]), x)
    return reshape(pooled, x.shape[:-2] + x.shape[-1:])
