"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation records a backward closure on the output tensor; calling
``backward()`` on a scalar walks the recorded graph once in reverse
topological order and accumulates gradients into the leaves.  The tape is
rebuilt on every forward pass, so a tensor graph is a throwaway value: there
are no retained-graph semantics and no global state, which also makes
independent graphs safe to build on different threads.

Tensors are treated as immutable once created inside a forward pass.  The
optimizer binds every parameter's ``data`` as a view of one flat arena and
updates it in place between steps, so code that needs a parameter's value
across a step must copy it.
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
            # a private copy: g may be a view of another node's buffers
            self.grad = np.array(g, dtype=np.float64)
        else:
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

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)


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
# A parent that needs no gradient (a mask, pooling weights, a constant) gets
# none computed for it.


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.shape))

    return Tensor._result(out_data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g, b.shape))

    return Tensor._result(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.shape))

    return Tensor._result(out_data, (a, b), backward)


# ---- matrix ops ----


def affine(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w + b`` as one node: ``x`` is ``[..., d_in]``, ``w`` is
    ``[d_in, d_out]`` and ``b`` is ``[d_out]``.  The weight gradient is one
    product over all leading axes of ``x`` flattened together."""
    if x.ndim < 1 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"affine: incompatible shapes {x.shape} and {w.shape}")
    if b is not None and b.shape != w.shape[1:]:
        raise ShapeError(f"affine: bias {b.shape} does not match weight {w.shape}")
    d_in, d_out = w.shape
    out_data = x.data @ w.data
    if b is not None:
        out_data += b.data

    def backward(g):
        g_rows = g.reshape(-1, d_out)
        if w.requires_grad:
            w._accum(x.data.reshape(-1, d_in).T @ g_rows)
        if b is not None and b.requires_grad:
            b._accum(g_rows.sum(axis=0))
        if x.requires_grad:
            x._accum(g @ w.data.T)

    return Tensor._result(out_data, (x, w) if b is None else (x, w, b), backward)


def two_layer(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``relu(x @ w1 + b1) @ w2 + b2`` as one node: ``x`` is ``[..., d_in]``,
    ``w1`` ``[d_in, d_hidden]`` and ``w2`` ``[d_hidden, d_out]``.

    Backward reads ``x`` and the post-relu hidden activations, whose
    positive entries are exactly where the pre-activation is positive, so
    the pre-activation is not kept.  The relu is ``np.maximum``, which keeps
    NaN.
    """
    if (x.ndim < 1 or w1.ndim != 2 or w2.ndim != 2 or x.shape[-1] != w1.shape[0]
            or w1.shape[1] != w2.shape[0] or b1.shape != w1.shape[1:]
            or b2.shape != w2.shape[1:]):
        raise ShapeError(f"two_layer: incompatible shapes x {x.shape}, w1 {w1.shape}, "
                         f"b1 {b1.shape}, w2 {w2.shape}, b2 {b2.shape}")
    d_in, d_hidden = w1.shape
    d_out = w2.shape[1]
    h = x.data @ w1.data
    h += b1.data
    np.maximum(h, 0.0, out=h)
    out_data = h @ w2.data
    out_data += b2.data

    def backward(g):
        g_rows = g.reshape(-1, d_out)
        if w2.requires_grad:
            w2._accum(h.reshape(-1, d_hidden).T @ g_rows)
        if b2.requires_grad:
            b2._accum(g_rows.sum(axis=0))
        g_pre = g @ w2.data.T
        g_pre *= h > 0.0
        g_pre_rows = g_pre.reshape(-1, d_hidden)
        if w1.requires_grad:
            w1._accum(x.data.reshape(-1, d_in).T @ g_pre_rows)
        if b1.requires_grad:
            b1._accum(g_pre_rows.sum(axis=0))
        if x.requires_grad:
            x._accum(g_pre @ w1.data.T)

    return Tensor._result(out_data, (x, w1, b1, w2, b2), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old_shape = a.shape

    def backward(g):
        a._accum(g.reshape(old_shape))

    return Tensor._result(a.data.reshape(shape), (a,), backward)


def gram(x: Tensor) -> Tensor:
    """``x @ x.T`` for the rows of ``x`` ``[N, d]``, giving ``[N, N]``.

    The product reads a contiguous copy of ``x.T``: numpy's plain ``x @
    x.T`` takes a symmetric BLAS path whose rounding differs.  Backward sums
    the gradients of both operands, the left one first."""
    if x.ndim != 2:
        raise ShapeError(f"gram needs [N, d] rows, got shape {x.shape}")
    xt = x.data.T.copy()

    def backward(g):
        g_x = g @ xt.T
        g_x += (x.data.T @ g).T
        x._accum(g_x)

    return Tensor._result(x.data @ xt, (x,), backward)


# ---- unary elementwise ----


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(g):
        a._accum(g * out_data * (1.0 - out_data))

    return Tensor._result(out_data, (a,), backward)


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.data)  # subgradient 0 at exactly 0

    def backward(g):
        a._accum(g * sign)

    return Tensor._result(np.abs(a.data), (a,), backward)


# ---- reductions ----


def tsum(a: Tensor) -> Tensor:
    """Sum of every entry, a scalar."""

    def backward(g):
        a._accum(np.broadcast_to(g, a.shape))

    return Tensor._result(a.data.sum(), (a,), backward)


def tmean(a: Tensor) -> Tensor:
    """Mean of every entry, a scalar."""
    n = a.data.size

    def backward(g):
        a._accum(np.broadcast_to(g / n, a.shape))

    return Tensor._result(a.data.mean(), (a,), backward)


def _softmax(x: Array) -> Array:
    """Softmax of an array along its last axis, stabilized by max
    subtraction."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(p: Array, g: Array) -> Array:
    """Gradient at the input of a last-axis softmax with output ``p``, given
    ``g`` at its output."""
    return p * (g - (g * p).sum(axis=-1, keepdims=True))


def softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by max subtraction."""
    if a.data.size == 0 or a.shape[-1] == 0:
        raise ShapeError(f"softmax over an empty axis (shape {a.shape})")
    out_data = _softmax(a.data)

    def backward(g):
        a._accum(_softmax_grad(out_data, g))

    return Tensor._result(out_data, (a,), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              key_bias: Array) -> tuple[Tensor, Array]:
    """Multi-head scaled dot-product attention as one node.

    ``q`` is ``[B, T_tgt, d]`` and ``k``, ``v`` are ``[B, T_src, d]``; head
    h owns feature columns h*d/heads .. (h+1)*d/heads of all three.
    ``key_bias`` is a constant ``[B, T_src]`` added to every score of a key
    (0 for a valid key, a large negative number for a masked one).  Returns
    the heads' mixed values, concatenated back to ``[B, T_tgt, d]``, and the
    attention maps ``[B, heads, T_tgt, T_src]``.
    """
    if (q.ndim != 3 or k.ndim != 3 or k.shape != v.shape or q.shape[0] != k.shape[0]
            or q.shape[2] != k.shape[2]):
        raise ShapeError(f"attention: expected [B, T, d] inputs, got q {q.shape}, "
                         f"k {k.shape}, v {v.shape}")
    b, t_tgt, d = q.shape
    t_src = k.shape[1]
    if heads < 1 or d % heads != 0:
        raise ShapeError(f"attention: feature dim {d} not divisible by head count {heads}")
    if np.shape(key_bias) != (b, t_src):
        raise ShapeError(f"attention: key bias {np.shape(key_bias)} does not match k {k.shape}")
    hd = d // heads
    scale = 1.0 / np.sqrt(hd)
    # BLAS rounding depends on operand layout, so these contiguous
    # orientations are part of the result: another layout changes the
    # forward values in the last bits

    def by_feature(x: Array, t: int) -> Array:
        """[B, T, d] -> [B, heads, head_dim, T]"""
        return np.ascontiguousarray(x.reshape(b, t, heads, hd).transpose(0, 2, 3, 1))

    def by_step(x: Array, t: int) -> Array:
        """[B, T, d] -> [B, heads, T, head_dim]"""
        return np.ascontiguousarray(x.reshape(b, t, heads, hd).transpose(0, 2, 1, 3))

    def merge(x: Array) -> Array:
        """[B, heads, T, head_dim] -> [B, T, d]"""
        return x.transpose(0, 2, 1, 3).reshape(b, -1, d)

    scores = by_step(q.data, t_tgt) @ by_feature(k.data, t_src)
    maps = _softmax(scores * scale + key_bias[:, None, None, :])
    # [B, heads, head_dim, T_tgt]
    mixed = by_feature(v.data, t_src) @ np.ascontiguousarray(np.swapaxes(maps, -1, -2))
    out_data = np.ascontiguousarray(np.swapaxes(mixed.reshape(b, d, t_tgt), -1, -2))

    def backward(g):
        # the head layouts are rebuilt from the inputs rather than kept
        q_h = by_step(q.data, t_tgt)
        k_h = by_feature(k.data, t_src)
        v_h = by_feature(v.data, t_src)
        g_h = g.reshape(b, t_tgt, heads, hd).transpose(0, 2, 1, 3)  # [B, heads, T_tgt, head_dim]
        if v.requires_grad:
            v._accum(merge(np.swapaxes(maps, -1, -2) @ g_h))
        g_scores = _softmax_grad(maps, g_h @ v_h) * scale
        if q.requires_grad:
            q._accum(merge(g_scores @ np.swapaxes(k_h, -1, -2)))
        if k.requires_grad:
            k._accum(merge(np.swapaxes(g_scores, -1, -2) @ q_h))

    return Tensor._result(out_data, (q, k, v), backward), maps


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


# ---- triplet margin ----


def margin_hinge(cos: Tensor, mods: Array, classes: Array,
                 alpha: float) -> tuple[Tensor, int]:
    """Mean triplet hinge ``max(0, (alpha - c_ij) + c_ik)`` over a cosine
    matrix, as one node, and the number of triplets.

    Row i of ``cos`` ``[N, N]`` is an anchor tagged ``(mods[i],
    classes[i])``.  Its positives j share its class from another modality;
    its negatives k share its modality with another class.  No triplet is
    enumerated.  Each anchor's negative cosines are sorted, so one search
    per positive counts the negatives above its threshold ``-(alpha -
    c_ij)`` and a suffix sum gives their total: O(N² log N) time, O(N²)
    memory.  ``c_ik > -(alpha - c_ij)`` holds exactly when the enumerated
    ``(alpha - c_ij) + c_ik`` is positive in floating point, so ties resolve
    as they would term by term.  With no triplet the loss is a constant 0;
    a non-finite cosine makes it NaN.
    """
    if not 0.0 < alpha < 2.0:
        raise ConfigError(f"margin_hinge: alpha must lie in (0, 2), got {alpha}")
    n = len(mods)
    if cos.shape != (n, n) or len(classes) != n:
        raise ShapeError(f"margin_hinge: cosines {cos.shape} for {n} modality and "
                         f"{len(classes)} class tags")
    c = cos.data
    same_mod = mods[:, None] == mods[None, :]
    same_class = classes[:, None] == classes[None, :]
    neg = same_mod & ~same_class
    n_neg = neg.sum(axis=1)
    pi, pj = np.nonzero(~same_mod & same_class)  # (anchor, positive), by anchor
    total = int(n_neg[pi].sum())
    if total == 0:
        return Tensor(0.0), 0
    if not np.isfinite(c).all():
        def poisoned(g):
            cos._accum(np.full(c.shape, np.nan))

        return Tensor._result(np.array(np.nan), (cos,), poisoned), total

    # each anchor's negatives ascending, then +inf over the rest of its row
    order = np.argsort(np.where(neg, c, np.inf), axis=1)
    sorted_neg = np.take_along_axis(c, order, axis=1)
    is_neg = np.arange(n) < n_neg[:, None]
    offset = alpha - c[pi, pj]
    # One flat search serves every anchor: a negative or threshold is keyed
    # by anchor * width + its rank among all of them, equal values sharing a
    # rank, so comparing keys is comparing values exactly, ties included.
    # The tail of a row ranks above every threshold.
    _, rank = np.unique(np.concatenate([-offset, sorted_neg[is_neg]]), return_inverse=True)
    width = int(rank.max()) + 2
    t_key = pi * width + rank[:pi.size]
    neg_key = np.full((n, n), width - 1, dtype=np.int64)
    neg_key[is_neg] = rank[pi.size:]
    neg_key += np.arange(n)[:, None] * width
    first = np.searchsorted(neg_key.ravel(), t_key, side="right") - pi * n
    active = n_neg[pi] - first  # per (anchor, positive): negatives with a positive hinge
    suffix = np.zeros((n, n + 1))
    suffix[:, :n] = np.cumsum(np.where(is_neg, sorted_neg, 0.0)[:, ::-1], axis=1)[:, ::-1]
    out_data = np.array((active * offset + suffix[pi, first]).sum() / total)

    def backward(g):
        # on c_ik: how many of anchor i's positives have their threshold below it
        t_start = np.searchsorted(pi, np.arange(n))
        below = np.searchsorted(np.sort(t_key), neg_key, side="left") - t_start[:, None]
        counts = np.zeros((n, n))
        np.put_along_axis(counts, order, np.where(is_neg, below, 0), axis=1)
        counts[pi, pj] = -active
        cos._accum(counts * (g / total))

    return Tensor._result(out_data, (cos,), backward), total


# ---- temporal convolution ----


def _taps(t: int, w: int):
    """For each tap k of a width-``w`` window centred on each of ``t``
    steps with zero same-padding: ``(k, lo, hi, src)``, where output rows
    ``lo..hi-1`` read input rows ``src..src+hi-lo-1`` and every other
    output row reads padding."""
    pad = w // 2
    for k in range(w):
        lo, hi = max(0, pad - k), min(t, t + pad - k)
        if lo < hi:
            yield k, lo, hi, lo + k - pad


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """1-D temporal convolution with zero same-padding.

    ``x`` is time-major ``[..., T, d_in]`` (leading axes are independent
    sequences); ``kernel`` is ``[w, d_in, d_out]`` with odd width ``w`` so
    the output keeps the input temporal length.  Zero rows after a shorter
    sequence's end act exactly like its padding, so a zero-padded batch
    gives every sequence's valid rows as if it were convolved alone.

    Forward is one product of the im2col matrix (row t holds the window
    centred on step t) with the flattened kernel.  That matrix is w times
    the size of ``x``, so it is dropped: backward forms the kernel gradient
    tap by tap from shifted slices of ``x``.
    """
    if x.ndim < 2 or kernel.ndim != 3:
        raise ShapeError(f"conv1d: expected [..., T, d_in] and [w, d_in, d_out], got {x.shape} and {kernel.shape}")
    w, d_in, d_out = kernel.shape
    if w % 2 == 0:
        raise ConfigError(f"conv1d kernel width must be odd, got {w}")
    if x.shape[-1] != d_in:
        raise ShapeError(f"conv1d: input feature dim {x.shape[-1]} != kernel d_in {d_in}")
    t_in = x.shape[-2]
    col = np.zeros(x.shape[:-1] + (w * d_in,))
    for k, lo, hi, src in _taps(t_in, w):
        col[..., lo:hi, k * d_in:(k + 1) * d_in] = x.data[..., src:src + hi - lo, :]
    k_flat = kernel.data.reshape(w * d_in, d_out)
    out_data = col @ k_flat
    out_data += bias.data

    def backward(g):
        g_rows = g.reshape(-1, d_out)
        if kernel.requires_grad:
            g_kernel = np.zeros((w, d_in, d_out))
            for k, lo, hi, src in _taps(t_in, w):
                g_kernel[k] = (x.data[..., src:src + hi - lo, :].reshape(-1, d_in).T
                               @ g[..., lo:hi, :].reshape(-1, d_out))
            kernel._accum(g_kernel)
        if bias.requires_grad:
            bias._accum(g_rows.sum(axis=0))
        if not x.requires_grad:
            return
        g_col = g @ k_flat.T
        g_x = np.zeros(x.shape)
        for k, lo, hi, src in _taps(t_in, w):
            g_x[..., src:src + hi - lo, :] += g_col[..., lo:hi, k * d_in:(k + 1) * d_in]
        x._accum(g_x)

    return Tensor._result(out_data, (x, kernel, bias), backward)


# ---- fused losses and poolings used throughout the model ----


def cosine(u: Tensor, v: Tensor, eps: float = 1e-12) -> Tensor:
    """Cosine similarity along the last axis, in [-1, 1]; ``[..., d]``
    inputs give ``[...]``.  One node; backward reads only the inputs and
    per-row scalars.

    Each squared norm is clamped at ``eps**2`` and the norms' product at
    ``eps``, so an all-zero vector yields 0 instead of dividing by zero
    (and keeps the backward pass finite).
    """
    if u.ndim < 1 or u.shape != v.shape:
        raise ShapeError(f"cosine expects equal-shape vectors, got {u.shape} and {v.shape}")
    num = (u.data * v.data).sum(axis=-1)
    su = (u.data * u.data).sum(axis=-1)
    sv = (v.data * v.data).sum(axis=-1)
    nu = np.sqrt(np.maximum(su, eps * eps))
    nv = np.sqrt(np.maximum(sv, eps * eps))
    prod = nu * nv
    den = np.maximum(prod, eps)
    out_data = num / den

    def backward(g):
        g_num = (g / den)[..., None]
        g_prod = (-g * num / (den * den)) * (prod > eps)
        if u.requires_grad:
            g_su = g_prod * nv * 0.5 / nu * (su > eps * eps)
            u._accum(g_num * v.data + (2.0 * g_su)[..., None] * u.data)
        if v.requires_grad:
            g_sv = g_prod * nu * 0.5 / nv * (sv > eps * eps)
            v._accum(g_num * u.data + (2.0 * g_sv)[..., None] * v.data)

    return Tensor._result(out_data, (u, v), backward)


def l2_normalize(x: Tensor, sq_floor: float) -> Tensor:
    """Each row of ``[..., d]`` divided by its L2 norm, the squared norm
    clamped at ``sq_floor``, as one node."""
    if x.ndim < 1:
        raise ShapeError(f"l2_normalize needs at least 1 axis, got shape {x.shape}")
    sq = (x.data * x.data).sum(axis=-1, keepdims=True)
    norms = np.sqrt(np.maximum(sq, sq_floor))

    def backward(g):
        g_norms = (-g * x.data / (norms * norms)).sum(axis=-1, keepdims=True)
        g_sq = g_norms * 0.5 / norms * (sq > sq_floor)
        x._accum(g / norms + (2.0 * g_sq) * x.data)

    return Tensor._result(x.data / norms, (x,), backward)


def masked_sq_distance(a: Tensor, b: Tensor, mask: Array) -> Tensor:
    """Squared Frobenius norm of ``(a - b)`` with each row of ``[..., T, d]``
    weighted by the constant ``mask`` ``[..., T]``, as one node that keeps
    only the masked difference."""
    if a.shape != b.shape or a.ndim < 1 or np.shape(mask) != a.shape[:-1]:
        raise ShapeError(f"masked_sq_distance: shapes {a.shape} vs {b.shape}, "
                         f"mask {np.shape(mask)}")
    weights = mask[..., None]
    diff = a.data - b.data
    diff *= weights

    def backward(g):
        g_diff = (2.0 * g) * diff
        g_diff *= weights
        if a.requires_grad:
            a._accum(g_diff)
        if b.requires_grad:
            b._accum(-g_diff)

    return Tensor._result((diff * diff).sum(), (a, b), backward)


def mean_pool_time(x: Tensor, mask: Array) -> Tensor:
    """Temporal mean of ``[..., T, d]`` over the valid steps of each
    sequence, giving ``[..., d]``.

    ``mask`` is a constant 0/1 array shaped ``[..., T]``; the pool is one
    node around one matmul with weights ``mask / length``, so padded rows
    contribute exactly zero and the divisor is the true length, never the
    padded one.
    """
    if x.ndim < 2 or np.shape(mask) != x.shape[:-1]:
        raise ShapeError(f"mean_pool_time: got x {x.shape}, mask {np.shape(mask)}")
    lengths = mask.sum(axis=-1, keepdims=True)
    if np.any(lengths == 0):
        raise ShapeError("mean_pool_time: a sequence has no valid step")
    weights = (mask / lengths)[..., None, :]  # [..., 1, T]
    pooled_shape = x.shape[:-2] + x.shape[-1:]

    def backward(g):
        x._accum(np.swapaxes(weights, -1, -2) @ g.reshape(weights.shape[:-1] + g.shape[-1:]))

    return Tensor._result((weights @ x.data).reshape(pooled_shape), (x,), backward)
