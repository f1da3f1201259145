"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation records a backward closure on the output tensor; calling
``backward()`` on a scalar walks the recorded graph once in reverse
topological order and accumulates gradients into the leaves.  The tape is
rebuilt on every forward pass, so a tensor graph is a throwaway value: there
are no retained-graph semantics and no global state, which also makes
independent graphs safe to build on different threads.

Tensors are treated as immutable once created inside a forward pass.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

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
# A parent that needs no gradient (a constant such as a fixed weight) gets
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


# added to the scores of keys past a sequence's end: finite, yet far enough
# below any real score that exp() of it after max subtraction is exactly 0
MASKED_SCORE = -1e30


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              q_rows: RowLayout, k_rows: RowLayout) -> tuple[Tensor, Array]:
    """Multi-head scaled dot-product attention of packed sequences as one
    node.

    ``q`` is ``[N_q, d]``, packed as ``q_rows`` says, and ``k``, ``v`` are
    ``[N_k, d]``, packed as ``k_rows`` says; both layouts hold the same B
    samples, and each sample's queries attend over its own keys only.  Head
    h owns feature columns h*d/heads .. (h+1)*d/heads of all three.  Inside
    the node every input is scattered into a zero-padded per-sample head
    layout, and each key past its sequence's end scores ``MASKED_SCORE``,
    so its weight is exactly 0.  Returns the heads' mixed values, packed
    ``[N_q, d]`` as the queries are, and the attention maps ``[B, heads,
    T_q, T_k]`` over the padded layouts (a padded query's row is never
    read).
    """
    if (q.ndim != 2 or k.ndim != 2 or k.shape != v.shape or q.shape[1] != k.shape[1]
            or q.shape[0] != q_rows.size or k.shape[0] != k_rows.size
            or q_rows.lengths.size != k_rows.lengths.size):
        raise ShapeError(f"attention: expected packed [N, d] inputs of one batch, got q "
                         f"{q.shape}, k {k.shape}, v {v.shape} for {q_rows.size} query and "
                         f"{k_rows.size} key rows")
    b, d = q_rows.lengths.size, q.shape[1]
    hd = d // heads
    scale = 1.0 / np.sqrt(hd)
    key_bias = np.where(np.arange(k_rows.t_pad) < k_rows.lengths[:, None], 0.0, MASKED_SCORE)
    # BLAS rounding depends on operand layout, so these contiguous
    # orientations are part of the result: another layout changes the
    # forward values in the last bits

    def by_step(x: Array, rows: RowLayout) -> Array:
        """[N, d] -> [B, heads, T, head_dim], zero past each sequence's end"""
        out = np.zeros((b, heads, rows.t_pad, hd))
        out[rows.seq, :, rows.pos] = x.reshape(-1, heads, hd)
        return out

    def by_feature(x: Array, rows: RowLayout) -> Array:
        """[N, d] -> [B, heads, head_dim, T], zero past each sequence's end"""
        out = np.zeros((b, heads, hd, rows.t_pad))
        out[rows.seq, :, :, rows.pos] = x.reshape(-1, heads, hd)
        return out

    def packed(x: Array, rows: RowLayout) -> Array:
        """[B, heads, T, head_dim] -> [N, d], the real steps only"""
        return x[rows.seq, :, rows.pos].reshape(-1, d)

    scores = by_step(q.data, q_rows) @ by_feature(k.data, k_rows)
    maps = _softmax(scores * scale + key_bias[:, None, None, :])
    # [B, heads, head_dim, T_q]
    mixed = by_feature(v.data, k_rows) @ np.ascontiguousarray(np.swapaxes(maps, -1, -2))
    out_data = mixed[q_rows.seq, :, :, q_rows.pos].reshape(-1, d)

    def backward(g):
        # the head layouts are rebuilt from the inputs rather than kept
        g_h = by_step(g, q_rows)
        if v.requires_grad:
            v._accum(packed(np.swapaxes(maps, -1, -2) @ g_h, k_rows))
        g_scores = _softmax_grad(maps, g_h @ by_feature(v.data, k_rows)) * scale
        if q.requires_grad:
            q._accum(packed(g_scores @ np.swapaxes(by_feature(k.data, k_rows), -1, -2), q_rows))
        if k.requires_grad:
            k._accum(packed(np.swapaxes(g_scores, -1, -2) @ by_step(q.data, q_rows), k_rows))

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


# ---- packed sequences ----


class RowLayout:
    """Where the time steps of B sequences sit when they are packed
    sample-major, each sequence's steps in order, into N rows.

    ``lengths`` ``[B]`` (each at least 1) and ``starts`` ``[B]`` give each
    sequence's rows; ``seq`` and ``pos`` ``[N]`` give each row's sequence
    and step, so row r sits at ``[seq[r], pos[r]]`` of a ``[B, t_pad]``
    padded layout.  ``prev`` and ``next`` ``[N]`` give each row's neighbour
    one step earlier and later in its own sequence, or N past either end:
    the index of a zero row a caller appends.
    """

    def __init__(self, lengths):
        self.lengths = np.asarray(lengths, dtype=np.intp)
        if self.lengths.ndim != 1 or not self.lengths.size or self.lengths.min() < 1:
            raise ShapeError(f"a row layout needs one or more lengths >= 1, got {lengths}")
        self.size = n = int(self.lengths.sum())
        self.t_pad = int(self.lengths.max())
        ends = np.cumsum(self.lengths)
        self.starts = ends - self.lengths
        self.seq = np.repeat(np.arange(self.lengths.size), self.lengths)
        self.pos = np.arange(n) - self.starts[self.seq]
        self.prev = np.arange(-1, n - 1)
        self.prev[self.starts] = n
        self.next = np.arange(1, n + 1)
        self.next[ends - 1] = n


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor, rows: RowLayout) -> Tensor:
    """Width-3 temporal convolution of packed sequences with zero
    same-padding.

    ``x`` is ``[N, d_in]``, packed as ``rows`` says; ``kernel`` is ``[3,
    d_in, d_out]``, its taps reading the previous step, the step itself and
    the next step.  A tap that falls outside its own sequence reads a zero
    row, exactly as zero padding would, so each sequence's output is what
    it would be alone.

    Forward is one product of ``x`` with the kernel laid out ``[d_in, 3 *
    d_out]``, which gives every row's contribution at every tap, then two
    row gathers through ``rows.prev`` and ``rows.next``.  Backward gathers
    the output gradient the opposite way, ``[g[next], g, g[prev]]``, so the
    kernel gradient is one product with ``x``.
    """
    if x.ndim != 2 or kernel.ndim != 3 or kernel.shape[0] != 3:
        raise ShapeError(f"conv1d: expected [N, d_in] and [3, d_in, d_out], "
                         f"got {x.shape} and {kernel.shape}")
    _, d_in, d_out = kernel.shape
    n = x.shape[0]
    if x.shape[1] != d_in or n != rows.size:
        raise ShapeError(f"conv1d: input {x.shape} for {rows.size} rows and kernel d_in {d_in}")
    k_cat = kernel.data.transpose(1, 0, 2).reshape(d_in, 3 * d_out)
    per_tap = np.empty((n + 1, 3 * d_out))  # the last row is the zero row
    np.matmul(x.data, k_cat, out=per_tap[:n])
    per_tap[n] = 0.0
    out_data = per_tap[:n, d_out:2 * d_out] + bias.data
    out_data += per_tap[rows.prev, :d_out]
    out_data += per_tap[rows.next, 2 * d_out:]

    def backward(g):
        if bias.requires_grad:
            bias._accum(g.sum(axis=0))
        if not (kernel.requires_grad or x.requires_grad):
            return
        g_ext = np.empty((n + 1, d_out))
        g_ext[:n] = g
        g_ext[n] = 0.0
        # block k of row r: the gradient of the output that reads row r at tap k
        g_taps = np.concatenate([g_ext[rows.next], g, g_ext[rows.prev]], axis=1)
        if kernel.requires_grad:
            kernel._accum((x.data.T @ g_taps).reshape(d_in, 3, d_out).transpose(1, 0, 2))
        if x.requires_grad:
            x._accum(g_taps @ k_cat.T)

    return Tensor._result(out_data, (x, kernel, bias), backward)


# ---- fused losses and poolings used throughout the model ----

_EPS = 1e-12  # a smaller norm counts as zero
_SQ_FLOOR = _EPS * _EPS  # the same floor on a squared norm


def cosine(u: Tensor, v: Tensor) -> Tensor:
    """Cosine similarity along the last axis, in [-1, 1]; ``[..., d]``
    inputs give ``[...]``.  One node; backward reads only the inputs and
    per-row scalars.

    Each squared norm is clamped at ``_SQ_FLOOR`` and the norms' product at
    ``_EPS``, so an all-zero vector yields 0 instead of dividing by zero
    (and keeps the backward pass finite).
    """
    if u.ndim < 1 or u.shape != v.shape:
        raise ShapeError(f"cosine expects equal-shape vectors, got {u.shape} and {v.shape}")
    num = (u.data * v.data).sum(axis=-1)
    su = (u.data * u.data).sum(axis=-1)
    sv = (v.data * v.data).sum(axis=-1)
    nu = np.sqrt(np.maximum(su, _SQ_FLOOR))
    nv = np.sqrt(np.maximum(sv, _SQ_FLOOR))
    prod = nu * nv
    den = np.maximum(prod, _EPS)
    out_data = num / den

    def backward(g):
        g_num = (g / den)[..., None]
        g_prod = (-g * num / (den * den)) * (prod > _EPS)
        if u.requires_grad:
            g_su = g_prod * nv * 0.5 / nu * (su > _SQ_FLOOR)
            u._accum(g_num * v.data + (2.0 * g_su)[..., None] * u.data)
        if v.requires_grad:
            g_sv = g_prod * nu * 0.5 / nv * (sv > _SQ_FLOOR)
            v._accum(g_num * u.data + (2.0 * g_sv)[..., None] * v.data)

    return Tensor._result(out_data, (u, v), backward)


def l2_normalize(x: Tensor) -> Tensor:
    """Each row of ``[..., d]`` divided by its L2 norm, the squared norm
    clamped at ``_SQ_FLOOR``, as one node."""
    if x.ndim < 1:
        raise ShapeError(f"l2_normalize needs at least 1 axis, got shape {x.shape}")
    sq = (x.data * x.data).sum(axis=-1, keepdims=True)
    norms = np.sqrt(np.maximum(sq, _SQ_FLOOR))

    def backward(g):
        g_norms = (-g * x.data / (norms * norms)).sum(axis=-1, keepdims=True)
        g_sq = g_norms * 0.5 / norms * (sq > _SQ_FLOOR)
        x._accum(g / norms + (2.0 * g_sq) * x.data)

    return Tensor._result(x.data / norms, (x,), backward)


def sq_distance(a: Tensor, b: Tensor) -> Tensor:
    """Squared Frobenius norm of ``(a - b)`` as one node that keeps only
    the difference."""
    if a.shape != b.shape:
        raise ShapeError(f"sq_distance: shapes {a.shape} vs {b.shape}")
    diff = a.data - b.data

    def backward(g):
        g_diff = (2.0 * g) * diff
        if a.requires_grad:
            a._accum(g_diff)
        if b.requires_grad:
            b._accum(-g_diff)

    return Tensor._result((diff * diff).sum(), (a, b), backward)


def mean_pool_time(x: Tensor, rows: RowLayout) -> Tensor:
    """Temporal mean of each sequence of packed ``[N, d]`` rows, giving
    ``[B, d]``: a segment sum over ``rows.starts`` divided by the lengths,
    so every row is real and the divisor is the true length."""
    if x.ndim != 2 or x.shape[0] != rows.size:
        raise ShapeError(f"mean_pool_time: got x {x.shape} for {rows.size} rows")
    lengths = rows.lengths[:, None]

    def backward(g):
        x._accum((g / lengths)[rows.seq])

    return Tensor._result(np.add.reduceat(x.data, rows.starts, axis=0) / lengths, (x,), backward)
