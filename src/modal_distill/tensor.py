"""Dense float64 tensors with reverse-mode automatic differentiation.

An operation records its parents and a backward closure on the output
tensor only when one of its inputs requires grad; otherwise the output is a
plain value with no tape behind it.  Calling ``backward()`` on a scalar
walks the recorded graph once in reverse topological order and
accumulates gradients into the leaves; a closure writes only to those of
its node's parents that require grad.  The tape is rebuilt on
every forward pass, so a tensor graph is a throwaway value: there are no
retained-graph semantics and no global state, which also makes independent
graphs safe to build on different threads.

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
        if self.grad is None:
            # a private copy: g may be a view of another node's buffers
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph into
        the ``requires_grad`` leaves it reaches.

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


def _weight_grads(x: Array, w: Tensor, b: Tensor | None, g: Array) -> None:
    """Accumulate the gradients of ``w`` and ``b`` in ``x @ w + b`` from
    the output gradient ``g``, one product over all leading axes."""
    g_rows = g.reshape(-1, w.shape[1])
    if w.requires_grad:
        w._accum(x.reshape(-1, w.shape[0]).T @ g_rows)
    if b is not None and b.requires_grad:
        b._accum(g_rows.sum(axis=0))


def affine(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w + b`` as one node: ``x`` is ``[..., d_in]``, ``w`` is
    ``[d_in, d_out]`` and ``b`` is ``[d_out]``.  The weight gradient is one
    product over all leading axes of ``x`` flattened together."""
    if x.ndim < 1 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"affine: incompatible shapes {x.shape} and {w.shape}")
    if b is not None and b.shape != w.shape[1:]:
        raise ShapeError(f"affine: bias {b.shape} does not match weight {w.shape}")
    out_data = x.data @ w.data
    if b is not None:
        out_data += b.data

    def backward(g):
        _weight_grads(x.data, w, b, g)
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
    h = x.data @ w1.data
    h += b1.data
    np.maximum(h, 0.0, out=h)
    out_data = h @ w2.data
    out_data += b2.data

    def backward(g):
        _weight_grads(h, w2, b2, g)
        g_pre = g @ w2.data.T
        g_pre *= h > 0.0
        _weight_grads(x.data, w1, b1, g_pre)
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
    e = np.exp(-np.abs(x))
    out_data = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

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


def softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by max subtraction."""
    if a.data.size == 0 or a.shape[-1] == 0:
        raise ShapeError(f"softmax over an empty axis (shape {a.shape})")
    e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        a._accum(out_data * (g - (g * out_data).sum(axis=-1, keepdims=True)))

    return Tensor._result(out_data, (a,), backward)


# the score of each key past a sequence's end, in place of its zero padded
# row's score of 0: finite, yet far enough below any real score that exp()
# of it after max subtraction is exactly 0
MASKED_SCORE = -1e30


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              q_rows: RowLayout, k_rows: RowLayout) -> tuple[Tensor, Array]:
    """Multi-head scaled dot-product attention of packed sequences as one
    node.

    ``q`` is ``[N_q, d]``, packed as ``q_rows`` says, and ``k``, ``v`` are
    ``[N_k, d]``, packed as ``k_rows`` says; both layouts hold the same B
    samples, and each sample's queries attend over its own keys only.  Head
    h owns feature columns h*d/heads .. (h+1)*d/heads of all three.
    Returns the heads' mixed values, packed ``[N_q, d]`` as the queries
    are, and the attention maps ``[B, heads, T_q, T_k]`` over the padded
    layouts (a padded query's row is never read).

    Inside the node each input's rows are scattered whole into a zero
    ``[B * T, d]`` buffer at the flat index ``seq * T + pos``, which reads
    as ``[B, heads, T, head_dim]`` through a reshape and a transpose
    without a copy; each head product writes through the same view of a
    fresh ``[B * T, d]`` buffer, whose real rows come back through the same
    index.  The scores sit keys first, ``[T_k, B, heads, T_q]``, so the
    softmax and its backward reduce over the leading axis, and the maps
    are a transposed view of them.  Each key past its sequence's end
    scores ``MASKED_SCORE``, so its weight is exactly 0.
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
    tq, tk = q_rows.t_pad, k_rows.t_pad
    q_at = q_rows.seq * tq + q_rows.pos
    k_at = k_rows.seq * tk + k_rows.pos
    # each key step past its sample's end, as a row of [T_k * B, heads * T_q]
    past_end = np.flatnonzero(np.arange(tk)[:, None] >= k_rows.lengths)

    def by_head(rows: Array, t: int) -> Array:
        """a [B * T, d] buffer viewed as [B, heads, T, head_dim]"""
        return rows.reshape(b, t, heads, hd).transpose(0, 2, 1, 3)

    def padded(x: Array, at: Array, t: int) -> Array:
        """[N, d] -> [B, heads, T, head_dim], zero past each sequence's end"""
        out = np.zeros((b * t, d))
        out[at] = x
        return by_head(out, t)

    def product(x: Array, y: Array, at: Array, t: int) -> Array:
        """x @ y per sample and head, [B, heads, T, head_dim], as the [N, d]
        rows at ``at``"""
        out = np.empty((b * t, d))
        np.matmul(x, y, out=by_head(out, t))
        return out[at]

    def keys_first(x: Array, y: Array) -> Array:
        """x @ y per sample and head, [B, heads, T_k, T_q], in a [T_k, B,
        heads, T_q] buffer"""
        out = np.empty((tk, b, heads, tq))
        np.matmul(x, y, out=out.transpose(1, 2, 0, 3))
        return out

    # keys on the leading axis, so the softmax reduces over whole
    # contiguous [B, heads, T_q] blocks.  BLAS rounding depends on operand
    # layout and a sum's on its axis, so these layouts are part of the
    # result: another layout changes the values in the last bits
    p = keys_first(padded(k.data, k_at, tk), padded(q.data, q_at, tq).swapaxes(-1, -2))
    p *= scale
    p.reshape(tk * b, -1)[past_end] = MASKED_SCORE
    p -= p.max(axis=0)
    np.exp(p, out=p)
    p /= p.sum(axis=0)
    maps = p.transpose(1, 2, 3, 0)
    out_data = product(maps, padded(v.data, k_at, tk), q_at, tq)

    def backward(g):
        # the padded inputs are rebuilt rather than kept
        g_h = padded(g, q_at, tq)
        if v.requires_grad:
            v._accum(product(p.transpose(1, 2, 0, 3), g_h, k_at, tk))
        g_p = keys_first(padded(v.data, k_at, tk), g_h.swapaxes(-1, -2))
        g_p -= (g_p * p).sum(axis=0)
        g_p *= p
        g_p *= scale
        if q.requires_grad:
            q._accum(product(g_p.transpose(1, 2, 3, 0), padded(k.data, k_at, tk), q_at, tq))
        if k.requires_grad:
            k._accum(product(g_p.transpose(1, 2, 0, 3), padded(q.data, q_at, tq), k_at, tk))

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
            if t.requires_grad:
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
    as they would term by term.  With no triplet the loss is a constant 0.
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


def conv1d(x: Array, kernel: Tensor, bias: Tensor, rows: RowLayout) -> Tensor:
    """Width-3 temporal convolution of packed sequences with zero
    same-padding.

    ``x`` is a plain ``[N, d_in]`` array, packed as ``rows`` says: raw
    features are data, so they get no gradient.  ``kernel`` is ``[3, d_in,
    d_out]``, its taps reading the previous step, the step itself and the
    next step.  A tap that falls outside its own sequence reads a zero row,
    exactly as zero padding would, so each sequence's output is what it
    would be alone.

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
    np.matmul(x, k_cat, out=per_tap[:n])
    per_tap[n] = 0.0
    out_data = per_tap[:n, d_out:2 * d_out] + bias.data
    out_data += per_tap[rows.prev, :d_out]
    out_data += per_tap[rows.next, 2 * d_out:]

    def backward(g):
        if bias.requires_grad:
            bias._accum(g.sum(axis=0))
        if kernel.requires_grad:
            g_ext = np.empty((n + 1, d_out))
            g_ext[:n] = g
            g_ext[n] = 0.0
            # block k of row r: the gradient of the output that reads row r at tap k
            g_taps = np.concatenate([g_ext[rows.next], g, g_ext[rows.prev]], axis=1)
            kernel._accum((x.T @ g_taps).reshape(d_in, 3, d_out).transpose(1, 0, 2))

    return Tensor._result(out_data, (kernel, bias), backward)


# ---- fused losses and poolings used throughout the model ----

_SQ_FLOOR = 1e-24  # a smaller squared norm counts as zero


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
