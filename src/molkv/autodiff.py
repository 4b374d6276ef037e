"""Dense tensors with reverse-mode differentiation on an explicit tape.

Arrays are row-major numpy buffers in fp32 or fp64. Every differentiable
operation records a node on the active tape (a thread-local stack), and
``backward`` pops the nodes in reverse to accumulate gradients into the
leaves. A node holds a handle for its output, not the output tensor, so an
output that no VJP reads is freed during the forward. A VJP keeps only what
it reads: ``add``, ``reshape``, ``transpose``, ``stack``, ``tensor_sum``
and ``scale`` hold shapes, axes, a count or a constant, never an array. A
popped node is dropped with what its VJP kept, so each activation is freed
once its last consumer's VJP has run, and backward never holds more than
the forward tape. Inference code simply runs with no tape active and pays
no recording cost. ``matmul``'s gradient of a 2-D weight shared by every
leading index of the other operand is one 2-D product over all its rows.

Two fused ops keep the tape small: ``attention`` holds q, k^T, v, the
bias and, per block of queries, its mask over the keys it reaches, and its
gradient recomputes each block's softmax weights with the forward's calls,
one block at a time; ``swishglu`` holds only its input x, and its gradient
recomputes both pre-activations with the forward's products. So no (s, t)
array of weights or scores and no (..., D) FFN activation stays on the
tape. Each one's gradient runs the numpy expressions of the op chain it
replaced, in the same order: it has that chain's bits, except that over
several blocks attention sums softmax rows and k, v gradients in another
order. Decoding runs attention's two forward kernels, ``attention_logits``
and ``attention_weights``, and the FFN's, ``swishglu_np``. Gradient kernels
keep the bits of their plain numpy forms (``np.add.at`` for gathers,
``np.where`` chains for the masked softmax).
``attention`` is the only taped softmax: the expert blocks' own-expert mix runs it too.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "GraphError",
    "ShapeError",
    "parameter",
    "add",
    "mul",
    "scale",
    "matmul",
    "dense",
    "swishglu",
    "swishglu_np",
    "sigmoid",
    "sigmoid_np",
    "silu_np",
    "reshape",
    "transpose",
    "stack",
    "tensor_sum",
    "softmax_np",
    "attention",
    "attention_logits",
    "attention_weights",
    "rmsnorm",
    "rmsnorm_np",
    "NORM_EPS",
    "rope_rotate",
    "rope_rotate_np",
    "embedding_lookup",
    "cross_entropy_logits",
    "window_topk_mask",
    "backward",
    "grad_check",
]

FLOAT_DTYPES = (np.float32, np.float64)
ATTENTION_BLOCK = 64  # query rows per block of ``attention``
NORM_EPS = 1e-8  # RMSNorm's epsilon, in every norm of every model
GRAD_NOISE_FLOOR = 1e-6  # grad_check: a 1e-4 check reads rounding below it (1 ulp of loss / 2eps ~ 1e-11-1e-10)


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class GraphError(RuntimeError):
    """Tape misuse: non-scalar loss, double backward, wrong-precision leaves."""


class Tensor:
    """A dense fp32/fp64 array plus gradient bookkeeping.

    The data buffer is treated as immutable once the tensor participates in
    a taped computation; gradients land in ``.grad`` (accumulated across
    backward calls, cleared by the caller).
    """

    __slots__ = ("data", "requires_grad", "grad", "handle")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = requires_grad
        self.grad = None
        self.handle = None  # set by the op that records this tensor on a tape

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # The two operators the model writes, each routed through its module-level op so the tape sees one
    # rule: tensor + tensor for the residuals and expert terms, tensor * float for the loss scaled by
    # 1 / grad_accum. Any other operand is a TypeError; every other op is called by name.
    def __add__(self, other):
        return add(self, other) if isinstance(other, Tensor) else NotImplemented

    def __mul__(self, other):
        return scale(self, other) if isinstance(other, float) else NotImplemented


def parameter(data, dtype=None) -> Tensor:
    """A leaf tensor that collects gradients."""
    return Tensor(data, dtype=dtype, requires_grad=True)


class _Node:
    """One taped op: its output's handle, each input's ``Tape.key`` (None if it needs no gradient) and its VJP."""

    __slots__ = ("out", "inputs", "vjp")

    def __init__(self, out, inputs, vjp):
        self.out = out
        self.inputs = inputs
        self.vjp = vjp


class Tape:
    """Ordered record of operations; inputs of a node always precede it."""

    _local = threading.local()

    def __init__(self):
        self.nodes: list[_Node] = []
        self.produced: set[object] = set()  # the handles of the outputs recorded here
        self._consumed = False

    @classmethod
    def active(cls):
        stack = getattr(cls._local, "stack", None)
        return stack[-1] if stack else None

    def __enter__(self):
        stack = getattr(Tape._local, "stack", None)
        if stack is None:
            stack = Tape._local.stack = []
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        Tape._local.stack.pop()
        return False

    def key(self, t: Tensor):
        """What backward files ``t``'s gradient under: its handle if recorded here, else the tensor, a leaf."""
        return t.handle if t.handle in self.produced else t


def _record(out: Tensor, inputs, vjp) -> Tensor:
    tape = Tape.active()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.handle = object()
        tape.produced.add(out.handle)
        tape.nodes.append(_Node(out.handle, tuple(tape.key(t) if t.requires_grad else None for t in inputs), vjp))
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcasting introduced."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = Tensor(a.data + b.data)
    except ValueError as e:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}") from e

    a_shape, b_shape = a.shape, b.shape
    return _record(out, (a, b), lambda g: (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = Tensor(a.data * b.data)
    except ValueError as e:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}") from e

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record(out, (a, b), vjp)


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data * c)
    return _record(out, (a,), lambda g: (g * c,))


def sigmoid_np(x: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function: exp only ever sees -|x|; one division, in place."""
    e = np.exp(-np.abs(x))
    d = e + 1.0
    e *= x < 0
    e += x >= 0  # e * (x < 0) + (x >= 0): np.where(x >= 0, 1.0, e) without a data-dependent select
    e /= d
    return e


def silu_np(x: np.ndarray) -> np.ndarray:
    return x * sigmoid_np(x)


def sigmoid(x: Tensor) -> Tensor:
    s = sigmoid_np(x.data)
    out = Tensor(s)

    def vjp(g):
        return (g * s * (1.0 - s),)

    return _record(out, (x,), vjp)


# ---------------------------------------------------------------------------
# linear algebra and structure
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product on the last two axes; leading axes follow numpy."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul expects >=2-D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)
    return _record(out, (a, b), lambda g: _matmul_grads(g, a.data, b.data))


def _matmul_grads(g: np.ndarray, a: np.ndarray, b: np.ndarray):
    """``matmul``'s VJP for ``a @ b``: (g @ b^T, a^T @ g), each summed over the axes broadcasting added.

    A 2-D ``b`` shared by every leading index of ``a`` gets its gradient as one 2-D product.
    """
    if b.ndim == 2 and a.ndim > 2:
        g2 = g.reshape(-1, b.shape[1])
        return (g2 @ b.T).reshape(a.shape), a.reshape(-1, b.shape[0]).T @ g2
    return _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape), _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)


def dense(x: Tensor, w: Tensor) -> Tensor:
    """x @ w for x of shape (..., i) and w of shape (i, o)."""
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"dense: {x.shape} @ {w.shape}")
    if x.ndim == 1:
        return reshape(matmul(reshape(x, (1, x.shape[0])), w), (w.shape[1],))
    return matmul(x, w)


def swishglu_np(x: np.ndarray, wg: np.ndarray, wu: np.ndarray, wd: np.ndarray) -> np.ndarray:
    """(silu(x @ wg) * (x @ wu)) @ wd: the SwishGLU FFN's one kernel, which training and decoding run."""
    m = silu_np(x @ wg)
    m *= x @ wu
    return m @ wd


def swishglu(x: Tensor, wg: Tensor, wu: Tensor, wd: Tensor) -> Tensor:
    """Taped ``swishglu_np`` for x of shape (..., d); the tape keeps only x.

    The gradient recomputes the pre-activations a = x @ wg and u = x @ wu
    with the forward's products, then the sigmoid, SiLU and product from
    them, in place and freeing each (..., D) buffer once it is read for the
    last time, so at most four are live. ``x`` is listed twice as an input,
    with its up-branch gradient first: backward then sums x's gradients in
    the order of the dense/SiLU/mul chain this op replaced. A 1-D ``x`` runs
    as one row, as ``dense`` does.
    """
    if x.shape[-1] != wg.shape[0] or wu.shape != wg.shape or wd.shape[0] != wg.shape[1]:
        raise ShapeError(f"swishglu: {x.shape} with gate {wg.shape}, up {wu.shape}, down {wd.shape}")
    xd = x.data.reshape(1, -1) if x.ndim == 1 else x.data
    y = swishglu_np(xd, wg.data, wu.data, wd.data)
    out = Tensor(y.reshape(wd.shape[1]) if x.ndim == 1 else y)
    x2 = xd.reshape(-1, xd.shape[-1])  # the rows of x: the gradient's products are 2-D, as ``_matmul_grads`` runs them

    def vjp(g):
        g2 = g.reshape(len(x2), -1)
        sa = (xd @ wg.data).reshape(len(x2), -1)  # a, by the forward's product
        s = sigmoid_np(sa)
        sa *= s  # silu(a), in a's buffer
        dsilu = np.subtract(1.0, s)  # s + a * s * (1 - s), the SiLU derivative, in one buffer
        np.add(np.multiply(dsilu, sa, out=dsilu), s, out=dsilu)
        del s
        u = (xd @ wu.data).reshape(sa.shape)
        gwd = (sa * u).T @ g2
        gm = g2 @ wd.data.T
        gup = np.multiply(gm, sa, out=sa)  # in silu(a)'s buffer
        del sa
        gx_up, gwu = gup @ wu.data.T, x2.T @ gup
        del gup
        ggate = np.multiply(gm, u, out=u)  # in u's buffer
        del gm, u
        ggate *= dsilu
        gx_gate, gwg = ggate @ wg.data.T, x2.T @ ggate
        return gx_up.reshape(x.shape), gx_gate.reshape(x.shape), gwg, gwu, gwd

    return _record(out, (x, x, wg, wu, wd), vjp)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.data.size:
        raise ShapeError(f"reshape {x.shape} -> {shape}: element counts differ")
    out = Tensor(x.data.reshape(shape))
    x_shape = x.shape
    return _record(out, (x,), lambda g: (g.reshape(x_shape),))


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes).tolist())
    out = Tensor(np.transpose(x.data, axes))
    return _record(out, (x,), lambda g: (np.transpose(g, inv),))


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    out = Tensor(np.stack([t.data for t in tensors], axis=axis))
    count = len(tensors)

    def vjp(g):
        return tuple(np.squeeze(p, axis=axis) for p in np.split(g, count, axis=axis))

    return _record(out, tensors, vjp)


def tensor_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))
    x_shape, x_dtype = x.shape, x.dtype

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x_shape).astype(x_dtype, copy=True),)

    return _record(out, (x,), vjp)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows (of any shape) of ``table`` for integer ``ids`` of any shape.

    The gradient sums each id's rows in position order, one axis-0 ``sum`` per id: the bits
    of ``np.add.at``, except one-element rows (a 1-D table; no model has one), summed pairwise.
    """
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"token id out of range for table with {table.shape[0]} rows")
    out = Tensor(table.data[ids])

    def vjp(g):
        order = np.argsort(ids, axis=None, kind="stable")
        uniq, starts = np.unique(ids.reshape(-1)[order], return_index=True)
        gt = np.zeros_like(table.data)
        for i, rows in zip(uniq, np.split(g.reshape((-1,) + table.shape[1:])[order], starts[1:])):
            gt[i] = rows.sum(axis=0)
        return (gt,)

    return _record(out, (table,), vjp)


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------


def softmax_np(x: np.ndarray, mask=None) -> np.ndarray:
    """Last-axis softmax, over the entries ``mask`` marks True when given.

    ``mask`` is a boolean array broadcastable to ``x``. Fully masked rows
    come out all-zero, and no NaN or inf ever reaches the output. The masked
    form runs in place on one buffer, with the bits of the ``np.where`` chain.
    """
    if mask is None:
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)
    e = x.copy()
    np.copyto(e, -np.inf, where=~mask)  # np.where(mask, x, -np.inf) in half its time on an attention block
    hi = e.max(axis=-1, keepdims=True)
    hi[~(hi > np.finfo(x.dtype).min / 2)] = 0.0  # fully masked row: any finite pivot
    np.exp(np.subtract(e, hi, out=e), out=e)
    tot = e.sum(axis=-1, keepdims=True)
    tot[tot == 0.0] = 1.0
    return np.divide(e, tot, out=e)


def attention_logits(q: np.ndarray, kt: np.ndarray, scale: float, bias: np.ndarray | None = None) -> np.ndarray:
    """scale * q @ kt for keys kt (..., e, t), plus ``bias`` (..., g): key j * g + n gets bias[..., n]."""
    w = q @ kt
    w *= scale
    if bias is not None:
        g = bias.shape[-1]
        wg = w.reshape(w.shape[:-1] + (w.shape[-1] // g, g))  # a view of w: (..., t / g, g)
        wg += bias[..., None, :]
    return w


def attention_weights(w: np.ndarray, mask=None, top_k: int | None = None) -> np.ndarray:
    """Last-axis softmax of logits ``w`` over the keys ``mask`` marks (all if None), or each row's ``top_k`` of them.

    Top-k ties go to the lowest key index (``window_topk_mask``); every other key gets weight 0.
    """
    if w.shape[-1] == 0:
        return w
    if top_k is not None:
        mask = window_topk_mask(w, mask, top_k)
    return softmax_np(w, mask)


def attention(q: Tensor, k: Tensor, v: Tensor, mask, scale: float, bias: Tensor | None = None,
              top_k: int | None = None) -> Tensor:
    """softmax(scale * q @ k^T [+ bias], over ``mask`` [and each row's top_k]) @ v as one taped op.

    q is (..., s, e), k (..., t, e) and v (..., t, f); the softmax runs over
    the t keys. ``mask`` is an (s, t) boolean array, or one that broadcasts
    to it, shared by the leading axes. With ``top_k``, a query keeps only its
    top_k largest unmasked logits, lowest key index first among ties. A query
    with no key left gets all-zero weights. ``bias`` (..., s, g), with g
    dividing t, is added to every run of g consecutive keys: key j * g + n
    gets bias[..., n]. ``scale`` is a Python float, so fp32 logits stay fp32.

    Queries run in blocks of ``ATTENTION_BLOCK`` rows; a block scores only
    the keys [lo, hi) that its rows of ``mask`` reach (in whole bias groups),
    with ``attention_logits`` and ``attention_weights``. The tape keeps q, the
    contiguous k^T, v, the bias and each block's copy of its mask rows over
    [lo, hi); it keeps no weights and not the caller's mask. The gradient
    recomputes each block's weights with the forward's calls, so they have
    the forward's bits, and runs the block through the op chain's numpy
    expressions, in order.
    """
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape}")
    s, t = q.shape[-2], k.shape[-2]
    mask = np.broadcast_to(mask, (s, t))
    group = 1 if bias is None else bias.shape[-1]
    kt = np.ascontiguousarray(np.swapaxes(k.data, -1, -2))

    def weights(block):
        r0, r1, lo, hi, m = block
        bias_rows = None if bias is None else bias.data[..., r0:r1, :]
        return attention_weights(attention_logits(q.data[..., r0:r1, :], kt[..., lo:hi], scale, bias_rows), m, top_k)

    blocks, outs = [], []  # blocks: (first row, end row, first key, end key, mask[r0:r1, lo:hi])
    for r0 in range(0, s, ATTENTION_BLOCK):
        r1 = min(r0 + ATTENTION_BLOCK, s)
        cols = np.flatnonzero(mask[r0:r1].any(axis=0))
        lo, hi = (cols[0], cols[-1] + 1) if cols.size else (0, 0)
        lo, hi = lo - lo % group, hi + -hi % group  # whole bias groups
        blocks.append((r0, r1, lo, hi, mask[r0:r1, lo:hi].copy()))  # a copy: the tape holds no view of mask
        outs.append(weights(blocks[-1]) @ v.data[..., lo:hi, :])
    out = Tensor(np.concatenate(outs, axis=-2))

    def vjp(g):
        gq, gkt, gv = np.empty_like(q.data), np.zeros_like(kt), np.zeros_like(v.data)
        gb = None if bias is None else np.empty_like(bias.data)  # q's and the bias's rows are each one block's
        for block in blocks:  # each block's arrays are freed before the next block recomputes its weights
            r0, r1, lo, hi, _ = block
            w = weights(block)
            gw, gvb = _matmul_grads(g[..., r0:r1, :], w, v.data[..., lo:hi, :])
            gv[..., lo:hi, :] += gvb
            del gvb
            # the softmax VJP (gw - sum(gw * w)) * w, in gw's buffer
            np.subtract(gw, (gw * w).sum(axis=-1, keepdims=True), out=gw)
            gw *= w
            del w
            if bias is not None:  # written before gw is scaled in place below
                gwg = gw.reshape(gw.shape[:-1] + ((hi - lo) // group, group))
                gb[..., r0:r1, :] = _unbroadcast(gwg.sum(axis=-2), gb[..., r0:r1, :].shape)
                del gwg
            gw *= scale
            gq[..., r0:r1, :], gktb = _matmul_grads(gw, q.data[..., r0:r1, :], kt[..., lo:hi])
            del gw
            gkt[..., lo:hi] += gktb
            del gktb
        return (gq, np.swapaxes(gkt, -1, -2), gv) + (() if bias is None else (gb,))

    return _record(out, (q, k, v) + (() if bias is None else (bias,)), vjp)


def cross_entropy_logits(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood in nats; targets are integer ids."""
    t = np.asarray(targets).reshape(-1)
    z = logits.data.reshape(-1, logits.shape[-1])
    if t.shape[0] != z.shape[0]:
        raise ShapeError(f"cross entropy: {z.shape[0]} rows vs {t.shape[0]} targets")
    hi = z.max(axis=-1, keepdims=True)
    lse = hi[:, 0] + np.log(np.exp(z - hi).sum(axis=-1))
    n = z.shape[0]
    loss = (lse - z[np.arange(n), t]).mean()
    out = Tensor(np.asarray(loss, dtype=z.dtype))

    def vjp(g):
        p = softmax_np(z)
        p[np.arange(n), t] -= 1.0
        g_scalar = float(np.asarray(g).reshape(-1)[0])
        return ((g_scalar / n) * p.reshape(logits.shape),)

    return _record(out, (logits,), vjp)


# ---------------------------------------------------------------------------
# normalization and rotation
# ---------------------------------------------------------------------------


def _rms(x: np.ndarray) -> np.ndarray:
    # The bits of ``(x * x).mean(axis=-1, keepdims=True)``, without the method's per-call overhead.
    return np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1] + NORM_EPS)


def rmsnorm_np(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """gain * (x / sqrt(mean(x^2, last axis) + NORM_EPS))."""
    return gain * (x / _rms(x))


def rmsnorm(x: Tensor, gain: Tensor) -> Tensor:
    """Taped ``rmsnorm_np``; the gradient recomputes the norm from ``x``."""
    if gain.shape != (x.shape[-1],):
        raise ShapeError(f"rmsnorm gain {gain.shape} does not match last axis of {x.shape}")
    d = x.data
    out = Tensor(rmsnorm_np(d, gain.data))

    def vjp(g):
        n = d.shape[-1]
        r = _rms(d)
        gy = g * gain.data
        gx = gy / r - d * ((gy * d).sum(axis=-1, keepdims=True) / (n * r**3))
        ggain = (g * (d / r)).reshape(-1, n).sum(axis=0)
        return gx, ggain

    return _record(out, (x, gain), vjp)


def rope_rotate_np(x: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Rotate interleaved pairs (x[2i], x[2i+1]) as complex numbers x[2i] + i x[2i+1], times ``rot``.

    ``rot`` is a complex table of last extent x.shape[-1] // 2, broadcast
    against x's pairs. The result is a real view of one complex product.
    """
    half = x.shape[-1] // 2
    if x.shape[-1] % 2 or rot.shape[-1] != half:
        raise ShapeError(f"rope of {x.shape} needs an even last axis and a table of width {half}, not {rot.shape}")
    out = np.ascontiguousarray(x).view(np.result_type(x.dtype, np.complex64)) * rot
    return out.view(out.real.dtype)


def rope_rotate(x: Tensor, rot: np.ndarray) -> Tensor:
    """Rotate interleaved coordinate pairs of the last axis by ``rope_rotate_np``'s table ``rot``, a constant.

    The gradient is the inverse rotation, by ``np.conj(rot)``.
    """
    out = Tensor(rope_rotate_np(x.data, rot))
    return _record(out, (x,), lambda g: (rope_rotate_np(g, np.conj(rot)),))


# ---------------------------------------------------------------------------
# top-k (selection only; not differentiable)
# ---------------------------------------------------------------------------


def window_topk_mask(scores: np.ndarray, win, k: int) -> np.ndarray:
    """Each last-axis row's k largest scores where ``win`` is True (all if None), lowest index first among ties.

    Keeps every entry at or above the k-th value from ``np.partition``; where
    a row has more ties at it than places, only its lowest-index ties: the k
    a stable descending argsort puts first.
    """
    keyed = scores if win is None else np.where(win, scores, -np.inf)
    k = min(k, keyed.shape[-1])
    kth = np.partition(keyed, keyed.shape[-1] - k, axis=-1)[..., -k, None]
    keep = keyed >= kth
    if np.count_nonzero(keep) > k * (keep.size // keep.shape[-1]):
        tie = keyed == kth
        places = k - np.add.reduce(keep ^ tie, axis=-1, keepdims=True)  # k minus the entries above the k-th value
        keep ^= tie & (np.add.accumulate(tie, axis=-1, dtype=np.int32) > places)
    return keep if win is None else keep & win


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------


def backward(tape: Tape, loss: Tensor):
    """Accumulate d(loss)/d(leaf) into each leaf's ``.grad``.

    Returns {leaf: gradient array} for every leaf the loss reaches. Each
    node is popped off ``tape.nodes`` as its VJP runs and then dropped, so
    an intermediate's buffer is freed once its last consumer is done and
    the tape is empty on return. A tape can be walked once; build a fresh
    tape per step.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")
    if tape._consumed:
        raise GraphError("tape already consumed; gradient accumulation without reset")
    tape._consumed = True

    pending = {tape.key(loss): np.ones_like(loss.data)}  # handle or leaf tensor -> gradient
    while tape.nodes:
        _run_vjp(tape.nodes.pop(), pending)

    leaf_grads: dict[Tensor, np.ndarray] = {}
    for key, g in pending.items():
        if key in tape.produced:
            continue  # unreached intermediate
        key.grad = g if key.grad is None else key.grad + g
        leaf_grads[key] = g
    return leaf_grads


def _run_vjp(node: _Node, pending: dict) -> None:
    """Pass the pending gradient of ``node``'s output on to its inputs; the caller holds no reference to ``node``."""
    g = pending.pop(node.out, None)
    if g is None:
        return
    for key, gin in zip(node.inputs, node.vjp(g)):
        if key is None or gin is None:
            continue
        pending[key] = pending[key] + gin if key in pending else gin


def grad_check(f, leaves, eps: float = 1e-5, samples_per_leaf: int = 24, seed: int = 0) -> float:
    """Max relative error between taped gradients and central differences.

    ``f`` recomputes the scalar loss from the current leaf buffers. Leaves
    must be fp64; coordinates are subsampled per leaf when large. Where both
    values are below ``GRAD_NOISE_FLOOR`` in magnitude they count as agreeing.
    """
    for leaf in leaves:
        if leaf.dtype != np.float64:
            raise GraphError("grad_check requires fp64 leaves")

    saved = [leaf.grad for leaf in leaves]
    for leaf in leaves:
        leaf.grad = None
    with Tape() as tape:
        loss = f()
    grads = backward(tape, loss)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for leaf in leaves:
        analytic = grads.get(leaf, np.zeros_like(leaf.data))
        size = leaf.data.size
        if size <= samples_per_leaf:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=samples_per_leaf, replace=False)
        flat = leaf.data.reshape(-1)
        aflat = analytic.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            fp = f().item()
            flat[c] = orig - eps
            fm = f().item()
            flat[c] = orig
            cd = (fp - fm) / (2.0 * eps)
            if max(abs(aflat[c]), abs(cd)) >= GRAD_NOISE_FLOOR:
                worst = max(worst, abs(aflat[c] - cd) / (abs(aflat[c]) + abs(cd)))
    for leaf, g in zip(leaves, saved):
        leaf.grad = g
    return worst
