"""Building blocks: RoPE, SwishGLU FFN, causal attention, the own-expert mix.

Training runs taped ops, decoding plain numpy functions (suffix ``_np``).
Every formula below the block level is one numpy kernel in
:mod:`molkv.autodiff` (RMSNorm, softmax, sigmoid, SiLU, the RoPE rotation)
that the taped op runs for its forward; this module re-exports them.
Attention's two, ``attention_logits`` and ``attention_weights``, run in
the fused ``autodiff.attention`` op in training and over a :class:`KVCache`
in decoding. The SwishGLU FFN keeps two forms, held equal by the tests: the
fused ``autodiff.swishglu`` op and a one-line numpy form. The same cache,
windowed to the last M positions, holds the cached key-value experts of
:mod:`molkv.kvexperts`. RoPE is one complex table, ``rope_tables``'
exp(i * position * freq), and the rotation kernel, which multiplies each
interleaved coordinate pair, read as a complex number, by it. The
per-token decoding functions here and in :mod:`molkv.kvexperts` take the
current position's table ``rot`` as an argument, so a decode step builds
each table once. Both expert blocks mix a token's own experts with
``own_expert_mix`` in training and ``own_expert_step`` in decoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    attention,
    attention_logits,
    attention_weights,
    dense,
    embedding_lookup,
    mul,
    reshape,
    rmsnorm,
    rmsnorm_np,
    rope_rotate,
    rope_rotate_np,
    sigmoid,
    sigmoid_np,
    silu_np,
    softmax_np,
    swishglu,
    tensor_sum,
    transpose,
)

__all__ = [
    "FFNParams",
    "AttnParams",
    "KVCache",
    "lookup_distinct",
    "rmsnorm",  # re-exports: the kernels and taped ops live in autodiff
    "rmsnorm_np",
    "rope_tables",
    "swishglu_ffn",
    "swishglu_ffn_np",
    "causal_attention",
    "causal_attention_step",
    "own_expert_mix",
    "own_expert_step",
    "sigmoid_np",
    "silu_np",
    "softmax_np",
    "NORM_EPS",
    "ROPE_THETA",
]

NORM_EPS = 1e-8
ROPE_THETA = 10000.0


@dataclass
class FFNParams:
    """SwishGLU feed-forward weights, no biases."""

    gate: Tensor  # (d, D)
    up: Tensor  # (d, D)
    down: Tensor  # (D, d_out)

    def tensors(self):
        return [("gate", self.gate), ("up", self.up), ("down", self.down)]


@dataclass
class AttnParams:
    """Multi-head causal attention projections; head_dim must be even."""

    wq: Tensor  # (d, d)
    wk: Tensor  # (d, d)
    wv: Tensor  # (d, d)
    wo: Tensor  # (d, d)
    n_heads: int

    def tensors(self):
        return [("wq", self.wq), ("wk", self.wk), ("wv", self.wv), ("wo", self.wo)]


# ---------------------------------------------------------------------------
# RoPE table
# ---------------------------------------------------------------------------


def rope_tables(positions, dim: int, theta: float = ROPE_THETA, dtype=np.float64) -> np.ndarray:
    """The rotation table exp(i * position * freq) of shape positions.shape + (dim // 2,).

    Complex64 for an fp32 ``dtype``, complex128 for fp64. Computed in fp64
    (cos and sin of each angle) and cast down, so fp32 models still share
    the exact same angles as the verification paths.
    """
    if dim % 2:
        raise ShapeError(f"rope dimension must be even, got {dim}")
    pos = np.asarray(positions, dtype=np.float64)
    freqs = theta ** (-np.arange(0, dim, 2, dtype=np.float64) / dim)
    ang = pos[..., None] * freqs
    rot = np.empty(ang.shape, dtype=np.complex128)
    rot.real, rot.imag = np.cos(ang), np.sin(ang)
    return rot.astype(np.result_type(dtype, np.complex64), copy=False)


def lookup_distinct(table: Tensor, ids) -> tuple[Tensor, np.ndarray]:
    """Rows of ``table`` for the distinct ``ids``, and each position's index into them."""
    uniq, inverse = np.unique(ids, return_inverse=True)
    return embedding_lookup(table, uniq), inverse.reshape(np.shape(ids))


# ---------------------------------------------------------------------------
# FFN
# ---------------------------------------------------------------------------


def swishglu_ffn(x: Tensor, p: FFNParams) -> Tensor:
    """down(silu(x @ gate) * (x @ up)); maps (..., d) to (..., d_out)."""
    return swishglu(x, p.gate, p.up, p.down)


def swishglu_ffn_np(x: np.ndarray, p: FFNParams) -> np.ndarray:
    return (silu_np(x @ p.gate.data) * (x @ p.up.data)) @ p.down.data


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def causal_attention(x: Tensor, p: AttnParams, theta: float = ROPE_THETA) -> Tensor:
    """Batched causal multi-head attention with RoPE on q and k.

    x is (b, s, d) or (s, d); position t attends to positions <= t.
    """
    squeeze = x.ndim == 2
    if squeeze:
        x = reshape(x, (1,) + x.shape)
    b, s, d = x.shape
    h = p.n_heads
    hd = d // h

    def heads(t: Tensor) -> Tensor:
        return transpose(reshape(t, (b, s, h, hd)), (0, 2, 1, 3))  # (b, h, s, hd)

    q = heads(dense(x, p.wq))
    k = heads(dense(x, p.wk))
    v = heads(dense(x, p.wv))

    rot = rope_tables(np.arange(s), hd, theta, x.dtype)  # (s, hd/2)
    q = rope_rotate(q, rot)
    k = rope_rotate(k, rot)

    causal = np.tril(np.ones((s, s), dtype=bool))
    # A Python float: a NumPy float64 scalar would promote fp32 scores to fp64.
    ctx = attention(q, k, v, causal, 1.0 / math.sqrt(hd))  # (b, h, s, hd)
    out = dense(reshape(transpose(ctx, (0, 2, 1, 3)), (b, s, d)), p.wo)
    return reshape(out, (s, d)) if squeeze else out


class KVCache:
    """Keys and values of one decoding sequence, one row of each per position, oldest first.

    Two preallocated arrays share one ``start``/``end`` pair; ``k`` and ``v``
    are contiguous views of the live rows, and ``next_position`` counts the
    appends. An append writes one row of each in place. When the arrays are
    full, the rows still needed after this append move to their front, or to
    new arrays of twice the rows if they would fill more than half. So an
    unbounded cache starts at ``INITIAL_ROWS`` and doubles, amortized O(1)
    per append, and a cache with ``window`` M holds 2M rows and moves the
    newest M - 1 to the front once every M + 1 appends.
    """

    INITIAL_ROWS = 32  # rows of an unbounded cache before the first doubling

    def __init__(self, key_shape, value_shape, dtype, window: int | None = None):
        rows = self.INITIAL_ROWS if window is None else 2 * window
        self._k = np.empty((rows, *key_shape), dtype=dtype)
        self._v = np.empty((rows, *value_shape), dtype=dtype)
        self.window = window
        self.start = self.end = self.next_position = 0

    def __len__(self):
        return self.end - self.start

    @property
    def k(self) -> np.ndarray:
        return self._k[self.start : self.end]

    @property
    def v(self) -> np.ndarray:
        return self._v[self.start : self.end]

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        rows = len(self._k)
        if self.end == rows:
            keep = len(self) if self.window is None else min(len(self), self.window - 1)
            old_k, old_v = self._k, self._v
            if 2 * keep > rows:
                self._k = np.empty((2 * rows, *old_k.shape[1:]), dtype=old_k.dtype)
                self._v = np.empty((2 * rows, *old_v.shape[1:]), dtype=old_v.dtype)
            self._k[:keep] = old_k[self.end - keep : self.end]
            self._v[:keep] = old_v[self.end - keep : self.end]
            self.start, self.end = 0, keep
        self._k[self.end] = k
        self._v[self.end] = v
        self.end += 1
        self.next_position += 1
        if self.window is not None and len(self) > self.window:
            self.start += 1


def causal_attention_step(x: np.ndarray, p: AttnParams, cache: KVCache, rot: np.ndarray) -> np.ndarray:
    """One-token attention; appends this position's k/v to the cache.

    ``rot`` is the position's RoPE table, ``rope_tables(t, hd, theta,
    dtype)`` with t = ``cache.next_position``, which rotates q and k.
    Scores, weights and mixes per head with batched matmul over transposed views
    of the slot-major cache: (h, 1, hd) @ (h, hd, t), then (h, 1, t) @ (h, t, hd).
    """
    d = x.shape[-1]
    h = p.n_heads
    hd = d // h
    q = (x @ p.wq.data).reshape(h, hd)
    k = (x @ p.wk.data).reshape(h, hd)
    v = (x @ p.wv.data).reshape(h, hd)
    q = rope_rotate_np(q, rot)
    k = rope_rotate_np(k, rot)
    cache.append(k, v)
    w = attention_weights(attention_logits(q[:, None, :], cache.k.transpose(1, 2, 0), 1.0 / math.sqrt(hd)))
    ctx = (w @ cache.v.transpose(1, 0, 2)).reshape(d)  # (h, 1, hd)
    return ctx @ p.wo.data


def own_expert_mix(h: Tensor, q: Tensor, keys: Tensor, values: Tensor, routers: Tensor, gate: Tensor | None,
                   scale: float) -> Tensor:
    """sum_n softmax_n(h . r_n + scale * q . k_n) v_n over each position's own N pairs, times sigmoid(h . u) if gated.

    h is (..., d), q (..., e), keys (..., N, e) and values (..., N, f); out is (..., f). One ``attention`` call
    runs each query over its N keys, with the router as bias. Lookup experts have no keys: they pass e = 0 and
    scale 1.0, since 1/sqrt(0) is undefined, so the router alone scores them.
    """
    lead, n = h.shape[:-1], keys.shape[-2]
    router = reshape(dense(h, routers), lead + (1, n))
    mix = attention(reshape(q, lead + (1, q.shape[-1])), keys, values, np.ones((1, n), dtype=bool), scale, bias=router)
    mix = reshape(mix, lead + (values.shape[-1],))
    return mix if gate is None else mul(mix, sigmoid(tensor_sum(mul(h, gate), axis=-1, keepdims=True)))


def own_expert_step(h: np.ndarray, q: np.ndarray, keys: np.ndarray, values: np.ndarray, routers: Tensor,
                    gate: Tensor | None, scale: float) -> np.ndarray:
    """``own_expert_mix`` of one token, on attention's two kernels: h (d,), q (e,), keys (N, e), values (N, f)."""
    mix = attention_weights(attention_logits(q, keys.T, scale, h @ routers.data)) @ values
    return mix if gate is None else sigmoid_np(h @ gate.data) * mix
