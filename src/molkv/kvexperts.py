"""Key-value lookup experts with a sliding window of cached experts.

Each token id owns N (key, value) expert pairs produced by expert FFNs from
the normalized token embedding. A block combines three expert signals:

* the token's own experts, mixed by a router score augmented with the
  non-rotated query-key score (gated by sigmoid(h . u));
* cached experts of the last M preceding tokens, scored with a RoPE-rotated
  query against RoPE-rotated keys plus a second router, pruned to the top-k
  scores (ties to the oldest) and softmax-weighted (gated by sigmoid(h . u'));
* the ordinary shared FFN.

Training runs ``molkv_expert_pairs`` taped once per distinct id in the
batch and gathers its rows to the positions; ``molkv_expert_terms`` is the
own- plus cached-expert term that ``model.forward`` adds to the shared
FFN's output. Each path is one ``autodiff.attention`` call. The own-expert
path, ``layers.own_expert_mix``, attends from each position's unrotated
query over its token's N pairs, with the router as bias. The cached-expert
path uses the window mask, the second router as bias and a top-k; each
query block scores only its band of M*N slots, and the tape keeps that
band's mask, not its weights. Export runs the pairs untaped on every token
id. Decoding's ``molkv_step`` (in :mod:`molkv.runtime`) mixes the own
experts with ``layers.own_expert_step`` and runs the attention op's two
kernels on one query for the cached experts, as ``molkv_new_scores`` and
``molkv_select``; ``cache_insert`` appends each token's pairs to the
sequence's :class:`~molkv.layers.KVCache` windowed to M positions, the
same cache that backbone attention keeps unbounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    attention,
    attention_logits,
    attention_weights,
    dense,
    embedding_lookup,
    mul,
    reshape,
    rmsnorm,
    rope_rotate,
    rope_rotate_np,
    sigmoid,
    stack,
    tensor_sum,
)
from .layers import NORM_EPS, ROPE_THETA, FFNParams, KVCache, own_expert_mix, rope_tables, swishglu_ffn


class CacheStateError(RuntimeError):
    """Cache positions must advance one token at a time."""


@dataclass
class MoLKVBlockParams:
    """One expert-bearing layer of the key-value variant."""

    ffn: FFNParams  # shared path, d -> d
    query_proj: Tensor  # (d, d')
    routers: Tensor  # (d, N), own-expert path
    new_routers: Tensor  # (d, N), cached-expert path
    gate: Tensor  # (d,)
    new_gate: Tensor  # (d,)
    key_experts: list[FFNParams]  # N FFNs, d -> d'
    value_experts: list[FFNParams]  # N FFNs, d -> d
    vocab_norm: Tensor  # (d,)
    key_norm: Tensor  # (d',)
    value_norm: Tensor  # (d,)
    top_k: int = 1
    rope_theta: float = ROPE_THETA
    norm_eps: float = NORM_EPS

    @property
    def num_experts(self) -> int:
        return len(self.key_experts)

    @property
    def key_dim(self) -> int:
        return self.query_proj.shape[1]

    @property
    def qk_scale(self) -> float:
        # A Python float: a NumPy float64 scalar would promote fp32 scores to fp64.
        return 1.0 / math.sqrt(self.key_dim)

    def tensors(self):
        out = [("ffn." + n, t) for n, t in self.ffn.tensors()]
        out += [
            ("query_proj", self.query_proj),
            ("routers", self.routers),
            ("new_routers", self.new_routers),
            ("gate", self.gate),
            ("new_gate", self.new_gate),
        ]
        for i, e in enumerate(self.key_experts):
            out.extend((f"key_experts.{i}." + n, t) for n, t in e.tensors())
        for i, e in enumerate(self.value_experts):
            out.extend((f"value_experts.{i}." + n, t) for n, t in e.tensors())
        out += [("vocab_norm", self.vocab_norm), ("key_norm", self.key_norm), ("value_norm", self.value_norm)]
        return out


@dataclass
class ExpertKV:
    """The N expert pairs of one token id.

    Keys are post-key-norm but not yet rotated (rotation happens at cache
    insertion, where the absolute position is known). ``values_normed``
    always equals rmsnorm(values, value_norm gain).
    """

    keys: np.ndarray  # (N, d')
    values: np.ndarray  # (N, d), raw
    values_normed: np.ndarray  # (N, d)


def molkv_expert_pairs(emb: Tensor, params: MoLKVBlockParams):
    """(post-norm keys, raw values, normed values) for (..., d) embeddings: (..., N, d'), (..., N, d) twice."""
    eh = rmsnorm(emb, params.vocab_norm, params.norm_eps)
    keys = stack(
        [rmsnorm(swishglu_ffn(eh, ke), params.key_norm, params.norm_eps) for ke in params.key_experts], axis=-2
    )
    values = stack([swishglu_ffn(eh, ve) for ve in params.value_experts], axis=-2)
    return keys, values, rmsnorm(values, params.value_norm, params.norm_eps)


def compute_expert_kv(e_id: np.ndarray, params: MoLKVBlockParams) -> ExpertKV:
    """Expert keys/values for one embedding row (or a batch of rows).

    e_id is (d,) or (..., d); outputs gain a leading N axis after the batch
    axes: keys (..., N, d'), values (..., N, d). Call it with no tape active.
    """
    keys, values, values_normed = molkv_expert_pairs(Tensor(e_id), params)
    return ExpertKV(keys=keys.data, values=values.data, values_normed=values_normed.data)


def cache_insert(cache: KVCache, position: int, kv: ExpertKV, rot) -> KVCache:
    """Append ``position``'s keys rotated by its RoPE table ``rot`` and its normed values.

    ``cache`` is the layer's windowed :class:`~molkv.layers.KVCache` of
    (N, d') key and (N, d) value rows; it keeps the last M positions.
    """
    if position != cache.next_position:
        if cache.next_position:
            raise CacheStateError(f"cache holds ..{cache.next_position - 1}, cannot insert position {position}")
        raise CacheStateError(f"empty cache starts at position 0, got {position}")
    cache.append(rope_rotate_np(kv.keys, rot), kv.values_normed)
    return cache


# ---------------------------------------------------------------------------
# incremental (inference-mode) pieces
# ---------------------------------------------------------------------------


def molkv_query(h: np.ndarray, params: MoLKVBlockParams, rot):
    """(q, q rotated by the current position's RoPE table ``rot``) for one hidden state."""
    q = h @ params.query_proj.data
    return q, rope_rotate_np(q, rot)


def molkv_new_scores(q_rot: np.ndarray, h: np.ndarray, cache: KVCache, params: MoLKVBlockParams) -> np.ndarray:
    """Flattened (slot-major) scores over the cached experts.

    S[j*N + n] = (K_rot[j, n] . q_rot) / sqrt(d') + (h . new_router_n).
    """
    m, n, dk = cache.k.shape
    return attention_logits(q_rot, cache.k.reshape(m * n, dk).T, params.qk_scale, h @ params.new_routers.data)


def molkv_select(scores: np.ndarray, k: int) -> np.ndarray:
    """Softmax weights of the top-min(k, |S|) scores, lowest slot first among ties; 0 on every other slot."""
    return attention_weights(scores, None, k)


# ---------------------------------------------------------------------------
# batched training mode
# ---------------------------------------------------------------------------


def sliding_window_mask(s: int, window: int) -> np.ndarray:
    """(s, s) boolean; query t sees key j iff t - M <= j <= t - 1."""
    t = np.arange(s)[:, None]
    j = np.arange(s)[None, :]
    return (j < t) & (j >= t - window)


def molkv_expert_terms(h: Tensor, emb: Tensor, inverse: np.ndarray, params: MoLKVBlockParams, window: int) -> Tensor:
    """Own-expert plus cached-expert contributions for a whole batch.

    h is the (b, s, d) block input; emb (U, d) the raw embeddings of the U
    distinct ids and inverse (b, s) each position's index into them
    (``lookup_distinct``): the expert pairs are computed once per id.
    """
    b, s, d = h.shape
    n = params.num_experts
    dk = params.key_dim

    keys, values, values_normed = (embedding_lookup(t, inverse) for t in molkv_expert_pairs(emb, params))  # (b, s, N, ·)

    q = dense(h, params.query_proj)  # (b, s, d')
    own = own_expert_mix(h, q, keys, values, params.routers, params.gate, params.qk_scale)  # q and keys unrotated

    # Cached-expert path: rotate queries and keys, score every query against
    # all s*N cached experts (slot-major, j*N + n) plus the second router,
    # mask to the strictly causal window and keep the top-k per query.
    rot = rope_tables(np.arange(s), dk, params.rope_theta, h.dtype)
    q_rot = rope_rotate(q, rot)
    k_rot = rope_rotate(keys, rot[:, None, :])  # (b, s, N, d')
    new_router = dense(h, params.new_routers)  # (b, s, N)
    win = np.repeat(sliding_window_mask(s, window), n, axis=1)  # (s, s*N)
    mixed = attention(q_rot, reshape(k_rot, (b, s * n, dk)), reshape(values_normed, (b, s * n, d)),
                      win, params.qk_scale, bias=new_router, top_k=params.top_k)
    new_gate = sigmoid(tensor_sum(mul(h, params.new_gate), axis=-1, keepdims=True))
    new = mul(mixed, new_gate)

    return own + new
