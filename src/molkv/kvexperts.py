"""Key-value lookup experts with a sliding window of cached experts.

Each token id owns N (key, value) expert pairs produced by expert FFNs from
the normalized token embedding. A block adds two expert signals to the
output of the layer's shared FFN, which the block does not hold:

* the token's own experts, mixed by a router score augmented with the
  non-rotated query-key score (gated by sigmoid(h . u));
* cached experts of the last M preceding tokens, scored with a RoPE-rotated
  query against RoPE-rotated keys plus a second router, pruned to the top-k
  scores (ties to the oldest) and softmax-weighted (gated by sigmoid(h . u')).

Training runs ``molkv_expert_pairs`` taped once per distinct id in the
batch and gathers its rows to the positions; ``molkv_expert_terms`` is the
own- plus cached-expert term that ``model.forward`` adds to the shared
FFN's output. Each path is one ``autodiff.attention`` call. The own-expert
path, ``layers.own_expert_mix``, attends from each position's unrotated
query over its token's N pairs, with the router as bias. The cached-expert
path uses the window mask, the second router as bias and a top-k; each
query block scores only its band of M*N slots, and the tape keeps that
band's mask, not its weights. Export runs the pairs untaped on every token
id into the store's records of keys and raw values; the value norm runs
where the cached path reads them. Decoding's ``molkv_step`` (in
:mod:`molkv.runtime`) mixes the own experts with ``layers.own_expert_step``
and runs the attention op's two kernels on one query for the cached
experts, as ``molkv_new_scores`` and ``molkv_select``; ``cache_insert``
appends each token's keys and normed values to the sequence's
:class:`~molkv.layers.KVCache` windowed to M positions, the same cache that
backbone attention keeps unbounded. A block's parameters are tensors
only: M and k come from the model configuration with every call, and N and
d' from the shapes of the routers and the query projection.
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
from .layers import FFNParams, KVCache, own_expert_mix, rope_tables, swishglu_ffn


class CacheStateError(RuntimeError):
    """Cache positions must advance one token at a time."""


@dataclass
class MoLKVBlockParams:
    """The key-value expert path of one expert-bearing layer; the shared FFN beside it is the layer's."""

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

    @property
    def num_experts(self) -> int:
        return self.routers.shape[1]

    @property
    def key_dim(self) -> int:
        return self.query_proj.shape[1]

    @property
    def qk_scale(self) -> float:
        # A Python float: a NumPy float64 scalar would promote fp32 scores to fp64.
        return 1.0 / math.sqrt(self.key_dim)


def molkv_expert_pairs(emb: Tensor, params: MoLKVBlockParams):
    """(post-norm keys, raw values) for (..., d) embeddings: (..., N, d'), (..., N, d); keys not yet rotated."""
    eh = rmsnorm(emb, params.vocab_norm)
    keys = stack([rmsnorm(swishglu_ffn(eh, ke), params.key_norm) for ke in params.key_experts], axis=-2)
    return keys, stack([swishglu_ffn(eh, ve) for ve in params.value_experts], axis=-2)


def cache_insert(cache: KVCache, position: int, keys: np.ndarray, values_normed: np.ndarray, rot) -> KVCache:
    """Append ``position``'s (N, d') keys rotated by its RoPE table ``rot`` and its (N, d) normed values.

    ``cache`` is the layer's windowed :class:`~molkv.layers.KVCache`; it keeps the last M positions.
    """
    if position != cache.next_position:
        if cache.next_position:
            raise CacheStateError(f"cache holds ..{cache.next_position - 1}, cannot insert position {position}")
        raise CacheStateError(f"empty cache starts at position 0, got {position}")
    cache.append(rope_rotate_np(keys, rot), values_normed)
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


def molkv_expert_terms(h: Tensor, emb: Tensor, inverse: np.ndarray, params: MoLKVBlockParams, window: int,
                       top_k: int) -> Tensor:
    """Own-expert plus cached-expert contributions for a whole batch, over a ``window`` of M tokens with ``top_k``.

    h is the (b, s, d) block input; emb (U, d) the raw embeddings of the U
    distinct ids and inverse (b, s) each position's index into them
    (``lookup_distinct``): the expert pairs are computed once per id.
    """
    b, s, d = h.shape
    n = params.num_experts
    dk = params.key_dim

    keys, values = molkv_expert_pairs(emb, params)  # (U, N, ·)
    values_normed = rmsnorm(values, params.value_norm)
    keys, values, values_normed = (embedding_lookup(t, inverse) for t in (keys, values, values_normed))  # (b, s, N, ·)

    q = dense(h, params.query_proj)  # (b, s, d')
    own = own_expert_mix(h, q, keys, values, params.routers, params.gate, params.qk_scale)  # q and keys unrotated

    # Cached-expert path: rotate queries and keys, score every query against
    # all s*N cached experts (slot-major, j*N + n) plus the second router,
    # mask to the strictly causal window and keep the top-k per query.
    rot = rope_tables(np.arange(s), dk, h.dtype)
    q_rot = rope_rotate(q, rot)
    k_rot = rope_rotate(keys, rot[:, None, :])  # (b, s, N, d')
    new_router = dense(h, params.new_routers)  # (b, s, N)
    win = np.repeat(sliding_window_mask(s, window), n, axis=1)  # (s, s*N)
    mixed = attention(q_rot, reshape(k_rot, (b, s * n, dk)), reshape(values_normed, (b, s * n, d)),
                      win, params.qk_scale, bias=new_router, top_k=top_k)
    new_gate = sigmoid(tensor_sum(mul(h, params.new_gate), axis=-1, keepdims=True))
    new = mul(mixed, new_gate)

    return own + new
