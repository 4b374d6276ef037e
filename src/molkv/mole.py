"""Lookup-expert block: per-token-id FFN experts mixed by a learned router.

Training runs N expert FFNs (``mole_expert_values``) once per distinct token
id in the batch, and ``mole_expert_terms`` mixes them into the term that
``model.forward`` adds to the shared FFN's output. Export runs the same
function untaped on every id to freeze a value table, so inference
(``mole_step`` in :mod:`molkv.runtime`) is a table lookup plus a
softmax-weighted sum. The gated variant scales the mix by sigmoid(h . u).

Token embeddings enter the expert FFNs raw here (no normalization); the
key-value block in :mod:`molkv.kvexperts` normalizes first. The two blocks
intentionally differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, dense, embedding_lookup, mul, reshape, sigmoid, softmax, softmax_np, stack, tensor_sum
from .layers import FFNParams, swishglu_ffn


@dataclass
class MoLEBlockParams:
    """One expert-bearing layer: shared FFN plus the lookup-expert path."""

    ffn: FFNParams  # shared path, d -> d
    routers: Tensor  # (d, N), column n is router r_n
    experts: list[FFNParams]  # N expert FFNs, d -> d
    gate: Tensor | None = None  # (d,), gated variant only

    @property
    def num_experts(self) -> int:
        return len(self.experts)

    def tensors(self):
        out = [("ffn." + n, t) for n, t in self.ffn.tensors()]
        out.append(("routers", self.routers))
        for i, e in enumerate(self.experts):
            out.extend((f"experts.{i}." + n, t) for n, t in e.tensors())
        if self.gate is not None:
            out.append(("gate", self.gate))
        return out


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------


def mole_routing(h: np.ndarray, params: MoLEBlockParams) -> np.ndarray:
    """softmax_n(h . r_n) for (..., d) hidden states."""
    return softmax_np(h @ params.routers.data)


# ---------------------------------------------------------------------------
# training mode (taped, batched)
# ---------------------------------------------------------------------------


def mole_expert_values(emb: Tensor, params: MoLEBlockParams) -> Tensor:
    """FFN_n(e) for every expert n: (..., d) embeddings to (..., N, d)."""
    return stack([swishglu_ffn(emb, e) for e in params.experts], axis=-2)


def mole_expert_terms(h: Tensor, emb: Tensor, inverse: np.ndarray, params: MoLEBlockParams) -> Tensor:
    """Sum_n s_n FFN_n(e_id), optionally gated; h is (..., d), (emb, inverse) from ``lookup_distinct``."""
    s = softmax(dense(h, params.routers), axis=-1)  # (..., N)
    vals = embedding_lookup(mole_expert_values(emb, params), inverse)  # (..., N, d)
    mix = tensor_sum(mul(vals, reshape(s, s.shape + (1,))), axis=-2)
    if params.gate is not None:
        mix = mul(mix, sigmoid(tensor_sum(mul(h, params.gate), axis=-1, keepdims=True)))
    return mix


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def build_value_table(embedding: np.ndarray, params: MoLEBlockParams) -> np.ndarray:
    """Freeze FFN_n(e_i) for all ids into a (|V|, N, d) table; call it with no tape active."""
    return mole_expert_values(Tensor(embedding), params).data
