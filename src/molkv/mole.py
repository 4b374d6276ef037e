"""Lookup-expert block: per-token-id FFN experts mixed by a learned router.

Training runs N expert FFNs (``mole_expert_values``) once per distinct token
id in the batch, and ``mole_expert_terms`` mixes them into the term that
``model.forward`` adds to the shared FFN's output. Export runs the same
function untaped on every id into the store's key-value records with
zero-width keys, so inference (``mole_step`` in :mod:`molkv.runtime`) is a
record read plus a softmax-weighted sum. The gated variant scales the mix
by sigmoid(h . u). Both modes mix with the key-value block's own-expert
functions, given zero-width keys.

Token embeddings enter the expert FFNs raw here (no normalization); the
key-value block in :mod:`molkv.kvexperts` normalizes first. The two blocks
intentionally differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, embedding_lookup, stack
from .layers import FFNParams, own_expert_mix, swishglu_ffn


@dataclass
class MoLEBlockParams:
    """The lookup-expert path of one expert-bearing layer; the shared FFN beside it is the layer's."""

    routers: Tensor  # (d, N), column n is router r_n
    experts: list[FFNParams]  # N expert FFNs, d -> d
    gate: Tensor | None = None  # (d,), gated variant only


# ---------------------------------------------------------------------------
# training mode (taped, batched)
# ---------------------------------------------------------------------------


def mole_expert_values(emb: Tensor, params: MoLEBlockParams) -> Tensor:
    """FFN_n(e) for every expert n: (..., d) embeddings to (..., N, d)."""
    return stack([swishglu_ffn(emb, e) for e in params.experts], axis=-2)


def mole_expert_terms(h: Tensor, emb: Tensor, inverse: np.ndarray, params: MoLEBlockParams) -> Tensor:
    """Sum_n softmax_n(h . r_n) FFN_n(e_id), optionally gated; h is (..., d), (emb, inverse) ``lookup_distinct``'s."""
    vals = embedding_lookup(mole_expert_values(emb, params), inverse)  # (..., N, d)
    no_query = Tensor(np.zeros(h.shape[:-1] + (0,), h.dtype))
    no_keys = Tensor(np.zeros(vals.shape[:-1] + (0,), h.dtype))
    return own_expert_mix(h, no_query, no_keys, vals, params.routers, params.gate, 1.0)

