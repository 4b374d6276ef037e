"""Store-backed incremental decoding with cost accounting.

Each decode step advances one token through embedding, every layer, the
final norm and the output projection, reading the current token's expert
record from the store in expert-bearing layers. A ``DecoderState`` keeps
one ``layers.KVCache`` per layer for backbone attention and one windowed to
the last M tokens per key-value expert layer. ``mole_step`` and
``molkv_step``, the one per-token form of each expert block, return the
expert term that ``decode_step`` adds to the shared FFN's output; the
acceptance suite holds ``decode_step``'s logits to ``model.forward``'s.
Counters track only what the
complexity model budgets: multiply-accumulates of the large matrix
operations (shared FFN, query projection, cached-key scoring, selected
value mixing), parameters resident in RAM, offloaded parameters, and
parameters/bytes loaded per token. ``layer_costs`` is the one per-layer cost
formula: ``decode_step`` charges it at the measured cache length and
selection, ``closed_form_costs`` at the full window.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .kvexperts import (
    ExpertKV,
    MoLKVBlockParams,
    cache_insert,
    molkv_new_scores,
    molkv_query,
    molkv_select,
)
from .layers import (KVCache, causal_attention_step, own_expert_step, rmsnorm_np, rope_tables, sigmoid_np, softmax_np,
                     swishglu_ffn_np)
from .mole import MoLEBlockParams
from .model import ModelParams
from .store import ExpertRecord, ExpertStoreReader, StoreFormatError


@dataclass
class CostCounters:
    """Cost deltas for one decode step (or an aggregate of steps).

    macs counts large matrix operations only; params_in_ram and
    params_offloaded are levels (not flows) and hold the value observed at
    the most recent step when aggregated.
    """

    macs: int = 0
    params_in_ram: int = 0
    params_offloaded: int = 0
    params_loaded: int = 0
    bytes_loaded: int = 0

    def merge(self, other: "CostCounters") -> None:
        self.macs += other.macs
        self.params_loaded += other.params_loaded
        self.bytes_loaded += other.bytes_loaded
        self.params_in_ram = other.params_in_ram
        self.params_offloaded = other.params_offloaded


@dataclass
class CostRow:
    """Per-(token, layer) record of the decode cost report."""

    token_index: int
    layer: int
    macs: int
    params_loaded: int
    bytes_loaded: int
    cache_len: int


class DecoderState:
    """All mutable state of one decoding sequence.

    Expert-bearing models need an open store reader; several states may
    share one reader. Dense models run without a store.
    """

    def __init__(self, params: ModelParams, store: ExpertStoreReader | None = None):
        cfg = params.config
        self.params = params
        self.config = cfg
        self.store = store
        self.dtype = params.dtype
        if cfg.expert_layers and store is None:
            raise ValueError(f"{cfg.kind} decoding requires an expert store")
        if store is not None:
            h = store.header
            kind = "molkv" if cfg.kind == "molkv" else "mole"
            got = (h.kind, h.vocab_size, h.num_experts, h.hidden_size, h.key_dim, h.num_expert_layers)
            want = (kind, cfg.vocab_size, cfg.num_experts, cfg.hidden_size, cfg.key_dim, len(cfg.expert_layers))
            if got != want:
                raise StoreFormatError(
                    f"store header (kind, |V|, N, d, d', expert layers) = {got} "
                    f"does not match the model configuration's {want}"
                )
        self.position = 0
        heads = (cfg.num_heads, cfg.head_dim)
        self.attn_caches = [KVCache(heads, heads, self.dtype) for _ in range(cfg.num_layers)]
        # rotated (N, d') keys and normed (N, d) values of the last M tokens
        expert_rows = (cfg.num_experts, cfg.key_dim), (cfg.num_experts, cfg.hidden_size)
        self.expert_caches = {li: KVCache(*expert_rows, self.dtype, cfg.cache_window)
                              for li in cfg.expert_layers} if cfg.kind == "molkv" else {}
        self.rows: list[CostRow] = []
        self.expert_layer_index = {li: i for i, li in enumerate(cfg.expert_layers)}  # model layer -> store layer
        # (dim, theta) of each RoPE table a step rotates with: attention heads, key-value queries and keys
        kv_blocks = [layer.block for layer in params.layers if isinstance(layer.block, MoLKVBlockParams)]
        self.rope_keys = {(cfg.head_dim, cfg.rope_theta)} | {(b.key_dim, b.rope_theta) for b in kv_blocks}


def layer_costs(cfg: ModelConfig, expert: bool, cache_len: int = 0, selected: int = 0) -> CostCounters:
    """One layer's costs with ``cache_len`` cached tokens and ``selected`` cached experts mixed.

    Every layer runs the shared FFN: 3dD MACs and parameters in RAM. An
    expert layer adds the query projection dd', the cached-key scoring
    cache_len * N d' and the value mixing selected * d MACs, keeps the
    cached pairs cache_len * N(d + d') in RAM, offloads N|V|(d + d') and
    loads one record of N(d + d'). Lookup layers have d' = 0 and no cache.
    Bytes loaded are measured by the caller, not modelled here.
    """
    d, ffn = cfg.hidden_size, 3 * cfg.hidden_size * cfg.ffn_size
    n, dk = (cfg.num_experts, cfg.key_dim) if expert else (0, 0)
    return CostCounters(
        macs=ffn + d * dk + cache_len * n * dk + selected * d,
        params_in_ram=ffn + cache_len * n * (d + dk),
        params_offloaded=n * cfg.vocab_size * (d + dk),
        params_loaded=n * (d + dk),
    )


def decode_step(state: DecoderState, token_id: int):
    """Advance one integer (Python or NumPy) token id; returns (logits over |V|, CostCounters delta).

    Builds the position's RoPE tables once, one per distinct (dim, theta), for every layer.
    """
    cfg = state.config
    params = state.params
    token_id = operator.index(token_id)
    if not 0 <= token_id < cfg.vocab_size:
        raise IndexError(f"token id {token_id} outside vocabulary of {cfg.vocab_size}")
    layer_of = state.expert_layer_index
    delta = CostCounters()
    t = state.position
    rope = {key: rope_tables(t, *key, state.dtype) for key in state.rope_keys}
    attn_rot = rope[cfg.head_dim, cfg.rope_theta]

    x = params.embedding.data[token_id]
    for li, layer in enumerate(params.layers):
        a = rmsnorm_np(x, layer.attn_norm.data, cfg.norm_eps)
        x = x + causal_attention_step(a, layer.attn, state.attn_caches[li], attn_rot)
        hn = rmsnorm_np(x, layer.ffn_norm.data, cfg.norm_eps)
        y = swishglu_ffn_np(hn, layer.ffn)
        cache_len = selected = nbytes = 0

        if layer.has_experts:
            block = layer.block
            record = state.store.read_record(layer_of[li], token_id)
            nbytes = record.nbytes
            if isinstance(block, MoLEBlockParams):
                y = y + mole_step(hn, record.values, block)
            else:
                cache = state.expert_caches[li]
                cache_len = len(cache)
                kv = expert_kv(record, block, state.dtype)
                term, selected = molkv_step(hn, t, cache, kv, block, rope[block.key_dim, block.rope_theta])
                y = y + term

        x = x + y
        costs = layer_costs(cfg, layer.has_experts, cache_len, selected)
        delta.macs += costs.macs
        delta.params_in_ram += costs.params_in_ram
        delta.params_offloaded += costs.params_offloaded
        delta.params_loaded += costs.params_loaded
        delta.bytes_loaded += nbytes
        state.rows.append(CostRow(t, li, costs.macs, costs.params_loaded, nbytes, cache_len))

    x = rmsnorm_np(x, params.final_norm.data, cfg.norm_eps)
    logits = x @ params.out_proj.data
    state.position += 1
    return logits, delta


# ---------------------------------------------------------------------------
# per-token expert blocks
# ---------------------------------------------------------------------------


def mole_step(h: np.ndarray, values: np.ndarray, params: MoLEBlockParams) -> np.ndarray:
    """Lookup-expert term of one token's (N, d) values: ``own_expert_step`` with zero-width query and keys."""
    no_query, no_keys = np.zeros(0, h.dtype), np.zeros((len(values), 0), h.dtype)
    return own_expert_step(h, no_query, no_keys, values, params.routers, params.gate, 1.0)


def expert_kv(record: ExpertRecord, params: MoLKVBlockParams, dtype) -> ExpertKV:
    """The expert pairs of one key-value store record, cast to ``dtype``."""
    values = record.values.astype(dtype, copy=False)  # read_record's arrays are private copies
    return ExpertKV(
        keys=record.keys.astype(dtype, copy=False),
        values=values,
        values_normed=rmsnorm_np(values, params.value_norm.data, params.norm_eps),
    )


def molkv_step(h: np.ndarray, position: int, cache: KVCache, kv: ExpertKV, params: MoLKVBlockParams, rot):
    """Own-expert plus cached-expert term of one token; returns (term, k_eff).

    ``rot`` is ``position``'s RoPE table of width d' / 2; it rotates the
    query and the token's keys. The token's own pairs ``kv``
    join the cache (which checks ``position``) only after the term is
    computed, so position 0 sees an empty window and its cached term is 0.
    k_eff = min(k, cached experts) is the number of nonzero mixing weights.
    """
    q, q_rot = molkv_query(h, params, rot)
    term = own_expert_step(h, q, kv.keys, kv.values, params.routers, params.gate, params.qk_scale)
    weights = molkv_select(molkv_new_scores(q_rot, h, cache, params), params.top_k)
    term = term + sigmoid_np(h @ params.new_gate.data) * (weights @ cache.v.reshape(-1, cache.v.shape[-1]))
    cache_insert(cache, position, kv, rot)
    return term, min(params.top_k, weights.size)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def closed_form_costs(config: ModelConfig) -> dict[str, CostCounters]:
    """Steady-state per-layer costs: ``layer_costs`` at the full window M with min(k, MN) selected.

    ``expert`` covers expert-bearing layers, ``plain`` the rest.
    """
    plain = layer_costs(config, False)
    if not config.expert_layers:
        return {"plain": plain}
    m = config.cache_window
    return {"plain": plain, "expert": layer_costs(config, True, m, min(config.top_k, m * config.num_experts))}


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def sample_token(logits: np.ndarray, sampler: str = "greedy", temperature: float = 1.0, rng=None) -> int:
    if sampler == "greedy":
        return int(np.argmax(logits))
    if sampler == "temperature":
        if rng is None:
            raise ValueError("temperature sampling needs an rng")
        if not 0 < temperature < math.inf:
            raise ValueError(f"temperature must be finite and > 0, got {temperature}")
        # The largest logit maps to 0, every other to <= 0 or -inf; in fp64, as fp32 rounds a temperature < 1e-45 to 0.
        with np.errstate(over="ignore"):
            p = softmax_np((logits - logits.max()) / np.float64(temperature))
        return int(rng.choice(len(p), p=p))
    raise ValueError(f"unknown sampler {sampler!r}")


def generate(
    state: DecoderState,
    prompt_ids,
    steps: int,
    sampler: str = "greedy",
    temperature: float = 1.0,
    rng=None,
):
    """Consume the prompt, then sample ``steps`` tokens.

    Returns (generated ids, aggregate CostCounters over prompt + steps).
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    prompt_ids = [operator.index(i) for i in np.asarray(prompt_ids).reshape(-1)]
    if not prompt_ids:
        raise ValueError("prompt must contain at least one token")
    total = CostCounters()
    logits = None
    for tok in prompt_ids:
        logits, delta = decode_step(state, tok)
        total.merge(delta)
    out = []
    for _ in range(steps):
        tok = sample_token(logits, sampler, temperature, rng)
        out.append(tok)
        logits, delta = decode_step(state, tok)
        total.merge(delta)
    return out, total
