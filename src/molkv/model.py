"""Full-model parameters, initialization, and the batched training forward.

Layers follow the pre-norm residual pattern: attention and FFN each read a
normalized copy of the stream and add their output back to the raw stream.
Expert blocks hang off the FFN sublayer and see the same normalized hidden
state the FFN sees; their expert FFNs read the raw embeddings of the
batch's distinct ids, looked up once and threaded to every expert layer.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .autodiff import Tensor, cross_entropy_logits, dense, embedding_lookup, parameter, rmsnorm
from .config import ModelConfig
from .kvexperts import MoLKVBlockParams, molkv_expert_terms
from .layers import AttnParams, FFNParams, causal_attention, lookup_distinct, swishglu_ffn
from .mole import MoLEBlockParams, mole_expert_terms


@dataclass
class LayerParams:
    """One transformer layer; every layer runs ``ffn``, and expert-bearing layers add ``block`` beside it."""

    attn_norm: Tensor  # (d,)
    attn: AttnParams
    ffn_norm: Tensor  # (d,)
    ffn: FFNParams  # shared path, d -> d
    block: MoLEBlockParams | MoLKVBlockParams | None = None


@dataclass
class ModelParams:
    config: ModelConfig
    embedding: Tensor  # (|V|, d)
    layers: list[LayerParams]
    final_norm: Tensor  # (d,)
    out_proj: Tensor  # (d, |V|)

    @property
    def dtype(self):
        return self.embedding.dtype

    def named_parameters(self):
        """``named_tensors`` of the whole model: the checkpoint and optimizer order."""
        return list(named_tensors(self))


def named_tensors(node, prefix: str = ""):
    """Yield (dotted name, Tensor) for every Tensor under ``node``, in dataclass field order.

    List items are named by their index. ``None`` holds no tensor, and neither does the
    model configuration, so the walk yields nothing for them.
    """
    if isinstance(node, Tensor):
        yield prefix, node
        return
    if isinstance(node, list):
        children = ((str(i), child) for i, child in enumerate(node))
    elif is_dataclass(node):
        children = ((f.name, getattr(node, f.name)) for f in fields(node))
    else:
        return
    for name, child in children:
        yield from named_tensors(child, f"{prefix}.{name}" if prefix else name)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def trunc_normal(rng: np.random.Generator, shape, std: float, bound: float = 2.0) -> np.ndarray:
    """Normal(0, std) with samples beyond ``bound`` sigmas redrawn.

    Reproduces the draw stream of rescanning the whole array each round:
    one ``standard_normal(shape)``, then per round one ``standard_normal``
    of the count still out of bound, written in ascending flat order. Only
    the redrawn entries are checked again, so every seed keeps its bits.
    """
    # With ``np.abs(flat) > bound`` and ``x *= std`` in place of the two comparisons and the new array,
    # the same bits left the benchmark's decode-short peak RSS 1.5 MB higher: the heap placed the
    # parameters where it could not trim.
    x = rng.standard_normal(shape)
    flat = x.reshape(-1)
    bad = np.flatnonzero((flat < -bound) | (flat > bound))
    while bad.size:
        redrawn = rng.standard_normal(bad.size)
        flat[bad] = redrawn
        bad = bad[np.abs(redrawn) > bound]
    return x * std


def init_model(config: ModelConfig, seed: int = 0, dtype=np.float32, init_std: float = 0.02) -> ModelParams:
    """Fresh parameters; norm gains start at one, everything else trunc normal."""
    rng = np.random.default_rng(seed)
    return _build_model(config, dtype, lambda shape: trunc_normal(rng, shape, init_std))


def zero_model(config: ModelConfig, dtype=np.float32) -> ModelParams:
    """``init_model``'s parameter tree with zeros where it draws: for a loader that overwrites every tensor."""
    return _build_model(config, dtype, lambda shape: np.zeros(shape, dtype))


def _build_model(config: ModelConfig, dtype, draw) -> ModelParams:
    """The parameter tree: ``draw(shape)`` for each matrix, in a fixed order, and ones for each norm gain."""
    d, big_d, dk = config.hidden_size, config.ffn_size, config.key_dim

    def mat(*shape) -> Tensor:
        return parameter(draw(shape), dtype=dtype)

    def gain(n) -> Tensor:
        return parameter(np.ones(n), dtype=dtype)

    def ffn(d_out) -> FFNParams:
        return FFNParams(gate=mat(d, big_d), up=mat(d, big_d), down=mat(big_d, d_out))

    embedding = mat(config.vocab_size, d)
    layers = []
    expert_set = set(config.expert_layers)
    for li in range(config.num_layers):
        attn = AttnParams(wq=mat(d, d), wk=mat(d, d), wv=mat(d, d), wo=mat(d, d))
        shared = ffn(d)  # drawn before the block's matrices, so every seed keeps its init
        block: MoLEBlockParams | MoLKVBlockParams | None
        if li not in expert_set:
            block = None
        elif config.kind in ("mole", "gated-mole"):
            block = MoLEBlockParams(
                routers=mat(d, config.num_experts),
                experts=[ffn(d) for _ in range(config.num_experts)],
                gate=mat(d) if config.kind == "gated-mole" else None,
            )
        else:
            block = MoLKVBlockParams(
                query_proj=mat(d, dk),
                routers=mat(d, config.num_experts),
                new_routers=mat(d, config.num_experts),
                gate=mat(d),
                new_gate=mat(d),
                key_experts=[FFNParams(gate=mat(d, big_d), up=mat(d, big_d), down=mat(big_d, dk)) for _ in range(config.num_experts)],
                value_experts=[ffn(d) for _ in range(config.num_experts)],
                vocab_norm=gain(d),
                key_norm=gain(dk),
                value_norm=gain(d),
            )
        layers.append(LayerParams(attn_norm=gain(d), attn=attn, ffn_norm=gain(d), ffn=shared, block=block))
    return ModelParams(
        config=config,
        embedding=embedding,
        layers=layers,
        final_norm=gain(d),
        out_proj=mat(d, config.vocab_size),
    )


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def forward(params: ModelParams, ids) -> Tensor:
    """Training-mode logits for a (b, s) batch of token ids."""
    cfg = params.config
    ids = np.atleast_2d(ids)
    x = embedding_lookup(params.embedding, ids)  # (b, s, d)
    uniq_emb, inverse = lookup_distinct(params.embedding, ids)  # expert blocks run once per distinct id
    for layer in params.layers:
        a = rmsnorm(x, layer.attn_norm)
        x = x + causal_attention(a, layer.attn, cfg.num_heads)
        hn = rmsnorm(x, layer.ffn_norm)
        delta = swishglu_ffn(hn, layer.ffn)
        if isinstance(layer.block, MoLEBlockParams):
            delta = delta + mole_expert_terms(hn, uniq_emb, inverse, layer.block)
        elif isinstance(layer.block, MoLKVBlockParams):
            delta = delta + molkv_expert_terms(hn, uniq_emb, inverse, layer.block, cfg.cache_window, cfg.top_k)
        x = x + delta
    x = rmsnorm(x, params.final_norm)
    return dense(x, params.out_proj)


def next_token_loss(params: ModelParams, batch) -> Tensor:
    """Mean cross-entropy of predicting batch[:, 1:] from batch[:, :-1]."""
    batch = np.atleast_2d(batch)
    logits = forward(params, batch[:, :-1])
    return cross_entropy_logits(logits, batch[:, 1:])
