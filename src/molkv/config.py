"""Model architecture configuration and validation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

MODEL_KINDS = ("dense", "mole", "gated-mole", "molkv")


class ConfigError(ValueError):
    """A configuration or manifest value violates an invariant."""


def check_finite(cfg, positive=(), nonnegative=()) -> None:
    """Raise ConfigError unless each named field of ``cfg`` is finite and > 0 (``positive``) or >= 0."""
    for name in (*positive, *nonnegative):
        value = getattr(cfg, name)
        strict = name in positive
        if not (math.isfinite(value) and (value > 0 if strict else value >= 0)):
            raise ConfigError(f"{name} must be finite and {'>' if strict else '>='} 0, got {value}")


@dataclass(frozen=True)
class ModelConfig:
    """All architecture scalars of one model, and their one home: parameter trees hold tensors only.

    key_dim, cache_window and top_k are zero for every kind except molkv;
    expert_layers lists the layer indices that carry expert blocks. The RoPE
    base and the RMSNorm epsilon are constants of the method,
    ``layers.ROPE_THETA`` and ``autodiff.NORM_EPS``.
    """

    kind: str
    num_layers: int
    hidden_size: int  # d
    ffn_size: int  # D
    vocab_size: int
    num_experts: int = 0  # N per token id
    key_dim: int = 0  # d' (expert key size)
    cache_window: int = 0  # M
    top_k: int = 0  # k
    expert_layers: tuple[int, ...] = field(default_factory=tuple)
    num_heads: int = 16

    def __post_init__(self):
        object.__setattr__(self, "expert_layers", tuple(sorted(self.expert_layers)))
        self.validate()

    def validate(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")
        for name in ("num_layers", "hidden_size", "ffn_size", "vocab_size", "num_heads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.hidden_size % self.num_heads:
            raise ConfigError(f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}")
        if (self.hidden_size // self.num_heads) % 2:
            raise ConfigError("head dimension must be even for rotary embedding")
        if any(l < 0 or l >= self.num_layers for l in self.expert_layers):
            raise ConfigError(f"expert_layers {self.expert_layers} outside 0..{self.num_layers - 1}")
        if len(set(self.expert_layers)) != len(self.expert_layers):
            raise ConfigError("expert_layers contains duplicates")

        if self.kind == "dense":
            if self.num_experts or self.expert_layers or self.key_dim or self.cache_window or self.top_k:
                raise ConfigError("dense models take no expert settings")
            return

        if self.num_experts < 1:
            raise ConfigError(f"{self.kind} requires num_experts >= 1")
        if not self.expert_layers:
            raise ConfigError(f"{self.kind} requires a nonempty expert_layers set")

        if self.kind in ("mole", "gated-mole"):
            if self.key_dim:
                raise ConfigError("mole models require key_dim = 0")
            if self.cache_window or self.top_k:
                raise ConfigError("mole models take no cache_window or top_k")
        else:  # molkv
            if self.key_dim < 2 or self.key_dim % 2:
                raise ConfigError(f"molkv requires an even key_dim >= 2, got {self.key_dim}")
            if self.cache_window < 1:
                raise ConfigError("molkv requires cache_window >= 1")
            if self.top_k < 1:
                raise ConfigError("molkv requires top_k >= 1")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads


def published_config(kind: str) -> ModelConfig:
    """The published reference configurations: 197M activated, 1.65B total."""
    if kind == "dense":
        return ModelConfig(kind="dense", num_layers=16, hidden_size=1024, ffn_size=2644, vocab_size=50304)
    if kind in ("mole", "gated-mole"):
        return ModelConfig(
            kind=kind,
            num_layers=16,
            hidden_size=1024,
            ffn_size=2644,
            vocab_size=50304,
            num_experts=2,
            expert_layers=tuple(range(16)),
        )
    if kind == "molkv":
        return ModelConfig(
            kind="molkv",
            num_layers=16,
            hidden_size=1024,
            ffn_size=2548,
            vocab_size=50304,
            num_experts=2,
            key_dim=146,
            cache_window=512,
            top_k=32,
            expert_layers=tuple(range(14)),
        )
    raise ConfigError(f"unknown model kind {kind!r}")
