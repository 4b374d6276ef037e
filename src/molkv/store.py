"""Reparameterized expert tables and their on-disk store.

After training, every (layer, token id) pair owns a fixed expert record of
N key-value pairs, ``ExpertRecord``: keys post-key-norm, values raw. A
lookup model's keys are zero-width, so its record is its N expert values.
The store file emulates expert offloading: records have a fixed size, live
at computable offsets, and a read touches exactly one record's bytes,
which the reader counts.

A store is the checkpoint's container (``training.write_arrays``, documented
in docs/formats.md) under the magic ``"MLKVSTOR"`` and ``STORE_VERSION``. Its
header field ``key_dim`` is d', and expert layer L is the entry
``experts.<L>``, of shape (|V|, N, d' + d) in the store dtype. Record
(layer L, id i) starts at that entry's offset + i * N * (d' + d) * itemsize
and holds, for each expert n in order: d' key values, then d raw values.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .config import ConfigError, ModelConfig
from .kvexperts import molkv_expert_pairs
from .mole import mole_expert_values
from .training import STORE_MAGIC, open_arrays, write_arrays

STORE_VERSION = 2  # 1 was a fixed 64-byte header of its own
NUMPY_DTYPES = {"fp32": np.dtype("<f4"), "fp16": np.dtype("<f2"), "fp64": np.dtype("<f8")}
DTYPE_NAMES = {nd: name for name, nd in NUMPY_DTYPES.items()}

PARAM_CONVENTIONS = ("experts-only", "backbone-only", "experts+backbone")


class RecordLookupError(IndexError):
    """(layer, id) outside the store extents."""


@dataclass(frozen=True)
class ExpertStoreHeader:
    dtype: str  # "fp32" | "fp16" | "fp64"
    vocab_size: int
    num_experts: int
    hidden_size: int
    key_dim: int  # 0 for mole
    layer_offsets: tuple[int, ...]  # file offset of each expert layer's entry

    @property
    def num_expert_layers(self) -> int:
        return len(self.layer_offsets)

    @property
    def kind(self) -> str:
        """The store kind: molkv when the records carry keys (d' >= 1), else mole."""
        return "molkv" if self.key_dim else "mole"

    @property
    def record_values(self) -> int:
        """Scalars per record: N * (d + d')."""
        return self.num_experts * (self.hidden_size + self.key_dim)

    @property
    def record_bytes(self) -> int:
        return self.record_values * NUMPY_DTYPES[self.dtype].itemsize

    def record_offset(self, layer: int, token_id: int) -> int:
        if not 0 <= layer < self.num_expert_layers:
            raise RecordLookupError(f"layer {layer} outside 0..{self.num_expert_layers - 1}")
        if not 0 <= token_id < self.vocab_size:
            raise RecordLookupError(f"token id {token_id} outside 0..{self.vocab_size - 1}")
        return self.layer_offsets[layer] + token_id * self.record_bytes


@dataclass
class ExpertRecord:
    """One (layer, id) record: N key-value pairs, keys zero-width (d' = 0) for lookup experts."""

    keys: np.ndarray  # (N, d')
    values: np.ndarray  # (N, d)
    nbytes: int = 0  # bytes read from the store file; 0 for in-memory tables


# ---------------------------------------------------------------------------
# reparameterization
# ---------------------------------------------------------------------------


@dataclass
class ReparamTables:
    """In-memory expert tables for every expert layer, pre-export.

    Arrays keep the training dtype; casting happens at write time.
    """

    keys: list[np.ndarray]  # per expert layer: (|V|, N, d'), d' = 0 for lookup experts
    values: list[np.ndarray]  # per expert layer: (|V|, N, d), raw

    @property
    def num_expert_layers(self) -> int:
        return len(self.values)

    def record(self, layer: int, token_id: int) -> ExpertRecord:
        return ExpertRecord(keys=self.keys[layer][token_id], values=self.values[layer][token_id])


def reparameterize(model) -> ReparamTables:
    """Freeze a trained model's expert FFNs into key-value tables; call it with no tape active.

    Lookup models store FFN_n(e_i) under zero-width keys; key-value models
    the post-norm expert keys and raw expert values of the normalized embedding.
    """
    if model.config.kind == "dense":
        raise ConfigError("dense models have no experts to reparameterize")
    emb = Tensor(model.embedding.data)
    keys, values = [], []
    for li in model.config.expert_layers:
        block = model.layers[li].block
        if model.config.kind == "molkv":
            k, v = (t.data for t in molkv_expert_pairs(emb, block))
        else:
            v = mole_expert_values(emb, block).data
            k = v[..., :0]
        keys.append(k)
        values.append(v)
    return ReparamTables(keys=keys, values=values)


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------


def write_store(tables: ReparamTables, path, dtype: str = "fp32") -> ExpertStoreHeader:
    """Write tables to ``path``, of kind molkv when the keys are at least one wide; returns the header written.

    Raises ConfigError when a record is not finite in ``dtype`` (a value beyond its range, or NaN).
    ``path`` is replaced only by a complete store, written to a temporary file beside it.
    """
    if dtype not in NUMPY_DTYPES:
        raise ConfigError(f"unsupported store dtype {dtype!r}")
    nd = NUMPY_DTYPES[dtype]
    vocab, n, dk = tables.keys[0].shape
    d = tables.values[0].shape[-1]

    def records():  # one expert layer at a time, cast and checked as it is written
        for li in range(tables.num_expert_layers):
            rec = np.concatenate([tables.keys[li], tables.values[li]], axis=-1)
            with np.errstate(over="ignore"):
                cast = np.ascontiguousarray(rec, dtype=nd)
            if not np.isfinite(cast).all():
                raise ConfigError(
                    f"expert layer {li} is not finite in {dtype}: max |value| {np.abs(rec).max():.4g}, "
                    f"{dtype} max {np.finfo(nd).max:.4g}"
                )
            yield cast
            del rec, cast  # freed before the next layer is built

    entries = [(f"experts.{li}", nd, (vocab, n, dk + d)) for li in range(tables.num_expert_layers)]
    offsets = write_arrays(path, STORE_MAGIC, STORE_VERSION, {"key_dim": dk}, entries, records())
    return ExpertStoreHeader(dtype=dtype, vocab_size=vocab, num_experts=n, hidden_size=d, key_dim=dk,
                             layer_offsets=tuple(offsets))


class ExpertStoreReader:
    """Random-access reads with byte accounting; safe for concurrent readers.

    Opening checks the whole container (``training.open_arrays``) and that its entries are the
    expert layers ``experts.0``, ``experts.1``, ... of one store dtype and shape (|V|, N, d' + d),
    no extent 0, with ``key_dim`` d' below the record width; anything else is a ConfigError.
    Every read is a positioned read of exactly one record; each returned record carries the bytes
    that read loaded (``nbytes``), the transfer size the offloading model budgets for.
    ``bytes_read`` and ``reads`` are running totals over all callers, updated under a lock.
    """

    def __init__(self, path):
        self.path = str(path)
        self._file = open(self.path, "rb", buffering=0)
        try:
            fields, entries = open_arrays(self._file, STORE_MAGIC, STORE_VERSION)
            layers = [entries.get(f"experts.{li}") for li in range(len(entries))]
            if not layers or None in layers or len({entry[:2] for entry in layers}) > 1:
                raise ConfigError(f"expert store entries {list(entries)} are not experts.0.. of one dtype and shape")
            (dtype, shape, _), dk = layers[0], fields.get("key_dim")
            records = len(shape) == 3 and min(shape) >= 1 and type(dk) is int and 0 <= dk < shape[2]
            if dtype not in DTYPE_NAMES or not records:
                raise ConfigError(f"expert store layers of {dtype} {shape} with key_dim {dk!r} "
                                  f"are not (|V|, N, d' + d) records")
            self.header = ExpertStoreHeader(dtype=DTYPE_NAMES[dtype], vocab_size=shape[0], num_experts=shape[1],
                                            hidden_size=shape[2] - dk, key_dim=dk,
                                            layer_offsets=tuple(offset for _, _, offset in layers))
        except BaseException:
            self._file.close()
            raise
        self.bytes_read = 0
        self.reads = 0
        self._totals_lock = threading.Lock()

    def read_record(self, layer: int, token_id: int) -> ExpertRecord:
        h = self.header
        raw = os.pread(self._file.fileno(), h.record_bytes, h.record_offset(layer, token_id))
        if len(raw) != h.record_bytes:
            raise ConfigError(f"short read at (layer={layer}, id={token_id})")
        with self._totals_lock:
            self.bytes_read += len(raw)
            self.reads += 1
        flat = np.frombuffer(raw, dtype=NUMPY_DTYPES[h.dtype]).reshape(h.num_experts, h.hidden_size + h.key_dim)
        return ExpertRecord(keys=flat[:, : h.key_dim].copy(), values=flat[:, h.key_dim :].copy(), nbytes=len(raw))

    def close(self):
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


# ---------------------------------------------------------------------------
# parameter counting
# ---------------------------------------------------------------------------


def count_params(config: ModelConfig, convention: str) -> int:
    """Closed-form parameter count under a named convention.

    experts-only: the offloadable tables, per expert layer N * |V| * (d + d').
    backbone-only: everything RAM-resident (embeddings, output head,
    attention, FFNs, norms, routers/gates/query projections). Cached copies
    of expert records do not count; they are not distinct parameters.
    experts+backbone: the sum of the two.
    """
    if convention not in PARAM_CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; expected one of {PARAM_CONVENTIONS}")
    d, big_d, v = config.hidden_size, config.ffn_size, config.vocab_size
    n, dk = config.num_experts, config.key_dim
    n_expert_layers = len(config.expert_layers)

    experts = n_expert_layers * n * v * (d + dk)
    if convention == "experts-only":
        return experts

    backbone = v * d + d * v + d  # embedding, output projection, final norm
    backbone += config.num_layers * (4 * d * d + 3 * d * big_d + 2 * d)  # attention, ffn, two norms
    if config.kind in ("mole", "gated-mole"):
        per_layer = d * n + (d if config.kind == "gated-mole" else 0)
        backbone += n_expert_layers * per_layer
    elif config.kind == "molkv":
        # query projection, both routers, both gates, vocab/key/value norms;
        # the training-mode expert FFNs are reparameterized away and excluded.
        per_layer = d * dk + 2 * d * n + 2 * d + (2 * d + dk)
        backbone += n_expert_layers * per_layer
    if convention == "backbone-only":
        return backbone
    return experts + backbone
