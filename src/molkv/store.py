"""Reparameterized expert tables and their on-disk store.

After training, every (layer, token id) pair owns a fixed expert record of
N key-value pairs, ``ExpertRecord``: keys post-key-norm, values raw. A
lookup model's keys are zero-width, so its record is its N expert values.
The store file emulates expert offloading: records have a fixed size, live
at computable offsets, and a read touches exactly one record's bytes,
which the reader counts.

File layout (little-endian, documented in docs/formats.md):

    offset  size  field
    0       4     magic "MLKV"
    4       4     u32 format version (1)
    8       4     u32 model kind (1 = lookup values only, 2 = key-value)
    12      4     u32 dtype code (0 = fp32, 1 = fp16, 2 = fp64)
    16      4     u32 layout constant (1 = layer-major, id-major)
    20      4     u32 expert layer count
    24      8     u64 vocabulary size
    32      4     u32 experts per id (N)
    36      4     u32 hidden size (d)
    40      4     u32 key size (d', 0 when absent)
    44      20    zero padding
    64      ...   records

Record (layer L, id i) starts at 64 + (L * |V| + i) * N * (d + d') * itemsize
and holds, for each expert n in order: d' key values, then d raw values.
"""

from __future__ import annotations

import errno
import os
import stat
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .config import ConfigError, ModelConfig
from .kvexperts import molkv_expert_pairs
from .mole import mole_expert_values
from .training import CHECKPOINT_MAGIC, atomic_write

MAGIC = b"MLKV"
FORMAT_VERSION = 1
LAYOUT_LAYER_MAJOR = 1
HEADER_SIZE = 64
_HEADER_STRUCT = struct.Struct("<4s5IQ3I20x")

KIND_CODES = {"mole": 1, "molkv": 2}
DTYPE_CODES = {"fp32": 0, "fp16": 1, "fp64": 2}
DTYPE_NAMES = {v: k for k, v in DTYPE_CODES.items()}
NUMPY_DTYPES = {"fp32": np.dtype("<f4"), "fp16": np.dtype("<f2"), "fp64": np.dtype("<f8")}

PARAM_CONVENTIONS = ("experts-only", "backbone-only", "experts+backbone")


class StoreFormatError(ValueError):
    """Bad magic, version, or header field."""


class RecordLookupError(IndexError):
    """(layer, id) outside the store extents."""


@dataclass(frozen=True)
class ExpertStoreHeader:
    dtype: str  # "fp32" | "fp16" | "fp64"
    num_expert_layers: int
    vocab_size: int
    num_experts: int
    hidden_size: int
    key_dim: int  # 0 for mole

    def __post_init__(self):
        if self.dtype not in DTYPE_CODES:
            raise StoreFormatError(f"unknown store dtype {self.dtype!r}")
        for name in ("num_expert_layers", "vocab_size", "num_experts", "hidden_size"):
            if getattr(self, name) < 1:
                raise StoreFormatError(f"header field {name} must be >= 1")

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
        return HEADER_SIZE + (layer * self.vocab_size + token_id) * self.record_bytes

    def encode(self) -> bytes:
        return _HEADER_STRUCT.pack(
            MAGIC,
            FORMAT_VERSION,
            KIND_CODES[self.kind],
            DTYPE_CODES[self.dtype],
            LAYOUT_LAYER_MAJOR,
            self.num_expert_layers,
            self.vocab_size,
            self.num_experts,
            self.hidden_size,
            self.key_dim,
        )

    @classmethod
    def decode(cls, raw: bytes) -> "ExpertStoreHeader":
        if raw.startswith(CHECKPOINT_MAGIC):  # "MLKV" opens both, so the version would read "CKPT"
            raise StoreFormatError("a molkv checkpoint, not an expert store: `molkv export` writes a store from it")
        if len(raw) < HEADER_SIZE:
            raise StoreFormatError(f"truncated header: {len(raw)} bytes")
        magic, version, kind, dtype, layout, layers, vocab, n, d, dk = _HEADER_STRUCT.unpack(raw[:HEADER_SIZE])
        if magic != MAGIC:
            raise StoreFormatError(f"bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise StoreFormatError(f"unsupported format version {version}")
        if layout != LAYOUT_LAYER_MAJOR:
            raise StoreFormatError(f"unknown layout constant {layout}")
        if dtype not in DTYPE_NAMES:
            raise StoreFormatError(f"unknown dtype code {dtype}")
        header = cls(dtype=DTYPE_NAMES[dtype], num_expert_layers=layers, vocab_size=vocab, num_experts=n,
                     hidden_size=d, key_dim=dk)
        if kind != KIND_CODES[header.kind]:
            raise StoreFormatError(f"kind code {kind} does not match the key size d' = {dk}")
        return header


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

    Raises StoreFormatError when a record is not finite in ``dtype`` (a value beyond its range, or NaN).
    ``path`` is replaced only by a complete store, written to a temporary file beside it.
    """
    if dtype not in NUMPY_DTYPES:
        raise StoreFormatError(f"unsupported store dtype {dtype!r}")
    vocab, n, dk = tables.keys[0].shape
    header = ExpertStoreHeader(
        dtype=dtype,
        num_expert_layers=tables.num_expert_layers,
        vocab_size=vocab,
        num_experts=n,
        hidden_size=tables.values[0].shape[-1],
        key_dim=dk,
    )
    nd = NUMPY_DTYPES[dtype]
    with atomic_write(path) as f:
        f.write(header.encode())
        for li in range(tables.num_expert_layers):
            rec = np.concatenate([tables.keys[li], tables.values[li]], axis=-1)
            with np.errstate(over="ignore"):
                cast = np.ascontiguousarray(rec, dtype=nd)
            if not np.isfinite(cast).all():
                raise StoreFormatError(
                    f"expert layer {li} is not finite in {dtype}: max |value| {np.abs(rec).max():.4g}, "
                    f"{dtype} max {np.finfo(nd).max:.4g}"
                )
            f.write(cast.tobytes())
    return header


class ExpertStoreReader:
    """Random-access reads with byte accounting; safe for concurrent readers.

    Every read is a positioned read of exactly one record; each returned
    record carries the bytes that read loaded (``nbytes``), the transfer
    size the offloading model budgets for. ``bytes_read`` and ``reads`` are
    running totals over all callers, updated under a lock.
    """

    def __init__(self, path):
        self.path = str(path)
        self._fd = os.open(self.path, os.O_RDONLY)
        if stat.S_ISDIR(os.fstat(self._fd).st_mode):  # opens without error; its first read would fail unnamed
            os.close(self._fd)
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), self.path)
        try:
            self.header = ExpertStoreHeader.decode(os.pread(self._fd, HEADER_SIZE, 0))
        except Exception:
            os.close(self._fd)
            raise
        expected = HEADER_SIZE + self.header.num_expert_layers * self.header.vocab_size * self.header.record_bytes
        actual = os.fstat(self._fd).st_size
        if actual != expected:
            os.close(self._fd)
            raise StoreFormatError(f"store size {actual} does not match header-implied {expected}")
        self.bytes_read = 0
        self.reads = 0
        self._totals_lock = threading.Lock()

    def read_record(self, layer: int, token_id: int) -> ExpertRecord:
        h = self.header
        raw = os.pread(self._fd, h.record_bytes, h.record_offset(layer, token_id))
        if len(raw) != h.record_bytes:
            raise StoreFormatError(f"short read at (layer={layer}, id={token_id})")
        with self._totals_lock:
            self.bytes_read += len(raw)
            self.reads += 1
        flat = np.frombuffer(raw, dtype=NUMPY_DTYPES[h.dtype]).reshape(h.num_experts, h.hidden_size + h.key_dim)
        return ExpertRecord(keys=flat[:, : h.key_dim].copy(), values=flat[:, h.key_dim :].copy(), nbytes=len(raw))

    def close(self):
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

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
