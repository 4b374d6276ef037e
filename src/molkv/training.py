"""Toy-scale training: byte tokenizer, AdamW, cosine schedule, checkpoints.

The loop is deterministic given (seed, config, corpus): one RNG drives
batch sampling, its state rides along in checkpoints, and resuming from a
checkpoint continues bit-identically at fp64.
"""

from __future__ import annotations

import contextlib
import json
import math
import operator
import os
import struct
import tempfile
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import Tape, backward
from .config import ConfigError, check_finite
from .model import ModelParams, init_model, next_token_loss, zero_model

CHECKPOINT_MAGIC = b"MLKVCKPT"
# 2: every layer's shared FFN is layers.<i>.ffn.*; 3: the saved configs lose rope_theta, norm_eps, betas,
# adam_eps and eval_windows, now layers.ROPE_THETA, autodiff.NORM_EPS and the constants below
CHECKPOINT_VERSION = 3
ADAM_BETAS = (0.9, 0.95)
ADAM_EPS = 1e-8
EVAL_WINDOWS = 16  # validation windows that ``molkv train`` evaluates


class TrainingError(RuntimeError):
    """Non-finite loss or gradients; message carries step diagnostics."""


class TokenLookupError(IndexError):
    """Token id outside the tokenizer vocabulary."""


# ---------------------------------------------------------------------------
# tokenizer and corpus
# ---------------------------------------------------------------------------


class ByteTokenizer:
    """Bytes map to ids 0..255; one BOS special sits at 256.

    tokenize never emits specials, so detokenize(tokenize(x)) == x for any
    byte string. Ids past the bytes (BOS, or any id of a larger model
    vocabulary) contribute nothing to detokenize's text; a negative id
    raises TokenLookupError.
    """

    BOS = 256
    vocab_size = 257

    def tokenize(self, data: bytes) -> np.ndarray:
        return np.frombuffer(bytes(data), dtype=np.uint8).astype(np.int64)

    def detokenize(self, ids) -> bytes:
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        if ids.size and ids.min() < 0:
            raise TokenLookupError(f"negative token id {ids.min()}")
        return bytes(ids[ids < 256].astype(np.uint8).tobytes())


@dataclass
class Corpus:
    """A token stream split into a training and a disjoint validation slice."""

    ids: np.ndarray
    split: int  # first validation index

    @property
    def train_ids(self) -> np.ndarray:
        return self.ids[: self.split]

    @property
    def val_ids(self) -> np.ndarray:
        return self.ids[self.split :]

    @classmethod
    def from_bytes(cls, data: bytes, val_fraction: float = 0.05) -> "Corpus":
        ids = ByteTokenizer().tokenize(data)
        split = int(round(len(ids) * (1.0 - val_fraction)))
        split = max(1, min(split, len(ids) - 1)) if len(ids) > 1 else len(ids)
        return cls(ids=ids, split=split)

    @classmethod
    def from_file(cls, path, val_fraction: float = 0.05) -> "Corpus":
        with open(path, "rb") as f:
            return cls.from_bytes(f.read(), val_fraction)


_WORDS = (
    "the of and to in a is that for it was on are as with his they at be this have from or one had by "
    "word but not what all were we when your can said there use an each which she do how their if will "
    "up other about out many then them these so some her would make like him into time has look two more "
    "write go see number no way could people my than first water been call who oil its now find long down "
    "day did get come made may part over new sound take only little work know place year live me back give "
    "most very after thing our just name good sentence man think say great where help through much before "
    "line right too mean old any same tell boy follow came want show also around form three small set put "
    "end does another well large must big even such because turn here why ask went men read need land"
).split()


def synthesize_corpus(n_bytes: int, seed: int = 0) -> bytes:
    """Deterministic English-like filler text for smoke training.

    Each sentence's words are Zipf-distributed. Picking them by searching
    one CDF with ``rng.random(n)`` is what ``rng.choice(len(_WORDS), size=n,
    p=probs)`` does, so the bytes match that per-sentence call's stream.
    """
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, len(_WORDS) + 1, dtype=np.float64)
    probs = 1.0 / ranks
    probs /= probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    parts: list[str] = []
    size = 0
    while size < n_bytes:
        n = int(rng.integers(4, 12))
        words = [_WORDS[i] for i in cdf.searchsorted(rng.random(n), side="right")]
        sentence = " ".join(words) + (".\n" if rng.random() < 0.25 else ". ")
        sentence = sentence[0].upper() + sentence[1:]
        parts.append(sentence)
        size += len(sentence)
    return "".join(parts).encode()[:n_bytes]


# ---------------------------------------------------------------------------
# schedule and optimizer
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    seq_length: int = 2048
    batch_size: int = 8
    grad_accum: int = 30
    steps: int = 20000
    warmup_steps: int = 200
    lr: float = 3e-4
    min_lr: float = 3e-6
    weight_decay: float = 0.1
    grad_clip: float = 1.0
    init_std: float = 0.02
    seed: int = 0
    dtype: str = "fp32"
    val_fraction: float = 0.05

    def __post_init__(self):
        for name, least in (("seq_length", 1), ("batch_size", 1), ("grad_accum", 1),
                            ("steps", 0), ("warmup_steps", 0), ("seed", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not 0.0 < self.val_fraction < 1.0:  # NaN fails too
            raise ConfigError(f"val_fraction must be finite and in (0, 1), got {self.val_fraction}")
        # grad_clip 0 means no clipping (AdamW.step)
        check_finite(self, positive=("lr", "init_std"), nonnegative=("min_lr", "weight_decay", "grad_clip"))
        if self.warmup_steps > self.steps:
            raise ConfigError("warmup_steps must not exceed steps")
        if self.min_lr > self.lr:
            raise ConfigError("min_lr must not exceed lr")
        if self.dtype not in ("fp32", "fp64"):
            raise ConfigError(f"training dtype must be fp32 or fp64, got {self.dtype!r}")

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "fp64" else np.float32


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup from 0, then cosine decay to min_lr at the last step."""
    if step < 0:
        raise ValueError("step must be >= 0")
    if cfg.warmup_steps > 0 and step < cfg.warmup_steps:
        return cfg.lr * step / cfg.warmup_steps
    if step >= cfg.steps:
        return cfg.min_lr
    span = max(cfg.steps - cfg.warmup_steps, 1)
    t = (step - cfg.warmup_steps) / span
    return cfg.min_lr + 0.5 * (cfg.lr - cfg.min_lr) * (1.0 + math.cos(math.pi * t))


class AdamW:
    """Decoupled-weight-decay Adam with ``ADAM_BETAS`` and ``ADAM_EPS``; decay skips 1-D tensors (gains, gates)."""

    def __init__(self, params: ModelParams, cfg: TrainConfig):
        self.cfg = cfg
        self.named = params.named_parameters()
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.named}
        self.v = {name: np.zeros_like(p.data) for name, p in self.named}

    def step(self, lr: float) -> float:
        """Clip gradients globally, apply one update in place; returns the grad norm."""
        cfg = self.cfg
        sq = 0.0
        for _, p in self.named:
            if p.grad is not None:
                sq += float((p.grad.astype(np.float64, copy=False) ** 2).sum())
        norm = math.sqrt(sq)
        clip_scale = cfg.grad_clip / norm if cfg.grad_clip > 0 and norm > cfg.grad_clip else 1.0

        self.t += 1
        b1, b2 = ADAM_BETAS
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for name, p in self.named:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            g = g if clip_scale == 1.0 else g * clip_scale  # g * 1.0 is g
            m, v = self.m[name], self.v[name]
            buf = np.multiply(g, 1.0 - b1)
            m *= b1
            m += buf
            np.multiply(g, 1.0 - b2, out=buf)
            buf *= g
            v *= b2
            v += buf
            np.sqrt(np.divide(v, bias2, out=buf), out=buf)
            buf += ADAM_EPS
            update = np.divide(m, bias1)
            update /= buf
            if cfg.weight_decay and p.data.ndim >= 2:
                update += np.multiply(p.data, cfg.weight_decay, out=buf)
            update *= lr
            p.data -= update
            p.grad = None
        return norm


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    model: ModelParams
    optimizer: AdamW
    rng: np.random.Generator
    step: int = 0
    log: list[dict] = field(default_factory=list)


def new_train_state(model_config, train_cfg: TrainConfig) -> TrainState:
    model = init_model(model_config, seed=train_cfg.seed, dtype=train_cfg.np_dtype, init_std=train_cfg.init_std)
    return TrainState(
        model=model,
        optimizer=AdamW(model, train_cfg),
        rng=np.random.default_rng(train_cfg.seed),
    )


def sample_batch(rng: np.random.Generator, ids: np.ndarray, batch_size: int, seq_length: int) -> np.ndarray:
    """batch_size windows of seq_length + 1 consecutive tokens."""
    span = seq_length + 1
    if len(ids) < span:
        raise TrainingError(f"corpus slice of {len(ids)} tokens is shorter than one window of {span}")
    starts = rng.integers(0, len(ids) - span + 1, size=batch_size)
    return np.stack([ids[s : s + span] for s in starts]).astype(np.int64)


def train_step(state: TrainState, corpus: Corpus, cfg: TrainConfig) -> tuple[float, float]:
    """One optimizer step over grad_accum micro-batches; returns (loss, grad norm) and logs phase ms."""
    losses = []
    fwd_s, bwd_s, start = 0.0, 0.0, time.perf_counter()
    for _ in range(cfg.grad_accum):
        batch = sample_batch(state.rng, corpus.train_ids, cfg.batch_size, cfg.seq_length)
        t0 = time.perf_counter()
        with Tape() as tape:
            loss = next_token_loss(state.model, batch) * (1.0 / cfg.grad_accum)
        t1 = time.perf_counter()
        backward(tape, loss)
        fwd_s, bwd_s = fwd_s + t1 - t0, bwd_s + time.perf_counter() - t1
        losses.append(loss.item() * cfg.grad_accum)
    mean_loss = float(np.mean(losses))
    if not math.isfinite(mean_loss):
        raise TrainingError(f"non-finite loss {mean_loss} at step {state.step} (lr={lr_at(state.step, cfg):.3e})")
    opt = time.perf_counter()
    grad_norm = state.optimizer.step(lr_at(state.step, cfg))
    end = time.perf_counter()
    if not math.isfinite(grad_norm):
        raise TrainingError(f"non-finite gradient norm at step {state.step}")
    state.step += 1
    state.log.append({"step": state.step, "lr": lr_at(state.step - 1, cfg), "loss": mean_loss, "grad_norm": grad_norm,
                      "fwd_ms": 1e3 * fwd_s, "bwd_ms": 1e3 * bwd_s, "opt_ms": 1e3 * (end - opt),
                      "tokens_per_s": cfg.grad_accum * cfg.batch_size * cfg.seq_length / (end - start)})
    return mean_loss, grad_norm


def train_run(state: TrainState, corpus: Corpus, cfg: TrainConfig, steps: int, log_file=None) -> float:
    """Run ``steps`` optimizer steps, writing each step's log record to ``log_file`` as JSON; returns the last loss."""
    loss = float("nan")
    for _ in range(steps):
        loss, _ = train_step(state, corpus, cfg)
        if log_file is not None:
            log_file.write(json.dumps(state.log[-1]) + "\n")
            log_file.flush()
    return loss


def evaluate(model: ModelParams, val_ids: np.ndarray, seq_length: int, max_windows: int | None = None) -> float:
    """Mean next-token cross-entropy (nats) over consecutive validation windows."""
    if len(val_ids) < 2:
        raise TrainingError("validation stream needs at least two tokens")
    span = seq_length + 1
    n_windows = max(1, (len(val_ids) - 1) // seq_length)
    if max_windows is not None:
        n_windows = min(n_windows, max_windows)
    total = 0.0
    count = 0
    for w in range(n_windows):
        chunk = val_ids[w * seq_length : w * seq_length + span]
        if len(chunk) < 2:
            break
        loss = next_token_loss(model, chunk.astype(np.int64)[None, :])
        n_tok = len(chunk) - 1
        total += loss.item() * n_tok
        count += n_tok
    return total / count


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, state: TrainState, train_cfg: TrainConfig) -> None:
    """Versioned binary container: JSON header, with the model's configuration, plus raw little-endian arrays.

    ``path`` is replaced only by a complete checkpoint, written to a temporary file beside it.
    """
    arrays: list[tuple[str, np.ndarray]] = []
    for name, p in state.model.named_parameters():
        arrays.append(("param/" + name, p.data))
    for name, _ in state.model.named_parameters():
        arrays.append(("adam_m/" + name, state.optimizer.m[name]))
        arrays.append(("adam_v/" + name, state.optimizer.v[name]))

    entries = []
    offset = 0
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr)
        entries.append({"name": name, "dtype": arr.dtype.name, "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes
    header = {
        "version": CHECKPOINT_VERSION,
        "step": state.step,
        "adam_t": state.optimizer.t,
        "model_config": asdict(state.model.config),
        "train_config": asdict(train_cfg),
        "rng_state": _encode_rng_state(state.rng),
        "entries": entries,
    }
    blob = json.dumps(header).encode()
    with atomic_write(path) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(blob)))
        f.write(blob)
        for _, arr in arrays:
            data = np.ascontiguousarray(arr)
            if data.dtype.byteorder == ">":
                data = data.astype(data.dtype.newbyteorder("<"))
            f.write(data.tobytes())


@contextlib.contextmanager
def atomic_write(path):
    """A binary file to write ``path``'s new contents to, which replaces ``path`` only if the block completes.

    The file is a temporary one beside ``path``, of mode 0600 as ``mkstemp`` makes it. If the block
    raises, the temporary file is removed and ``path`` keeps whatever it held.
    """
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=os.path.basename(path) + ".")
    try:
        with open(fd, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_parameters(path, model_config, train_cfg: TrainConfig) -> ModelParams:
    """The model of a checkpoint, without its AdamW moments: all that export and decoding read.

    ConfigError if the file is not a checkpoint, is truncated or corrupt, or does not fit the configs:
    its parameters must have the shapes and dtypes they give, and its model configuration must equal
    ``model_config`` field by field. Each parameter is read straight into its own array, so the load
    holds the parameters' bytes once.
    """
    with open(path, "rb") as f:
        return _read_parameters(*_open_checkpoint(f), model_config, train_cfg)


def load_checkpoint(path, model_config, train_cfg: TrainConfig) -> TrainState:
    """Rebuild a TrainState that continues bit-identically: ``load_parameters``' read, then the AdamW moments.

    ConfigError as for ``load_parameters``, and where a moment does not fit. Each entry is read
    straight into its own array, so the load holds the file's bytes once.
    """
    with open(path, "rb") as f:
        fields, read_into = _open_checkpoint(f)
        model = _read_parameters(fields, read_into, model_config, train_cfg)
        state = TrainState(model=model, optimizer=AdamW(model, train_cfg), rng=fields["rng"], step=fields["step"])
        state.optimizer.t = fields["adam_t"]
        for name, _ in model.named_parameters():
            read_into("adam_m/" + name, state.optimizer.m[name])
            read_into("adam_v/" + name, state.optimizer.v[name])
    return state


def _read_parameters(fields: dict, read_into, model_config, train_cfg: TrainConfig) -> ModelParams:
    """Fill a zero parameter tree from an open checkpoint, then check its stored model configuration."""
    model = zero_model(model_config, dtype=train_cfg.np_dtype)  # every tensor is read below; nothing is drawn
    for name, p in model.named_parameters():
        read_into("param/" + name, p.data)
    saved_config = fields["model_config"]
    given = json.loads(json.dumps(asdict(model_config)))  # tuples as lists, as saved
    differ = [f"{k}: checkpoint {saved_config.get(k)!r}, given {v!r}"
              for k, v in given.items() if saved_config.get(k) != v]
    if differ:
        raise ConfigError(f"checkpoint was saved under a different model configuration: {'; '.join(differ)}")
    return model


def _open_checkpoint(f):
    """Check an open checkpoint's preamble and header; return its step, adam_t, rng and model_config, and a reader.

    Every entry must lie inside the payload. The reader, ``read_into(name, arr)``, fills ``arr`` with
    entry ``name`` from the file, after checking that the entry exists with ``arr``'s dtype and shape.
    """
    size = os.fstat(f.fileno()).st_size
    preamble = f.read(20)
    if preamble[:8] != CHECKPOINT_MAGIC:
        raise ConfigError(f"not a checkpoint file: bad magic {preamble[:8]!r}")
    if len(preamble) < 20:
        raise ConfigError(f"truncated checkpoint: {size} bytes, shorter than the 20-byte preamble")
    version, blob_len = struct.unpack_from("<IQ", preamble, 8)
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {version}")
    if size < 20 + blob_len:
        raise ConfigError(f"truncated checkpoint: {size} bytes, shorter than its {20 + blob_len}-byte header")
    try:
        header = json.loads(f.read(blob_len).decode())
        fields = {"step": header["step"], "adam_t": header["adam_t"], "rng": _decode_rng_state(header["rng_state"]),
                  "model_config": dict(header["model_config"])}
        by_name = {e["name"]: (np.dtype(e["dtype"]), tuple(map(operator.index, e["shape"])),
                               operator.index(e["offset"])) for e in header["entries"]}
    except (KeyError, TypeError, ValueError) as e:  # JSON and UTF-8 decoding errors are ValueErrors
        raise ConfigError(f"corrupt checkpoint header: {type(e).__name__}: {e}") from None
    payload_start, payload_len = 20 + blob_len, size - 20 - blob_len
    for name, (dtype, shape, offset) in by_name.items():  # each entry, read or not: a cut file fails every load
        if not 0 <= offset <= payload_len - dtype.itemsize * math.prod(shape):
            raise ConfigError(f"truncated checkpoint: entry {name!r} ends past the {payload_len}-byte payload")

    def read_into(name: str, arr: np.ndarray) -> None:
        dtype, shape, offset = by_name.get(name, (None, None, 0))
        if (dtype, shape) != (arr.dtype, arr.shape):
            found = "missing" if dtype is None else f"{dtype.name} {shape}"
            raise ConfigError(
                f"checkpoint entry {name!r} is {found}; the model configuration needs {arr.dtype.name} {arr.shape}"
            )
        f.seek(payload_start + offset)
        if f.readinto(memoryview(arr).cast("B")) != arr.nbytes:  # the file shrank while it was read
            raise ConfigError(f"truncated checkpoint: entry {name!r} ends past the end of the file")

    return fields, read_into


def _encode_rng_state(rng: np.random.Generator) -> dict:
    st = rng.bit_generator.state
    return json.loads(json.dumps(st, default=int))


def _decode_rng_state(state_dict: dict) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state_dict
    return rng
