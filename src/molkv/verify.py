"""Acceptance property suite.

Each check returns a CheckResult and is callable on its own; ``run_all``
executes the full suite in order. The CLI ``verify`` subcommand and the
pytest acceptance module both drive these functions, so there is exactly
one implementation of every acceptance property.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tensor, grad_check, mul, rope_rotate_np, sigmoid_np, softmax_np, tensor_sum
from .config import ModelConfig, published_config
from .kvexperts import molkv_expert_pairs, molkv_expert_terms, molkv_new_scores, molkv_query, molkv_select
from .layers import KVCache, lookup_distinct, rope_tables, swishglu_ffn
from .model import forward, init_model, named_tensors
from .runtime import DecoderState, closed_form_costs, decode_step, molkv_step
from .store import ExpertStoreReader, count_params, reparameterize, write_store
from .training import (
    Corpus,
    TrainConfig,
    evaluate,
    load_checkpoint,
    new_train_state,
    save_checkpoint,
    synthesize_corpus,
    train_run,
)

LN_VOCAB = math.log(257.0)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail} ({self.seconds:.1f}s)"


def _timed(fn):
    def wrapper(*args, **kwargs) -> CheckResult:
        t0 = time.time()
        name, passed, detail = fn(*args, **kwargs)
        return CheckResult(name=name, passed=passed, detail=detail, seconds=time.time() - t0)

    return wrapper


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = np.abs(want).max()
    return float(np.abs(got - want).max() / (scale + 1e-300))


# ---------------------------------------------------------------------------
# 1. reparameterization equivalence (lookup-value blocks)
# ---------------------------------------------------------------------------


def _decode_vs_forward(model, reader: ExpertStoreReader, batch: np.ndarray) -> float:
    """Worst relative error of each token's ``decode_step`` logits against ``forward``'s over a (b, s) batch.

    Each row decodes as a fresh sequence, reading its expert records through ``reader``.
    """
    want = forward(model, batch).data
    worst = 0.0
    for ids, logits in zip(batch, want):
        state = DecoderState(model, reader)
        for token_id, ref in zip(ids, logits):
            worst = max(worst, _rel_err(decode_step(state, token_id)[0], ref))
    return worst


@_timed
def check_reparam_equivalence(n_configs: int = 20, tol: float = 1e-6):
    """Decoding from an exported store matches the training forward for every id in every expert layer.

    Each config decodes 10 permutations of its vocabulary, so every id is seen in 10 contexts.
    """
    rng = np.random.default_rng(101)
    worst = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        for c in range(n_configs):
            kind = "mole" if c % 2 == 0 else "gated-mole"
            d = int(rng.integers(2, 17)) * 2
            num_layers = int(rng.integers(1, 4))
            n_expert_layers = int(rng.integers(1, num_layers + 1))
            cfg = ModelConfig(
                kind=kind,
                num_layers=num_layers,
                hidden_size=d,
                ffn_size=int(rng.integers(4, 65)),
                vocab_size=int(rng.integers(4, 65)),
                num_experts=int(rng.integers(1, 5)),
                expert_layers=tuple(rng.choice(num_layers, size=n_expert_layers, replace=False).tolist()),
                num_heads=2 if d % 4 == 0 else 1,
            )
            model = init_model(cfg, seed=int(rng.integers(1 << 30)), dtype=np.float64, init_std=0.25)
            batch = np.stack([rng.permutation(cfg.vocab_size) for _ in range(10)])
            path = os.path.join(tmp, f"{c}.mlkv")
            write_store(reparameterize(model), path, dtype="fp64")
            with ExpertStoreReader(path) as reader:
                worst = max(worst, _decode_vs_forward(model, reader, batch))
    passed = worst <= tol
    return "reparameterization equivalence", passed, f"max rel err {worst:.2e} over {n_configs} configs (tol {tol:g})"


# ---------------------------------------------------------------------------
# 2. incremental vs batched key-value forward
# ---------------------------------------------------------------------------


def _tiny_molkv_config(n_experts: int, window: int, top_k: int) -> ModelConfig:
    return ModelConfig(
        kind="molkv",
        num_layers=1,
        hidden_size=12,
        ffn_size=16,
        vocab_size=40,
        num_experts=n_experts,
        key_dim=6,
        cache_window=window,
        top_k=top_k,
        expert_layers=(0,),
        num_heads=2,
    )


@_timed
def check_incremental_equivalence(tol: float = 1e-6):
    """Store-backed incremental decode equals the batched training forward.

    Two expert layers, so a layer reading another's records shows; d' = 4
    differs from the head dim 6, so a RoPE table of the wrong width shows.
    """
    rng = np.random.default_rng(202)
    worst = 0.0
    cases = 0
    with tempfile.TemporaryDirectory() as tmp:
        for window in (1, 4, 16):
            for top_k in (2, 8):
                for n_experts in (1, 2):
                    cfg = _tiny_molkv_config(n_experts, window, top_k)
                    cfg = replace(cfg, num_layers=2, expert_layers=(0, 1), key_dim=4)
                    model = init_model(cfg, seed=int(rng.integers(1 << 30)), dtype=np.float64, init_std=0.3)
                    path = os.path.join(tmp, f"{window}_{top_k}_{n_experts}.mlkv")
                    write_store(reparameterize(model), path, dtype="fp64")
                    with ExpertStoreReader(path) as reader:
                        for s in (1, 2, 3, 17, 64):
                            ids = rng.integers(0, cfg.vocab_size, size=(1, s))
                            worst = max(worst, _decode_vs_forward(model, reader, ids))
                            cases += s
    passed = worst <= tol
    return "incremental/batched equivalence", passed, f"max rel err {worst:.2e} over {cases} tokens (tol {tol:g})"


# ---------------------------------------------------------------------------
# 3. gradients of the full key-value block
# ---------------------------------------------------------------------------


@_timed
def check_block_gradients(tol: float = 1e-4):
    """Train-mode block gradients match central finite differences."""
    rng = np.random.default_rng(303)
    cfg = _tiny_molkv_config(n_experts=2, window=3, top_k=2)
    cfg = replace(cfg, hidden_size=6, ffn_size=8, key_dim=4, vocab_size=10, num_heads=1)
    model = init_model(cfg, seed=11, dtype=np.float64, init_std=0.4)
    layer = model.layers[0]
    block = layer.block
    s = 5
    ids = rng.integers(0, cfg.vocab_size, size=(1, s))
    h = Tensor(rng.standard_normal((1, s, cfg.hidden_size)))
    w = Tensor(rng.standard_normal((1, s, cfg.hidden_size)))
    leaves = [t for node in (layer.ffn, block) for _, t in named_tensors(node)] + [model.embedding]

    def f():  # the FFN sublayer as ``forward`` computes it
        terms = molkv_expert_terms(h, *lookup_distinct(model.embedding, ids), block, cfg.cache_window, cfg.top_k)
        return tensor_sum(mul(swishglu_ffn(h, layer.ffn) + terms, w))

    err = grad_check(f, leaves, eps=1e-5, samples_per_leaf=8, seed=4)
    passed = err <= tol
    return "block gradient check", passed, f"max rel err {err:.2e} over {len(leaves)} parameter groups (tol {tol:g})"


# ---------------------------------------------------------------------------
# 4. measured cost counters vs closed forms
# ---------------------------------------------------------------------------


def _decode_rows(cfg: ModelConfig, n_tokens: int, store_dtype: str = "fp32"):
    """Init a model at the given geometry, decode n_tokens, return state."""
    model = init_model(cfg, seed=5, dtype=np.float32, init_std=0.02)
    rng = np.random.default_rng(3)
    with tempfile.TemporaryDirectory() as tmp:
        path = None
        if cfg.kind != "dense":
            path = os.path.join(tmp, "experts.mlkv")
            write_store(reparameterize(model), path, dtype=store_dtype)
        with ExpertStoreReader(path) if path else contextlib.nullcontext() as reader:
            state = DecoderState(model, reader)
            for _ in range(n_tokens):
                decode_step(state, int(rng.integers(0, cfg.vocab_size)))
    return state


@_timed
def check_cost_counters():
    """Steady-state measured counters equal the closed forms as integers.

    The published layer geometry is kept exactly (d, D, N, d', M, k); layer
    count and vocabulary are reduced so the decode stays tractable. None of
    the asserted per-layer numbers depend on the reduced extents.
    """
    failures = []

    # Key-value layer at the published geometry; needs M+1 tokens to reach
    # the full window.
    molkv = ModelConfig(
        kind="molkv",
        num_layers=1,
        hidden_size=1024,
        ffn_size=2548,
        vocab_size=64,
        num_experts=2,
        key_dim=146,
        cache_window=512,
        top_k=32,
        expert_layers=(0,),
        num_heads=16,
    )
    state = _decode_rows(molkv, 513)
    closed = closed_form_costs(molkv)["expert"]
    last = [r for r in state.rows if r.token_index == 512 and r.layer == 0][0]
    ram = 3 * molkv.hidden_size * molkv.ffn_size + last.cache_len * molkv.num_experts * (
        molkv.hidden_size + molkv.key_dim
    )
    cache_ram = last.cache_len * molkv.num_experts * (molkv.hidden_size + molkv.key_dim)
    for label, got, want in [
        ("molkv macs", last.macs, 8_159_232),
        ("molkv macs closed form", last.macs, closed.macs),
        ("molkv loaded", last.params_loaded, 2_340),
        ("molkv loaded closed form", last.params_loaded, closed.params_loaded),
        ("molkv cache ram", cache_ram, 1_198_080),
        ("molkv ram closed form", ram, closed.params_in_ram),
        ("molkv bytes", last.bytes_loaded, 2_340 * 4),
    ]:
        if got != want:
            failures.append(f"{label}: got {got}, want {want}")

    # Dense and lookup layers at the published geometry; no window to fill.
    dense = ModelConfig(kind="dense", num_layers=1, hidden_size=1024, ffn_size=2644, vocab_size=64, num_heads=16)
    state = _decode_rows(dense, 3)
    row = state.rows[-1]
    if row.macs != 8_122_368:
        failures.append(f"dense macs: got {row.macs}, want 8122368")
    if row.params_loaded != 0:
        failures.append(f"dense loaded: got {row.params_loaded}, want 0")

    mole = ModelConfig(
        kind="mole",
        num_layers=1,
        hidden_size=1024,
        ffn_size=2644,
        vocab_size=64,
        num_experts=2,
        expert_layers=(0,),
        num_heads=16,
    )
    state = _decode_rows(mole, 3)
    row = state.rows[-1]
    closed_mole = closed_form_costs(mole)["expert"]
    if row.macs != 8_122_368 or row.macs != closed_mole.macs:
        failures.append(f"mole macs: got {row.macs}, want 8122368")
    if row.params_loaded != 2 * 1024 or row.params_loaded != closed_mole.params_loaded:
        failures.append(f"mole loaded: got {row.params_loaded}, want 2048")

    detail = "; ".join(failures) if failures else "molkv 8159232 MACs / 2340 loaded / 1198080 cache RAM; dense+mole 8122368"
    return "cost counter exactness", not failures, detail


# ---------------------------------------------------------------------------
# 5. parameter counting
# ---------------------------------------------------------------------------


@_timed
def check_param_counting():
    mole_total = count_params(published_config("mole"), "experts-only")
    molkv_total = count_params(published_config("molkv"), "experts-only")
    dense_total = count_params(published_config("dense"), "experts-only")
    failures = []
    if mole_total != 1_648_361_472:
        failures.append(f"mole experts-only: got {mole_total}")
    if molkv_total != 1_647_959_040:
        failures.append(f"molkv experts-only: got {molkv_total}")
    if dense_total != 0:
        failures.append(f"dense experts-only: got {dense_total}")
    detail = "; ".join(failures) if failures else "mole 1648361472, molkv 1647959040, dense 0"
    return "parameter counting", not failures, detail


# ---------------------------------------------------------------------------
# 6. store round-trip
# ---------------------------------------------------------------------------


@_timed
def check_store_roundtrip():
    cfg = ModelConfig(
        kind="molkv",
        num_layers=3,
        hidden_size=16,
        ffn_size=12,
        vocab_size=23,
        num_experts=2,
        key_dim=6,
        cache_window=4,
        top_k=2,
        expert_layers=(0, 2),
        num_heads=2,
    )
    model = init_model(cfg, seed=9, dtype=np.float64, init_std=0.3)
    tables = reparameterize(model)
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for dtype, np_dtype in (("fp32", np.float32), ("fp16", np.float16)):
            path = os.path.join(tmp, f"store_{dtype}.mlkv")
            write_store(tables, path, dtype=dtype)
            with ExpertStoreReader(path) as reader:
                for layer in range(2):
                    for token_id in range(cfg.vocab_size):
                        before = reader.bytes_read
                        rec = reader.read_record(layer, token_id)
                        if reader.bytes_read - before != reader.header.record_bytes:
                            failures.append(f"{dtype} read touched {reader.bytes_read - before} bytes")
                        want_keys = tables.keys[layer][token_id].astype(np_dtype)
                        want_vals = tables.values[layer][token_id].astype(np_dtype)
                        if not (np.array_equal(rec.keys, want_keys) and np.array_equal(rec.values, want_vals)):
                            failures.append(f"{dtype} record ({layer},{token_id}) not bit-exact")
    detail = "; ".join(failures[:3]) if failures else "bit-exact at fp32 and fp16; one record per read"
    return "store round-trip", not failures, detail


# ---------------------------------------------------------------------------
# 7. rotary relative-offset invariance
# ---------------------------------------------------------------------------


@_timed
def check_rope_relative(tol: float = 1e-10):
    rng = np.random.default_rng(707)
    dk = 146
    scale = 1.0 / math.sqrt(dk)
    worst = 0.0
    for _ in range(100):
        q = rng.standard_normal(dk)
        k = rng.standard_normal(dk)
        delta = int(rng.integers(0, 64))
        p1 = int(rng.integers(delta, 2048))
        p2 = int(rng.integers(delta, 2048))
        s1 = rope_rotate_np(q, rope_tables(p1, dk)) @ rope_rotate_np(k, rope_tables(p1 - delta, dk)) * scale
        s2 = rope_rotate_np(q, rope_tables(p2, dk)) @ rope_rotate_np(k, rope_tables(p2 - delta, dk)) * scale
        worst = max(worst, abs(s1 - s2))
    passed = worst <= tol
    return "rope relative invariance", passed, f"max score drift {worst:.2e} over 100 draws (tol {tol:g})"


# ---------------------------------------------------------------------------
# 8. empty and short windows
# ---------------------------------------------------------------------------


@_timed
def check_window_edges():
    rng = np.random.default_rng(808)
    cfg = _tiny_molkv_config(n_experts=2, window=8, top_k=32)
    model = init_model(cfg, seed=21, dtype=np.float64, init_std=0.3)
    block = model.layers[0].block
    failures = []

    # Position 0: the cached-expert term must be exactly zero.
    h = rng.standard_normal(cfg.hidden_size)
    token = 7
    keys, values = (t.data for t in molkv_expert_pairs(Tensor(model.embedding.data), block))  # every id's pairs
    cache = KVCache((cfg.num_experts, cfg.key_dim), (cfg.num_experts, cfg.hidden_size), np.float64, cfg.cache_window)
    rot = rope_tables(0, cfg.key_dim)
    term, k_eff = molkv_step(h, 0, cache, keys[token], values[token], block, cfg.top_k, rot)
    q = h @ block.query_proj.data
    s_own = softmax_np(h @ block.routers.data + keys[token] @ q * block.qk_scale)
    if k_eff != 0:
        failures.append(f"position 0 selected {k_eff} cached experts")
    if not np.array_equal(term, sigmoid_np(h @ block.gate.data) * (s_own @ values[token])):
        failures.append("position 0 term is not exactly the own-expert term")

    # Short window: fewer than k candidates selects all of them, weights sum to 1.
    for t in range(1, 5):
        rot = rope_tables(t, cfg.key_dim)
        _, q_rot = molkv_query(h, block, rot)
        weights = molkv_select(molkv_new_scores(q_rot, h, cache, block), cfg.top_k)
        avail, selected = len(cache) * cfg.num_experts, np.count_nonzero(weights)
        if avail < cfg.top_k and selected != avail:
            failures.append(f"t={t}: selected {selected} of {avail} available")
        if selected and not math.isclose(weights.sum(), 1.0, rel_tol=0, abs_tol=1e-12):
            failures.append(f"t={t}: weights sum to {weights.sum()}")
        if selected and (weights.min() < 0 or weights.max() > 1):
            failures.append(f"t={t}: weights outside [0, 1]")
        molkv_step(h, t, cache, keys[t], values[t], block, cfg.top_k, rot)

    detail = "; ".join(failures) if failures else "zero term at t=0; short windows select all, weights sum to 1"
    return "empty/short window behavior", not failures, detail


# ---------------------------------------------------------------------------
# 9. training smoke
# ---------------------------------------------------------------------------


def smoke_model_config(kind: str) -> ModelConfig:
    common = dict(num_layers=2, hidden_size=64, ffn_size=96, vocab_size=257, num_heads=2)
    if kind == "dense":
        return ModelConfig(kind=kind, **common)
    if kind in ("mole", "gated-mole"):
        return ModelConfig(kind=kind, num_experts=2, expert_layers=(0, 1), **common)
    return ModelConfig(
        kind="molkv", num_experts=2, key_dim=8, cache_window=8, top_k=4, expert_layers=(0,), **common
    )


def smoke_train_config(steps: int) -> TrainConfig:
    return TrainConfig(
        seq_length=96,
        batch_size=8,
        grad_accum=1,
        steps=steps,
        warmup_steps=max(1, steps // 10),
        lr=1.5e-3,
        min_lr=1.5e-4,
        weight_decay=0.1,
        seed=1234,
        dtype="fp32",
    )


@_timed
def check_training_smoke(steps: int = 300, corpus_bytes: int = 2_000_000):
    """All four kinds train below 70% of the uniform baseline; overfit works."""
    corpus = Corpus.from_bytes(synthesize_corpus(corpus_bytes, seed=77), val_fraction=0.05)
    target = 0.7 * LN_VOCAB
    lines = []
    failures = []
    for kind in ("dense", "mole", "gated-mole", "molkv"):
        cfg = smoke_model_config(kind)
        tcfg = smoke_train_config(steps)
        state = new_train_state(cfg, tcfg)
        train_run(state, corpus, tcfg, steps)
        val = evaluate(state.model, corpus.val_ids, tcfg.seq_length, max_windows=24)
        lines.append(f"{kind}={val:.4f}")
        if not val <= target:
            failures.append(f"{kind} val loss {val:.4f} above target {target:.4f}")

    # Single-sample overfit: one fixed 32-token window memorized to ~zero loss.
    over_cfg = ModelConfig(kind="dense", num_layers=2, hidden_size=64, ffn_size=96, vocab_size=257, num_heads=2)
    over_train = TrainConfig(
        seq_length=32,
        batch_size=1,
        grad_accum=1,
        steps=300,
        warmup_steps=20,
        lr=3e-3,
        min_lr=3e-4,
        weight_decay=0.0,
        seed=5,
        dtype="fp32",
    )
    sample = Corpus.from_bytes(b"the cat sat on the mat and looked back", val_fraction=0.0)
    sample = Corpus(ids=sample.ids[:33], split=33)
    over_state = new_train_state(over_cfg, over_train)
    train_run(over_state, sample, over_train, over_train.steps)
    final = over_state.log[-1]["loss"]
    if not final < 0.05:
        failures.append(f"overfit loss {final:.4f} not below 0.05")

    detail = f"val loss vs ln(257)={LN_VOCAB:.4f}, target {target:.4f}: " + ", ".join(lines) + f"; overfit {final:.4f}"
    if failures:
        detail = "; ".join(failures) + " | " + detail
    return "training smoke", not failures, detail


# ---------------------------------------------------------------------------
# 10. determinism and checkpoint resume
# ---------------------------------------------------------------------------


@_timed
def check_determinism():
    cfg = replace(smoke_model_config("molkv"), hidden_size=32, ffn_size=48, num_heads=2, key_dim=6)
    tcfg = TrainConfig(
        seq_length=32,
        batch_size=2,
        grad_accum=2,
        steps=8,
        warmup_steps=2,
        lr=1e-3,
        min_lr=1e-4,
        seed=99,
        dtype="fp64",
    )
    corpus = Corpus.from_bytes(synthesize_corpus(40_000, seed=13))
    failures = []
    with tempfile.TemporaryDirectory() as tmp:

        def run(steps_a: int, steps_b: int, name: str) -> bytes:
            state = new_train_state(cfg, tcfg)
            train_run(state, corpus, tcfg, steps_a)
            if steps_b:
                mid = os.path.join(tmp, name + ".mid")
                save_checkpoint(mid, state, tcfg)
                state = load_checkpoint(mid, cfg, tcfg)
                train_run(state, corpus, tcfg, steps_b)
            path = os.path.join(tmp, name + ".ckpt")
            save_checkpoint(path, state, tcfg)
            with open(path, "rb") as f:
                return f.read()

        a = run(8, 0, "a")
        b = run(8, 0, "b")
        c = run(4, 4, "c")
        if a != b:
            failures.append("two identical runs produced different checkpoints")
        if a != c:
            failures.append("save/reload/continue differs from the uninterrupted run")
    detail = "; ".join(failures) if failures else "bit-exact fp64 checkpoints; resume matches uninterrupted"
    return "determinism and resume", not failures, detail


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


ALL_CHECKS = (
    ("1", check_reparam_equivalence),
    ("2", check_incremental_equivalence),
    ("3", check_block_gradients),
    ("4", check_cost_counters),
    ("5", check_param_counting),
    ("6", check_store_roundtrip),
    ("7", check_rope_relative),
    ("8", check_window_edges),
    ("9", check_training_smoke),
    ("10", check_determinism),
)


def run_all(out: io.TextIOBase | None = None, fast: bool = False) -> list[CheckResult]:
    """Run every acceptance check, printing one line per criterion."""
    results = []
    for num, fn in ALL_CHECKS:
        if fast and fn is check_training_smoke:
            result = fn(steps=60, corpus_bytes=300_000)
        else:
            result = fn()
        results.append(result)
        if out is not None:
            out.write(f"criterion {num} " + result.line() + "\n")
            out.flush()
    return results
