"""The benchmark's workloads on the ROADMAP mid model, and their metrics.

Every call into the package goes through the public functions of
``molkv.model``, ``molkv.store``, ``molkv.runtime`` and ``molkv.training``,
looked up as module attributes at call time so that the traced run can wrap
them. README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import os
import platform
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from molkv import model, runtime, store, training
from molkv.config import ModelConfig

from spans import SpanRecorder
from worker import Worker

CONFIG = ModelConfig(
    kind="molkv",
    num_layers=4,
    hidden_size=256,
    ffn_size=512,
    vocab_size=257,  # byte tokenizer plus BOS
    num_experts=2,
    key_dim=32,
    cache_window=128,
    top_k=16,
    expert_layers=(0, 1, 2),
    num_heads=8,
)
EXPERT_LAYERS = frozenset(CONFIG.expert_layers)
CLOSED = runtime.closed_form_costs(CONFIG)

CORPUS_BYTES = 1 << 16
# Set-ups per run. The first builds the fixture; the rest run in the worker,
# spread over the timed loop between units, so that their median sees the
# same mix of fast and slow host periods as the timed operations. (Not
# between the steps of a unit: a step right after a set-up runs about 1.2x
# slower on evicted caches, and enough of those reach decode-long's p99.)
SETUP_REPEATS = 13
# Exports alone (reparameterize, write_store, open the reader) per run, on
# top of the one inside each set-up. An export takes about 0.05 s, and on a
# shared host single exports a second apart differ by 20-30%, so export_s
# takes its median over more samples than setup_s does.
EXPORT_REPEATS = 24
STORE_SAMPLES = 64
# fp32 decode logits agree with the fp32 training-mode forward to about 3e-7
# of the largest logit on this model; the check allows 1e-5 of it.
LOGIT_TOL = 1e-5
# The two modes also round cached-expert scores differently, so where the
# k-th and (k+1)-th largest scores differ by less than this share of the
# largest, they may keep different experts and their logits then differ by
# far more than LOGIT_TOL. A logits mismatch passes only at such a near-tie.
TIE_TOL = 1e-5
LONG_LEN = 1024
AT_1K = (960, 1024)  # positions behind decode_ms_p50_at_1k
SHORT_LEN = 32  # decode-short's sequences, and decode-long's warm-up
SHORT_CHUNK = 16  # sequences per reference forward and per traced/untraced unit
# The highest percentile with at least ten samples beyond it at the run
# length: decode runs time thousands of steps, train runs about a dozen, so
# train falls back to the median.
TAIL_PERCENTILE = {"decode-long": 99, "decode-short": 99, "train": 50}


def train_config(seed: int) -> training.TrainConfig:
    return training.TrainConfig(seq_length=256, batch_size=4, grad_accum=1, seed=seed)


# (owner, attribute, span name): each function is wrapped where its caller
# looks it up.
TRACE_TARGETS = (
    (runtime, "decode_step", "runtime.decode_step"),
    (runtime.DecoderState, "__init__", "runtime.DecoderState.init"),
    (runtime, "causal_attention_step", "layers.causal_attention_step"),
    (runtime, "swishglu_ffn_np", "layers.swishglu_ffn_np"),
    (runtime, "rmsnorm_np", "layers.rmsnorm_np"),
    (runtime, "sigmoid_np", "layers.sigmoid_np"),
    (runtime, "molkv_query", "kvexperts.molkv_query"),
    (runtime, "molkv_new_scores", "kvexperts.molkv_new_scores"),
    (runtime, "molkv_select", "kvexperts.molkv_select"),
    (runtime, "cache_insert", "kvexperts.cache_insert"),
    (store.ExpertStoreReader, "read_record", "store.read_record"),
    (training, "train_step", "training.train_step"),
    (training, "sample_batch", "training.sample_batch"),
    (training, "next_token_loss", "model.next_token_loss"),
    (training, "backward", "autodiff.backward"),
    (training.AdamW, "step", "training.AdamW.step"),
    (model, "causal_attention", "model.causal_attention"),
    (model, "swishglu_ffn", "model.swishglu_ffn"),
    (model, "molkv_expert_terms", "model.molkv_expert_terms"),
)


# Spans whose inclusive share of the traced wall time is a per-layer metric.
FRAC_SPANS = (
    "layers.causal_attention_step",
    "layers.swishglu_ffn_np",
    "layers.rmsnorm_np",
    "layers.sigmoid_np",
    "kvexperts.molkv_query",
    "kvexperts.molkv_new_scores",
    "kvexperts.molkv_select",
    "kvexperts.cache_insert",
    "store.read_record",
    "model.next_token_loss",
    "model.causal_attention",
    "model.molkv_expert_terms",
    "model.swishglu_ffn",
    "autodiff.backward",
    "training.AdamW.step",
    "training.sample_batch",
)


@dataclass
class Fixture:
    params: model.ModelParams
    corpus: training.Corpus
    tables: store.ReparamTables
    reader: store.ExpertStoreReader
    train_cfg: training.TrainConfig
    train_state: training.TrainState | None


def set_up(workload: str, seed: int, store_path: str):
    """Build the model, its corpus ids and its store; returns (fixture, phase seconds)."""
    t0 = time.perf_counter()
    corpus = training.Corpus.from_bytes(training.synthesize_corpus(CORPUS_BYTES, seed=seed))
    train_cfg = train_config(seed)
    state = training.new_train_state(CONFIG, train_cfg) if workload == "train" else None
    params = state.model if state is not None else model.init_model(CONFIG, seed=seed)
    tables, reader, phases = export(params, store_path)
    phases["setup_s"] = time.perf_counter() - t0
    return Fixture(params, corpus, tables, reader, train_cfg, state), phases


def export(params: model.ModelParams, store_path: str):
    """Reparameterize, write the store and open a reader; returns (tables, reader, phase seconds)."""
    t1 = time.perf_counter()
    tables = store.reparameterize(params)
    t2 = time.perf_counter()
    store.write_store(tables, store_path, dtype="fp32")
    t3 = time.perf_counter()
    reader = store.ExpertStoreReader(store_path)
    t4 = time.perf_counter()
    return tables, reader, {"export_s": t4 - t1, "reparameterize_s": t2 - t1, "write_store_s": t3 - t2}


class NothingMeasured(RuntimeError):
    """Every timed operation failed, so the run has no metrics to report."""


@dataclass
class Tally:
    """Operations attempted and failed; keeps the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    near_ties: int = 0  # logits mismatches explained by a top-k near-tie
    unchecked_logits: int = 0  # steps after a logits mismatch, which have no valid reference

    def check(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(problem)


@dataclass
class Samples:
    """What the timed loop measured."""

    first_op: float = 0.0  # perf_counter at the first timed operation
    steps: list = field(default_factory=list)  # (ns, position, traced) per timed operation
    units: list = field(default_factory=list)  # (wall ns, tokens, traced) per sequence or train step
    macs: int = 0  # CostCounters.macs over traced decode steps
    bytes_loaded: int = 0  # CostCounters.bytes_loaded over traced decode steps
    scored: int = 0  # cached experts scored (cache_len * N) over traced expert layers
    phase_macs: dict = field(default_factory=lambda: dict.fromkeys(("ffn", "query", "score", "mix"), 0))


@dataclass
class Run:
    """One benchmark run: the fixture, the worker and what has been measured."""

    workload: str
    seed: int
    seconds: float
    fx: Fixture
    rng: np.random.Generator
    recorder: SpanRecorder | None
    worker: Worker  # computes reference logits and times the extra set-ups and exports
    setup_path: str
    phases: list  # seconds per set-up phase, one dict per set-up
    exports: list = field(default_factory=list)  # seconds per export phase, one dict per export alone
    tally: Tally = field(default_factory=Tally)
    samples: Samples = field(default_factory=Samples)
    mismatches: list = field(default_factory=list)  # (sequence, position, logits error) to settle

    def reference(self, ids: np.ndarray) -> np.ndarray:
        """Training-mode forward logits for a (b, s) batch of ids."""
        return self.worker.reference(ids)

    def between(self, elapsed: float) -> None:
        """Time one more set-up or export whenever the run passes its next even slot.

        Called between units, outside their timing; ``elapsed`` is the time
        since the first timed operation.
        """
        while len(self.phases) < SETUP_REPEATS and elapsed >= self.seconds * len(self.phases) / (SETUP_REPEATS - 1):
            self.phases.append(self.worker.set_up(self.workload, self.seed, self.setup_path))
        while len(self.exports) < EXPORT_REPEATS and elapsed >= self.seconds * (len(self.exports) + 0.5) / EXPORT_REPEATS:
            self.exports.append(self.worker.export(self.setup_path))

    def export_phases(self) -> list:
        """Every export's phase seconds: those inside set-ups and those alone."""
        return self.phases + self.exports

    def units(self, measure) -> None:
        """Call ``measure(traced)`` until ``seconds`` have passed.

        A traced run alternates traced and untraced units, so that both see
        the same machine state, and makes at least two so that each kind is
        present. Set-ups and exports are timed between units, outside the timing.
        """
        traced_run = self.recorder is not None
        self.settle_mismatches()  # left by the warm-up
        self.samples.first_op = time.perf_counter()
        deadline = self.samples.first_op + self.seconds
        unit = 0
        while unit < (2 if traced_run else 1) or time.perf_counter() < deadline:
            measure(traced_run and unit % 2 == 0)
            unit += 1
            self.settle_mismatches()
            self.between(time.perf_counter() - self.samples.first_op)

    def settle_mismatches(self) -> None:
        """Pass or fail each logits mismatch of the last unit, outside timing and tracing."""
        for seq, position, err in self.mismatches:
            gap = boundary_gap(self.fx, seq, position)
            if gap <= TIE_TOL:
                self.tally.near_ties += 1
                self.tally.check(None)
            else:
                self.tally.check(
                    f"position {position}: decode logits differ from the training-mode forward by {err:.3g}, "
                    f"with no top-k near-tie (smallest boundary gap {gap:.3g} of the largest score)"
                )
        self.mismatches.clear()

    def tracing(self, traced: bool):
        return self.recorder.installed() if traced else nullcontext()


def check_store(run: Run) -> None:
    """Sampled records read back from the store equal the reparameterized tables."""
    fx = run.fx
    for _ in range(STORE_SAMPLES):
        layer = int(run.rng.integers(len(CONFIG.expert_layers)))
        token = int(run.rng.integers(CONFIG.vocab_size))
        got, want = fx.reader.read_record(layer, token), fx.tables.record(layer, token)
        same = np.array_equal(got.keys, want.keys) and np.array_equal(got.values, want.values)
        run.tally.check(None if same else f"store record (layer {layer}, id {token}) differs from reparameterize")


def layer_macs(layer: int, cache_len: int) -> int:
    """MACs the program should count for one layer with ``cache_len`` cached tokens."""
    if layer not in EXPERT_LAYERS:
        return CLOSED["plain"].macs
    if cache_len == CONFIG.cache_window:
        return CLOSED["expert"].macs  # steady state: the closed form itself
    d, dk, n = CONFIG.hidden_size, CONFIG.key_dim, CONFIG.num_experts
    return 3 * d * CONFIG.ffn_size + d * dk + cache_len * n * dk + min(CONFIG.top_k, cache_len * n) * d


def layer_ram(layer: int, cache_len: int) -> int:
    if layer not in EXPERT_LAYERS:
        return CLOSED["plain"].params_in_ram
    if cache_len == CONFIG.cache_window:
        return CLOSED["expert"].params_in_ram
    return CLOSED["plain"].params_in_ram + cache_len * CONFIG.num_experts * (CONFIG.hidden_size + CONFIG.key_dim)


def logits_error(logits, want) -> float:
    """Largest absolute difference, over the largest reference logit (at least 1)."""
    return float(np.abs(logits - want).max()) / max(1.0, float(np.abs(want).max()))


def counter_problem(delta, rows, position: int, record_bytes: int) -> str | None:
    """None when one decode step's cost rows and counters equal the closed forms."""
    m = min(position, CONFIG.cache_window)
    if [r.layer for r in rows] != list(range(CONFIG.num_layers)):
        return f"position {position}: cost rows cover layers {[r.layer for r in rows]}"
    for r in rows:
        expert = r.layer in EXPERT_LAYERS
        got = (r.token_index, r.macs, r.params_loaded, r.bytes_loaded, r.cache_len)
        expect = (
            position,
            layer_macs(r.layer, m),
            CLOSED["expert"].params_loaded if expert else 0,
            record_bytes if expert else 0,
            m if expert else 0,
        )
        if got != expect:
            return f"position {position} layer {r.layer}: cost row {got}, closed form {expect}"
    totals = (delta.macs, delta.params_loaded, delta.bytes_loaded, delta.params_in_ram)
    expect = (
        sum(r.macs for r in rows),
        sum(r.params_loaded for r in rows),
        sum(r.bytes_loaded for r in rows),
        sum(layer_ram(r.layer, m) for r in rows),
    )
    if totals != expect:
        return f"position {position}: step counters {totals}, per-layer sum {expect}"
    return None


def boundary_gap(fx: Fixture, seq, position: int) -> float:
    """Smallest top-k boundary gap over the expert layers when decoding ``seq[position]``.

    Re-decodes the prefix with ``molkv_select`` observed at the binding
    ``decode_step`` uses. A gap is the k-th minus the (k+1)-th largest
    cached-expert score, over the largest absolute score.
    """
    select = runtime.molkv_select
    gaps = []

    def observed(scores, k):
        if scores.size > k:
            top = np.sort(scores)[::-1]
            gaps.append(float(top[k - 1] - top[k]) / float(np.abs(scores).max()))
        return select(scores, k)

    runtime.molkv_select = observed
    try:
        state = runtime.DecoderState(fx.params, fx.reader)
        for token in seq[: position + 1]:
            gaps.clear()
            runtime.decode_step(state, int(token))
    finally:
        runtime.molkv_select = select
    return min(gaps, default=float("inf"))


def count_phase_macs(samples: Samples, delta, rows) -> None:
    """Closed-form MACs per decode phase, joined later with the traced phase times."""
    d, dk, n = CONFIG.hidden_size, CONFIG.key_dim, CONFIG.num_experts
    samples.macs += delta.macs
    samples.bytes_loaded += delta.bytes_loaded
    pm = samples.phase_macs
    for r in rows:
        pm["ffn"] += 3 * d * CONFIG.ffn_size
        if r.layer in EXPERT_LAYERS:
            pm["query"] += d * dk
            pm["score"] += r.cache_len * n * dk
            pm["mix"] += min(CONFIG.top_k, r.cache_len * n) * d
            samples.scored += r.cache_len * n


def decode_sequence(run: Run, seq, ref, timed: bool = True, traced: bool = False) -> None:
    """Teacher-force ``seq`` through a fresh DecoderState, checking every step.

    An untimed sequence is a warm-up: checked, but not sampled.
    """
    fx, tally, samples, recorder = run.fx, run.tally, run.samples, run.recorder
    record_bytes = fx.reader.header.record_bytes
    if recorder is not None:
        recorder.run_id = tally.attempted
    t0 = time.perf_counter_ns()
    state = runtime.DecoderState(fx.params, fx.reader)
    wall = time.perf_counter_ns() - t0
    mismatch_at = None
    for t, token in enumerate(seq):
        if recorder is not None:
            recorder.run_id = tally.attempted
        try:
            a = time.perf_counter_ns()
            logits, delta = runtime.decode_step(state, int(token))
            b = time.perf_counter_ns()
        except Exception as exc:  # a failing step fails the op and ends this sequence
            tally.check(f"position {t}: decode_step raised {exc!r}")
            return
        rows = state.rows[-CONFIG.num_layers :]
        problem = counter_problem(delta, rows, t, record_bytes)
        if problem is None and mismatch_at is None:
            err = logits_error(logits, ref[t])
            if not err <= LOGIT_TOL:
                mismatch_at = t  # settled after the unit; later logits have no valid reference
                run.mismatches.append((seq, t, err))
        elif problem is None:
            tally.unchecked_logits += 1
        if mismatch_at != t:
            tally.check(problem)
        if timed:
            wall += b - a
            samples.steps.append((b - a, t, traced))
            if traced:
                count_phase_macs(samples, delta, rows)
    if timed:
        samples.units.append((wall, len(seq), traced))


def train_one(run: Run, timed: bool = True, traced: bool = False) -> None:
    """One train_step, checked for a finite loss and gradient norm.

    An untimed step is a warm-up: checked, but not sampled.
    """
    fx, tally = run.fx, run.tally
    if run.recorder is not None:
        run.recorder.run_id = tally.attempted
    try:
        a = time.perf_counter_ns()
        loss, grad_norm = training.train_step(fx.train_state, fx.corpus, fx.train_cfg)
        b = time.perf_counter_ns()
    except Exception as exc:  # TrainingError on a non-finite loss or gradient, or any other fault
        tally.check(f"train step {fx.train_state.step}: {exc!r}")
        return
    finite = np.isfinite(loss) and np.isfinite(grad_norm)
    tally.check(None if finite else f"train step {fx.train_state.step}: loss {loss}, grad norm {grad_norm}")
    if timed:
        run.samples.steps.append((b - a, 0, traced))
        run.samples.units.append((b - a, fx.train_cfg.batch_size * fx.train_cfg.seq_length, traced))


def decode_long(run: Run) -> None:
    """One 1024-token sequence per pass, teacher-forced from position 0."""
    ids = run.fx.corpus.ids
    start = int(run.rng.integers(0, len(ids) - LONG_LEN + 1))
    seq = ids[start : start + LONG_LEN]
    ref = run.reference(seq[None])[0]
    decode_sequence(run, seq[:SHORT_LEN], ref, timed=False)  # warm-up

    def measure(traced):
        with run.tracing(traced):
            decode_sequence(run, seq, ref, traced=traced)

    run.units(measure)


def decode_short(run: Run) -> None:
    """Fresh 32-token sequences, all sharing one store reader."""
    ids = run.fx.corpus.ids

    def chunk():
        starts = run.rng.integers(0, len(ids) - SHORT_LEN + 1, size=SHORT_CHUNK)
        seqs = np.stack([ids[s : s + SHORT_LEN] for s in starts])
        return seqs, run.reference(seqs)

    seqs, ref = chunk()
    decode_sequence(run, seqs[0], ref[0], timed=False)  # warm-up

    def measure(traced):
        seqs, ref = chunk()  # untimed and untraced
        with run.tracing(traced):
            for seq, want in zip(seqs, ref):
                decode_sequence(run, seq, want, traced=traced)

    run.units(measure)


def train(run: Run) -> None:
    """train_step at b=4, s=256, grad_accum=1 on the taped path."""
    train_one(run, timed=False)  # warm-up

    def measure(traced):
        with run.tracing(traced):
            train_one(run, traced=traced)

    run.units(measure)


RUNNERS = {"decode-long": decode_long, "decode-short": decode_short, "train": train}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _p(values, q) -> float:
    return float(np.percentile(values, q))


def _median_phase(phases, key) -> float:
    return float(np.median([p[key] for p in phases]))


def end_to_end(workload: str, samples: Samples, phases, exports, rss_mb: float) -> dict:
    step_ms = [ns / 1e6 for ns, _, _ in samples.steps]
    wall_ns = sum(u[0] for u in samples.units)
    tokens = sum(u[1] for u in samples.units)
    return {
        "step_ms_p50": (_p(step_ms, 50), "ms"),
        "step_ms_tail": (_p(step_ms, TAIL_PERCENTILE[workload]), "ms"),
        "tokens_per_s": (tokens * 1e9 / wall_ns, "tok/s"),
        "export_s": (_median_phase(exports, "export_s"), "s"),
        "setup_s": (_median_phase(phases, "setup_s"), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(samples: Samples, totals: dict, exports, store_bytes: int) -> dict:
    """Per-layer metrics from the traced units only.

    Time shares are inclusive span time over the traced units' wall time
    (state set-up plus steps); a layer the workload never calls reads 0.
    """
    traced = [ns / 1e6 for ns, _, tr in samples.steps if tr]
    untraced = [ns / 1e6 for ns, _, tr in samples.steps if not tr]
    wall = sum(u[0] for u in samples.units if u[2])
    tokens = sum(u[1] for u in samples.units if u[2])

    def span(name, key="total_ns"):
        return totals.get(name, {}).get(key, 0)

    def gmacs(macs, ns):
        return macs / ns if ns else 0.0

    pm = samples.phase_macs
    m = {
        "trace.step_ms_p50": (_p(traced, 50), "ms"),
        "trace.overhead_frac": (_p(traced, 50) / _p(untraced, 50) - 1.0, "ratio"),
    }
    for name in FRAC_SPANS:
        m[f"{name}.frac"] = (span(name) / wall, "ratio")
    m["runtime.decode_step.self_frac"] = (span("runtime.decode_step", "self_ns") / wall, "ratio")
    m["runtime.DecoderState.init_frac"] = (span("runtime.DecoderState.init") / wall, "ratio")
    m["kvexperts.scored_experts_per_token"] = (samples.scored / (tokens * len(EXPERT_LAYERS)), "count")
    m["store.read_record.calls_per_token"] = (totals.get("store.read_record", {}).get("calls", 0) / tokens, "count")
    m["store.bytes_loaded_per_token"] = (samples.bytes_loaded / tokens, "bytes")
    m["store.reparameterize_s"] = (_median_phase(exports, "reparameterize_s"), "s")
    m["store.write_store_s"] = (_median_phase(exports, "write_store_s"), "s")
    m["store.write_store.bytes"] = (store_bytes, "bytes")
    m["runtime.macs_per_token"] = (samples.macs / tokens, "count")
    m["runtime.gmacs_per_s"] = (gmacs(samples.macs, span("runtime.decode_step")), "GMAC/s")
    m["layers.swishglu_ffn_np.gmacs_per_s"] = (gmacs(pm["ffn"], span("layers.swishglu_ffn_np")), "GMAC/s")
    m["kvexperts.molkv_query.gmacs_per_s"] = (gmacs(pm["query"], span("kvexperts.molkv_query")), "GMAC/s")
    m["kvexperts.molkv_new_scores.gmacs_per_s"] = (gmacs(pm["score"], span("kvexperts.molkv_new_scores")), "GMAC/s")
    # The value mix has no span of its own: it runs in decode_step's own
    # code, so its time is taken as decode_step's self time.
    m["runtime.value_mix.gmacs_per_s"] = (gmacs(pm["mix"], span("runtime.decode_step", "self_ns")), "GMAC/s")
    return m


def span_table(totals: dict, tokens: int) -> dict:
    """Absolute per-span times of the traced units, per token."""
    return {
        name: {
            "calls_per_token": agg["calls"] / tokens,
            "ms_per_token": agg["total_ns"] / 1e6 / tokens,
            "self_ms_per_token": agg["self_ns"] / 1e6 / tokens,
            "us_p50": _p(agg["durations_ns"], 50) / 1e3,
        }
        for name, agg in sorted(totals.items())
    }


def environment(workload, seed, seconds, trace, blas_threads) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loop": "closed, one client, one process",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "model": f"molkv d={CONFIG.hidden_size} D={CONFIG.ffn_size} L={CONFIG.num_layers} "
        f"experts in {list(CONFIG.expert_layers)} N={CONFIG.num_experts} d'={CONFIG.key_dim} "
        f"M={CONFIG.cache_window} k={CONFIG.top_k} heads={CONFIG.num_heads} V={CONFIG.vocab_size} fp32",
    }


def run(workload, seed, seconds, trace, out_dir, blas_threads, started) -> dict:
    """Set up, check the store, measure; returns the full report."""
    store_path = os.path.join(out_dir, f"store-{os.getpid()}.mlkv")
    setup_path = os.path.join(out_dir, f"setup-{os.getpid()}.mlkv")
    fx = None
    try:
        fx, phases = set_up(workload, seed, store_path)
        store_bytes = os.path.getsize(store_path)
        recorder = SpanRecorder(TRACE_TARGETS) if trace else None
        with Worker(seed) as worker:
            run = Run(workload, seed, seconds, fx, np.random.default_rng(seed), recorder, worker, setup_path, [phases])
            check_store(run)
            RUNNERS[workload](run)
            run.between(float("inf"))
    finally:
        if fx is not None:
            fx.reader.close()
        for path in (store_path, setup_path):
            if os.path.exists(path):
                os.remove(path)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    samples, tally = run.samples, run.tally
    kinds = {traced for _, _, traced in samples.steps}
    if kinds != ({True, False} if trace else {False}):
        raise NothingMeasured(tally.failures)
    extras = {
        "ops_failed_frac": tally.failed / tally.attempted,
        "logits_near_ties": tally.near_ties,
        "logits_unchecked_steps": tally.unchecked_logits,
        "process_to_first_op_s": samples.first_op - started,
        "steps_timed": len(samples.steps),
        "tail_percentile": TAIL_PERCENTILE[workload],
        "setup_repeats": len(run.phases),
        "export_repeats": len(run.export_phases()),
    }
    if workload == "decode-long":
        late = [ns / 1e6 for ns, pos, tr in samples.steps if AT_1K[0] <= pos < AT_1K[1] and not tr]
        extras["decode_ms_p50_at_1k"] = _p(late, 50)
        extras["decode_ms_p50_at_1k_samples"] = len(late)
    report = {"env": environment(workload, seed, seconds, trace, blas_threads), "extras": extras}
    if trace:
        totals = recorder.totals()
        report["spans"] = span_table(totals, sum(u[1] for u in samples.units if u[2]))
        metrics = per_layer(samples, totals, run.export_phases(), store_bytes)
        recorder.write(os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl"))
    else:
        metrics = end_to_end(workload, samples, run.phases, run.export_phases(), rss_mb)
    report["failures"] = tally.failures
    report["result"] = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return report
