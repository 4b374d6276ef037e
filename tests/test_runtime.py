"""Decoding runtime: logit equivalence, cost accounting, generation."""

import importlib
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from molkv import runtime
from molkv.autodiff import Tape, backward
from molkv.config import ModelConfig
from molkv.model import forward, init_model, next_token_loss
from molkv.runtime import (CostCounters, DecoderState, closed_form_costs, decode_step, generate, layer_costs,
                           sample_token)
from molkv.store import NUMPY_DTYPES, ExpertStoreReader, count_params, reparameterize, write_store


def small_config(kind):
    common = dict(num_layers=3, hidden_size=16, ffn_size=20, vocab_size=29, num_heads=2)
    if kind == "dense":
        return ModelConfig(kind=kind, **common)
    if kind in ("mole", "gated-mole"):
        return ModelConfig(kind=kind, num_experts=2, expert_layers=(0, 2), **common)
    return ModelConfig(kind="molkv", num_experts=2, key_dim=6, cache_window=5, top_k=3,
                       expert_layers=(0, 2), **common)


@pytest.fixture
def molkv_setup(tmp_path):
    cfg = small_config("molkv")
    model = init_model(cfg, seed=0, dtype=np.float64, init_std=0.3)
    path = tmp_path / "store.mlkv"
    write_store(reparameterize(model), path, dtype="fp64")
    reader = ExpertStoreReader(path)
    yield cfg, model, reader
    reader.close()


def run_decode(model, reader, ids):
    state = DecoderState(model, reader)
    logits = []
    deltas = []
    for tok in ids:
        lg, d = decode_step(state, int(tok))
        logits.append(lg)
        deltas.append(d)
    return state, np.stack(logits), deltas


class TestLogitEquivalence:
    @pytest.mark.parametrize("kind", ["dense", "mole", "gated-mole", "molkv"])
    def test_decode_matches_train_forward(self, tmp_path, kind):
        cfg = small_config(kind)
        model = init_model(cfg, seed=1, dtype=np.float64, init_std=0.3)
        reader = None
        if kind != "dense":
            path = tmp_path / "store.mlkv"
            write_store(reparameterize(model), path, dtype="fp64")
            reader = ExpertStoreReader(path)
        # 40 tokens cross several expert-window compactions (M = 5) and an attention-cache growth
        for length in (11, 40):
            ids = np.random.default_rng(2).integers(0, cfg.vocab_size, size=length)
            _, logits, _ = run_decode(model, reader, ids)
            want = forward(model, ids[None, :]).data[0]
            rel = np.abs(logits - want).max() / (np.abs(want).max() + 1e-300)
            assert rel < 1e-6, length
        if reader:
            reader.close()

    def test_sequences_are_private(self, molkv_setup):
        cfg, model, reader = molkv_setup
        rng = np.random.default_rng(3)
        ids_a = rng.integers(0, cfg.vocab_size, size=8)
        ids_b = rng.integers(0, cfg.vocab_size, size=8)
        # interleaved decoding over a shared reader
        sa, sb = DecoderState(model, reader), DecoderState(model, reader)
        inter_a, inter_b = [], []
        for ta, tb in zip(ids_a, ids_b):
            inter_a.append(decode_step(sa, int(ta))[0])
            inter_b.append(decode_step(sb, int(tb))[0])
        _, solo_a, _ = run_decode(model, reader, ids_a)
        _, solo_b, _ = run_decode(model, reader, ids_b)
        np.testing.assert_array_equal(np.stack(inter_a), solo_a)
        np.testing.assert_array_equal(np.stack(inter_b), solo_b)

    def test_bad_token_id(self, molkv_setup):
        cfg, model, reader = molkv_setup
        state = DecoderState(model, reader)
        with pytest.raises(IndexError):
            decode_step(state, cfg.vocab_size)

    @pytest.mark.parametrize("token", [3.7, 3.0, np.float64(3.0), "3"])
    def test_non_integer_token_id_rejected(self, molkv_setup, token):
        _, model, reader = molkv_setup
        state = DecoderState(model, reader)
        with pytest.raises(TypeError):
            decode_step(state, token)
        assert state.position == 0 and len(state.attn_caches[0]) == 0 and reader.reads == 0
        decode_step(state, np.int32(3))  # NumPy integers are ids
        assert state.position == 1

    @pytest.mark.parametrize("prompt", [[1.0, 2.0], np.array([1, 2.5]), [3.7]])
    def test_non_integer_prompt_rejected(self, molkv_setup, prompt):
        _, model, reader = molkv_setup
        state = DecoderState(model, reader)
        with pytest.raises(TypeError):
            generate(state, prompt, steps=1)
        assert state.position == 0 and reader.reads == 0

    def test_store_model_mismatch(self, tmp_path, molkv_setup):
        _, _, reader = molkv_setup
        other = init_model(small_config("mole"), seed=4)
        with pytest.raises(ValueError):
            DecoderState(other, reader)

    def test_expert_model_requires_store(self):
        model = init_model(small_config("mole"), seed=5)
        with pytest.raises(ValueError):
            DecoderState(model, None)


@pytest.mark.parametrize("kind", ["dense", "mole", "gated-mole", "molkv"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_model_computes_in_its_parameter_dtype(tmp_path, kind, dtype):
    """Training, decoding and the decode caches all stay in the parameters' dtype.

    The store holds a narrower dtype than the model (fp32 under fp64, fp16
    under fp32). Its records are cast to the model's dtype where decoding
    reads them, so decoding gives the same bits as over a model-dtype store
    holding the same rounded values.
    """
    cfg = small_config(kind)
    model = init_model(cfg, seed=3, dtype=dtype, init_std=0.3)
    ids = np.random.default_rng(4).integers(0, cfg.vocab_size, size=(2, 9))
    assert forward(model, ids).dtype == dtype
    with Tape() as tape:
        loss = next_token_loss(model, ids)
    assert loss.dtype == dtype
    backward(tape, loss)
    assert [p.grad.dtype for p in model.parameters()] == [np.dtype(dtype)] * len(model.parameters())

    def decode(tables, store_dtype):
        reader = None
        if tables is not None:
            write_store(tables, tmp_path / f"{store_dtype}.mlkv", dtype=store_dtype)
            reader = ExpertStoreReader(tmp_path / f"{store_dtype}.mlkv")
        state = DecoderState(model, reader)
        logits = np.stack([decode_step(state, int(tok))[0] for tok in ids[0]])
        if reader:
            reader.close()
        return state, logits

    narrow, wide = ("fp32", "fp64") if dtype == np.float64 else ("fp16", "fp32")
    tables = None if kind == "dense" else reparameterize(model)
    state, logits = decode(tables, narrow)
    assert logits.dtype == dtype
    assert all(c.k.dtype == c.v.dtype == dtype for c in state.attn_caches)
    assert len(state.expert_caches) == (2 if kind == "molkv" else 0)
    assert all(c.k.dtype == c.v.dtype == dtype for c in state.expert_caches.values())
    if tables is not None:

        def rounded(arrays):
            return None if arrays is None else [a.astype(NUMPY_DTYPES[narrow]).astype(dtype) for a in arrays]

        _, want = decode(replace(tables, keys=rounded(tables.keys), values=rounded(tables.values)), wide)
        np.testing.assert_array_equal(logits, want)


# Names that profilers (the benchmark's span recorder among them) replace on
# the molkv.runtime module; decoding must look each one up there at call time.
RUNTIME_BINDINGS = (
    "decode_step",
    "causal_attention_step",
    "swishglu_ffn_np",
    "rmsnorm_np",
    "sigmoid_np",
    "molkv_query",
    "molkv_new_scores",
    "molkv_select",
    "cache_insert",
)


def test_decode_calls_runtime_bindings(molkv_setup, monkeypatch):
    cfg, model, reader = molkv_setup
    calls = dict.fromkeys(RUNTIME_BINDINGS, 0)
    for name in RUNTIME_BINDINGS:

        def counted(*args, _fn=getattr(runtime, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(runtime, name, counted)
    n_tokens = cfg.cache_window + 3
    runtime.generate(runtime.DecoderState(model, reader), np.arange(n_tokens), steps=0)
    assert all(calls.values()), calls
    assert calls["decode_step"] == n_tokens
    assert calls["molkv_select"] == n_tokens * len(cfg.expert_layers)


def test_benchmark_trace_targets_resolve(monkeypatch):
    """Every function the benchmark's span recorder wraps is still defined where it looks."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    missing = [f"{span}: {attr}" for owner, attr, span in workloads.TRACE_TARGETS if attr not in vars(owner)]
    assert not missing


@pytest.mark.parametrize("key_dim", [6, 8])  # head_dim is 8: two tables per step, then one shared table
def test_decode_builds_each_rope_table_once_per_step(tmp_path, monkeypatch, key_dim):
    cfg = replace(small_config("molkv"), key_dim=key_dim)
    model = init_model(cfg, seed=3, dtype=np.float64, init_std=0.3)
    write_store(reparameterize(model), tmp_path / "store.mlkv", dtype="fp64")
    calls = []
    tables = runtime.rope_tables

    def counted(positions, dim, theta, dtype):
        calls.append((positions, dim, theta, dtype))
        return tables(positions, dim, theta, dtype)

    monkeypatch.setattr(runtime, "rope_tables", counted)
    want = {(cfg.head_dim, cfg.rope_theta), (key_dim, cfg.rope_theta)}
    with ExpertStoreReader(tmp_path / "store.mlkv") as reader:
        state = DecoderState(model, reader)
        for t, tok in enumerate([4, 1, 4, 7, 2, 9, 0, 4]):  # past the window, M = 5
            calls.clear()
            decode_step(state, tok)
            assert len(calls) == len(want)
            assert {(dim, theta) for _, dim, theta, _ in calls} == want
            assert all(pos == t and dtype == np.float64 for pos, _, _, dtype in calls)


class TestCostAccounting:
    def test_measured_equals_closed_form_at_steady_state(self, molkv_setup):
        cfg, model, reader = molkv_setup
        rows = closed_form_costs(cfg)
        steady_from = cfg.cache_window  # m == M from this token on
        ids = np.random.default_rng(6).integers(0, cfg.vocab_size, size=steady_from + 3)
        state, _, _ = run_decode(model, reader, ids)
        for row in state.rows:
            want = rows["expert" if row.layer in cfg.expert_layers else "plain"]
            if row.token_index >= steady_from:
                assert row.macs == want.macs
                assert row.params_loaded == want.params_loaded
                if row.layer in cfg.expert_layers:
                    assert row.cache_len == cfg.cache_window

    def test_prefill_counts_actual_cache_length(self, molkv_setup):
        cfg, model, reader = molkv_setup
        ids = np.random.default_rng(7).integers(0, cfg.vocab_size, size=4)
        state, _, _ = run_decode(model, reader, ids)
        d, dk, n, k = cfg.hidden_size, cfg.key_dim, cfg.num_experts, cfg.top_k
        for row in state.rows:
            if row.layer in cfg.expert_layers:
                m = row.token_index  # cache holds min(t, M) = t here
                assert row.cache_len == m
                k_eff = min(k, m * n)
                assert row.macs == 3 * d * cfg.ffn_size + d * dk + m * n * dk + k_eff * d

    def test_bytes_match_record_size(self, molkv_setup):
        cfg, model, reader = molkv_setup
        ids = np.random.default_rng(8).integers(0, cfg.vocab_size, size=3)
        state, _, deltas = run_decode(model, reader, ids)
        per_layer_bytes = reader.header.record_bytes
        for delta in deltas:
            assert delta.bytes_loaded == per_layer_bytes * len(cfg.expert_layers)
            assert delta.params_loaded == layer_costs(cfg, True).params_loaded * len(cfg.expert_layers)

    @pytest.mark.parametrize("kind", ["dense", "mole", "gated-mole", "molkv"])
    def test_step_totals_sum_the_layer_rows(self, tmp_path, kind):
        # offloaded: every expert table, N|V|(d + d') per expert layer; in RAM: each
        # layer's shared FFN 3dD plus its cached pairs cache_len * N(d + d')
        cfg = small_config(kind)
        model = init_model(cfg, seed=8, dtype=np.float64, init_std=0.3)
        reader = None
        if cfg.expert_layers:
            write_store(reparameterize(model), tmp_path / "store.mlkv", dtype="fp64")
            reader = ExpertStoreReader(tmp_path / "store.mlkv")
        d, big_d, n, dk = cfg.hidden_size, cfg.ffn_size, cfg.num_experts, cfg.key_dim
        ids = np.random.default_rng(9).integers(0, cfg.vocab_size, size=2 * 5 + 2)  # past the window, M = 5
        state, _, deltas = run_decode(model, reader, ids)
        if reader:
            reader.close()
        for t, delta in enumerate(deltas):
            rows = [r for r in state.rows if r.token_index == t]
            assert [r.layer for r in rows] == list(range(cfg.num_layers))
            assert delta.params_offloaded == count_params(cfg, "experts-only")
            assert delta.params_in_ram == sum(3 * d * big_d + r.cache_len * n * (d + dk) for r in rows)
            assert delta.macs == sum(r.macs for r in rows)
            assert delta.params_loaded == sum(r.params_loaded for r in rows)
            assert delta.bytes_loaded == sum(r.bytes_loaded for r in rows)
            assert max(r.cache_len for r in rows) == (min(t, cfg.cache_window) if kind == "molkv" else 0)

    def test_mole_row_formulas(self, tmp_path):
        cfg = small_config("mole")
        rows = closed_form_costs(cfg)
        d, big_d = cfg.hidden_size, cfg.ffn_size
        assert rows["expert"].macs == 3 * d * big_d
        assert rows["expert"].params_loaded == cfg.num_experts * d
        assert rows["expert"].params_offloaded == cfg.num_experts * cfg.vocab_size * d
        assert rows["plain"].params_loaded == 0

    def test_molkv_row_collapses_to_mole(self):
        # with no window, no selection and no keys the formulas coincide
        molkv = closed_form_costs(
            ModelConfig(kind="molkv", num_layers=2, hidden_size=16, ffn_size=20, vocab_size=29,
                        num_experts=2, key_dim=2, cache_window=1, top_k=1, expert_layers=(0,), num_heads=2)
        )["expert"]
        d, big_d = 16, 20
        assert molkv.macs == 3 * d * big_d + d * 2 + 1 * 2 * 2 + min(1, 2) * d
        mole = closed_form_costs(small_config("mole"))["expert"]
        # dropping the key/window terms (dk = M = k = 0) leaves the mole row
        assert mole.macs == 3 * d * big_d
        assert mole.params_loaded == 2 * d

    def test_dense_rows(self):
        rows = closed_form_costs(small_config("dense"))
        assert set(rows) == {"plain"}
        assert rows["plain"].params_offloaded == 0 and rows["plain"].params_loaded == 0

    def test_counters_merge(self):
        a = CostCounters(macs=10, params_in_ram=5, params_offloaded=7, params_loaded=2, bytes_loaded=8)
        b = CostCounters(macs=1, params_in_ram=6, params_offloaded=7, params_loaded=3, bytes_loaded=12)
        a.merge(b)
        assert (a.macs, a.params_loaded, a.bytes_loaded) == (11, 5, 20)
        assert (a.params_in_ram, a.params_offloaded) == (6, 7)  # levels, not flows


class TestGenerate:
    def test_zero_steps_consumes_prompt_only(self, molkv_setup):
        cfg, model, reader = molkv_setup
        state = DecoderState(model, reader)
        out, totals = generate(state, [1, 2, 3], steps=0)
        assert out == []
        assert state.position == 3
        assert totals.params_loaded == 3 * layer_costs(cfg, True).params_loaded * len(cfg.expert_layers)

    def test_greedy_is_deterministic(self, molkv_setup):
        cfg, model, reader = molkv_setup
        out1, _ = generate(DecoderState(model, reader), [5, 6], steps=8)
        out2, _ = generate(DecoderState(model, reader), [5, 6], steps=8)
        assert out1 == out2

    def test_aggregate_bytes(self, molkv_setup):
        cfg, model, reader = molkv_setup
        state = DecoderState(model, reader)
        steps = 4
        _, totals = generate(state, [0, 1], steps=steps)
        n_tokens = 2 + steps
        assert totals.bytes_loaded == n_tokens * len(cfg.expert_layers) * reader.header.record_bytes

    def test_temperature_needs_rng(self, molkv_setup):
        cfg, model, reader = molkv_setup
        with pytest.raises(ValueError):
            generate(DecoderState(model, reader), [0], steps=1, sampler="temperature")

    @pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan"), float("inf")])
    def test_sample_token_rejects_bad_temperature(self, temperature):
        with pytest.raises(ValueError, match="temperature"):
            sample_token(np.array([1.0, 2.0]), "temperature", temperature, np.random.default_rng(0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("temperature", [1e-39, 1e-300])
    def test_sample_token_tiny_temperature_is_argmax(self, dtype, temperature):
        # logits / temperature overflowed to inf (and an fp32 1e-300 rounded to 0), giving NaN probabilities
        logits = np.array([1.0, -2.0, 3.5, 3.25, -1e30], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(5):
                assert sample_token(logits, "temperature", temperature, np.random.default_rng(seed)) == 2

    def test_sample_token_greedy_tie_break(self):
        logits = np.array([1.0, 3.0, 3.0])
        assert sample_token(logits, "greedy") == 1

    def test_temperature_sampling_reproducible(self, molkv_setup):
        cfg, model, reader = molkv_setup
        out1, _ = generate(
            DecoderState(model, reader), [3], steps=6, sampler="temperature", temperature=0.8,
            rng=np.random.default_rng(42),
        )
        out2, _ = generate(
            DecoderState(model, reader), [3], steps=6, sampler="temperature", temperature=0.8,
            rng=np.random.default_rng(42),
        )
        assert out1 == out2
