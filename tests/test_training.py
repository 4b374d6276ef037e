"""Trainer: tokenizer round-trips, schedule, optimizer, checkpoints."""

import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from molkv import model as model_module
from molkv import training
from molkv.autodiff import Tape, backward
from molkv.config import ConfigError, ModelConfig
from molkv.model import next_token_loss, trunc_normal
from molkv.training import (
    ByteTokenizer,
    Corpus,
    TokenLookupError,
    TrainConfig,
    TrainingError,
    evaluate,
    load_checkpoint,
    lr_at,
    new_train_state,
    sample_batch,
    save_checkpoint,
    synthesize_corpus,
    train_run,
    train_step,
)

TINY = ModelConfig(kind="dense", num_layers=1, hidden_size=8, ffn_size=8, vocab_size=257, num_heads=2)


def tiny_train(steps=4, **kw):
    base = dict(seq_length=16, batch_size=2, grad_accum=1, steps=steps, warmup_steps=1,
                lr=1e-3, min_lr=1e-4, seed=7, dtype="fp64")
    base.update(kw)
    return TrainConfig(**base)


class TestTokenizer:
    def test_empty(self):
        tok = ByteTokenizer()
        assert tok.tokenize(b"").size == 0
        assert tok.detokenize(np.array([], dtype=int)) == b""

    def test_roundtrip_random_bytes(self):
        tok = ByteTokenizer()
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=1_000_000, dtype=np.uint8).tobytes()
        assert tok.detokenize(tok.tokenize(data)) == data

    def test_all_ids_in_vocab(self):
        tok = ByteTokenizer()
        ids = tok.tokenize(bytes(range(256)))
        assert ids.min() >= 0 and ids.max() < tok.vocab_size

    def test_detokenize_rejects_out_of_vocab(self):
        tok = ByteTokenizer()
        with pytest.raises(TokenLookupError):
            tok.detokenize(np.array([tok.vocab_size]))

    def test_specials_are_dropped(self):
        tok = ByteTokenizer()
        assert tok.detokenize(np.array([104, 105, tok.BOS])) == b"hi"


class TestCorpus:
    def test_split_disjoint(self):
        c = Corpus.from_bytes(b"x" * 1000, val_fraction=0.1)
        assert len(c.train_ids) + len(c.val_ids) == 1000
        assert len(c.val_ids) == 100

    def test_synthesize_deterministic(self):
        assert synthesize_corpus(5000, seed=3) == synthesize_corpus(5000, seed=3)
        assert synthesize_corpus(5000, seed=3) != synthesize_corpus(5000, seed=4)

    def test_synthesize_is_text(self):
        text = synthesize_corpus(2000, seed=1).decode()
        assert len(text) == 2000
        assert all(ch.isalpha() or ch in " .\n" for ch in text)

    @pytest.mark.parametrize("n_bytes", [5000, 200_000])
    @pytest.mark.parametrize("seed", range(4))
    def test_synthesize_is_old_choice_loop(self, seed, n_bytes):
        assert synthesize_corpus(n_bytes, seed=seed) == _old_synthesize_corpus(n_bytes, seed)


def _old_synthesize_corpus(n_bytes, seed):
    """The corpus as one ``rng.choice(..., p=probs)`` call per sentence drew it."""
    words_list = training._WORDS
    rng = np.random.default_rng(seed)
    probs = 1.0 / np.arange(1, len(words_list) + 1, dtype=np.float64)
    probs /= probs.sum()
    parts, size = [], 0
    while size < n_bytes:
        n = int(rng.integers(4, 12))
        words = [words_list[i] for i in rng.choice(len(words_list), size=n, p=probs)]
        sentence = " ".join(words) + (".\n" if rng.random() < 0.25 else ". ")
        sentence = sentence[0].upper() + sentence[1:]
        parts.append(sentence)
        size += len(sentence)
    return "".join(parts).encode()[:n_bytes]


class TestSchedule:
    CFG = TrainConfig(steps=20000, warmup_steps=200, lr=3e-4, min_lr=3e-6)

    def test_warmup_start_is_zero(self):
        assert lr_at(0, self.CFG) == 0.0

    def test_warmup_end_hits_lr(self):
        assert lr_at(200, self.CFG) == pytest.approx(3e-4, rel=1e-12)

    def test_final_step_hits_min_lr(self):
        assert lr_at(20000, self.CFG) == pytest.approx(3e-6, rel=1e-12)
        assert lr_at(19999, self.CFG) == pytest.approx(3e-6, rel=1e-2)

    def test_monotone_after_warmup(self):
        vals = [lr_at(s, self.CFG) for s in range(200, 20001, 500)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_warmup_exceeding_steps_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(steps=10, warmup_steps=20)

    def test_min_lr_above_lr_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=1e-4, min_lr=1e-3)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("lr", math.nan), ("lr", math.inf), ("lr", 0.0),
            ("init_std", math.nan), ("init_std", 0.0), ("init_std", -0.02),
            ("adam_eps", math.nan), ("adam_eps", 0.0), ("adam_eps", -1e-8),
            ("min_lr", math.nan), ("min_lr", -1e-6),
            ("weight_decay", math.nan), ("weight_decay", math.inf), ("weight_decay", -0.1),
            ("grad_clip", math.nan), ("grad_clip", math.inf), ("grad_clip", -1.0),
        ],
    )
    def test_nonfinite_or_out_of_range_rejected(self, field, value):
        kw = {field: value, "min_lr": 0.0} if field == "lr" else {field: value}
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**kw)

    def test_zero_grad_clip_means_no_clipping(self):
        assert TrainConfig(grad_clip=0.0).grad_clip == 0.0


class TestOptimizer:
    def test_zero_lr_keeps_parameters_bitwise(self):
        cfg = tiny_train()
        state = new_train_state(TINY, cfg)
        before = {n: t.data.copy() for n, t in state.model.named_parameters()}
        corpus = Corpus.from_bytes(synthesize_corpus(2000, seed=0))
        batch = sample_batch(state.rng, corpus.train_ids, 2, 16)
        with Tape() as tape:
            loss = next_token_loss(state.model, batch)
        backward(tape, loss)
        state.optimizer.step(lr=0.0)  # decay is coupled to lr, so nothing moves
        for n, t in state.model.named_parameters():
            assert np.array_equal(t.data, before[n]), n

    def test_global_norm_clip(self):
        cfg = tiny_train(grad_clip=1.0)
        state = new_train_state(TINY, cfg)
        total = sum(t.data.size for _, t in state.model.named_parameters())
        for _, t in state.model.named_parameters():
            t.grad = np.full_like(t.data, 100.0 / math.sqrt(total))  # global norm 100
        norm = state.optimizer.step(lr=0.0)
        assert norm == pytest.approx(100.0, rel=1e-9)
        # first step: m = (1 - beta1) * clipped grad, so |m| / (1 - beta1) = grad_clip
        clipped_sq = sum(float((m**2).sum()) for m in state.optimizer.m.values())
        applied = math.sqrt(clipped_sq) / (1 - 0.9)
        assert applied == pytest.approx(cfg.grad_clip, rel=1e-6)

    def test_decay_skips_vectors(self):
        cfg = tiny_train(weight_decay=0.5)
        state = new_train_state(TINY, cfg)
        gains_before = state.model.final_norm.data.copy()
        emb_before = state.model.embedding.data.copy()
        for _, t in state.model.named_parameters():
            t.grad = np.zeros_like(t.data)
        state.optimizer.step(lr=0.1)
        assert np.array_equal(state.model.final_norm.data, gains_before)
        assert not np.array_equal(state.model.embedding.data, emb_before)


def _old_adamw_step(named, m, v, t, cfg, lr):
    """The AdamW update as plain expressions, the form the in-place step replaced."""
    sq = sum(float((p.grad.astype(np.float64) ** 2).sum()) for _, p in named)
    norm = math.sqrt(sq)
    clip_scale = cfg.grad_clip / norm if cfg.grad_clip > 0 and norm > cfg.grad_clip else 1.0
    b1, b2 = cfg.betas
    bias1, bias2 = 1.0 - b1**t, 1.0 - b2**t
    for name, p in named:
        g = p.grad * clip_scale
        m[name] = b1 * m[name] + (1.0 - b1) * g
        v[name] = b2 * v[name] + (1.0 - b2) * g * g
        update = (m[name] / bias1) / (np.sqrt(v[name] / bias2) + cfg.adam_eps)
        if cfg.weight_decay and p.data.ndim >= 2:
            update = update + cfg.weight_decay * p.data
        p.data = p.data - (lr * update).astype(p.data.dtype)
    return norm


@pytest.mark.parametrize("dtype", ["fp32", "fp64"])
@pytest.mark.parametrize("grad_clip", [1.0, 1e9])
def test_adamw_step_is_old_update(dtype, grad_clip):
    cfg = tiny_train(dtype=dtype, weight_decay=0.1, grad_clip=grad_clip)
    state = new_train_state(TINY, cfg)
    ref = new_train_state(TINY, cfg).model.named_parameters()
    m = {n: np.zeros_like(p.data) for n, p in ref}
    v = {n: np.zeros_like(p.data) for n, p in ref}
    rng = np.random.default_rng(12)
    assert {p.data.ndim for _, p in ref} == {1, 2}  # decay applies to the 2-D tensors only
    for t in range(1, 4):
        for (_, p), (_, q) in zip(state.model.named_parameters(), ref):
            p.grad = rng.standard_normal(p.data.shape).astype(p.data.dtype)
            q.grad = p.grad.copy()
        norm = state.optimizer.step(lr=1e-2 * t)
        assert norm == _old_adamw_step(ref, m, v, t, cfg, 1e-2 * t)
        assert (norm > grad_clip) == (grad_clip == 1.0)  # clipping is active in one case only
    for (name, p), (_, q) in zip(state.model.named_parameters(), ref):
        assert p.data.dtype == cfg.np_dtype
        np.testing.assert_array_equal(p.data, q.data, err_msg=name)
        np.testing.assert_array_equal(state.optimizer.m[name], m[name], err_msg=name)
        np.testing.assert_array_equal(state.optimizer.v[name], v[name], err_msg=name)


class TestTrainStep:
    def test_loss_decreases_on_fixed_sample(self):
        cfg = tiny_train(steps=150, warmup_steps=10, lr=1e-2, min_lr=1e-3, seq_length=16, batch_size=1)
        corpus = Corpus.from_bytes(b"abcabcabcabcabcab", val_fraction=0.0)
        corpus = Corpus(ids=corpus.ids, split=len(corpus.ids))
        state = new_train_state(TINY, cfg)
        first, _ = train_step(state, corpus, cfg)
        for _ in range(149):
            last, _ = train_step(state, corpus, cfg)
        assert last < first * 0.2

    def test_log_record_has_phase_timings(self):
        cfg = tiny_train(grad_accum=2)
        state = new_train_state(TINY, cfg)
        train_step(state, Corpus.from_bytes(synthesize_corpus(2000, seed=0)), cfg)
        rec = state.log[-1]
        assert list(rec) == ["step", "lr", "loss", "grad_norm", "fwd_ms", "bwd_ms", "opt_ms", "tokens_per_s"]
        assert min(rec["fwd_ms"], rec["bwd_ms"], rec["opt_ms"]) > 0
        # tokens/s covers the whole step: 2 micro-batches of 2 x 16 tokens
        assert rec["tokens_per_s"] < 64 / (1e-3 * (rec["fwd_ms"] + rec["bwd_ms"] + rec["opt_ms"]))

    def test_nonfinite_loss_raises(self):
        cfg = tiny_train()
        state = new_train_state(TINY, cfg)
        state.model.embedding.data[:] = np.inf
        corpus = Corpus.from_bytes(synthesize_corpus(2000, seed=0))
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(TrainingError):
                train_step(state, corpus, cfg)

    def test_gradient_reaches_every_parameter_group(self):
        cfg_model = ModelConfig(kind="molkv", num_layers=2, hidden_size=16, ffn_size=12, vocab_size=257,
                                num_experts=2, key_dim=4, cache_window=4, top_k=2, expert_layers=(0,),
                                num_heads=2)
        cfg = tiny_train(seq_length=12, batch_size=2)
        state = new_train_state(cfg_model, cfg)
        corpus = Corpus.from_bytes(synthesize_corpus(4000, seed=1))
        batch = sample_batch(state.rng, corpus.train_ids, 2, 12)
        with Tape() as tape:
            loss = next_token_loss(state.model, batch)
        backward(tape, loss)
        for name, t in state.model.named_parameters():
            assert t.grad is not None, f"no gradient for {name}"
            assert np.abs(t.grad).max() > 0, f"zero gradient for {name}"


class TestEvaluate:
    def test_zeroed_head_gives_uniform_loss(self):
        state = new_train_state(TINY, tiny_train())
        state.model.out_proj.data[:] = 0.0
        val = np.random.default_rng(2).integers(0, 257, size=200)
        loss = evaluate(state.model, val, seq_length=16)
        assert loss == pytest.approx(math.log(257), rel=1e-9)

    def test_matches_naive_loop(self):
        state = new_train_state(TINY, tiny_train())
        val = np.random.default_rng(3).integers(0, 257, size=40)
        got = evaluate(state.model, val, seq_length=10)
        from molkv.model import forward
        from molkv.layers import softmax_np

        total, count = 0.0, 0
        for w in range(3):
            chunk = val[w * 10 : w * 10 + 11]
            logits = forward(state.model, chunk[:-1][None, :]).data[0]
            p = softmax_np(logits)
            for i in range(10):
                total -= math.log(p[i, chunk[i + 1]])
                count += 1
        # evaluate covers every full window; recompute with its window count
        want = evaluate(state.model, val[: 3 * 10 + 1], seq_length=10)
        assert want == pytest.approx(total / count, abs=1e-10)
        assert got > 0

    def test_nonempty_stream_required(self):
        state = new_train_state(TINY, tiny_train())
        with pytest.raises(TrainingError):
            evaluate(state.model, np.array([1]), seq_length=8)


class TestCheckpoint:
    def test_same_seed_bit_identical(self, tmp_path):
        cfg = tiny_train(steps=3)
        corpus = Corpus.from_bytes(synthesize_corpus(3000, seed=5))

        def run(name):
            state = new_train_state(TINY, cfg)
            train_run(state, corpus, cfg, 3)
            p = tmp_path / name
            save_checkpoint(p, state, cfg)
            return p.read_bytes()

        assert run("a.ckpt") == run("b.ckpt")

    def test_resume_matches_uninterrupted(self, tmp_path):
        cfg = tiny_train(steps=6)
        corpus = Corpus.from_bytes(synthesize_corpus(3000, seed=6))

        full = new_train_state(TINY, cfg)
        train_run(full, corpus, cfg, 6)
        save_checkpoint(tmp_path / "full.ckpt", full, cfg)

        half = new_train_state(TINY, cfg)
        train_run(half, corpus, cfg, 3)
        save_checkpoint(tmp_path / "half.ckpt", half, cfg)
        resumed = load_checkpoint(tmp_path / "half.ckpt", TINY, cfg)
        train_run(resumed, corpus, cfg, 3)
        save_checkpoint(tmp_path / "resumed.ckpt", resumed, cfg)

        assert (tmp_path / "resumed.ckpt").read_bytes() == (tmp_path / "full.ckpt").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"JUNKJUNK" + b"\x00" * 64)
        with pytest.raises(ConfigError):
            load_checkpoint(p, TINY, tiny_train())

    @pytest.mark.parametrize("cut", [10, 30, 8], ids=["in-preamble", "in-header", "8-short-payload"])
    def test_truncated_checkpoint_rejected(self, tmp_path, cut):
        cfg = tiny_train()
        p = tmp_path / "t.ckpt"
        save_checkpoint(p, new_train_state(TINY, cfg), cfg)
        data = p.read_bytes()
        p.write_bytes(data[:cut] if cut > 8 else data[:-cut])
        with pytest.raises(ConfigError, match="truncated checkpoint"):
            load_checkpoint(p, TINY, cfg)

    @pytest.mark.parametrize("key", ["step", "adam_t", "rng_state", "entries", "model_config"])
    def test_header_missing_key_rejected(self, tmp_path, key):
        cfg = tiny_train()
        p = tmp_path / "k.ckpt"
        save_checkpoint(p, new_train_state(TINY, cfg), cfg)
        data = p.read_bytes()
        (blob_len,) = struct.unpack_from("<Q", data, 12)
        header = json.loads(data[20 : 20 + blob_len])
        del header[key]
        blob = json.dumps(header).encode()
        p.write_bytes(data[:12] + struct.pack("<Q", len(blob)) + blob + data[20 + blob_len :])
        with pytest.raises(ConfigError, match=f"corrupt checkpoint header: KeyError: '{key}'"):
            load_checkpoint(p, TINY, cfg)

    def test_corrupt_header_bytes_rejected(self, tmp_path):
        cfg = tiny_train()
        p = tmp_path / "c.ckpt"
        save_checkpoint(p, new_train_state(TINY, cfg), cfg)
        data = bytearray(p.read_bytes())
        data[20] = 0xFF  # not UTF-8
        p.write_bytes(bytes(data))
        with pytest.raises(ConfigError, match="corrupt checkpoint header"):
            load_checkpoint(p, TINY, cfg)
        data[20:22] = b"[1"  # UTF-8, not JSON
        p.write_bytes(bytes(data))
        with pytest.raises(ConfigError, match="corrupt checkpoint header"):
            load_checkpoint(p, TINY, cfg)

    def test_checkpoint_restores_step_and_moments(self, tmp_path):
        cfg = tiny_train(steps=4)
        corpus = Corpus.from_bytes(synthesize_corpus(3000, seed=8))
        state = new_train_state(TINY, cfg)
        train_run(state, corpus, cfg, 4)
        save_checkpoint(tmp_path / "s.ckpt", state, cfg)
        loaded = load_checkpoint(tmp_path / "s.ckpt", TINY, cfg)
        assert loaded.step == 4 and loaded.optimizer.t == 4
        for name, _ in state.model.named_parameters():
            assert np.array_equal(loaded.optimizer.m[name], state.optimizer.m[name])
            assert np.array_equal(loaded.optimizer.v[name], state.optimizer.v[name])


    def test_load_draws_no_random_weights(self, tmp_path, monkeypatch):
        saved = ModelConfig(kind="molkv", num_layers=1, hidden_size=8, ffn_size=8, vocab_size=257, num_experts=2,
                            key_dim=4, cache_window=8, top_k=4, expert_layers=(0,), num_heads=2)
        cfg = tiny_train(dtype="fp32")
        state = new_train_state(saved, cfg)
        save_checkpoint(tmp_path / "s.ckpt", state, cfg)

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint drew weights that the checkpoint overwrites")

        monkeypatch.setattr(model_module, "trunc_normal", refuse)
        loaded = load_checkpoint(tmp_path / "s.ckpt", saved, cfg)
        for (name, p), (_, q) in zip(state.model.named_parameters(), loaded.model.named_parameters(), strict=True):
            assert q.data.dtype == np.float32
            np.testing.assert_array_equal(q.data, p.data, err_msg=name)

    def test_load_holds_the_file_once(self, tmp_path):
        # reading the whole file and then copying every entry out of it peaked at about twice the file
        saved = ModelConfig(kind="molkv", num_layers=2, hidden_size=64, ffn_size=96, vocab_size=257, num_experts=2,
                            key_dim=8, cache_window=8, top_k=4, expert_layers=(0,), num_heads=2)
        cfg = tiny_train(dtype="fp32")
        p = tmp_path / "s.ckpt"
        save_checkpoint(p, new_train_state(saved, cfg), cfg)
        tracemalloc.start()
        try:
            load_checkpoint(p, saved, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * p.stat().st_size

    def test_checkpoint_must_fit_config(self, tmp_path):
        cfg = tiny_train()
        p = tmp_path / "d8.ckpt"
        save_checkpoint(p, new_train_state(TINY, cfg), cfg)
        with pytest.raises(ConfigError, match="needs float64 \\(257, 16\\)"):
            load_checkpoint(p, TINY.with_overrides(hidden_size=16), cfg)
        with pytest.raises(ConfigError, match="needs float32"):
            load_checkpoint(p, TINY, tiny_train(dtype="fp32"))
        with pytest.raises(ConfigError, match="'param/layers.1.*' is missing"):
            load_checkpoint(p, TINY.with_overrides(num_layers=2), cfg)

    @pytest.mark.parametrize("overrides", [dict(cache_window=64, top_k=1), dict(rope_theta=500.0),
                                           dict(norm_eps=1e-3)], ids=["window-top-k", "rope-theta", "norm-eps"])
    def test_checkpoint_refuses_another_model_config(self, tmp_path, overrides):
        # the same shapes, so every entry fits; only the stored configuration tells them apart
        saved = ModelConfig(kind="molkv", num_layers=1, hidden_size=8, ffn_size=8, vocab_size=257, num_experts=2,
                            key_dim=4, cache_window=8, top_k=4, expert_layers=(0,), num_heads=2)
        cfg = tiny_train()
        p = tmp_path / "m8k4.ckpt"
        save_checkpoint(p, new_train_state(saved, cfg), cfg)
        assert load_checkpoint(p, saved, cfg).model.config == saved
        with pytest.raises(ConfigError, match="different model configuration") as err:
            load_checkpoint(p, saved.with_overrides(**overrides), cfg)
        for name, value in overrides.items():
            assert f"{name}: checkpoint {getattr(saved, name)!r}, given {value!r}" in str(err.value)


def test_trunc_normal_respects_bound():
    rng = np.random.default_rng(9)
    x = trunc_normal(rng, (10_000,), std=0.02, bound=2.0)
    assert np.abs(x).max() <= 0.04 + 1e-12
    # truncation at 2 sigma shrinks the std to ~0.88 of the nominal value
    assert abs(x.std() - 0.02 * 0.8796) < 0.001


def _old_trunc_normal(rng, shape, std, bound):
    """``trunc_normal`` as a rescan of the whole array on every redraw round."""
    x = rng.standard_normal(shape)
    while True:
        bad = np.abs(x) > bound
        n_bad = int(bad.sum())
        if not n_bad:
            break
        x[bad] = rng.standard_normal(n_bad)
    return x * std


@pytest.mark.parametrize("bound", [2.0, 0.5])  # at 0.5, 62% of draws are out of bound: about 25 rounds on (256, 512)
@pytest.mark.parametrize("shape", [(0,), (7,), (3, 4, 5), (256, 512)])
@pytest.mark.parametrize("seed", range(5))
def test_trunc_normal_is_old_rescan(seed, shape, bound):
    rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    x = trunc_normal(rng, shape, std=0.02, bound=bound)
    np.testing.assert_array_equal(x, _old_trunc_normal(old_rng, shape, 0.02, bound))
    assert x.shape == shape
    assert rng.bit_generator.state == old_rng.bit_generator.state  # the same draws, so the next matrix's match too


# (owner, name) pairs that profilers (the benchmark's span recorder among
# them) replace; a train step must look each one up there at call time.
TRAIN_BINDINGS = (
    (model_module, "molkv_expert_terms"),
    (model_module, "causal_attention"),
    (model_module, "swishglu_ffn"),
    (training, "next_token_loss"),
    (training, "backward"),
    (training, "sample_batch"),
    (training.AdamW, "step"),
)


def test_train_step_calls_profiled_bindings(monkeypatch):
    cfg_model = ModelConfig(kind="molkv", num_layers=2, hidden_size=16, ffn_size=12, vocab_size=257,
                            num_experts=2, key_dim=4, cache_window=4, top_k=2, expert_layers=(0,),
                            num_heads=2)
    cfg = tiny_train(seq_length=12, batch_size=2)
    state = new_train_state(cfg_model, cfg)
    corpus = Corpus.from_bytes(synthesize_corpus(4000, seed=1))
    calls = dict.fromkeys(TRAIN_BINDINGS, 0)
    for owner, name in TRAIN_BINDINGS:

        def counted(*args, _fn=vars(owner)[name], _key=(owner, name), **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    train_step(state, corpus, cfg)
    assert all(calls.values()), {name: n for (_, name), n in calls.items()}
