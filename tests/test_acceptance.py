"""Acceptance suite: one test per criterion, one printed line per criterion.

More tests hold criteria 1, 2 and 4 to cleaning up when decoding fails, and
criteria 1 and 2 to running the decoder the CLI runs, so that a decoder
reading the wrong store layer fails them.

Tolerances and budgets are pinned here; the check implementations live in
molkv.verify so the CLI ``verify`` subcommand runs the identical suite.
Budgets (30 s / 60 s / 15 min) are generous on any desktop CPU; the slow
training smoke runs last and carries its own marker.
"""

import tempfile

import pytest

from molkv import verify
from molkv.config import ModelConfig


def _report(num, result, budget=None):
    print(f"\ncriterion {num} {result.line()}")
    assert result.passed, result.detail
    if budget is not None:
        assert result.seconds < budget, f"criterion {num} took {result.seconds:.1f}s, budget {budget}s"


def test_criterion_01_reparameterization_equivalence():
    _report(1, verify.check_reparam_equivalence(n_configs=20, tol=1e-6), budget=30)


def test_criterion_02_incremental_batched_equivalence():
    _report(2, verify.check_incremental_equivalence(tol=1e-6), budget=60)


def test_criterion_03_block_gradient_check():
    _report(3, verify.check_block_gradients(tol=1e-4))


def test_criterion_04_cost_counter_exactness():
    _report(4, verify.check_cost_counters())


def _fail_decoding(tmp_path, monkeypatch) -> list:
    """Make ``decode_step`` raise and temporary files land in ``tmp_path``; returns the readers opened."""
    opened = []

    class Reader(verify.ExpertStoreReader):
        def __init__(self, path):
            super().__init__(path)
            opened.append(self)

    def fail(state, token_id):
        raise RuntimeError("decode failed")

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(verify, "ExpertStoreReader", Reader)
    monkeypatch.setattr(verify, "decode_step", fail)
    return opened


def test_criterion_04_cleans_up_when_decoding_raises(tmp_path, monkeypatch):
    opened = _fail_decoding(tmp_path, monkeypatch)
    cfg = ModelConfig(kind="molkv", num_layers=1, hidden_size=8, ffn_size=8, vocab_size=16, num_experts=2,
                      key_dim=2, cache_window=2, top_k=1, expert_layers=(0,), num_heads=2)
    with pytest.raises(RuntimeError, match="decode failed"):
        verify._decode_rows(cfg, 3)
    assert list(tmp_path.iterdir()) == []
    assert len(opened) == 1 and opened[0]._fd is None


@pytest.mark.parametrize("check", [lambda: verify.check_reparam_equivalence(n_configs=2),
                                   verify.check_incremental_equivalence], ids=["criterion_01", "criterion_02"])
def test_equivalence_cleans_up_when_decoding_raises(check, tmp_path, monkeypatch):
    opened = _fail_decoding(tmp_path, monkeypatch)
    with pytest.raises(RuntimeError, match="decode failed"):
        check()
    assert list(tmp_path.iterdir()) == []
    assert len(opened) == 1 and opened[0]._fd is None


def test_equivalence_criteria_decode_every_token(monkeypatch):
    sequences = {}  # decoder state -> the token ids it decoded

    def spy(state, token_id, _step=verify.decode_step):
        sequences.setdefault(state, []).append(token_id)
        return _step(state, token_id)

    monkeypatch.setattr(verify, "decode_step", spy)
    assert verify.check_reparam_equivalence(n_configs=3).passed
    # ten sequences per config, each a permutation of the vocabulary
    assert len(sequences) == 30
    for state, ids in sequences.items():
        assert sorted(ids) == list(range(state.config.vocab_size))
    sequences.clear()
    assert verify.check_incremental_equivalence().passed
    # 12 configs x lengths 1, 2, 3, 17, 64, each with two expert layers
    assert sorted(map(len, sequences.values())) == sorted([1, 2, 3, 17, 64] * 12)
    assert all(state.config.expert_layers == (0, 1) for state in sequences)


def test_equivalence_criteria_catch_a_misrouted_store(monkeypatch):
    class Misrouted(verify.DecoderState):
        """Every expert layer reads store layer 0."""

        def __init__(self, params, store=None):
            super().__init__(params, store)
            self.expert_layer_index = dict.fromkeys(self.expert_layer_index, 0)

    monkeypatch.setattr(verify, "DecoderState", Misrouted)
    assert not verify.check_reparam_equivalence(n_configs=2).passed
    assert not verify.check_incremental_equivalence().passed


def test_criterion_05_parameter_counting():
    _report(5, verify.check_param_counting())


def test_criterion_06_store_roundtrip():
    _report(6, verify.check_store_roundtrip())


def test_criterion_07_rope_relative_invariance():
    _report(7, verify.check_rope_relative(tol=1e-10))


def test_criterion_08_empty_short_window():
    _report(8, verify.check_window_edges())


@pytest.mark.slow
def test_criterion_09_training_smoke():
    _report(9, verify.check_training_smoke(steps=300, corpus_bytes=2_000_000), budget=900)


def test_criterion_10_determinism_and_resume():
    _report(10, verify.check_determinism())
