"""Manifest validation and the end-to-end CLI pipeline."""

import json
import math
import os
import struct
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molkv.cli import main
from molkv.config import ConfigError, ModelConfig, published_config
from molkv.manifest import parse_manifest, parse_manifest_dict
from molkv.runtime import DecoderState, generate
from molkv.store import ExpertStoreReader
from molkv.training import TrainConfig, load_parameters, lr_at, synthesize_corpus

REPO = Path(__file__).resolve().parents[1]


def tiny_doc(**model_overrides):
    model = {
        "kind": "molkv",
        "num_layers": 2,
        "hidden_size": 16,
        "ffn_size": 20,
        "vocab_size": 257,
        "num_experts": 2,
        "key_dim": 4,
        "cache_window": 4,
        "top_k": 2,
        "expert_layers": [0],
        "num_heads": 2,
    }
    model.update(model_overrides)
    return {"model": model}


class TestManifest:
    def test_shipped_published_manifest(self):
        man = parse_manifest(REPO / "manifests" / "molkv-published.json")
        m = man.model
        assert (m.hidden_size, m.ffn_size, m.num_experts, m.key_dim) == (1024, 2548, 2, 146)
        assert (m.cache_window, m.top_k) == (512, 32)
        assert m.expert_layers == tuple(range(14))
        assert man.train.seq_length == 2048 and man.train.grad_accum == 30

    @pytest.mark.parametrize("kind", ["dense", "mole", "molkv"])
    def test_published_manifests_are_the_published_configs(self, kind):
        assert parse_manifest(REPO / "manifests" / f"{kind}-published.json").model == published_config(kind)

    def test_defaults_filled_and_echoed(self):
        man = parse_manifest_dict(tiny_doc())
        assert man.train.warmup_steps == 200
        assert man.train.lr == 3e-4
        echo = man.echo()
        assert echo["train"]["warmup_steps"] == 200
        assert echo["model"]["expert_layers"] == [0]

    def test_unknown_key_rejected(self):
        doc = tiny_doc()
        doc["model"]["hidden_dim"] = 32
        with pytest.raises(ConfigError, match="hidden_dim"):
            parse_manifest_dict(doc)
        with pytest.raises(ConfigError, match="extra"):
            parse_manifest_dict({**tiny_doc(), "extra": 1})

    def test_missing_required_key(self):
        doc = tiny_doc()
        del doc["model"]["ffn_size"]
        with pytest.raises(ConfigError, match="ffn_size"):
            parse_manifest_dict(doc)

    def test_molkv_with_zero_top_k_rejected(self):
        with pytest.raises(ConfigError, match="top_k"):
            parse_manifest_dict(tiny_doc(top_k=0))

    def test_mole_with_key_dim_rejected(self):
        doc = tiny_doc(kind="mole", key_dim=4, cache_window=0, top_k=0)
        with pytest.raises(ConfigError, match="key_dim"):
            parse_manifest_dict(doc)

    def test_expert_layer_count_shorthand(self):
        man = parse_manifest_dict(tiny_doc(expert_layers=2))
        assert man.model.expert_layers == (0, 1)

    @pytest.mark.parametrize("count,kind", [(3, "molkv"), (10**12, "molkv"), (-1, "dense")])
    def test_expert_layer_count_outside_the_layers_rejected(self, count, kind):
        # refused before any list is built: 10**12 layer indices would not fit in memory
        doc = tiny_doc(kind=kind, expert_layers=count)
        if kind == "dense":  # which a negative count used to leave with no expert layers
            doc["model"].update(num_experts=0, key_dim=0, cache_window=0, top_k=0)
        with pytest.raises(ConfigError, match=f"^model.expert_layers {count} is not a layer count in 0..num_layers"):
            parse_manifest_dict(doc)

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("model", None, 5),
            ("train", None, 3),
            ("paths", None, ["corpus.txt"]),
            ("train", "lr", "x"),
            ("train", "seed", 1.5),
            ("model", "expert_layers", 2.0),
            ("train", "steps", 10.0),
            ("model", "num_layers", 2.0),
            ("model", "num_layers", "2"),
            ("model", "num_layers", True),
            ("model", "expert_layers", "12"),
            ("model", "expert_layers", [0.0]),
            ("model", "kind", None),
            ("paths", "corpus", 5),
        ],
    )
    def test_wrong_json_type_rejected(self, section, key, value):
        doc = tiny_doc()
        if key is None:
            doc[section] = value
        else:
            doc.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=section):
            parse_manifest_dict(doc)

    def test_not_json(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("kind: molkv")
        with pytest.raises(ConfigError, match="JSON"):
            parse_manifest(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_manifest(tmp_path / "absent.json")


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
SECTION_KEYS = {
    "model": [f.name for f in fields(ModelConfig)],
    "train": [f.name for f in fields(TrainConfig)],
    "paths": ["corpus", "checkpoint", "store", "report"],
}


@st.composite
def fuzzed_manifests(draw):
    """A valid document whose sections are kept, dropped, replaced, or edited key by key."""
    doc = {
        "model": tiny_doc()["model"],
        "train": {"steps": 10, "warmup_steps": 2, "lr": 1e-3, "dtype": "fp64"},
        "paths": {"corpus": "c.txt"},
    }
    for name, keys in SECTION_KEYS.items():
        action = draw(st.sampled_from(["keep", "keep", "drop", "replace", "edit", "edit"]))
        if action == "drop":
            del doc[name]
        elif action == "replace":
            doc[name] = draw(JSON_VALUES)
        elif action == "edit":
            for key in draw(st.lists(st.sampled_from(keys), unique=True, min_size=1, max_size=3)):
                if draw(st.booleans()):
                    doc[name][key] = draw(JSON_VALUES)
                else:
                    doc[name].pop(key, None)
    return doc


@settings(derandomize=True, max_examples=400, deadline=None)
@given(fuzzed_manifests())
def test_manifest_parses_or_raises_config_error(doc):
    try:
        man = parse_manifest_dict(doc)
    except ConfigError:
        return
    assert parse_manifest_dict(man.echo()).echo() == man.echo()


def test_malformed_manifest_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**tiny_doc(), "train": {"lr": "x"}}))
    assert main(["cost", "--manifest", str(bad)]) == 2


def test_nan_manifest_exit_code(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps({**tiny_doc(), "train": {"lr": math.nan}}))  # json writes NaN and reads it back
    assert main(["cost", "--manifest", str(bad)]) == 2
    assert "lr must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "export", "decode", "cost"])
def test_non_utf8_manifest_exit_code(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"model": 1}')
    assert main([command, "--manifest", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: manifest ") and str(bad) in err and "not UTF-8" in err


@pytest.mark.parametrize("field,value", [("seq_length", 0), ("batch_size", 0), ("grad_accum", 0),
                                         ("steps", -3), ("warmup_steps", -5),
                                         ("val_fraction", math.nan), ("val_fraction", 0.0), ("val_fraction", 1.0),
                                         ("seed", -1)])
def test_train_count_or_fraction_out_of_range_exit_code(tmp_path, capsys, field, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**tiny_doc(), "train": {field: value}}))
    assert main(["train", "--manifest", str(bad)]) == 2
    assert f"error: {field} must be" in capsys.readouterr().err


@pytest.fixture
def workspace(tmp_path):
    """A manifest plus corpus wired to tmp_path, ready for the CLI."""
    doc = tiny_doc()
    doc["train"] = {
        "seq_length": 24,
        "batch_size": 2,
        "grad_accum": 1,
        "steps": 12,
        "warmup_steps": 2,
        "lr": 1e-3,
        "min_lr": 1e-4,
        "seed": 3,
        "dtype": "fp64",
    }
    doc["paths"] = {
        "corpus": str(tmp_path / "corpus.txt"),
        "checkpoint": str(tmp_path / "model.ckpt"),
        "store": str(tmp_path / "model.mlkv"),
        "report": str(tmp_path / "costs.jsonl"),
    }
    (tmp_path / "corpus.txt").write_bytes(synthesize_corpus(20_000, seed=2))
    manifest_path = tmp_path / "run.json"
    manifest_path.write_text(json.dumps(doc))
    return tmp_path, manifest_path


def printed_ids(out: str) -> list[int]:
    """The ids on decode's ``generated ids:`` line."""
    (line,) = [line for line in out.splitlines() if line.startswith("generated ids:")]
    return [int(i) for i in line.removeprefix("generated ids:").split()]


def dense_manifest(tmp_path) -> Path:
    """A one-layer dense manifest, its corpus and checkpoint in tmp_path."""
    doc = {
        "model": {"kind": "dense", "num_layers": 1, "hidden_size": 16, "ffn_size": 16,
                  "vocab_size": 257, "num_heads": 2},
        "train": {"seq_length": 16, "batch_size": 1, "grad_accum": 1, "steps": 2,
                  "warmup_steps": 1, "lr": 1e-3, "min_lr": 1e-4},
        "paths": {"corpus": str(tmp_path / "c.txt"), "checkpoint": str(tmp_path / "d.ckpt")},
    }
    (tmp_path / "c.txt").write_bytes(synthesize_corpus(5000, seed=1))
    manifest = tmp_path / "dense.json"
    manifest.write_text(json.dumps(doc))
    return manifest


def test_model_too_large_for_memory_exit_code(tmp_path):
    pytest.importorskip("resource")
    manifest = dense_manifest(tmp_path)
    doc = json.loads(manifest.read_text())
    doc["model"]["vocab_size"] = 10**9  # a (10^9, 16) fp64 embedding: 119 GiB
    manifest.write_text(json.dumps(doc))
    # the allocation runs in a child whose address space is capped at 2 GiB, never in this process
    child = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
             "from molkv.cli import main; sys.exit(main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-c", child, "train", "--manifest", str(manifest)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error: Unable to allocate ") and "(1000000000, 16)" in run.stderr
    assert not (tmp_path / "d.ckpt").exists()


class TestPipeline:
    def test_train_export_decode_cost(self, workspace, capsys):
        tmp, manifest = workspace

        assert main(["train", "--manifest", str(manifest)]) == 0
        assert (tmp / "model.ckpt").exists()
        log = (tmp / "model.ckpt.log").read_text().strip().splitlines()
        assert len(log) == 12
        fields = [json.loads(line) for line in log]
        keys = ["step", "lr", "loss", "grad_norm", "fwd_ms", "bwd_ms", "opt_ms", "tokens_per_s"]
        assert all(list(rec) == keys for rec in fields)
        assert [rec["step"] for rec in fields] == list(range(1, 13))
        assert all(rec[k] >= 0 for rec in fields for k in keys[4:7])
        assert all(rec["tokens_per_s"] > 0 for rec in fields)

        assert main(["export", "--manifest", str(manifest), "--dtype", "fp32"]) == 0
        assert (tmp / "model.mlkv").exists()

        assert main(["decode", "--manifest", str(manifest), "--prompt", "the", "--steps", "5"]) == 0
        report = [json.loads(line) for line in (tmp / "costs.jsonl").read_text().splitlines()]
        # 3 prompt tokens + 5 generated, 2 layers each
        assert len(report) == (3 + 5) * 2
        assert set(report[0]) == {"token_index", "layer", "macs", "params_loaded", "bytes_loaded", "cache_len"}
        expert_rows = [r for r in report if r["layer"] == 0]
        assert all(r["bytes_loaded"] == 2 * (16 + 4) * 4 for r in expert_rows)

        assert main(["cost", "--manifest", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "experts-only" in out

    def test_train_steps_and_seed_overrides(self, workspace):
        tmp, manifest = workspace
        assert main(["train", "--manifest", str(manifest), "--steps", "2", "--seed", "9",
                     "--out", str(tmp / "alt.ckpt")]) == 0
        log = [json.loads(line) for line in (tmp / "alt.ckpt.log").read_text().strip().splitlines()]
        assert len(log) == 2

    def test_train_steps_runs_head_of_manifest_schedule(self, workspace):
        tmp, manifest = workspace
        doc = json.loads(manifest.read_text())
        doc["train"].update(steps=5, warmup_steps=2)
        manifest.write_text(json.dumps(doc))
        assert main(["train", "--manifest", str(manifest), "--steps", "3"]) == 0
        log = (tmp / "model.ckpt.log").read_text().strip().splitlines()
        lrs = [json.loads(line)["lr"] for line in log]
        want = [lr_at(step, parse_manifest(manifest).train) for step in range(3)]
        assert lrs == pytest.approx(want, rel=1e-6, abs=0)
        raw = (tmp / "model.ckpt").read_bytes()
        (blob_len,) = struct.unpack_from("<Q", raw, 12)
        assert json.loads(raw[20 : 20 + blob_len])["train_config"]["steps"] == 5

    @pytest.mark.parametrize("field,value", [("top_k", 1)])
    def test_decode_refuses_checkpoint_of_another_config(self, workspace, capsys, field, value):
        tmp, manifest = workspace
        assert main(["train", "--manifest", str(manifest), "--steps", "1"]) == 0
        raw = (tmp / "model.ckpt").read_bytes()
        (blob_len,) = struct.unpack_from("<Q", raw, 12)
        assert json.loads(raw[20 : 20 + blob_len])["model_config"] == parse_manifest(manifest).echo()["model"]
        doc = json.loads(manifest.read_text())
        doc["model"][field] = value
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["decode", "--manifest", str(manifest), "--prompt", "a"]) == 2
        assert f"{field}: checkpoint" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(tiny_doc(top_k=0)))
        assert main(["train", "--manifest", str(bad)]) == 2

    def test_missing_manifest_exit_code(self, tmp_path):
        assert main(["cost", "--manifest", str(tmp_path / "none.json")]) == 2

    @pytest.mark.parametrize("flag", ["--manifest", "--store"])
    def test_unreadable_path_exit_code(self, workspace, capsys, flag):
        tmp, manifest = workspace
        argv = ["cost", "--manifest", str(tmp)]
        if flag == "--store":
            assert main(["train", "--manifest", str(manifest), "--steps", "1"]) == 0
            argv = ["decode", "--manifest", str(manifest), "--prompt", "a", "--store", str(tmp)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err and str(tmp) in err

    @staticmethod
    def decode_refuses_version(workspace, capsys, version):
        tmp, manifest = workspace
        assert main(["train", "--manifest", str(manifest), "--steps", "1"]) == 0
        ckpt = tmp / "model.ckpt"
        data = bytearray(ckpt.read_bytes())
        struct.pack_into("<I", data, 8, version)
        ckpt.write_bytes(data)
        capsys.readouterr()
        assert main(["decode", "--manifest", str(manifest), "--prompt", "a"]) == 2
        assert capsys.readouterr().err == f"error: unsupported checkpoint version {version}\n"

    def test_decode_refuses_a_version_1_checkpoint(self, workspace, capsys):
        self.decode_refuses_version(workspace, capsys, 1)

    def test_decode_refuses_a_version_2_checkpoint(self, workspace, capsys):
        self.decode_refuses_version(workspace, capsys, 2)

    def test_decode_prints_what_a_large_vocabulary_model_samples(self, workspace, capsys):
        # ids past the byte range print no text; the ids line names every sampled id
        tmp, manifest = workspace
        doc = json.loads(manifest.read_text())
        doc["model"]["vocab_size"] = 4000
        manifest.write_text(json.dumps(doc))
        assert main(["train", "--manifest", str(manifest), "--steps", "0"]) == 0
        assert main(["export", "--manifest", str(manifest)]) == 0
        capsys.readouterr()
        assert main(["decode", "--manifest", str(manifest), "--steps", "24"]) == 0
        out = capsys.readouterr().out
        sampled = printed_ids(out)
        assert len(sampled) == 24 and max(sampled) >= 256 and all(0 <= i < 4000 for i in sampled)
        text = bytes(i for i in sampled if i < 256).decode(errors="replace")
        assert f"generated: {text}\n" in out

    @pytest.mark.parametrize("command,key,flag", [
        ("train", "corpus", None), ("train", "checkpoint", "--out"),
        ("export", "checkpoint", "--checkpoint"), ("export", "store", "--out"),
        ("decode", "checkpoint", "--checkpoint"), ("decode", "store", "--store"),
    ])
    def test_missing_path_exit_code(self, workspace, capsys, command, key, flag):
        tmp, manifest = workspace
        doc = json.loads(manifest.read_text())
        del doc["paths"][key]
        manifest.write_text(json.dumps(doc))
        assert main([command, "--manifest", str(manifest)]) == 2
        want = f"error: no {key} path: set paths.{key} in the manifest" + (f" or pass {flag}" if flag else "")
        assert capsys.readouterr().err == want + "\n"

    def test_decode_refuses_a_checkpoint_as_its_store(self, workspace, capsys):
        tmp, manifest = workspace
        assert main(["train", "--manifest", str(manifest), "--steps", "1"]) == 0
        capsys.readouterr()
        assert main(["decode", "--manifest", str(manifest), "--prompt", "a", "--store", str(tmp / "model.ckpt")]) == 2
        err = capsys.readouterr().err
        assert "a molkv checkpoint, not a molkv expert store" in err and "version" not in err

    def test_dense_decode_needs_no_store(self, tmp_path, capsys):
        manifest = dense_manifest(tmp_path)
        assert main(["train", "--manifest", str(manifest)]) == 0
        assert main(["decode", "--manifest", str(manifest), "--prompt", "a", "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert "params_loaded=0" in out and "params_offloaded=0" in out

    def test_dense_export_exit_code(self, tmp_path, capsys):
        manifest = dense_manifest(tmp_path)
        assert main(["train", "--manifest", str(manifest)]) == 0
        capsys.readouterr()
        assert main(["export", "--manifest", str(manifest), "--out", str(tmp_path / "d.mlkv")]) == 2
        assert "error: dense models" in capsys.readouterr().err
        assert not (tmp_path / "d.mlkv").exists()

    def test_fp16_export_then_decode(self, workspace):
        tmp, manifest = workspace
        assert main(["train", "--manifest", str(manifest), "--steps", "2"]) == 0
        assert main(["export", "--manifest", str(manifest), "--dtype", "fp16"]) == 0
        assert main(["decode", "--manifest", str(manifest), "--prompt", "ab", "--steps", "3"]) == 0
        report = [json.loads(line) for line in (tmp / "costs.jsonl").read_text().splitlines()]
        expert_rows = [r for r in report if r["layer"] == 0]
        assert all(r["bytes_loaded"] == 2 * (16 + 4) * 2 for r in expert_rows)  # fp16 itemsize

    @pytest.mark.parametrize("command", ["export", "decode"])
    def test_truncated_checkpoint_exit_code(self, workspace, capsys, command):
        tmp, manifest = workspace
        assert main(["train", "--manifest", str(manifest), "--steps", "1"]) == 0
        ckpt = tmp / "model.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:-8])
        capsys.readouterr()
        extra = ["--prompt", "a"] if command == "decode" else []
        assert main([command, "--manifest", str(manifest), *extra]) == 2
        assert "truncated checkpoint" in capsys.readouterr().err

    def test_fp16_overflow_export_exit_code(self, workspace, capsys):
        from molkv.training import new_train_state, save_checkpoint

        tmp, manifest = workspace
        doc = json.loads(manifest.read_text())
        doc["model"].update(kind="mole", key_dim=0, cache_window=0, top_k=0)
        doc["train"]["init_std"] = 8.0
        manifest.write_text(json.dumps(doc))
        man = parse_manifest(manifest)
        save_checkpoint(man.paths["checkpoint"], new_train_state(man.model, man.train), man.train)
        capsys.readouterr()
        assert main(["export", "--manifest", str(manifest), "--dtype", "fp16"]) == 2
        assert "max |value|" in capsys.readouterr().err
        assert not (tmp / "model.mlkv").exists()
        assert main(["export", "--manifest", str(manifest), "--dtype", "fp32"]) == 0
        fp32_store = (tmp / "model.mlkv").read_bytes()
        assert main(["export", "--manifest", str(manifest), "--dtype", "fp16"]) == 2  # leaves the fp32 store alone
        assert (tmp / "model.mlkv").read_bytes() == fp32_store
        assert not [p for p in os.listdir(tmp) if p.startswith("model.mlkv.")]

    def test_train_refuses_corpus_bytes_outside_vocab(self, workspace, capsys):
        tmp, manifest = workspace
        doc = json.loads(manifest.read_text())
        doc["model"]["vocab_size"] = 100
        manifest.write_text(json.dumps(doc))
        (tmp / "corpus.txt").write_bytes(b"AB" * 500 + b"z" + b"AB" * 50)
        capsys.readouterr()
        assert main(["train", "--manifest", str(manifest), "--steps", "1"]) == 2
        assert "holds byte 122, outside the model's vocab_size 100" in capsys.readouterr().err
        assert not (tmp / "model.ckpt").exists()

    def test_decode_refuses_prompt_bytes_outside_vocab(self, workspace, capsys):
        tmp, manifest = workspace
        doc = json.loads(manifest.read_text())
        doc["model"]["vocab_size"] = 128
        manifest.write_text(json.dumps(doc))
        assert main(["train", "--manifest", str(manifest), "--steps", "1"]) == 0
        assert main(["export", "--manifest", str(manifest)]) == 0
        capsys.readouterr()
        assert main(["decode", "--manifest", str(manifest), "--prompt", "é"]) == 2
        assert "prompt holds byte 195, outside the model's vocab_size 128" in capsys.readouterr().err

    def test_decode_rejects_mismatched_store(self, workspace, monkeypatch, capsys):
        import numpy as np

        from molkv import cli
        from molkv.model import init_model
        from molkv.store import ExpertStoreReader, reparameterize, write_store

        tmp, manifest = workspace
        assert main(["train", "--manifest", str(manifest), "--steps", "1"]) == 0
        other = replace(parse_manifest(manifest).model, key_dim=8)
        write_store(reparameterize(init_model(other, seed=0, dtype=np.float64)), tmp / "other.mlkv")
        closed = []

        class Reader(ExpertStoreReader):
            def close(self):
                closed.append(self.path)
                super().close()

        monkeypatch.setattr(cli, "ExpertStoreReader", Reader)
        capsys.readouterr()
        assert main(["decode", "--manifest", str(manifest), "--store", str(tmp / "other.mlkv")]) == 2
        assert "does not match the model configuration" in capsys.readouterr().err
        assert closed == [str(tmp / "other.mlkv")]

    @pytest.mark.parametrize(
        "corpus_bytes, val_fraction, steps, message",
        [(0, 0.05, "0", "0 training and 0 validation tokens"),
         (3000, 0.0003, "2", "2999 training and 1 validation tokens"),
         (30, 0.5, "2", "15 training and 15 validation tokens")],
        ids=["empty-corpus", "one-validation-token", "short-training-slice"],
    )
    def test_failing_train_leaves_checkpoint_untouched(self, workspace, capsys, corpus_bytes, val_fraction, steps,
                                                       message):
        tmp, manifest = workspace
        doc = json.loads(manifest.read_text())
        doc["train"]["val_fraction"] = val_fraction
        manifest.write_text(json.dumps(doc))
        (tmp / "corpus.txt").write_bytes(synthesize_corpus(corpus_bytes, seed=2))
        (tmp / "model.ckpt").write_bytes(b"an earlier checkpoint")
        capsys.readouterr()
        assert main(["train", "--manifest", str(manifest), "--steps", steps]) == 2
        assert message in capsys.readouterr().err
        assert (tmp / "model.ckpt").read_bytes() == b"an earlier checkpoint"
        assert not (tmp / "model.ckpt.log").exists()

    def test_tiny_temperature_decodes(self, workspace, capsys):
        tmp, manifest = workspace
        doc = json.loads(manifest.read_text())
        doc["train"]["dtype"] = "fp32"  # where logits / 1e-39 overflowed and 1e-300 rounded to 0
        manifest.write_text(json.dumps(doc))
        assert main(["train", "--manifest", str(manifest), "--steps", "1"]) == 0
        assert main(["export", "--manifest", str(manifest)]) == 0
        for temperature in ("1e-39", "1e-300"):
            assert main(["decode", "--manifest", str(manifest), "--temperature", temperature]) == 0

    def test_temperature_alone_samples(self, workspace, capsys):
        # a temperature above 0 draws from the seeded rng; 0, the default, is the argmax
        tmp, manifest = workspace
        assert main(["train", "--manifest", str(manifest), "--steps", "1"]) == 0
        assert main(["export", "--manifest", str(manifest)]) == 0
        man = parse_manifest(manifest)
        model = load_parameters(man.paths["checkpoint"], man.model, man.train)
        prompt = list(b"The ")  # decode's default prompt
        with ExpertStoreReader(man.paths["store"]) as reader:
            greedy, _ = generate(DecoderState(model, reader), prompt, 8)
            sampled, _ = generate(DecoderState(model, reader), prompt, 8, 0.7, np.random.default_rng(5))

        def decoded(*flags):
            capsys.readouterr()
            assert main(["decode", "--manifest", str(manifest), "--steps", "8", *flags]) == 0
            return printed_ids(capsys.readouterr().out)

        assert decoded("--temperature", "0.7", "--seed", "5") == sampled != greedy
        assert decoded() == decoded("--temperature", "0") == decoded("--seed", "5") == greedy

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["decode", "--steps", "-1"], "--steps"),
            (["decode", "--temperature", "nan"], "--temperature"),
            (["decode", "--temperature", "-1"], "--temperature"),
            (["decode", "--temperature", "inf"], "--temperature"),
            (["train", "--steps", "-1"], "--steps"),
            (["train", "--seed", "-5"], "--seed"),
            (["decode", "--seed", "-1"], "--seed"),
        ],
        ids=["decode-steps", "temperature-nan", "temperature-negative", "temperature-inf", "train-steps",
             "train-seed", "decode-seed"],
    )
    def test_bad_flag_value_exit_code(self, workspace, capsys, argv, flag):
        tmp, manifest = workspace
        assert main(["train", "--manifest", str(manifest), "--steps", "1"]) == 0
        assert main(["export", "--manifest", str(manifest)]) == 0
        before = (tmp / "model.ckpt").read_bytes()
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main([argv[0], "--manifest", str(manifest), *argv[1:]])
        assert exit_info.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert (tmp / "model.ckpt").read_bytes() == before
        assert not (tmp / "costs.jsonl").exists()

    def test_verify_exit_codes(self, monkeypatch, capsys):
        from molkv import cli
        from molkv.verify import CheckResult

        ok = CheckResult(name="x", passed=True, detail="", seconds=0.0)
        bad = CheckResult(name="y", passed=False, detail="boom", seconds=0.0)
        monkeypatch.setattr(cli, "run_all", lambda out=None, fast=False: [ok])
        assert main(["verify"]) == 0
        monkeypatch.setattr(cli, "run_all", lambda out=None, fast=False: [ok, bad])
        assert main(["verify"]) == 3
        capsys.readouterr()

    def test_decode_deterministic_across_runs(self, workspace, capsys):
        tmp, manifest = workspace
        main(["train", "--manifest", str(manifest), "--steps", "3"])
        main(["export", "--manifest", str(manifest)])
        main(["decode", "--manifest", str(manifest), "--prompt", "ab", "--steps", "6"])
        first = capsys.readouterr().out
        main(["decode", "--manifest", str(manifest), "--prompt", "ab", "--steps", "6"])
        second = capsys.readouterr().out
        gen1 = [l for l in first.splitlines() if l.startswith("generated:")]
        gen2 = [l for l in second.splitlines() if l.startswith("generated:")]
        assert gen1 == gen2

    def test_decode_non_utf8_prompt(self, workspace, monkeypatch):
        from molkv import cli

        tmp, manifest = workspace
        assert main(["train", "--manifest", str(manifest), "--steps", "1"]) == 0
        assert main(["export", "--manifest", str(manifest)]) == 0
        prompts, generate = [], cli.generate

        def recording(state, prompt, *args, **kwargs):
            prompts.append(prompt.tolist())
            return generate(state, prompt, *args, **kwargs)

        monkeypatch.setattr(cli, "generate", recording)
        prompt = os.fsdecode(b"a\xff\xfe")  # a non-UTF-8 argument as Python hands it over: surrogate escapes
        assert main(["decode", "--manifest", str(manifest), "--prompt", prompt, "--steps", "2"]) == 0
        assert prompts == [[ord("a"), 0xFF, 0xFE]]
        assert len((tmp / "costs.jsonl").read_text().splitlines()) == (3 + 2) * 2
