"""tools/numerics_diff.py: comparing two numerics records."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "numerics_diff", Path(__file__).resolve().parents[1] / "tools" / "numerics_diff.py"
)
numerics_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(numerics_diff)


def test_compare_counts_arrays_that_differ(tmp_path, capsys):
    x = np.linspace(-2.0, 4.0, 7, dtype=np.float32)
    a = {"loss": np.float64(1.5), "grad/w": x, "grad/b": np.zeros((0,))}
    np.savez(tmp_path / "a.npz", **a)
    assert numerics_diff.main(["compare", str(tmp_path / "a.npz"), str(tmp_path / "a.npz")]) == 0
    assert capsys.readouterr().out.strip().endswith("0 of 3 arrays differ")

    y = x.copy()
    y[1] = np.nextafter(y[1], np.float32(0))  # -1.0 up by 2**-24: 1/8 of the spacing at the largest entry, 4.0
    np.savez(tmp_path / "b.npz", **{**a, "grad/w": y, "extra": x})
    assert numerics_diff.main(["compare", str(tmp_path / "a.npz"), str(tmp_path / "b.npz")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "2 of 4 arrays differ"
    assert any(line.startswith("extra: only in") for line in out)
    assert "grad/w: 0.125 ulps of the largest entry" in out


def test_integer_arrays_report_the_largest_difference(tmp_path, capsys):
    rows = np.array([[0, 1, 1164], [1, 0, 1180]], dtype=np.int64)
    np.savez(tmp_path / "a.npz", rows=rows)
    np.savez(tmp_path / "b.npz", rows=rows - [[0, 0, 0], [0, 0, 160]])
    assert numerics_diff.main(["compare", str(tmp_path / "a.npz"), str(tmp_path / "b.npz")]) == 1
    assert "rows: entries differ by up to 160" in capsys.readouterr().out


def test_fp64_is_not_equal_to_fp32(tmp_path, capsys):
    np.savez(tmp_path / "a.npz", w=np.ones(3, dtype=np.float32))
    np.savez(tmp_path / "b.npz", w=np.ones(3, dtype=np.float64))
    assert numerics_diff.main(["compare", str(tmp_path / "a.npz"), str(tmp_path / "b.npz")]) == 1
    assert "w: float32(3,) vs float64(3,)" in capsys.readouterr().out


def test_decode_steps_reach_pruning_and_compaction():
    steps = numerics_diff.DECODE_STEPS
    for _, experts, kv, (b, span) in numerics_diff.SIZES.values():
        assert steps <= b * span  # decode feeds the batch's ids row after row
        # the last step scores more cached experts than top-k keeps
        assert min(steps - 1, kv["cache_window"]) * experts["num_experts"] > kv["top_k"]
    # the small model's 2M-slot expert cache compacts at insert 2M + 1
    assert steps > 2 * numerics_diff.SIZES["small"][2]["cache_window"] + 1


def test_small_model_decode_reaches_the_full_window():
    _, _, kv, _ = numerics_diff.SIZES["small"]
    assert numerics_diff.DECODE_STEPS > kv["cache_window"]  # the cost rows reach the closed forms


def test_int_fields_reads_named_fields():
    from types import SimpleNamespace

    rows = [SimpleNamespace(macs=3, layer=1), SimpleNamespace(macs=2**40, layer=0)]
    got = numerics_diff.int_fields(rows, ("layer", "macs"))
    assert got.dtype == np.int64 and got.tolist() == [[1, 3], [0, 2**40]]
    assert numerics_diff.int_fields([], ("layer", "macs")).shape == (0, 2)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_against_extracts_the_named_commits_src(tmp_path):
    repo = tmp_path / "repo"
    (repo / "src" / "molkv").mkdir(parents=True)
    (repo / "notes.txt").write_text("outside src\n")

    def git(*args):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                       check=True, capture_output=True)

    git("init", "-q")
    for version in ("first", "second"):
        (repo / "src" / "molkv" / "__init__.py").write_text(f"VERSION = {version!r}\n")
        git("add", "-A")
        git("commit", "-q", "-m", version)
    src = numerics_diff.extract_src(repo, "HEAD~1", tmp_path / "base")
    assert src == tmp_path / "base" / "src"
    assert (src / "molkv" / "__init__.py").read_text() == "VERSION = 'first'\n"
    assert sorted(p.name for p in (tmp_path / "base").iterdir()) == ["src"]
