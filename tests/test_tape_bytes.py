"""tools/tape_bytes.py: what a taped forward keeps alive, per op kind."""

import importlib.util
from pathlib import Path

import numpy as np

from molkv.autodiff import Tape, Tensor, mul, parameter, reshape, tensor_sum
from molkv.layers import AttnParams, causal_attention

_spec = importlib.util.spec_from_file_location(
    "tape_bytes", Path(__file__).resolve().parents[1] / "tools" / "tape_bytes.py"
)
tape_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tape_bytes)


def test_each_buffer_counts_once_and_leaves_not_at_all():
    x = parameter(np.ones((4, 8)))
    with Tape() as tape:
        y = reshape(x, (8, 4))  # a view of the leaf
        z = mul(y, y)  # 256 bytes, holding the leaf view in its VJP
        w = reshape(z, (32,))  # a view of z
        tensor_sum(w)  # an 8-byte scalar, holding w
    report = tape_bytes.tape_report(tape.nodes, Tensor)
    assert report == {"reshape": [2, 0], "mul": [1, 256], "tensor_sum": [1, 8]}


def test_causal_attention_keeps_one_score_array():
    # the op chain before the fused attention op kept three: the raw, scaled and softmaxed scores
    b, h, s, d = 2, 2, 5, 8
    rng = np.random.default_rng(30)
    p = AttnParams(*(parameter(rng.standard_normal((d, d))) for _ in range(4)), n_heads=h)
    with Tape() as tape:
        causal_attention(parameter(rng.standard_normal((b, s, d))), p)
    bases = {id(a): a for node in tape.nodes
             for a in map(tape_bytes.base_of, tape_bytes.reachable_arrays((node.out, node.vjp), Tensor))}
    assert [a.shape for a in bases.values()].count((b, h, s, s)) == 1


def test_tiny_model_report(capsys):
    argv = ["--layers", "2", "--hidden", "16", "--ffn", "12", "--heads", "2", "--expert-layers", "0",
            "--key-dim", "4", "--window", "4", "--top-k", "2", "--batch", "2", "--seq", "12"]
    assert tape_bytes.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    nodes = int(lines[0].split(": ")[1].split()[0])
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:-2]}
    assert rows["attention"][0] == "3"  # two backbone layers and one cached-expert path
    assert rows["swishglu"][0] == "6"  # two shared FFNs and the expert layer's 2 + 2 expert FFNs
    assert "masked_softmax" not in rows and "silu" not in rows
    total = rows.pop("total")
    assert int(total[0]) == nodes == sum(int(n) for n, _ in rows.values())
    assert abs(float(total[1]) - sum(float(mib) for _, mib in rows.values())) < 0.02
    assert lines[-2].startswith("tracemalloc peak, forward: ")
    forward, both = (float(line.split(": ")[1].split()[0]) for line in lines[-2:])
    assert 0 < forward <= both
