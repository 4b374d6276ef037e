"""tools/tape_bytes.py: what a taped forward keeps alive, per op kind."""

import importlib.util
from pathlib import Path

import numpy as np

import pytest

from molkv.autodiff import ATTENTION_BLOCK, Tape, Tensor, attention, mul, parameter, reshape, tensor_sum
from molkv.config import ModelConfig
from molkv.kvexperts import sliding_window_mask
from molkv.layers import AttnParams, causal_attention
from molkv.model import init_model, next_token_loss

_spec = importlib.util.spec_from_file_location(
    "tape_bytes", Path(__file__).resolve().parents[1] / "tools" / "tape_bytes.py"
)
tape_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tape_bytes)


def test_each_buffer_counts_once_and_leaves_not_at_all():
    x = parameter(np.ones((4, 8)))
    with Tape() as tape:
        y = reshape(x, (8, 4))  # a view of the leaf, holding only shapes in its VJP
        z = mul(y, y)  # 256 bytes, holding the leaf view in its VJP
        w = mul(z, z)  # 256 bytes, holding z (twice) in its VJP
        tensor_sum(mul(w, z))  # holding w and z again; the sum, an 8-byte scalar, holds only shapes
    report = tape_bytes.tape_report(tape.nodes, Tensor)
    assert report == {"reshape": [1, 0], "mul": [3, 512], "tensor_sum": [1, 0]}


def test_shape_ops_keep_no_arrays():
    cfg = ModelConfig(kind="molkv", vocab_size=257, num_layers=2, hidden_size=16, ffn_size=12, num_heads=2,
                      num_experts=2, expert_layers=(0,), key_dim=4, cache_window=4, top_k=2)
    model = init_model(cfg, seed=3, dtype=np.float64)
    with Tape() as tape:
        ids = np.random.default_rng(3).integers(0, 257, size=(2, 13))
        next_token_loss(model, ids) * 0.5  # the model itself records no scale
    shape_only = {"add", "reshape", "tensor_sum", "stack", "transpose", "scale"}
    assert shape_only <= {tape_bytes.op_kind(node) for node in tape.nodes}
    for node in tape.nodes:
        if tape_bytes.op_kind(node) in shape_only:
            assert not list(tape_bytes.reachable_arrays(node.vjp, Tensor)), tape_bytes.op_kind(node)


def test_causal_attention_keeps_only_the_blocks_weights():
    # the op chain before the fused attention op kept three (b, h, s, s) arrays: the raw, scaled and
    # softmaxed scores; the unblocked op kept the last. Each block keeps its rows' causal prefix of keys.
    b, h, s, d = 1, 2, 150, 8
    rng = np.random.default_rng(30)
    p = AttnParams(*(parameter(rng.standard_normal((d, d))) for _ in range(4)), n_heads=h)
    with Tape() as tape:
        causal_attention(parameter(rng.standard_normal((b, s, d))), p)
    bases = {id(a): a for node in tape.nodes
             for a in map(tape_bytes.base_of, tape_bytes.reachable_arrays((node.out, node.vjp), Tensor))}
    scores = sorted(a.shape for a in bases.values() if a.ndim == 4 and min(a.shape[-2:]) > d // h)  # not q, k^T, v
    assert scores == [(b, h, 22, 150), (b, h, 64, 64), (b, h, 64, 128)]


def _block_widths(mask, group):
    """(rows, hi - lo) of each block of query rows: the key columns its mask rows reach, in whole groups."""
    out = []
    for r0 in range(0, mask.shape[0], ATTENTION_BLOCK):
        cols = np.flatnonzero(mask[r0:r0 + ATTENTION_BLOCK].any(axis=0))
        lo, hi = (cols[0] // group * group, -(-(cols[-1] + 1) // group) * group) if cols.size else (0, 0)
        out.append((min(ATTENTION_BLOCK, mask.shape[0] - r0), hi - lo))
    return out


@pytest.mark.parametrize("case", ["causal", "window"])
def test_attention_keeps_only_the_keys_each_block_reaches(case):
    rng = np.random.default_rng(31)
    s = 150  # three blocks, the last partial
    if case == "causal":
        inputs = [rng.standard_normal((2, 3, s, 4)) for _ in range(3)]
        mask, group, extra = np.tril(np.ones((s, s), dtype=bool)), 1, {}
    else:  # the cached-expert path: N=2 slots per position, window 40, top-k 5, the router as bias
        inputs = [rng.standard_normal(shape) for shape in ((2, s, 4), (2, 2 * s, 4), (2, 2 * s, 6), (2, s, 2))]
        mask, group, extra = np.repeat(sliding_window_mask(s, 40), 2, axis=1), 2, {"top_k": 5}
        mask[:70] = False  # an empty first block
    leaves = [parameter(a) for a in inputs]
    with Tape() as tape:
        attention(*leaves[:3], mask, 0.5, *leaves[3:], **extra)
    (node,) = tape.nodes
    held = {id(b): b for b in map(tape_bytes.base_of, tape_bytes.reachable_arrays(node.vjp, Tensor))}
    widths = _block_widths(mask, group)
    weights = sum(a.size for a in held.values()) - sum(a.size for a in inputs)  # all but q, k^T, v [, bias]
    assert weights == np.prod(inputs[0].shape[:-2]) * sum(rows * width for rows, width in widths)
    assert len(widths) == 3 and sum(rows * width for rows, width in widths) < mask.size


def test_tiny_model_report(capsys):
    argv = ["--layers", "2", "--hidden", "16", "--ffn", "12", "--heads", "2", "--expert-layers", "0",
            "--key-dim", "4", "--window", "4", "--top-k", "2", "--batch", "2", "--seq", "12"]
    assert tape_bytes.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    nodes = int(lines[0].split(": ")[1].split()[0])
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:-2]}
    assert rows["attention"][0] == "4"  # two backbone layers, one cached-expert path and one own-expert term
    assert rows["swishglu"][0] == "6"  # two shared FFNs and the expert layer's 2 + 2 expert FFNs
    assert "masked_softmax" not in rows and "silu" not in rows
    total = rows.pop("total")
    assert int(total[0]) == nodes == sum(int(n) for n, _ in rows.values())
    assert abs(float(total[1]) - sum(float(mib) for _, mib in rows.values())) < 0.02
    assert lines[-2].startswith("tracemalloc peak, forward: ")
    forward, both = (float(line.split(": ")[1].split()[0]) for line in lines[-2:])
    assert 0 < forward <= both
