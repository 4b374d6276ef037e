"""tools/tape_bytes.py: what a taped forward keeps alive, per op kind."""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np

import pytest

from molkv import autodiff
from molkv.autodiff import (ATTENTION_BLOCK, Tape, Tensor, attention, backward, mul, parameter, reshape, swishglu,
                            tensor_sum)
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


def test_swishglu_keeps_no_ffn_width_array():
    # the op kept its two (b, s, D) pre-activations; now its VJP recomputes them from x
    cfg = ModelConfig(kind="molkv", vocab_size=257, num_layers=2, hidden_size=16, ffn_size=12, num_heads=2,
                      num_experts=2, expert_layers=(0,), key_dim=4, cache_window=4, top_k=2)
    model = init_model(cfg, seed=3, dtype=np.float64)
    params = {id(p.data) for _, p in model.named_parameters()}
    with Tape() as tape:
        next_token_loss(model, np.random.default_rng(3).integers(0, 257, size=(2, 13)))
    nodes = [node for node in tape.nodes if tape_bytes.op_kind(node) == "swishglu"]
    assert len(nodes) == 6  # two shared FFNs and the expert layer's 2 + 2 expert FFNs
    for node in nodes:
        held = [a for a in tape_bytes.reachable_arrays(node.vjp, Tensor) if id(a) not in params]
        assert not [a.shape for a in held if a.dtype.kind == "f" and a.shape[-1] == cfg.ffn_size]
        assert held and all(a.shape[-1] == cfg.hidden_size for a in held)  # x, and views of it


def _vjp_peak(node, g):
    """Peak traced bytes of one call of ``node``'s VJP above the bytes before it, and the bytes of its outputs."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        grads = node.vjp(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - start, sum(gr.nbytes for gr in grads)


def test_swishglu_vjp_holds_at_most_four_ffn_width_arrays():
    rng = np.random.default_rng(40)
    b, s, d, big_d = 2, 64, 16, 192
    leaves = [parameter(rng.standard_normal(shape)) for shape in ((b, s, d), (d, big_d), (d, big_d), (big_d, d))]
    with Tape() as tape:
        out = swishglu(*leaves)
    (node,) = tape.nodes
    rise, outputs = _vjp_peak(node, np.ones(out.shape))
    ffn_array = b * s * big_d * 8  # one fp64 (b, s, D) array
    assert outputs == 2 * b * s * d * 8 + 3 * d * big_d * 8
    assert rise <= 4 * ffn_array + outputs  # at most four (b, s, D) arrays at once, and the outputs


def test_causal_attention_vjp_frees_each_block_before_the_next():
    rng = np.random.default_rng(41)
    b, h, s, hd = 1, 2, 4 * ATTENTION_BLOCK, 4  # four blocks; the last reaches every key
    q, k, v = (parameter(rng.standard_normal((b, h, s, hd))) for _ in range(3))
    with Tape() as tape:
        out = attention(q, k, v, np.tril(np.ones((s, s), dtype=bool)), 0.5)
    (node,) = tape.nodes
    rise, outputs = _vjp_peak(node, np.ones(out.shape))
    block = b * h * ATTENTION_BLOCK * s * 8  # the last block's fp64 weights, the largest
    gq = q.data.nbytes  # the gradient of q is concatenated from its blocks' parts at the end
    assert outputs == 3 * q.data.nbytes  # gq, and k's and v's accumulators
    assert rise <= 3 * block + block / 8 + outputs + gq  # weights, their gradient and one product, the masks


def _blocks(mask, group):
    """(r0, r1, lo, hi) of each block of query rows: the key columns its mask rows reach, in whole groups."""
    out = []
    for r0 in range(0, mask.shape[0], ATTENTION_BLOCK):
        cols = np.flatnonzero(mask[r0:r0 + ATTENTION_BLOCK].any(axis=0))
        lo, hi = (cols[0] // group * group, -(-(cols[-1] + 1) // group) * group) if cols.size else (0, 0)
        out.append((r0, min(r0 + ATTENTION_BLOCK, mask.shape[0]), lo, hi))
    return out


def _assert_keeps_no_weights(node, mask, group):
    """The node keeps each block's own copy of its mask rows over [lo, hi), and no float array of a block's extent."""
    blocks = _blocks(mask, group)
    held = list(tape_bytes.reachable_arrays(node.vjp, Tensor))
    masks = [a for a in held if a.dtype == bool]
    assert len(masks) == len(blocks)
    for kept, (r0, r1, lo, hi) in zip(masks, blocks):
        assert tape_bytes.base_of(kept) is kept  # not a view of the caller's (s, t) mask
        assert kept.shape == (r1 - r0, hi - lo) and np.array_equal(kept, mask[r0:r1, lo:hi])
    extents = {(r1 - r0, hi - lo) for r0, r1, lo, hi in blocks}
    assert not [a.shape for a in held if a.dtype.kind == "f" and a.shape[-2:] in extents]
    return blocks, {id(a): a for a in held if a.dtype.kind == "f"}


def test_causal_attention_keeps_no_weights():
    # the op chain before the fused attention op kept three (b, h, s, s) arrays: the raw, scaled and
    # softmaxed scores; the unblocked op kept the last, the blocked op each block's weights.
    b, h, s, d = 1, 2, 150, 8
    rng = np.random.default_rng(30)
    p = AttnParams(*(parameter(rng.standard_normal((d, d))) for _ in range(4)))
    with Tape() as tape:
        causal_attention(parameter(rng.standard_normal((b, s, d))), p, h)
    (node,) = [n for n in tape.nodes if tape_bytes.op_kind(n) == "attention"]
    blocks, floats = _assert_keeps_no_weights(node, np.tril(np.ones((s, s), dtype=bool)), 1)
    assert [(r1 - r0, hi - lo) for r0, r1, lo, hi in blocks] == [(64, 64), (64, 128), (22, 150)]
    hd = d // h
    assert sorted(a.shape for a in floats.values()) == sorted([(b, h, s, hd), (b, h, hd, s), (b, h, s, hd)])  # q, k^T, v


def _attention_case(case, rng, ints=False):
    """(q, k, v[, bias]) arrays, mask, bias group and keyword arguments of one ``attention`` case over three blocks."""
    s = 150  # three blocks, the last partial
    draw = (lambda shape: rng.integers(-1, 2, size=shape).astype(np.float64)) if ints else rng.standard_normal
    if case == "causal":
        return [draw((2, 3, s, 4)) for _ in range(3)], np.tril(np.ones((s, s), dtype=bool)), 1, {}
    # the cached-expert path: N=2 slots per position, window 40, top-k 5, the router as bias
    inputs = [draw(shape) for shape in ((2, s, 4), (2, 2 * s, 4), (2, 2 * s, 6), (2, s, 2))]
    mask = np.repeat(sliding_window_mask(s, 40), 2, axis=1)
    mask[:70] = False  # an empty first block
    return inputs, mask, 2, {"top_k": 5}


@pytest.mark.parametrize("case", ["causal", "window"])
def test_attention_keeps_only_the_keys_each_block_reaches(case):
    inputs, mask, group, extra = _attention_case(case, np.random.default_rng(31))
    leaves = [parameter(a) for a in inputs]
    with Tape() as tape:
        attention(*leaves[:3], mask, 0.5, *leaves[3:], **extra)
    (node,) = tape.nodes
    blocks, floats = _assert_keeps_no_weights(node, mask, group)
    assert sum(a.size for a in floats.values()) == sum(a.size for a in inputs)  # q, k^T, v [, bias]: nothing else
    assert len(blocks) == 3 and sum((r1 - r0) * (hi - lo) for r0, r1, lo, hi in blocks) < mask.size


@pytest.mark.parametrize("case", ["causal", "window"])
def test_backward_recomputes_the_forwards_weights(case, monkeypatch):
    # integer scores tie often, so the window case's top-k has ties to break (asserted below)
    inputs, mask, _, extra = _attention_case(case, np.random.default_rng(32), ints=True)
    recorded = []

    def recording(*args, **kwargs):
        w = weights(*args, **kwargs)
        recorded.append(w.copy())
        return w

    weights = autodiff.attention_weights
    monkeypatch.setattr(autodiff, "attention_weights", recording)
    leaves = [parameter(a) for a in inputs]
    with Tape() as tape:
        out = attention(*leaves[:3], mask, 1.0, *leaves[3:], **extra)
        loss = tensor_sum(mul(out, Tensor(np.random.default_rng(33).standard_normal(out.shape))))
    forward = recorded[:]
    backward(tape, loss)
    assert len(forward) == 3 and len(recorded) == 6
    for fw, bw in zip(forward, recorded[3:]):
        assert fw.dtype == bw.dtype and np.array_equal(fw, bw)
    if extra:  # some row's k-th and (k+1)-th largest reachable scores tie
        q, k, _, bias = inputs
        z = np.where(mask, autodiff.attention_logits(q, np.swapaxes(k, -1, -2), 1.0, bias), -np.inf)
        kth = -np.sort(-z, axis=-1)[..., extra["top_k"] - 1:extra["top_k"] + 1]
        assert np.any((kth[..., 0] == kth[..., 1]) & np.isfinite(kth[..., 1]))


def test_tiny_model_report(capsys):
    argv = ["--layers", "2", "--hidden", "16", "--ffn", "12", "--heads", "2", "--expert-layers", "0",
            "--key-dim", "4", "--window", "4", "--top-k", "2", "--batch", "2", "--seq", "12"]
    assert tape_bytes.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    nodes = int(lines[0].split(": ")[1].split()[0])
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:-3]}
    assert rows["attention"][0] == "4"  # two backbone layers, one cached-expert path and one own-expert term
    assert rows["swishglu"][0] == "6"  # two shared FFNs and the expert layer's 2 + 2 expert FFNs
    assert "masked_softmax" not in rows and "silu" not in rows
    total = rows.pop("total")
    assert int(total[0]) == nodes == sum(int(n) for n, _ in rows.values())
    assert abs(float(total[1]) - sum(float(mib) for _, mib in rows.values())) < 0.02
    assert lines[-3].startswith("tracemalloc peak, forward: ")
    forward, both = (float(line.split(": ")[1].split()[0]) for line in lines[-3:-1])
    assert 0 < forward <= both
    head, span = lines[-1].split(": ", 1)[1].split(": ")  # "<kind> VJP, node <i> of <n>", "<before> -> <peak> MiB"
    kind, position = head.split(" VJP, node ")
    assert kind in rows and position.split(" of ") == [position.split()[0], str(nodes)]
    assert 0 <= int(position.split()[0]) < nodes
    before, peak = (float(x) for x in span.removesuffix(" MiB").split(" -> "))
    assert 0 < before <= peak <= both
