"""Measure what one taped train step keeps alive: tape nodes, bytes per op kind, tracemalloc peaks.

    python tools/tape_bytes.py [--src DIR] [--kind molkv] [--dtype fp32] [--batch 4] [--seq 256] ...

The defaults are the benchmark's mid model (molkv, 4 layers, d=256, D=512,
8 heads, N=2 experts in layers 0-2, d'=32, M=128, top-k 16) at b=4, s=256,
fp32. ``--src`` names the directory that holds the ``molkv`` package (by
default this checkout's ``src``), so two source trees can be compared.

After one taped forward of ``next_token_loss`` the tool prints the tape's
node count and, per op kind (the op function that recorded the node), the
bytes its nodes keep reachable: the arrays its VJP closure holds, and its
output where a node holds the output tensor (the ``molkv`` of a source tree
from before nodes held a handle in its place). Each buffer counts once, by
its numpy base, for the first node that reaches it, and no buffer of a
leaf tensor that a node takes as input (the parameters) counts. A second forward and its backward then run under
``tracemalloc``, and the tool prints the peak traced bytes of the forward
alone and of forward plus backward. Last it prints the backward's largest
transient: the VJP whose run rose furthest above the traced bytes before
it, with its op kind, its position among the tape's nodes (0 is the first
recorded) and the MiB before it and at its peak. MiB are 2**20 bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tracemalloc
from pathlib import Path

import numpy as np

MIB = float(1 << 20)
SRC = Path(__file__).resolve().parents[1] / "src"


def base_of(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def reachable_arrays(obj, tensor_cls, seen_fns=None):
    """Arrays reachable from ``obj`` through tensors, tuples, lists and function closures."""
    seen_fns = set() if seen_fns is None else seen_fns
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tensor_cls):
        yield obj.data
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from reachable_arrays(item, tensor_cls, seen_fns)
    elif callable(obj) and getattr(obj, "__closure__", None) and id(obj) not in seen_fns:
        seen_fns.add(id(obj))
        for cell in obj.__closure__:
            try:
                contents = cell.cell_contents
            except ValueError:  # a cell not yet bound
                continue
            yield from reachable_arrays(contents, tensor_cls, seen_fns)


def op_kind(node) -> str:
    """The op function that recorded ``node``: the outer name of its VJP's qualified name."""
    return node.vjp.__qualname__.split(".")[0]


def tape_report(nodes, tensor_cls) -> dict[str, list[int]]:
    """{op kind: [nodes, bytes]} over ``nodes`` in tape order, each buffer counted once."""
    produced = {id(n.out) for n in nodes}
    counted = {id(base_of(t.data)) for n in nodes for t in n.inputs
               if isinstance(t, tensor_cls) and id(t) not in produced}
    report: dict[str, list[int]] = {}
    for node in nodes:
        row = report.setdefault(op_kind(node), [0, 0])
        row[0] += 1
        for arr in reachable_arrays((node.out, node.vjp), tensor_cls):
            base = base_of(arr)
            if id(base) not in counted:
                counted.add(id(base))
                row[1] += base.nbytes
    return report


@contextlib.contextmanager
def watch_vjps(autodiff, tape):
    """Within the block, ``autodiff.backward`` records its largest VJP transient in the dict yielded.

    Each VJP run, with the gradient sums after it, resets ``tracemalloc``'s
    peak. The dict holds the run that rose furthest above the traced bytes
    before it, as ``largest`` = (rise, op kind, position, bytes before, peak
    bytes), and the highest peak seen so far, as ``peak``.
    """
    run_vjp = autodiff._run_vjp
    seen = {"largest": None, "peak": 0}

    def watched(node, pending):
        position = len(tape.nodes)  # backward pops the node it runs off the end of the tape
        before, since_last = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        run_vjp(node, pending)
        peak = tracemalloc.get_traced_memory()[1]
        seen["peak"] = max(seen["peak"], since_last, peak)
        if seen["largest"] is None or peak - before > seen["largest"][0]:
            seen["largest"] = (peak - before, op_kind(node), position, before, peak)

    autodiff._run_vjp = watched
    try:
        yield seen
    finally:
        autodiff._run_vjp = run_vjp


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(SRC), help="directory that contains the molkv package")
    ap.add_argument("--kind", default="molkv", choices=("dense", "mole", "gated-mole", "molkv"))
    ap.add_argument("--dtype", default="fp32", choices=("fp32", "fp64"))
    ap.add_argument("--batch", type=int, default=4)
    ap.add_argument("--seq", type=int, default=256)
    ap.add_argument("--layers", type=int, default=4)
    ap.add_argument("--hidden", type=int, default=256)
    ap.add_argument("--ffn", type=int, default=512)
    ap.add_argument("--heads", type=int, default=8)
    ap.add_argument("--experts", type=int, default=2)
    ap.add_argument("--expert-layers", default="0,1,2", help="comma-separated layer indices")
    ap.add_argument("--key-dim", type=int, default=32)
    ap.add_argument("--window", type=int, default=128)
    ap.add_argument("--top-k", type=int, default=16)
    ap.add_argument("--seed", type=int, default=1)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from molkv import autodiff
    from molkv.autodiff import Tape, Tensor, backward
    from molkv.config import ModelConfig
    from molkv.model import init_model, next_token_loss
    from molkv.training import Corpus, sample_batch, synthesize_corpus

    experts = {} if args.kind == "dense" else dict(
        num_experts=args.experts, expert_layers=tuple(int(i) for i in args.expert_layers.split(",")))
    if args.kind == "molkv":
        experts.update(key_dim=args.key_dim, cache_window=args.window, top_k=args.top_k)
    cfg = ModelConfig(kind=args.kind, vocab_size=257, num_layers=args.layers, hidden_size=args.hidden,
                      ffn_size=args.ffn, num_heads=args.heads, **experts)
    model = init_model(cfg, seed=args.seed, dtype=np.float32 if args.dtype == "fp32" else np.float64)
    corpus = Corpus.from_bytes(synthesize_corpus(1 << 16, seed=args.seed))
    batch = sample_batch(np.random.default_rng(args.seed), corpus.train_ids, args.batch, args.seq)

    with Tape() as tape:
        next_token_loss(model, batch)
    report = tape_report(tape.nodes, Tensor)
    print(f"{args.kind} {args.dtype} b={args.batch} s={args.seq}: {len(tape.nodes)} tape nodes")
    print(f"{'op kind':<22}{'nodes':>7}{'MiB':>10}")
    for kind, (n, nbytes) in sorted(report.items(), key=lambda kv: -kv[1][1]):
        print(f"{kind:<22}{n:>7}{nbytes / MIB:>10.2f}")
    print(f"{'total':<22}{len(tape.nodes):>7}{sum(b for _, b in report.values()) / MIB:>10.2f}")
    del tape

    tracemalloc.start()
    with Tape() as tape:
        loss = next_token_loss(model, batch)
    forward_peak = tracemalloc.get_traced_memory()[1]
    n_nodes = len(tape.nodes)
    with watch_vjps(autodiff, tape) as seen:
        backward(tape, loss)
    total_peak = max(forward_peak, seen["peak"], tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
    print(f"tracemalloc peak, forward: {forward_peak / MIB:.2f} MiB")
    print(f"tracemalloc peak, forward + backward: {total_peak / MIB:.2f} MiB")
    _, kind, position, before, peak = seen["largest"]
    print(f"largest backward transient: {kind} VJP, node {position} of {n_nodes}: "
          f"{before / MIB:.2f} -> {peak / MIB:.2f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
