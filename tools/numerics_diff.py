"""Record a molkv source tree's numerics and compare two such records.

    python tools/numerics_diff.py dump <src> <out.npz>
    python tools/numerics_diff.py compare <a.npz> <b.npz>
    python tools/numerics_diff.py against <git-ref>

``dump`` imports the ``molkv`` package found under ``<src>`` (the ``src``
directory of a checkout, for example one made with ``git archive``) and
saves, for the dense, mole, gated-mole and molkv kinds at fp32 and fp64,
on a small model and on the benchmark's mid model:

* the ids of the synthesized corpus that the batches are sampled from;
* every parameter of the fresh ``init_model``, taken before any batch;
* the training loss and every leaf gradient of one taped batch;
* the ``forward`` logits of that batch;
* the bytes of each expert kind's exported store, of the model's dtype;
* the logits of ``DECODE_STEPS`` decode steps over a store of the model's
  dtype, fed the batch's ids row after row. That is enough for the mid
  model's top-k to prune (more than k / N cached positions) and for the
  small model's expert cache to compact (more than 2M + 1 inserts);
* those steps' cost rows and per-step counters, and each model's
  ``closed_form_costs``, as int64 arrays; the small model's steps reach
  the full window, where the rows equal the closed forms;
* the parameters and AdamW moments after 4 ``train_step`` calls.

``compare`` reports how many arrays differ in shape, dtype or any bit, and
for each one how many ulps of its largest entry the largest difference is
(for an integer array, the largest difference itself).
It exits 0 when every array is bit-identical and 1 otherwise.

``against`` checks this checkout's ``src`` against ``<git-ref>``'s: it
extracts the ref's ``src`` with ``git archive``, dumps each tree in its own
child process (so each process imports one ``molkv``) and returns
``compare``'s exit status, the ref's record first.
"""

from __future__ import annotations

import argparse
import io
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

KINDS = ("dense", "mole", "gated-mole", "molkv")
DTYPES = {"fp32": np.float32, "fp64": np.float64}
DECODE_STEPS = 24
TRAIN_STEPS = 4
# The fields dumped of a decode cost row, of a step's counters and of a closed-form row (which models no bytes).
ROW_FIELDS = ("token_index", "layer", "macs", "params_loaded", "bytes_loaded", "cache_len")
COUNTER_FIELDS = ("macs", "params_in_ram", "params_offloaded", "params_loaded", "bytes_loaded")
CLOSED_FIELDS = COUNTER_FIELDS[:4]


# size: (shared fields, expert fields, molkv fields, batch shape (b, s + 1)); "mid" is the benchmark's model
SIZES = {
    "small": (dict(num_layers=2, hidden_size=16, ffn_size=20, num_heads=2), dict(num_experts=2, expert_layers=(0, 1)),
              dict(key_dim=6, cache_window=5, top_k=3), (3, 9)),
    "mid": (dict(num_layers=4, hidden_size=256, ffn_size=512, num_heads=8), dict(num_experts=2, expert_layers=(0, 1, 2)),
            dict(key_dim=32, cache_window=128, top_k=16), (4, 257)),
}


def model_config(ModelConfig, size: str, kind: str):
    base, experts, kv, _ = SIZES[size]
    extra = {} if kind == "dense" else {**experts, **(kv if kind == "molkv" else {})}
    return ModelConfig(kind=kind, vocab_size=257, **base, **extra)


def int_fields(records, names) -> np.ndarray:
    """(len(records), len(names)) int64 array of each record's named fields."""
    return np.array([[getattr(r, n) for n in names] for r in records], dtype=np.int64).reshape(-1, len(names))


def dump(src: str, out: str) -> None:
    sys.path.insert(0, str(Path(src).resolve()))
    from molkv import model as mm
    from molkv.autodiff import Tape, backward
    from molkv.config import ModelConfig
    from molkv.runtime import DecoderState, closed_form_costs, decode_step
    from molkv.store import ExpertStoreReader, reparameterize, write_store
    from molkv.training import Corpus, TrainConfig, new_train_state, sample_batch, synthesize_corpus, train_step

    corpus = Corpus.from_bytes(synthesize_corpus(1 << 15, seed=3))
    arrays: dict[str, np.ndarray] = {"corpus/ids": corpus.ids}
    with tempfile.TemporaryDirectory() as tmp:
        for size, (*_, (b, span)) in SIZES.items():
            batch = sample_batch(np.random.default_rng(5), corpus.train_ids, b, span - 1)
            for kind in KINDS:
                cfg = model_config(ModelConfig, size, kind)
                for name, row in closed_form_costs(cfg).items():
                    arrays[f"{size}/{kind}/closed/{name}"] = int_fields([row], CLOSED_FIELDS)
                for dname, dtype in DTYPES.items():
                    key = f"{size}/{kind}/{dname}"
                    model = mm.init_model(cfg, seed=11, dtype=dtype, init_std=0.3)
                    for name, p in model.named_parameters():
                        arrays[f"{key}/init/{name}"] = p.data
                    with Tape() as tape:
                        loss = mm.next_token_loss(model, batch)
                    backward(tape, loss)
                    arrays[f"{key}/loss"] = loss.data
                    for name, p in model.named_parameters():
                        arrays[f"{key}/grad/{name}"] = p.grad
                        p.grad = None
                    arrays[f"{key}/forward"] = mm.forward(model, batch[:, :-1]).data

                    reader = None
                    if cfg.expert_layers:
                        path = Path(tmp) / f"{size}-{kind}-{dname}.mlkv"
                        write_store(reparameterize(model), path, dtype=dname)
                        arrays[f"{key}/store"] = np.fromfile(path, np.uint8)
                        reader = ExpertStoreReader(path)
                    try:
                        state = DecoderState(model, reader)
                        steps = [decode_step(state, int(t)) for t in batch.reshape(-1)[:DECODE_STEPS]]
                        arrays[f"{key}/decode"] = np.stack([logits for logits, _ in steps])
                        arrays[f"{key}/decode_counters"] = int_fields([delta for _, delta in steps], COUNTER_FIELDS)
                        arrays[f"{key}/decode_rows"] = int_fields(state.rows, ROW_FIELDS)
                    finally:
                        if reader is not None:
                            reader.close()

                    tcfg = TrainConfig(seq_length=span - 1, batch_size=b, grad_accum=1, steps=TRAIN_STEPS,
                                       warmup_steps=1, lr=1e-3, min_lr=1e-4, seed=7, dtype=dname)
                    train = new_train_state(cfg, tcfg)
                    for _ in range(TRAIN_STEPS):
                        train_step(train, corpus, tcfg)
                    for name, p in train.model.named_parameters():
                        arrays[f"{key}/param/{name}"] = p.data
                        arrays[f"{key}/adam_m/{name}"] = train.optimizer.m[name]
                        arrays[f"{key}/adam_v/{name}"] = train.optimizer.v[name]
                    print(f"{key}: loss {loss.item():.6f}", flush=True)
    np.savez(out, **arrays)
    print(f"wrote {len(arrays)} arrays to {out}")


def largest_entry_ulps(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| in units of the spacing at a's largest |entry|."""
    if not a.size:
        return 0.0
    return float(np.abs(a.astype(np.float64) - b.astype(np.float64)).max() / np.spacing(np.abs(a).max()))


def compare(path_a: str, path_b: str) -> int:
    with np.load(path_a) as fa, np.load(path_b) as fb:
        a = {k: fa[k] for k in fa.files}
        b = {k: fb[k] for k in fb.files}
    differ = 0
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            differ += 1
            print(f"{key}: only in {path_a if key in a else path_b}")
        elif a[key].shape != b[key].shape or a[key].dtype != b[key].dtype:
            differ += 1
            print(f"{key}: {a[key].dtype}{a[key].shape} vs {b[key].dtype}{b[key].shape}")
        elif a[key].tobytes() != b[key].tobytes():
            differ += 1
            if np.issubdtype(a[key].dtype, np.integer):
                print(f"{key}: entries differ by up to {np.abs(a[key] - b[key]).max()}")
            else:
                print(f"{key}: {largest_entry_ulps(a[key], b[key]):.3g} ulps of the largest entry")
    print(f"{differ} of {len(a.keys() | b.keys())} arrays differ")
    return 1 if differ else 0


def extract_src(repo, ref: str, dest) -> Path:
    """Write the ``src`` directory of ``ref`` in the git repository ``repo`` under ``dest``; returns ``dest/src``."""
    archive = subprocess.run(["git", "-C", str(repo), "archive", ref, "src"], check=True, stdout=subprocess.PIPE)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest)
    return Path(dest) / "src"


def against(ref: str) -> int:
    """Dump ``ref``'s ``src`` and this checkout's, then compare the two records."""
    root = Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory() as tmp:
        records = []
        for name, src in (("base", extract_src(root, ref, Path(tmp) / "base")), ("head", root / "src")):
            records.append(str(Path(tmp) / f"{name}.npz"))
            subprocess.run([sys.executable, __file__, "dump", str(src), records[-1]], check=True)
        return compare(*records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("dump", help="record a source tree's numerics")
    p.add_argument("src", help="directory that contains the molkv package")
    p.add_argument("out", help="output .npz file")
    p = sub.add_parser("compare", help="compare two records")
    p.add_argument("a")
    p.add_argument("b")
    p = sub.add_parser("against", help="dump a git ref's src and this checkout's, then compare them")
    p.add_argument("ref", help="git ref, e.g. HEAD~1")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.src, args.out)
        return 0
    if args.command == "against":
        return against(args.ref)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
