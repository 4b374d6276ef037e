"""Command-line surface: train, export, decode, cost, verify.

One entry point drives every model kind; which kind runs is decided by the
manifest, never by a separate tool. Exit codes: 0 success, 2 configuration
error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .config import ConfigError
from .manifest import RunManifest, parse_manifest
from .runtime import DecoderState, closed_form_costs, generate
from .store import (
    PARAM_CONVENTIONS,
    ExpertStoreReader,
    StoreFormatError,
    count_params,
    reparameterize,
    write_store,
)
from .training import (
    EVAL_WINDOWS,
    ByteTokenizer,
    Corpus,
    TrainingError,
    evaluate,
    load_parameters,
    new_train_state,
    save_checkpoint,
    train_run,
)
from .verify import run_all

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3


def _need_path(man: RunManifest, key: str, override=None, flag: str | None = None) -> str:
    """``override`` if it is not empty, else the manifest's ``paths.<key>``.

    ``flag`` is the option that passes ``override``; the error for a missing path names it.
    """
    path = override or man.paths.get(key)
    if not path:
        raise ConfigError(f"no {key} path: set paths.{key} in the manifest" + (f" or pass {flag}" if flag else ""))
    return path


def _check_vocab(ids: np.ndarray, vocab_size: int, source: str) -> None:
    """Refuse byte ids that the model's vocabulary has no row for."""
    outside = ids[ids >= vocab_size]
    if outside.size:
        raise ConfigError(f"{source} holds byte {outside[0]}, outside the model's vocab_size {vocab_size}")


def cmd_train(args) -> int:
    man = parse_manifest(args.manifest)
    if args.seed is not None:
        man.train.seed = args.seed
    steps = args.steps if args.steps is not None else man.train.steps
    corpus_path = _need_path(man, "corpus")
    ckpt_path = _need_path(man, "checkpoint", args.out, "--out")

    print(json.dumps({"resolved_manifest": man.echo()}, indent=2))
    corpus = Corpus.from_file(corpus_path, man.train.val_fraction)
    _check_vocab(corpus.ids, man.model.vocab_size, f"corpus {corpus_path}")
    n_train, n_val, span = len(corpus.train_ids), len(corpus.val_ids), man.train.seq_length + 1
    if n_val < 2 or (steps and n_train < span):  # before training, so a failing run leaves any checkpoint alone
        raise ConfigError(f"corpus {corpus_path} splits into {n_train} training and {n_val} validation tokens; "
                          f"evaluation needs 2 validation tokens, and a training step a window of {span}")
    state = new_train_state(man.model, man.train)
    log_path = ckpt_path + ".log"
    with open(log_path, "a") as log_file:
        loss = train_run(state, corpus, man.train, steps, log_file=log_file)
    save_checkpoint(ckpt_path, state, man.train)
    val = evaluate(state.model, corpus.val_ids, man.train.seq_length, max_windows=EVAL_WINDOWS)
    print(f"trained {steps} steps: train loss {loss:.4f}, val loss {val:.4f}")
    print(f"checkpoint: {ckpt_path}\nmetrics log: {log_path}")
    return EXIT_OK


def cmd_export(args) -> int:
    man = parse_manifest(args.manifest)
    ckpt_path = _need_path(man, "checkpoint", args.checkpoint, "--checkpoint")
    store_path = _need_path(man, "store", args.out, "--out")
    model = load_parameters(ckpt_path, man.model, man.train)
    header = write_store(reparameterize(model), store_path, dtype=args.dtype)
    print(
        f"store: {store_path} ({header.kind}, {args.dtype}, {header.num_expert_layers} layers x "
        f"{header.vocab_size} ids, {header.record_bytes} B/record)"
    )
    return EXIT_OK


def cmd_decode(args) -> int:
    man = parse_manifest(args.manifest)
    ckpt_path = _need_path(man, "checkpoint", args.checkpoint, "--checkpoint")
    store_path = None if man.model.kind == "dense" else _need_path(man, "store", args.store, "--store")
    tok = ByteTokenizer()
    prompt = tok.tokenize(os.fsencode(args.prompt))  # the argument's own bytes, even where they are not UTF-8
    if prompt.size == 0:
        raise ConfigError("prompt must not be empty")
    _check_vocab(prompt, man.model.vocab_size, "prompt")
    model = load_parameters(ckpt_path, man.model, man.train)

    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    with ExpertStoreReader(store_path) if store_path else contextlib.nullcontext() as reader:
        decoder = DecoderState(model, reader)
        out_ids, totals = generate(
            decoder, prompt, args.steps, sampler=args.sampler, temperature=args.temperature, rng=rng
        )
    text = tok.detokenize(np.asarray(out_ids, dtype=np.int64))
    print("generated:", text.decode(errors="replace"))

    report_path = args.out or man.paths.get("report")
    if report_path:
        with open(report_path, "w") as f:
            for row in decoder.rows:
                f.write(json.dumps(dataclasses.asdict(row)) + "\n")
        print(f"cost report: {report_path} ({len(decoder.rows)} records)")
    _print_cost_summary(decoder, totals)
    return EXIT_OK


def _print_cost_summary(decoder: DecoderState, totals) -> None:
    print("per-layer totals over the run:")
    print(f"  {'layer':>5}  {'macs':>15}  {'params_loaded':>14}  {'bytes_loaded':>13}  {'cache_len':>9}")
    by_layer: dict[int, list] = {}
    for row in decoder.rows:
        by_layer.setdefault(row.layer, []).append(row)
    for layer, rows in sorted(by_layer.items()):
        macs = sum(r.macs for r in rows)
        loaded = sum(r.params_loaded for r in rows)
        nbytes = sum(r.bytes_loaded for r in rows)
        print(f"  {layer:>5}  {macs:>15}  {loaded:>14}  {nbytes:>13}  {rows[-1].cache_len:>9}")
    print(
        f"aggregate: macs={totals.macs} params_loaded={totals.params_loaded} "
        f"bytes_loaded={totals.bytes_loaded} params_in_ram={totals.params_in_ram} "
        f"params_offloaded={totals.params_offloaded}"
    )


def cmd_cost(args) -> int:
    man = parse_manifest(args.manifest)
    rows = closed_form_costs(man.model)
    print(f"closed-form per-layer costs for kind={man.model.kind} (steady state):")
    print(f"  {'layer type':>10}  {'macs':>12}  {'params_in_ram':>14}  {'params_offloaded':>17}  {'params_loaded':>14}")
    for name, row in rows.items():
        print(
            f"  {name:>10}  {row.macs:>12}  {row.params_in_ram:>14}  "
            f"{row.params_offloaded:>17}  {row.params_loaded:>14}"
        )
    print("parameter counts by convention:")
    for convention in PARAM_CONVENTIONS:
        print(f"  {convention:>16}: {count_params(man.model, convention)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_all(out=sys.stdout, fast=args.fast)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_VERIFY if failed else EXIT_OK


def _checked(kind, ok, rule: str):
    """An argparse type that parses ``kind(text)`` and refuses values for which ``ok`` fails."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value" errors
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="molkv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    nonnegative_int = _checked(int, lambda n: n >= 0, ">= 0")

    p = sub.add_parser("train", help="train a model from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--seed", type=nonnegative_int, default=None, help="override train.seed")
    steps_help = "run the first N steps of the manifest's schedule; the lr schedule and the checkpoint's steps stay the manifest's"
    p.add_argument("--steps", type=nonnegative_int, default=None, metavar="N", help=steps_help)
    p.add_argument("--out", default=None, help="checkpoint output path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("export", help="reparameterize a checkpoint into an expert store")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", default=None, help="store output path")
    p.add_argument("--dtype", choices=("fp32", "fp16"), default="fp32")
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("decode", help="incremental generation with a cost report")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--store", default=None)
    p.add_argument("--prompt", default="The ")
    p.add_argument("--steps", type=nonnegative_int, default=32, help="tokens to generate")
    p.add_argument("--seed", type=nonnegative_int, default=None)
    p.add_argument("--sampler", choices=("greedy", "temperature"), default="greedy")
    p.add_argument("--temperature", type=_checked(float, lambda t: 0 < t < math.inf, "finite and > 0"), default=1.0)
    p.add_argument("--out", default=None, help="cost report path (JSON lines)")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("cost", help="closed-form cost table for a manifest")
    p.add_argument("--manifest", required=True)
    p.set_defaults(fn=cmd_cost)

    p = sub.add_parser("verify", help="run the acceptance property suite")
    p.add_argument("--fast", action="store_true", help="shrink the training smoke test")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, StoreFormatError, OSError, TrainingError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
