"""molkv benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload decode-long --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from its
``src/`` directory. The run builds the mid model, exports its store, checks
every timed operation's output and prints one ``metric name = value unit``
line per metric. The last line of standard output is the JSON result.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
package's public functions and reports the per-layer split instead. The full
report, with the environment and sample counts, is also written under
``perfbench/out/``. README.md in this directory describes the workloads.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("decode-long", "decode-short", "train")
# One BLAS thread: the decode steps are matrix-vector products that a second
# thread does not speed up, and on a shared two-core machine it adds noise.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:  # before numpy loads
        os.environ[var] = str(BLAS_THREADS)
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    if not (src / "molkv" / "__init__.py").is_file():
        print(f"perfbench: no molkv package under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    out_dir = here / "out"
    out_dir.mkdir(exist_ok=True)
    try:
        report = workloads.run(args.workload, args.seed, args.seconds, args.trace, str(out_dir), BLAS_THREADS, STARTED)
    except workloads.NothingMeasured as exc:
        print("perfbench: no timed operation succeeded; first failures:", file=sys.stderr)
        for problem in exc.args[0]:
            print(f"  {problem}", file=sys.stderr)
        return 1

    print("env " + json.dumps(report["env"]))
    for name, value in report["extras"].items():
        print(f"extra {name} = {value}")
    for name, row in report.get("spans", {}).items():
        print(
            f"span {name}: {row['calls_per_token']:.3g} calls/token, {row['ms_per_token']:.4f} ms/token, "
            f"self {row['self_ms_per_token']:.4f} ms/token, p50 {row['us_p50']:.1f} us"
        )
    for problem in report["failures"]:
        print(f"failure {problem}")
    result = report["result"]
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']} {m['unit']}")
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
