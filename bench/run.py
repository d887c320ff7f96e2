"""Benchmark of the ceralab package.

    python3 bench/run.py --workload ceiling --seed 1 --seconds 30 --trace 0

Workloads: ceiling, trajectory (see workloads.py and README.md).
Run from anywhere; the source tree is found next to this directory. Prints
a readable report, a `detail` JSON line (environment stamp, samples, checks,
outputs) and, last, one JSON object: correct, attempted, failed, metrics.
With `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones. Exits 1 when a check fails and 2 when there is nothing to
benchmark.
"""

import os

# one BLAS thread, pinned before numpy loads; the stamp records it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("ceiling", "trajectory")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1, help="run seed (default 1)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="unit time to measure: whole units, at least one, "
                        "ending within half a unit of it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the self-test")
    return p.parse_args(argv)


def main(argv=None, tamper=None) -> int:
    """`tamper(mods)` lets the self-test break the program."""
    args = parse_args(argv)
    if not (ROOT / "src" / "ceralab" / "__init__.py").is_file():
        print(f"bench: no ceralab source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    result, detail = harness.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace), args.size, tamper)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['attempted'] - result['failed']}/{result['attempted']} checks passed")
    for name, failure in detail["failed_checks"]:
        print(f"  FAILED {name}: {failure}")
    shown = detail.get("table", {k: v["value"] for k, v in result["metrics"].items()})
    for name, value in shown.items():
        print(f"  {name:<40} {value:.6g}")
    print("detail " + json.dumps(detail))
    # a figure that a failure left unmeasured (nan) is null, so the line stays JSON
    for metric in result["metrics"].values():
        if not math.isfinite(metric["value"]):
            metric["value"] = None
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
