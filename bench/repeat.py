"""Repeat mode: run the benchmark several times and summarise each metric.

    python3 bench/repeat.py --runs 10 [--workload ceiling]
                            [--first-seed 1] [--trace 1] [--out summary.json]
                            [--against earlier-summary.json]

Run i uses seed first-seed + i, and the workloads take turns, so slow
spells of the machine spread over all of them. For each workload and metric
it prints the median, the quartiles (`statistics.quantiles(n=4)`), the
spread (IQR over median) and the coefficient of variation, next to the
metric's bound from BENCHMARK.json. With `--against`, it also gives each
median's change from that earlier summary and whether it stays within the
bound. The spreads are what the bounds were set from.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ceiling", "trajectory")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
    mean = statistics.fmean(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0,
            "cv": statistics.pstdev(values) / abs(mean) if mean else 0.0,
            "values": values}


def worse_by(new: float, old: float, better: str) -> float:
    """Share of `old` by which `new` is worse (negative when better)."""
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the summary JSON here")
    p.add_argument("--against", help="an earlier summary JSON to compare with")
    args = p.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in benchmark["end_to_end"]}
    seconds = args.seconds or benchmark["run_seconds"]

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            res = run_once(w, args.first_seed + i, seconds, args.trace)
            results[w].append(res)
            print(f"run {i + 1}/{args.runs} {w} seed={args.first_seed + i}: "
                  f"correct={res['correct']} failed={res['failed']}/{res['attempted']}",
                  flush=True)

    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    summary = {}
    for w in workloads:
        runs = results[w]
        summary[w] = {"correct": all(r["correct"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "attempted": sum(r["attempted"] for r in runs), "metrics": {}}
        print(f"\n{w}: {len(runs)} runs, all correct: {summary[w]['correct']}")
        print(f"  {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'cv':>6} {'bound':>6}")
        for name in runs[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            summary[w]["metrics"][name] = s
            b = spec.get(name, {}).get("bound")
            line = (f"  {name:<36} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                    f"{s['spread']:>7.3f} {s['cv']:>6.3f} {'' if b is None else b:>6}")
            if b is not None:
                line += "  ok" if s["spread"] <= b / 3 else (
                    "  within bound" if s["spread"] <= b else "  SPREAD OVER BOUND")
            old = earlier.get(w, {}).get("metrics", {}).get(name)
            if old and name in spec:
                worse = worse_by(s["median"], old["median"], spec[name]["better"])
                line += f"  vs earlier {worse:+.3f}" + (" REGRESSED" if worse > b else "")
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all(s["correct"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
