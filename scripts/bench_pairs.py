#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, from two commits.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload ceiling --pairs 10 --first-seed 2901 \\
        --claim ceiling:peak_rss_mb --out BENCH_29.json

Each run is `bench/run.py --trace 0` in a fresh `git archive` export of its
commit, made in a temporary directory and removed after the run. Pair i of
a workload runs seed first-seed + i on both sides, the parent first in even
pairs and the change first in odd ones; workloads run one after the other.
The JSON written holds, for each workload and end-to-end metric, each
side's values, median, quartiles (numpy's linear percentiles) and
coefficient of variation (sample standard deviation over the mean), how
much worse the change's median is than the parent's, whether that stays
within the metric's bound in BENCHMARK.json, and the pairs the change won
(ties count for neither side). It also records whether the outputs were
equal in every pair and, for a `--claim`, the claim check: the change wins
at least nine tenths of the pairs and its median beats the parent's by more
than the parent's interquartile range. Exits 0 when every run passed its
checks and every pair's outputs were equal, 1 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from repeat import WORKLOADS, worse_by  # noqa: E402

SIDES = ("parent", "change")


def resolve(rev: str) -> str:
    """The full commit hash of `rev` in this repository."""
    return subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout.strip()


def run_export(commit: str, workload: str, seed: int, seconds: float, size: str) -> dict:
    """One `bench/run.py --trace 0` run in a fresh export of `commit`: its
    result object, with the outputs and reference matches of its detail."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        cmd = [sys.executable, str(Path(tmp) / "bench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
               "--size", size]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=1800,
                              cwd=tmp, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    detail = next(json.loads(line[len("detail "):]) for line in lines
                  if line.startswith("detail "))
    result = json.loads(lines[-1])
    result["outputs"] = detail.get("outputs")
    result["reference_exact_matches"] = str(detail.get("reference_exact_matches"))
    return result


def summarize(values: list[float]) -> dict:
    """Median, linear quartiles and sample CV of `values` (None read as nan)."""
    v = np.array([np.nan if x is None else x for x in values], dtype=float)
    q1, med, q3 = (float(q) for q in np.nanpercentile(v, [25, 50, 75]))
    mean = float(np.nanmean(v))
    finite = v[np.isfinite(v)]
    cv = float(np.std(finite, ddof=1) / abs(mean)) if finite.size > 1 and mean else 0.0
    return {"median": med, "q1": q1, "q3": q3, "cv": cv, "values": values}


def won(change, parent, better: str) -> bool:
    """Whether the change's value beats the parent's; a tie or a missing
    value wins for neither."""
    if change is None or parent is None:
        return False
    return change < parent if better == "lower" else change > parent


def workload_summary(runs: dict, seeds: list[int], first: list[str], spec: dict) -> dict:
    """The BENCH layout of one workload from its runs, side -> list by pair."""
    out = {
        "pairs": len(seeds), "seeds": seeds,
        "all_correct": {s: all(r["correct"] for r in runs[s]) for s in SIDES},
        "failed_checks": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
        "outputs_equal_in_every_pair": all(
            p["outputs"] == c["outputs"] for p, c in zip(runs["parent"], runs["change"])),
        "reference_exact_matches": {
            s: sorted({r["reference_exact_matches"] for r in runs[s]}) for s in SIDES},
        "first_side": first,
        "metrics": {},
    }
    for name, m in spec.items():
        values = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in SIDES}
        row = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
               **{s: summarize(values[s]) for s in SIDES}}
        row["change_worse_by"] = worse_by(row["change"]["median"], row["parent"]["median"],
                                          m["better"])
        row["within_bound"] = bool(row["change_worse_by"] <= m["bound"])
        wins = sum(won(c, p, m["better"]) for p, c in zip(values["parent"], values["change"]))
        row["pairs_change_better"] = f"{wins}/{len(seeds)}"
        out["metrics"][name] = row
    return out


def claim_check(workload: str, metric: str, summary: dict) -> dict:
    """The claim check of a gain on one metric: the change wins at least
    nine tenths of the pairs, and its median beats the parent's by more
    than the distance between the parent's quartiles."""
    row = summary["metrics"][metric]
    parent, change = row["parent"], row["change"]
    wins = int(row["pairs_change_better"].split("/")[0])
    gap = (parent["median"] - change["median"] if row["better"] == "lower"
           else change["median"] - parent["median"])
    iqr = parent["q3"] - parent["q1"]
    return {"workload": workload, "metric": metric, "better": row["better"],
            "parent_median": parent["median"], "change_median": change["median"],
            "change_better_by": -row["change_worse_by"],
            "pairs_change_better": row["pairs_change_better"], "parent_iqr": iqr,
            "met": bool(10 * wins >= 9 * summary["pairs"] and gap > iqr)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="the parent commit (any git revision)")
    p.add_argument("--change", required=True, help="the changed commit (any git revision)")
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--claim", help="WORKLOAD:METRIC of a claimed gain to check")
    p.add_argument("--out", required=True, help="write the JSON here")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    workloads = args.workload or list(WORKLOADS)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in benchmark["end_to_end"]}
    claim = args.claim.split(":", 1) if args.claim else None
    if claim and (len(claim) != 2 or claim[0] not in workloads or claim[1] not in spec):
        p.error(f"--claim {args.claim!r} names no run workload and end-to-end metric")
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    commits = {"parent": resolve(args.parent), "change": resolve(args.change)}

    report = {"parent_commit": commits["parent"],
              "change_commit": commits["change"],
              "host": {"python": platform.python_version(), "numpy": np.__version__,
                       "cpus": os.cpu_count(), "machine": platform.machine()},
              "run_seconds": seconds, "size": args.size, "workloads": {}}
    for w in workloads:
        runs = {s: [] for s in SIDES}
        seeds = [args.first_seed + i for i in range(args.pairs)]
        first = [SIDES[i % 2] for i in range(args.pairs)]
        for i, seed in enumerate(seeds):
            for side in (first[i], SIDES[1 - i % 2]):
                res = run_export(commits[side], w, seed, seconds, args.size)
                runs[side].append(res)
                print(f"pair {i + 1}/{args.pairs} {w} seed={seed} {side}: "
                      f"correct={res['correct']} failed={res['failed']}/{res['attempted']}",
                      flush=True)
        report["workloads"][w] = summary = workload_summary(runs, seeds, first, spec)
        print(f"\n{w}: outputs equal in every pair: {summary['outputs_equal_in_every_pair']}")
        for name, row in summary["metrics"].items():
            print(f"  {name:<20} parent {row['parent']['median']:>12.6g}  change "
                  f"{row['change']['median']:>12.6g}  worse by {row['change_worse_by']:+.3f}"
                  f"  (bound {row['bound']})  change won {row['pairs_change_better']}")
    if claim:
        report["claim"] = claim_check(*claim, report["workloads"][claim[0]])
        print(f"\nclaim {args.claim}: met={report['claim']['met']}")
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    ok = all(s["all_correct"]["parent"] and s["all_correct"]["change"]
             and s["outputs_equal_in_every_pair"] for s in report["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
