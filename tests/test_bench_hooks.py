"""The benchmark reaches into the program by name: the entry points it
calls, the functions an untraced run wraps, and the methods and ops a
traced run wraps as well. A tiny run of each workload at each level fails
here when a change to the program drops or renames one of them. The run
only reads `bench/`; its scratch directory is removed when it ends."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["ceiling", "trajectory"])
def test_a_tiny_bench_run_passes_every_check(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--size", "tiny", "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-4000:]
    for name, metric in result["metrics"].items():
        assert metric["value"] is not None and math.isfinite(metric["value"]), name
