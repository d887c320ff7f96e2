"""Self-tests of the benchmark, at tiny size.

    python3 -m pytest -q bench/selftest.py

The file is not named test_*.py, so the repository's own test run does not
collect it; each test runs the benchmark for a few seconds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] != 0, name


def test_trace_counts_repeat_exactly():
    counts = []
    for seed in (1, 2):
        result, _ = harness.run("trajectory", seed, 0, True, "tiny")
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] in ("count", "flop", "ratio")})
    assert counts[0] == counts[1]
    assert 0 < counts[0]["tensor.grad_products.useful_frac"] < 1


def failing_runs(*methods: str):
    """A tamper that makes every run of the named methods raise."""
    def tamper(mods):
        experiments = mods["experiments"]
        original = experiments.run_from_config

        def run_from_config(run_config):
            if run_config["method"]["name"] in methods:
                raise RuntimeError("injected failure")
            return original(run_config)

        experiments.run_from_config = run_from_config
    return tamper


def test_a_run_that_raises_is_counted():
    result, detail = harness.run("ceiling", 1, 0, False, "tiny", tamper=failing_runs("lora"))
    assert not result["correct"]
    failed = [name for name, _ in detail["failed_checks"]]
    assert failed == ["run lora4", "run lora8"]
    assert detail["failed_frac"] == 2 / result["attempted"]


@pytest.mark.parametrize("methods, unmeasured", [
    (("cera",), {"eval_ms_p50"}),
    (("lora", "cera"), {"eval_ms_p50", "step_ms_p50", "step_ms_p95", "train_tokens_per_s"}),
])
def test_a_failed_run_the_eval_probe_needs_is_counted(capsys, methods, unmeasured):
    # the eval probe loads the trained cera adapter of the highest rank
    code = run.main(["--workload", "ceiling", "--seed", "1", "--seconds", "0",
                     "--trace", "0", "--size", "tiny"], tamper=failing_runs(*methods))
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2].removeprefix("detail "))
    failed = {f"run {m}{r}" for m in methods for r in (4, 8)}
    failed.add("eval forward finite and repeatable")
    assert code == 1 and not result["correct"] and result["failed"] == len(failed)
    assert {name for name, _ in detail["failed_checks"]} == failed
    assert detail["failed_frac"] == len(failed) / result["attempted"]
    assert {k for k, v in result["metrics"].items() if v["value"] is None} == unmeasured


@pytest.mark.parametrize("trace", [False, True])
def test_a_corrupted_output_is_counted(trace):
    def tamper(mods):
        spectral = mods["spectral"]
        original = spectral.svd_values

        def svd_values(m, with_vectors=False):
            out = original(m, with_vectors)
            return out if with_vectors else out * (1.0 + 1e-6)

        spectral.svd_values = svd_values
        mods["experiments"].svd_values = svd_values

    result, detail = harness.run("ceiling", 1, 0, trace, "tiny", tamper=tamper)
    assert not result["correct"] and result["failed"] > 0
    assert {name for name, _ in detail["failed_checks"]} == {"spectrum matches np.linalg.svd"}
    assert detail["failed_frac"] == result["failed"] / result["attempted"]


def test_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "ceiling", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not [line for line in proc.stdout.splitlines() if line.startswith("{")]
