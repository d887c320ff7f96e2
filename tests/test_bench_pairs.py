"""Smoke test of scripts/bench_pairs.py: one tiny pair of HEAD against HEAD."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs git and the repository's history")
def test_one_tiny_pair_of_head_against_head(tmp_path):
    out = tmp_path / "pairs.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "--parent", "HEAD",
         "--change", "HEAD", "--workload", "ceiling", "--pairs", "1", "--first-seed", "3",
         "--seconds", "0", "--size", "tiny", "--claim", "ceiling:peak_rss_mb",
         "--out", str(out)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text())
    assert report["parent_commit"] == report["change_commit"]
    ceiling = report["workloads"]["ceiling"]
    assert ceiling["seeds"] == [3] and ceiling["first_side"] == ["parent"]
    # one commit gives the same outputs on both sides of the pair
    assert ceiling["outputs_equal_in_every_pair"] is True
    assert ceiling["all_correct"] == {"parent": True, "change": True}
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert list(ceiling["metrics"]) == names
    for row in ceiling["metrics"].values():
        for side in ("parent", "change"):
            assert len(row[side]["values"]) == 1
            assert row[side]["median"] == row[side]["q1"] == row[side]["q3"]
            assert row[side]["cv"] == 0.0
        assert row["pairs_change_better"] in ("0/1", "1/1")
    # a single pair with no spread can only meet the claim by winning it
    claim = report["claim"]
    assert claim["parent_iqr"] == 0.0
    assert claim["met"] == (claim["pairs_change_better"] == "1/1")
