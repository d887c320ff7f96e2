"""The workloads and the checks on their outputs.

Each workload drives the program the way a user does, through
`ceralab.cli.main` with `--jobs 1`: one client in one process, a closed loop.

* ``ceiling``: `ceralab sweep` of the linear-ceiling task (nonlinear teacher,
  regressor mode, adapters on Wv), lora and cera at a low and at the highest
  regressor rank, with the shipped 3000-step schedule. Per-op Python overhead
  and AdamW dominate; the SVD of each run is a minor share.
* ``trajectory``: `ceralab sweep` of next-token training on logistic
  trajectories (2 layers, Wq+Wv, lora and cera at r=16). The per-sequence and
  per-head loops build tapes of about 1000 nodes; backward dominates, and the
  optimizer and SVD are nearly idle, so it is their control.

The seed becomes the run seed (adapter init, batch order, dropout); task
data stays the program's own function of the task id.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1
REFERENCE = Path(__file__).resolve().parent / "reference.json"
# admits last-bit reordering compounded over a training run
REL_TOL = 1e-6

REGRESSOR = {"d_model": 64, "n_heads": 4, "d_head": 16, "n_layers": 1,
             "vocab_size": 8, "max_seq_len": 8, "v_out_dim": 64,
             "mode": "regressor"}
LANGUAGE_MODEL = {"d_model": 64, "n_heads": 4, "d_head": 16, "n_layers": 2,
                  "vocab_size": 12, "max_seq_len": 64, "v_out_dim": 32,
                  "mode": "language_model"}
SCHEDULE = {"lr_max": 0.003, "lr_min": 3e-05, "beta1": 0.9, "beta2": 0.999,
            "eps": 1e-08, "weight_decay": 0.01, "seed": 0, "grad_clip": 1.0}
CEILING_METHODS = [
    {"name": "lora", "kind": "lora", "targets": ["Wv"], "init_gain": 0.3},
    {"name": "cera", "kind": "cera", "targets": ["Wv"], "init_gain": 0.3}]
TRAJECTORY_METHODS = [
    {"name": "lora", "kind": "lora", "targets": ["Wq", "Wv"]},
    {"name": "cera", "kind": "cera", "targets": ["Wq", "Wv"]}]

# `eval_reps` eval forwards follow every unit. `tiny` only serves the
# self-test; its training is too short for the quality checks, which it skips
SIZES = {
    "full": {
        "ceiling": {"ranks": [16, 64], "steps": 3000, "setup_reps": 25, "eval_reps": 100},
        "trajectory": {"ranks": [16], "steps": 70, "setup_reps": 25, "eval_reps": 15},
    },
    "tiny": {
        "ceiling": {"ranks": [4, 8], "steps": 20, "setup_reps": 2, "eval_reps": 3},
        "trajectory": {"ranks": [4], "steps": 4, "setup_reps": 2, "eval_reps": 3},
    },
}


class Checks:
    """Pass/fail items: every run, report and output check is one."""

    def __init__(self):
        self.items: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok, detail: str = "") -> bool:
        self.items.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.items)

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.items)


def call_cli(mods: dict, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = mods["cli"].main(argv)
    return code, buf.getvalue()


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def sweep_config(task_id, methods, ranks, seed, model, steps, batch_size) -> dict:
    return {"schema_version": 1, "task_id": task_id, "methods": methods,
            "ranks": ranks, "seeds": [seed], "model": model,
            "train": dict(SCHEDULE, steps=steps, batch_size=batch_size),
            "outputs_dir": "unused", "spectral_source": "latent_H"}


def read_records(out_dir: Path) -> list[dict]:
    """Stored records of a run store, as (record, run_config) dicts."""
    return [json.loads(p.read_text())
            for p in sorted((out_dir / "records").glob("*.json"))
            if not p.name.endswith(".adapters.json")]


def label_of(run_config: dict) -> str:
    return f"{run_config['method']['name']}{run_config['rank']}"


class Workload:
    """One unit is one `ceralab sweep` into a fresh outputs directory."""

    name = ""
    task_id = ""
    model: dict = {}
    methods: list = []
    batch_size = 0

    def __init__(self, size: str, seed: int, work: Path):
        self.size = size
        self.dims = SIZES[size][self.name]
        self.seed = seed
        self.work = work
        self.units = 0
        self.bundle = None

    def describe(self) -> dict:
        return {"size": self.size, **self.dims,
                "methods": [m["name"] for m in self.methods],
                "batch_size": self.batch_size, "task_id": self.task_id}

    def setup(self, mods: dict) -> None:
        """Config and task bundle (floor, or trajectory data)."""
        self.work.mkdir(parents=True, exist_ok=True)
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps(sweep_config(
            self.task_id, self.methods, self.dims["ranks"], self.seed,
            self.model, self.dims["steps"], self.batch_size)))
        E = mods["experiments"]
        cfg = E.ExperimentConfig.load(self.config)
        self.bundle = E.build_task_bundle(cfg.task_id, cfg.model)

    def unit(self, mods: dict) -> None:
        self.units += 1
        self.last = self.work / f"unit{self.units}"
        call_cli(mods, ["sweep", "--config", str(self.config),
                        "--out", str(self.last), "--jobs", "1"])

    def trained_model(self, mods: dict):
        """A fresh backbone carrying the trained, unmerged cera adapters of
        the highest rank, from the last unit."""
        E, M, A = mods["experiments"], mods["model"], mods["adapters"]
        out_dir = self.last
        rank = self.dims["ranks"][-1]
        for stored in read_records(out_dir):
            rc = stored["run_config"]
            if label_of(rc) == f"cera{rank}":
                break
        else:
            raise RuntimeError(f"no trained cera r={rank} run in {out_dir}")
        run_id = stored["record"]["run_id"]
        bundles = json.loads((out_dir / "records" / f"{run_id}.adapters.json").read_text())
        method = E.MethodSpec.from_dict(rc["method"])
        backbone = M.build_model(M.ModelConfig.from_dict(rc["model"]),
                                 self.bundle.backbone_seed)
        for key, state in sorted(bundles.items()):
            layer, target = key.split(":")
            M.inject(backbone, int(layer), target,
                     A.Adapter(method.adapter_config(rank),
                               A.AdapterState.from_bundle(state)))
        return backbone

    def collect(self, checks: Checks, error: str | None) -> dict:
        rows = {}
        csv = self.last / "results.csv"
        if csv.exists():
            lines = csv.read_text().splitlines()
            header = lines[0].split(",")
            for line in lines[1:]:
                row = dict(zip(header, line.split(",")))
                rows[row["method"] + row["rank"]] = {
                    "test_metric": float(row["test_metric"]),
                    "effective_rank": float(row["effective_rank"]),
                    "auc90": int(row["auc90"])}
        failures = self.last / "failures.json"
        failed = {label_of(f["run_config"]): f["error"]
                  for f in json.loads(failures.read_text())} if failures.exists() else {}
        for m in self.methods:
            for r in self.dims["ranks"]:
                label = f"{m['name']}{r}"
                checks.add(f"run {label}", label in rows and label not in failed,
                           error or failed.get(label, ""))
        return rows


class Ceiling(Workload):
    name = "ceiling"
    task_id = "nonlinear_teacher"
    model = REGRESSOR
    methods = CEILING_METHODS
    batch_size = 32

    def eval_batch(self):
        return self.bundle.test.inputs

    def check_quality(self, outputs: dict, checks: Checks) -> None:
        lo, hi = self.dims["ranks"][0], self.dims["ranks"][-1]
        floor = self.bundle.floor
        cera = outputs.get(f"cera{lo}", {}).get("test_metric", math.inf)
        checks.add(f"cera{lo} test MSE below the linear floor", cera < floor,
                   f"{cera!r} vs floor {floor!r}")
        a = outputs.get(f"lora{lo}", {}).get("test_metric", math.nan)
        b = outputs.get(f"lora{hi}", {}).get("test_metric", math.nan)
        checks.add("lora test MSE flat across ranks", abs(b - a) <= 0.05 * a,
                   f"lora{lo}={a!r} lora{hi}={b!r}")


class Trajectory(Workload):
    name = "trajectory"
    task_id = "logistic_trajectories"
    model = LANGUAGE_MODEL
    methods = TRAJECTORY_METHODS
    batch_size = 8

    def eval_batch(self):
        """8 whole training sequences of 62 tokens."""
        train = self.bundle.train
        return np.concatenate([train.inputs[:8], train.targets[:8, -1:]], axis=1)

    def check_quality(self, outputs: dict, checks: Checks) -> None:
        for label, row in sorted(outputs.items()):
            checks.add(f"{label} perplexity finite", math.isfinite(row["test_metric"]),
                       repr(row["test_metric"]))


WORKLOADS = {w.name: w for w in (Ceiling, Trajectory)}


def check_reference(name: str, outputs: dict, checks: Checks) -> tuple[int, int]:
    """Compare with the values stored for the default seed; returns
    (exact matches, values compared)."""
    reference = json.loads(REFERENCE.read_text())[name]
    exact = total = 0
    for label, want in sorted(reference.items()):
        got = outputs.get(label, {})
        for key, value in sorted(want.items()):
            total += 1
            have = got.get(key)
            exact += have == value
            checks.add(f"reference {label} {key}",
                       have is not None and close(have, value),
                       f"{have!r} vs stored {value!r}")
    return exact, total
