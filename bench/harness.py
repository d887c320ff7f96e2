"""One benchmark run of one workload: set-up, timed phase, eval probe, checks.

Untraced (`--trace 0`) runs measure the end-to-end metrics with only the
probe level installed. A traced run (`--trace 1`) runs one set-up and one
unit with the probe level, then the same again with the trace level, checks
both, compares their outputs and reports the per-layer table.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads as W
from instrument import MODULES, RUN_ROOTS, Instrument

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "run_s_p50": "s", "step_ms_p50": "ms",
    "step_ms_p95": "ms", "train_tokens_per_s": "tokens/s", "eval_ms_p50": "ms",
    "spectral_s_per_run": "s", "peak_rss_mb": "MB"}
TABLE_OPS = ("linear", "matmul", "add", "mul", "silu", "dropout", "softmax_rows",
             "layer_norm", "slice_cols", "concat_cols", "cross_entropy_rows", "stack")
# (traced name, report calls too); the metric drops the class of a method
# only for Adapter.delta_rows, named adapters.delta_rows
TABLE_CALLS = (
    ("adapters.Adapter.delta_rows", True), ("model.forward", False),
    ("model.regressor_output", False), ("model.lm_logits", True),
    ("model.collect_latents", False), ("trainer.train_adapter", False),
    ("trainer.adamw_step", False), ("trainer.clip_global_norm", False),
    ("trainer.evaluate", False), ("trainer.perplexity", False),
    ("spectral.svd_values", True), ("spectral.activation_spectrum", False),
    ("tasks.linear_floor", False), ("tasks.make_teacher_task", False),
    ("tasks.trajectory_sequences", False),
    ("experiments.build_task_bundle", True), ("experiments.run_from_config", False),
    ("experiments.RunStore.save_record", False),
    ("experiments.RunStore.load_record", False),
    ("experiments.write_results_csv", False), ("plotting.emit_plot", True),
    ("cli.main", False),
)
# the per-layer metrics a traced run emits: those of the table that every
# workload exercises, so none reads 0; the rest stay in the printed table
EMITTED_LAYER = (
    ["tensor.backward.s", "tensor.backward.calls", "tensor.backward.nodes",
     "tensor.grad_products.useful_frac", "tensor.linear.flops"]
    + [f"tensor.{op}.{stat}" for op in ("linear", "add", "mul", "silu", "dropout")
       for stat in ("calls", "fwd_s", "bwd_s")]
    + ["adapters.delta_rows.s", "adapters.delta_rows.calls", "model.forward.s",
       "model.collect_latents.s", "trainer.train_adapter.s", "trainer.adamw_step.s",
       "trainer.clip_global_norm.s", "trainer.evaluate.s",
       "trainer.step.forward_ms_p50", "trainer.step.backward_ms_p50",
       "trainer.step.optimizer_ms_p50", "spectral.svd_values.s",
       "spectral.svd_values.calls", "spectral.activation_spectrum.s",
       "experiments.build_task_bundle.s", "experiments.build_task_bundle.calls",
       "experiments.run_from_config.s", "experiments.RunStore.save_record.s",
       "experiments.RunStore.load_record.s", "experiments.write_results_csv.s",
       "plotting.emit_plot.s", "plotting.emit_plot.calls", "cli.main.s"]
    + [f"{m}.self_s" for m in MODULES]
    + ["trace.overhead_s"])


def fresh_import(inst: Instrument, tamper=None) -> dict:
    """Import ceralab anew, so that every set-up pays for the import, and
    install `inst` on it. `tamper(mods)` lets the self-test break the program."""
    inst.uninstall()
    for name in [n for n in sys.modules if n == "ceralab" or n.startswith("ceralab.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"ceralab.{m}") for m in MODULES}
    if tamper is not None:
        tamper(mods)
    inst.install(mods)
    return mods


def session(wl, inst: Instrument, seconds: float, reps: int, checks, tamper,
            after_unit=None):
    """`reps` set-ups and whole units (at least one) until the unit time is
    within half a unit of `seconds`. The set-ups are spread between the
    units, so that they sample the whole run. `after_unit(mods)` runs after
    each unit, outside its time, and the captured spectra and backbones are
    checked between units and at the end. An untimed full collection before
    every set-up and unit frees the copies of ceralab that earlier re-imports
    left in reference cycles, so that neither the times nor the peak RSS
    depend on when the collector happens to run."""
    setups, walls, outputs = [], [], []

    def set_up():
        inst.phase = "setup"
        gc.collect()
        t0 = time.perf_counter()
        mods = fresh_import(inst, tamper)
        wl.setup(mods)
        setups.append(time.perf_counter() - t0)
        inst.phase = "timed"
        return mods

    mods = set_up()
    while True:
        error = None
        gc.collect()
        t0 = time.perf_counter()
        try:
            wl.unit(mods)
        except Exception:  # counted as failed runs by collect
            error = traceback.format_exc()
        walls.append(time.perf_counter() - t0)
        outputs.append(wl.collect(checks, error))
        if after_unit is not None:
            after_unit(mods)
        left = math.floor((seconds - sum(walls)) / statistics.fmean(walls) + 0.5)
        if left < 1:
            break
        verify_captures(wl, mods, inst, checks)
        due = math.ceil(reps * len(walls) / (len(walls) + left))
        while len(setups) < min(reps, due):
            mods = set_up()
    while len(setups) < reps:
        set_up()
    inst.uninstall()
    verify_captures(wl, mods, inst, checks)
    return mods, setups, walls, outputs


class EvalProbe:
    """Eval-mode forwards of the workload's fixed batch through the trained,
    unmerged adapter, a few after every unit so they sample the whole run.
    A probe that raises (say, because the run it needs failed) is recorded
    and counted as a failed check, and the session goes on."""

    def __init__(self, wl):
        self.wl = wl
        self.times: list[float] = []
        self.mods = None
        self.first = None
        self.same = True
        self.error = None

    def sample(self, mods: dict) -> None:
        try:
            self._sample(mods)
        except Exception:
            self.error = traceback.format_exc()
            self.mods = None

    def _sample(self, mods: dict) -> None:
        forward = mods["model"].forward
        if mods is not self.mods:  # a set-up imported ceralab afresh
            self.backbone = self.wl.trained_model(mods)
            self.batch = self.wl.eval_batch()
            self.mods = mods
            out = forward(self.backbone, self.batch, mode="eval").data
            if self.first is None:
                self.first = out.copy()
            self.same = self.same and np.array_equal(out, self.first)
        for _ in range(self.wl.dims["eval_reps"]):
            t0 = time.perf_counter()
            out = forward(self.backbone, self.batch, mode="eval")
            self.times.append(time.perf_counter() - t0)
            self.same = self.same and np.array_equal(out.data, self.first)

    def check(self, checks) -> float:
        """Median ms (nan without samples); counts one check that every
        forward ran and gave finite, repeatable outputs."""
        ok = (self.error is None and self.first is not None and self.same
              and bool(np.isfinite(self.first).all()))
        checks.add("eval forward finite and repeatable", ok, self.error or "")
        return 1e3 * median(self.times)


def verify_captures(wl, mods: dict, inst: Instrument, checks) -> None:
    """Check, then drop, the spectra and backbones captured so far, so that
    memory does not grow with the number of units."""
    for mat, sv in inst.svds:
        a = np.asarray(getattr(mat, "data", mat), dtype=np.float64)
        want = np.linalg.svd(a, compute_uv=False)
        err = float(np.max(np.abs(np.asarray(sv) - want))) / max(1.0, float(want[0]))
        checks.add("spectrum matches np.linalg.svd", err <= 1e-10,
                   f"{a.shape}: {err:.2e}")
    fresh = {}
    for backbone in inst.backbones:
        key = json.dumps(backbone.cfg.to_dict(), sort_keys=True)
        if key not in fresh:
            fresh[key] = mods["model"].build_model(
                backbone.cfg, wl.bundle.backbone_seed).checksum()
        checks.add("frozen backbone checksum unchanged", backbone.checksum() == fresh[key])
    inst.svds.clear()
    inst.backbones.clear()


def verify_outputs(wl, outputs: list, checks) -> dict:
    """Checks on the outputs of all units."""
    checks.add("units give identical outputs", all(o == outputs[0] for o in outputs))
    detail = {}
    if wl.size == "full":
        wl.check_quality(outputs[0], checks)
        if wl.seed == W.DEFAULT_SEED:
            exact, total = W.check_reference(wl.name, outputs[0], checks)
            detail["reference_exact_matches"] = f"{exact}/{total}"
    return detail


def median(values) -> float:
    """Median, or nan when a failure left no samples."""
    return statistics.median(values) if len(values) else math.nan


def ratio(a: float, b: float) -> float:
    return a / b if b else math.nan


def end_to_end(inst: Instrument, setups, walls, eval_ms) -> tuple[dict, dict]:
    steps = inst.steps
    runs = inst.durations(RUN_ROOTS, "timed")
    train_s = sum(seconds for seconds, _ in inst.trained)
    tokens = sum(tokens for _, tokens in inst.trained)
    values = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "run_s_p50": median(runs),
        "step_ms_p50": 1e3 * float(np.percentile(steps, 50)) if len(steps) else math.nan,
        "step_ms_p95": 1e3 * float(np.percentile(steps, 95)) if len(steps) else math.nan,
        "train_tokens_per_s": ratio(tokens, train_s),
        "eval_ms_p50": eval_ms,
        "spectral_s_per_run": ratio(inst.spectral_seconds("timed"), len(runs)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setups": len(setups), "units": len(walls), "runs": len(runs),
               "steps": len(steps), "trained_runs": len(inst.trained)}
    return values, samples


def layer_table(inst: Instrument, overhead_s: float) -> dict:
    """Every per-layer figure of a traced session, by metric name."""
    st, ct = inst.stats, inst.counts

    def get(name, i):
        return st[name][i] if name in st else 0

    t = {}
    for op in TABLE_OPS:
        t[f"tensor.{op}.calls"] = get(f"tensor.{op}", 0)
        t[f"tensor.{op}.fwd_s"] = get(f"tensor.{op}", 1)
        t[f"tensor.{op}.bwd_s"] = get(f"tensor.{op}.bwd", 1)
    backwards = get("tensor.backward", 0)
    t["tensor.backward.s"] = get("tensor.backward", 1)
    t["tensor.backward.calls"] = backwards
    t["tensor.backward.nodes"] = ct["tensor.backward.nodes"] / backwards if backwards else 0.0
    attempted = ct["tensor.grad_products.attempted"]
    t["tensor.grad_products.useful_frac"] = (
        ct["tensor.grad_products.useful"] / attempted if attempted else 0.0)
    t["tensor.linear.flops"] = ct["tensor.linear.flops"]
    for name, with_calls in TABLE_CALLS:
        prefix = name.replace("adapters.Adapter.", "adapters.")
        t[f"{prefix}.s"] = get(name, 1)
        if with_calls:
            t[f"{prefix}.calls"] = get(name, 0)
    for i, phase in enumerate(("forward", "backward", "optimizer")):
        t[f"trainer.step.{phase}_ms_p50"] = 1e3 * median([p[i] for p in inst.phases])
    t["experiments.cache_hits"] = ct["experiments.cache_hits"]
    for m in MODULES:
        t[f"{m}.self_s"] = sum(v[2] for k, v in st.items() if k.startswith(m + "."))
    t["trace.overhead_s"] = overhead_s
    return t


def layer_unit(name: str) -> str:
    if name.endswith("_ms_p50"):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".flops"):
        return "flop"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def stamp(name: str, seed: int, wl) -> dict:
    """Where and on what a result was measured."""
    src = ROOT / "src" / "ceralab"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": name, "seed": seed, "size": wl.describe(),
            "git_commit": git_commit(), "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
        tamper=None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detail)."""
    work = OUT / f"work-{name}-{os.getpid()}"
    wl = W.WORKLOADS[name](size, seed, work)
    checks = W.Checks()
    try:
        if trace:
            metrics, detail = _traced(wl, checks, tamper)
        else:
            metrics, detail = _untraced(wl, seconds, checks, tamper)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail = {"stamp": stamp(name, seed, wl), **detail,
              "failed_frac": checks.failed / checks.attempted,
              "failed_checks": [(n, d) for n, ok, d in checks.items if not ok]}
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    return result, detail


def _untraced(wl, seconds, checks, tamper):
    inst = Instrument("probe")
    probe = EvalProbe(wl)
    mods, setups, walls, outputs = session(wl, inst, seconds, wl.dims["setup_reps"],
                                           checks, tamper, probe.sample)
    eval_ms = probe.check(checks)
    detail = verify_outputs(wl, outputs, checks)
    values, samples = end_to_end(inst, setups, walls, eval_ms)
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return metrics, {**detail, "samples": samples, "setups_s": setups,
                     "walls_s": walls, "outputs": outputs[0]}


def _traced(wl, checks, tamper):
    plain = Instrument("probe")
    _, _, walls0, out0 = session(wl, plain, 0, 1, checks, tamper)
    verify_outputs(wl, out0, checks)
    inst = Instrument("trace")
    _, _, walls1, out1 = session(wl, inst, 0, 1, checks, tamper)
    detail = verify_outputs(wl, out1, checks)
    checks.add("traced outputs equal untraced outputs", out1 == out0)
    table = layer_table(inst, walls1[0] - walls0[0])
    metrics = {k: {"value": table[k], "unit": layer_unit(k)} for k in EMITTED_LAYER}
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{wl.name}.jsonl"
    with open(spans, "w") as fh:
        fh.write(json.dumps({"seed": wl.seed, "table": table}) + "\n")
        for phase, rows in inst.spans.items():
            for row in rows:
                fh.write(json.dumps([phase, *row]) + "\n")
    return metrics, {**detail, "table": table, "untraced_wall_s": walls0[0],
                     "traced_wall_s": walls1[0], "spans_file": str(spans.relative_to(ROOT)),
                     "outputs": out1[0]}
