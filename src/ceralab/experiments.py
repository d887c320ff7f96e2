"""Experiment grids: (method x rank x seed) training runs with cached,
atomically-written result records and deterministic CSV/plot emission.

Idempotence works through the run id (a hash of the full run config):
a completed record is never recomputed, so re-running a sweep over the same
outputs directory reproduces results.csv byte for byte, timing columns
included. Timestamps only ever go to the sidecar run.log.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
import time
import traceback
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .adapters import Adapter, AdapterConfig, AdapterState, param_count
from .errors import ConfigError, DictConfig, read_json
from .model import (REGRESSOR_TARGETS, FrozenBackbone, ModelConfig,
                    adapter_shape, build_model, collect_latents, inject,
                    regressor_frozen)
from .plotting import AxesSpec, Series, emit_plot
from .spectral import (SpectralReport, activation_spectrum, auc90,
                       delta_w_linear, effective_rank, energy_curve, svd_values)
from .tasks import (Dataset, detect_state_collapse, linear_floor,
                    logistic_map_table, make_teacher_task, nonlinear_teacher,
                    trajectory_sequences)
from .tensor import RngState
from .trainer import TrainConfig, train_adapter
from . import tasks as tasks_mod

SCHEMA_VERSION = 1
# Bumped by every change that moves any result bit (op order, summation
# order, a different SVD). Record files carry it; a cached record made
# under another version is recomputed, never reused.
NUMERICS_VERSION = 3
RESULT_COLUMNS = ("run_id", "method", "rank", "seed", "trainable_params",
                  "test_metric", "effective_rank", "auc90",
                  "tokens_per_second", "wallclock_seconds")
SPECTRAL_SOURCES = ("latent_H", "output_delta_D", "delta_w")

PARAM_PRESETS = {
    "llama3-8b": [("Wq", 4096, 4096, 32), ("Wv", 1024, 4096, 32)],
    "desk": [("Wq", 64, 64, 2), ("Wv", 32, 64, 2)],
}


def stable_seed(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:4], "big")


@dataclass
class MethodSpec(DictConfig):
    """An adapter family to sweep; the rank comes from the grid."""

    name: str
    kind: str
    alpha: float | None = None
    scale_s: float | None = None
    activation: str | None = None
    dropout_p: float | None = None
    dropout_style: str = "elementwise"
    targets: tuple[str, ...] = ("Wv",)
    init_gain: float = 1.0

    def __post_init__(self):
        self.targets = tuple(self.targets)
        self.adapter_config(1)  # validate eagerly
        if len(set(self.targets)) != len(self.targets):
            raise ConfigError(f"targets must be unique, got {list(self.targets)}")
        if self.kind != "parallel_module":
            if not self.targets:
                raise ConfigError("weight-level adapters need at least one target")
            unknown = set(self.targets) - {"Wq", "Wv"}
            if unknown:
                raise ConfigError(f"unknown targets {sorted(unknown)}")

    def adapter_config(self, r: int) -> AdapterConfig:
        return AdapterConfig(
            kind=self.kind, r=r, alpha=self.alpha, scale_s=self.scale_s,
            activation=self.activation, dropout_p=self.dropout_p,
            dropout_style=self.dropout_style, init_gain=self.init_gain)

    def injection_targets(self) -> tuple[str, ...]:
        if self.kind == "parallel_module":
            return ("attn_block",)
        return self.targets


@dataclass
class ExperimentConfig(DictConfig):
    task_id: str
    methods: list[MethodSpec]
    ranks: list[int]
    seeds: list[int]
    model: ModelConfig
    train: TrainConfig
    outputs_dir: str
    spectral_source: str = "latent_H"
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {self.schema_version}")
        if not self.methods or not self.ranks or not self.seeds:
            raise ConfigError("methods, ranks, and seeds must be non-empty")
        if any(r < 1 for r in self.ranks):
            raise ConfigError("ranks must be >= 1")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds must be >= 0")
        if self.train.seed != 0:
            raise ConfigError(
                f"train.seed is {self.train.seed}, but every run takes its seed from "
                f"`seeds`; list the run seeds there and leave train.seed at 0")
        if self.spectral_source not in SPECTRAL_SOURCES:
            raise ConfigError(f"unknown spectral_source {self.spectral_source!r}")
        for what, values in (("method names", [m.name for m in self.methods]),
                             ("ranks", self.ranks), ("seeds", self.seeds)):
            if len(set(values)) != len(values):
                raise ConfigError(f"{what} must be unique, got {values}")
        if self.spectral_source == "output_delta_D":
            for m in self.methods:
                widths = {adapter_shape(self.model, t)[0] for t in m.injection_targets()}
                if len(widths) != 1:
                    raise ConfigError(
                        f"output_delta_D stacks one output width, but method "
                        f"{m.name!r} has widths {sorted(widths)}")
        if self.spectral_source == "delta_w":
            gated = [m.name for m in self.methods if not m.adapter_config(1).is_linear]
            if gated:
                raise ConfigError(f"delta_w spectra need linear adapters, but "
                                  f"{gated} are not; use latent_H or output_delta_D")
        if self.model.mode == "regressor":
            unread = {target for m in self.methods
                      for target in m.injection_targets()} - set(REGRESSOR_TARGETS)
            if unread:
                raise ConfigError(f"a regressor never reads adapters at {sorted(unread)}")

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_json(path))


# ---------------------------------------------------------------------------
# task registry


@dataclass
class TaskBundle:
    train: Dataset
    test: Dataset
    backbone_seed: int
    floor: float | None = None   # linear floor; teacher task only


def build_task_bundle(task_id: str, model: ModelConfig) -> TaskBundle:
    data_seed = stable_seed(task_id + ":data")
    bb_seed = stable_seed(task_id + ":backbone")
    if task_id == "nonlinear_teacher":
        if model.mode != "regressor":
            raise ConfigError("nonlinear_teacher needs a regressor-mode model")
        backbone = build_model(model, bb_seed)
        teacher = nonlinear_teacher(data_seed, model.d_model, model.vocab_size,
                                    hidden=32, preact_scale=1.5)
        task = make_teacher_task(partial(regressor_frozen, backbone), teacher,
                                 model.d_model, n_train=512, n_test=512,
                                 seed=data_seed, residual_share=0.25)
        return TaskBundle(train=task.train, test=task.test,
                          backbone_seed=bb_seed, floor=linear_floor(task))
    if task_id == "logistic_trajectories":
        if model.mode != "language_model":
            raise ConfigError("logistic_trajectories needs a language model")
        if model.vocab_size < tasks_mod.VOCAB_SIZE:
            raise ConfigError(f"vocab_size must cover the {tasks_mod.VOCAB_SIZE}-token codebook")
        n_steps = 8
        seq_len = 7 * (n_steps + 1) - 1
        if model.max_seq_len < seq_len - 1:
            raise ConfigError(f"max_seq_len must be >= {seq_len - 1}")
        train, test = trajectory_sequences(n_steps=n_steps, count=64,
                                           seed=data_seed)
        return TaskBundle(train=train, test=test, backbone_seed=bb_seed)
    raise ConfigError(f"unknown task_id {task_id!r}")


# ---------------------------------------------------------------------------
# single runs


def run_id_of(run_config: dict) -> str:
    canonical = json.dumps(run_config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def make_run_config(cfg: ExperimentConfig, method: MethodSpec, rank: int,
                    seed: int) -> dict:
    return {
        "schema_version": cfg.schema_version,
        "task_id": cfg.task_id,
        "method": method.to_dict(),
        "rank": rank,
        "seed": seed,
        "model": cfg.model.to_dict(),
        "train": dict(cfg.train.to_dict(), seed=seed),
        "spectral_source": cfg.spectral_source,
    }


def _inject_method(backbone: FrozenBackbone, method: MethodSpec, rank: int,
                   seed: int, bundles: dict | None) -> None:
    """Inject the method's adapters, layer by layer: freshly initialized,
    or, given a run's stored `bundles`, holding the states stored there.
    A missing bundle, or one that does not fit its target, raises
    ConfigError."""
    rng = RngState(seed, 9)
    for layer in range(backbone.cfg.n_layers):
        for i, target in enumerate(method.injection_targets()):
            acfg = method.adapter_config(rank)
            key = f"{layer}:{target}"
            if bundles is None:
                adapter = Adapter.init(acfg, *adapter_shape(backbone.cfg, target),
                                       rng.child(layer * 8 + i))
            elif key in bundles:
                adapter = Adapter(acfg, AdapterState.from_bundle(bundles[key]))
            else:
                raise ConfigError(f"the stored adapters hold no {key!r} entry")
            inject(backbone, layer, target, adapter)


def spectral_report(backbone: FrozenBackbone, inputs, source: str) -> SpectralReport:
    """The spectrum a run is scored by: the sweep records its effective rank
    and AUC-90, and `cmd_spectral` reports it.

    `latent_H` and `output_delta_D` analyse every adapter's activations over
    `inputs`, stacked. `delta_w` analyses each adapter's materialized update
    on its own; the report holds the mean of their effective ranks, the
    mean of their AUC-90 indices (rounded), and their mean spectrum (shorter
    spectra padded with zeros) with its energy curve.
    """
    if source != "delta_w":
        mat = collect_latents(backbone, inputs, source)
        return activation_spectrum(mat, source_label=source)
    spectra, ers, aucs = [], [], []
    for adapter in backbone.adapters.values():
        cfg = adapter.cfg
        if not cfg.is_linear:
            raise ConfigError(
                "delta_w spectra need a linear adapter; use latent_H or "
                "output_delta_D for gated kinds")
        dw = delta_w_linear(adapter.state.w_up, adapter.state.w_down,
                            cfg.scale_s)
        sv = svd_values(dw)
        spectra.append(sv)
        ers.append(effective_rank(sv))
        aucs.append(auc90(sv) if sv.sum() > 0 else 0)
    mean_sv = np.zeros(max(sv.size for sv in spectra))
    for sv in spectra:
        mean_sv[:sv.size] += sv
    mean_sv /= len(spectra)
    return SpectralReport(
        source_label=source,
        singular_values=mean_sv.tolist(),
        effective_rank=float(np.mean(ers)),
        auc90_index=int(round(np.mean(aucs))),
        energy_curve=energy_curve(mean_sv).tolist() if mean_sv.sum() > 0 else [])


def _build_run(run_config: dict, bundles: dict | None = None
               ) -> tuple[MethodSpec, TaskBundle, FrozenBackbone]:
    """A run's method, task bundle, and backbone with its adapters
    injected: freshly initialized, as the run starts training, or holding
    the stored `bundles` of a finished run."""
    method = MethodSpec.from_dict(run_config["method"])
    model = ModelConfig.from_dict(run_config["model"])
    bundle = build_task_bundle(run_config["task_id"], model)
    backbone = build_model(model, bundle.backbone_seed)
    _inject_method(backbone, method, run_config["rank"], run_config["seed"], bundles)
    return method, bundle, backbone


def run_from_config(run_config: dict) -> tuple[dict, dict, dict]:
    """Execute one run; returns (record, adapter bundles, train report) dicts."""
    train_cfg = TrainConfig.from_dict(run_config["train"])
    method, bundle, backbone = _build_run(run_config)
    report = train_adapter(backbone, bundle.train, bundle.test, train_cfg)
    spectrum = spectral_report(backbone, bundle.test.inputs,
                               run_config["spectral_source"])
    values = (run_id_of(run_config), method.name, run_config["rank"],
              run_config["seed"], backbone.trainable_param_count(),
              report.test_metric, spectrum.effective_rank, spectrum.auc90_index,
              report.tokens_per_second, report.wallclock_seconds)
    record = dict(zip(RESULT_COLUMNS, values, strict=True))
    bundles = {f"{layer}:{target}": adapter.state.to_bundle()
               for (layer, target), adapter in sorted(backbone.adapters.items())}
    report_dict = {"loss_curve": report.loss_curve,
                   "final_train_loss": report.final_train_loss,
                   "test_metric": report.test_metric}
    return record, bundles, report_dict


# ---------------------------------------------------------------------------
# persistence


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _atomic_write_json(path: Path, obj) -> None:
    _atomic_write_bytes(path, json.dumps(obj, indent=1, sort_keys=True).encode())


class RunStore:
    """records/<run_id>.json plus adapter bundles, with a sidecar log."""

    def __init__(self, outputs_dir):
        self.root = Path(outputs_dir)
        self.records_dir = self.root / "records"
        self.plots_dir = self.root / "plots"
        self.records_dir.mkdir(parents=True, exist_ok=True)
        self.plots_dir.mkdir(parents=True, exist_ok=True)

    def log(self, message: str) -> None:
        stamp = time.strftime("%Y-%m-%d %H:%M:%S")
        with open(self.root / "run.log", "a") as fh:
            fh.write(f"[{stamp}] {message}\n")

    def record_path(self, run_id: str) -> Path:
        return self.records_dir / f"{run_id}.json"

    def adapters_path(self, run_id: str) -> Path:
        return self.records_dir / f"{run_id}.adapters.json"

    def load_record(self, run_id: str) -> dict | None:
        """The stored record file, or None if it is missing or corrupt:
        unreadable, or not an object whose `record` is an object holding
        every `RESULT_COLUMNS` key and whose `run_config` is an object. A
        corrupt one is logged before it is treated as missing."""
        path = self.record_path(run_id)
        if not path.exists():
            return None
        try:
            stored = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError) as exc:
            self.log(f"corrupt record {run_id} treated as missing: {exc}")
            return None
        if not (isinstance(stored, dict) and isinstance(stored.get("record"), dict)
                and isinstance(stored.get("run_config"), dict)
                and all(col in stored["record"] for col in RESULT_COLUMNS)):
            self.log(f"corrupt record {run_id} treated as missing: not an object "
                     "holding a whole record and a run_config")
            return None
        return stored

    def save_record(self, run_id: str, record: dict, run_config: dict,
                    bundles: dict, report: dict) -> None:
        _atomic_write_json(self.adapters_path(run_id), bundles)
        _atomic_write_json(self.record_path(run_id),
                           {"record": record, "run_config": run_config,
                            "report": report,
                            "numerics_version": NUMERICS_VERSION})

    def all_records(self) -> list[dict]:
        """Every readable stored record; an unreadable one is logged, as by
        `load_record`, and skipped."""
        stored = [self.load_record(path.stem)
                  for path in sorted(self.records_dir.glob("*.json"))
                  if not path.name.endswith(".adapters.json")]
        return [record for record in stored if record is not None]


def write_results_csv(records: list[dict], path: Path) -> None:
    rows = sorted(records, key=lambda r: (r["method"], r["rank"], r["seed"]))
    lines = [",".join(RESULT_COLUMNS)]
    for r in rows:
        cells = []
        for col in RESULT_COLUMNS:
            v = r[col]
            cells.append(repr(float(v)) if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())


# ---------------------------------------------------------------------------
# grid execution


@dataclass
class GridOutcome:
    records: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.failures else 0


def _execute_grid(cfg: ExperimentConfig, store: RunStore,
                  jobs: int) -> GridOutcome:
    """Run `cfg`'s methods x sorted ranks x sorted seeds on `jobs` processes,
    reusing current cached records; failed runs, with their tracebacks, go to
    run.log and failures.json, which a clean grid removes."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    grid = [(m, r, s) for m in cfg.methods for r in sorted(cfg.ranks)
            for s in sorted(cfg.seeds)]
    store.log(f"grid start: {len(grid)} runs over {cfg.task_id}")
    outcome = GridOutcome()
    pending = []
    for method, rank, seed in grid:
        run_config = make_run_config(cfg, method, rank, seed)
        rid = run_id_of(run_config)
        label = f"{method.name} r={rank} seed={seed}"
        cached = store.load_record(rid)
        if cached is not None:
            version = cached.get("numerics_version")
            if version == NUMERICS_VERSION:
                store.log(f"cache hit {rid} ({label})")
                outcome.records.append(cached["record"])
                continue
            store.log(f"stale record {rid} ({label}): numerics version "
                      f"{version}, current {NUMERICS_VERSION}; recomputing")
        pending.append((rid, run_config))

    def finish(rid, run_config, result=None, error=None):
        method = run_config["method"]["name"]
        label = f"{method} r={run_config['rank']} seed={run_config['seed']}"
        if error is not None:
            store.log(f"FAILED {rid} ({label}): {error}")
            outcome.failures.append({"run_id": rid, "run_config": run_config,
                                     "error": str(error)})
            return
        record, bundles, report = result
        store.save_record(rid, record, run_config, bundles, report)
        store.log(f"completed {rid} ({label}) metric={record['test_metric']:.6g}")
        outcome.records.append(record)

    # crash isolation per run; in a worker's exception the traceback that
    # format_exc prints includes the worker's own, chained as its cause
    if jobs == 1 or len(pending) <= 1:
        for rid, run_config in pending:
            try:
                finish(rid, run_config, result=run_from_config(run_config))
            except Exception as exc:
                finish(rid, run_config, error=f"{exc}\n{traceback.format_exc()}")
    else:
        # a forked pool starts all its workers up front, so ask for no more
        # than there are runs
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(jobs, len(pending))) as pool:
            futures = {pool.submit(run_from_config, rc): (rid, rc)
                       for rid, rc in pending}
            for fut in concurrent.futures.as_completed(futures):
                rid, rc = futures[fut]
                try:
                    finish(rid, rc, result=fut.result())
                except Exception as exc:
                    finish(rid, rc, error=f"{exc}\n{traceback.format_exc()}")
    failures_path = store.root / "failures.json"
    if outcome.failures:
        _atomic_write_json(failures_path, outcome.failures)
    else:
        failures_path.unlink(missing_ok=True)
    store.log(f"grid done: {len(outcome.records)} records, "
              f"{len(outcome.failures)} failures")
    return outcome


def _metric_label(cfg: ExperimentConfig) -> str:
    return "test MSE" if cfg.model.mode == "regressor" else "test PPL"


def _rank_series(cfg: ExperimentConfig, records: list[dict], key: str) -> list[Series]:
    series = []
    for method in cfg.methods:
        xs, ys, lo, hi = [], [], [], []
        for rank in sorted(cfg.ranks):
            vals = [r[key] for r in records
                    if r["method"] == method.name and r["rank"] == rank]
            if not vals:
                continue
            xs.append(rank)
            ys.append(float(np.mean(vals)))
            lo.append(float(np.min(vals)))
            hi.append(float(np.max(vals)))
        if xs:
            series.append(Series(label=method.name, xs=xs, ys=ys, y_lo=lo, y_hi=hi))
    return series


def cmd_sweep(cfg: ExperimentConfig, jobs: int = 1) -> GridOutcome:
    """Run the full grid; emit results.csv, per-run records, and plots."""
    store = RunStore(cfg.outputs_dir)
    bundle = build_task_bundle(cfg.task_id, cfg.model)  # validates early
    outcome = _execute_grid(cfg, store, jobs)
    write_results_csv(outcome.records, store.root / "results.csv")
    if bundle.floor is not None:
        _atomic_write_json(store.root / "floor.json",
                           {"task_id": cfg.task_id, "linear_floor": bundle.floor})
    series = _rank_series(cfg, outcome.records, "test_metric")
    if bundle.floor is not None and series:
        ranks = sorted(cfg.ranks)
        series.append(Series(label="linear floor", xs=[ranks[0], ranks[-1]],
                             ys=[bundle.floor, bundle.floor]))
    if series:
        emit_plot(series, AxesSpec(title=f"{cfg.task_id}: metric vs rank",
                                   xlabel="adapter rank (log)",
                                   ylabel=_metric_label(cfg), xscale="log"),
                  store.plots_dir / "metric_vs_rank.svg")
    er_series = _rank_series(cfg, outcome.records, "effective_rank")
    if er_series:
        emit_plot(er_series, AxesSpec(title=f"{cfg.task_id}: effective rank vs rank",
                                      xlabel="adapter rank (log)",
                                      ylabel=f"effective rank ({cfg.spectral_source})",
                                      xscale="log"),
                  store.plots_dir / "er_vs_rank.svg")
    return outcome


ABLATION_VARIANTS = ("cera_full", "no_dropout", "relu", "identity", "module_level")


def ablation_methods(base: MethodSpec) -> list[MethodSpec]:
    """The five Table-style variants derived from a full gated adapter."""
    if base.kind != "cera":
        raise ConfigError("the ablation derives its variants from a cera method")
    return [
        replace(base, name="cera_full"),
        replace(base, name="no_dropout", dropout_p=0.0),
        replace(base, name="relu", activation="relu"),
        replace(base, name="identity", activation="identity"),
        replace(base, name="module_level", kind="parallel_module"),
    ]


def cmd_ablate(cfg: ExperimentConfig, jobs: int = 1) -> GridOutcome:
    """Run the five variants of the config's one method at its one rank;
    emit a ranked table."""
    if len(cfg.methods) != 1 or len(cfg.ranks) != 1:
        raise ConfigError(f"the ablation takes exactly one method and one rank, "
                          f"got {len(cfg.methods)} methods and ranks {cfg.ranks}")
    store = RunStore(cfg.outputs_dir)
    build_task_bundle(cfg.task_id, cfg.model)
    variants = replace(cfg, methods=ablation_methods(cfg.methods[0]))
    outcome = _execute_grid(variants, store, jobs)
    write_results_csv(outcome.records, store.root / "ablation.csv")
    ranked = ablation_table(outcome.records, cfg.ranks[0])
    _atomic_write_json(store.root / "ablation_table.json", ranked)
    return outcome


def ablation_table(records: list[dict], rank: int) -> list[dict]:
    rows = []
    for name in ABLATION_VARIANTS:
        vals = [r["test_metric"] for r in records if r["method"] == name]
        if vals:
            rows.append({"variant": name, "rank": rank,
                         "mean_test_metric": float(np.mean(vals)),
                         "seeds": len(vals)})
    rows.sort(key=lambda r: r["mean_test_metric"])
    return rows


# ---------------------------------------------------------------------------
# spectral reporting


def cmd_spectral(cfg: ExperimentConfig, run_id: str,
                 source: str | None = None) -> SpectralReport:
    """Recompute the spectrum of one stored run and emit its JSON and
    spectrum SVG; the sweep's plots are left as the sweep wrote them."""
    store = RunStore(cfg.outputs_dir)
    source = source or cfg.spectral_source
    if source not in SPECTRAL_SOURCES:
        raise ConfigError(f"unknown spectral source {source!r}")
    stored = store.load_record(run_id)
    if stored is None:
        raise ConfigError(f"no record for run_id {run_id!r} in {store.records_dir}")
    run_config = stored["run_config"]
    bundles = read_json(store.adapters_path(run_id))
    if not isinstance(bundles, dict):
        raise ConfigError(f"{store.adapters_path(run_id)} holds no object of adapter states")
    method, task, backbone = _build_run(run_config, bundles)
    report = spectral_report(backbone, task.test.inputs, source)

    out_json = store.root / f"spectral_{run_id}_{source}.json"
    _atomic_write_bytes(out_json, report.to_json().encode())
    sv = report.singular_values
    if any(v > 0 for v in sv):
        emit_plot([Series(label=f"{method.name} r={run_config['rank']}",
                          xs=list(range(1, len(sv) + 1)), ys=sv)],
                  AxesSpec(title=f"singular spectrum ({source})",
                           xlabel="component index",
                           ylabel="singular value (log)", yscale="log"),
                  store.plots_dir / f"spectrum_{run_id}_{source}.svg")
    return report


# ---------------------------------------------------------------------------
# parameter audit and the logistic case study


def cmd_params(preset: str, ranks: list[int]) -> list[dict]:
    """r(d+k)-based trainable-parameter audit per rank and method."""
    if preset not in PARAM_PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; have {sorted(PARAM_PRESETS)}")
    geometry = [(d, k, mult) for _, d, k, mult in PARAM_PRESETS[preset]]
    rows = []
    for rank in ranks:
        for kind in ("lora", "cera"):
            cfg = AdapterConfig(kind=kind, r=rank)
            rows.append({"preset": preset, "method": kind, "rank": rank,
                         "params": param_count(cfg, geometry)})
    return rows


def format_params_table(rows: list[dict]) -> str:
    lines = [f"{'preset':>10} {'method':>8} {'rank':>6} {'params':>14}"]
    for r in rows:
        lines.append(f"{r['preset']:>10} {r['method']:>8} {r['rank']:>6} "
                     f"{r['params']:>14,}")
    return "\n".join(lines)


def cmd_logistic(r: float, x0: float, n: int) -> dict:
    """Ground-truth trajectory at table precision plus collapse diagnosis."""
    traj = logistic_map_table(r, x0, n)
    collapsed, value = detect_state_collapse(traj)
    return {
        "r": r, "x0": x0, "n": n,
        "trajectory": [format(v, ".4f") for v in traj],
        "collapsed": collapsed,
        "repeated_value": None if value is None else format(value, ".4f"),
    }


def format_logistic_report(result: dict) -> str:
    lines = [f"logistic map r={result['r']} x0={result['x0']}:"]
    lines.append("  " + " -> ".join(result["trajectory"]))
    if result["collapsed"]:
        lines.append(f"  STATE COLLAPSE: value {result['repeated_value']} "
                     "repeats 3+ consecutive steps")
    else:
        lines.append("  no state collapse (no value repeats 3+ steps)")
    return "\n".join(lines)
