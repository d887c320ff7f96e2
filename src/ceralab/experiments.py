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
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .adapters import Adapter, AdapterConfig, AdapterState, param_count
from .errors import ConfigError
from .model import (FrozenBackbone, ModelConfig, adapter_shape, build_model,
                    collect_latents, forward, inject)
from .plotting import AxesSpec, Series, emit_plot
from .spectral import (SpectralReport, activation_spectrum, auc90,
                       delta_w_linear, effective_rank, energy_curve, svd_values)
from .tasks import (Dataset, detect_state_collapse, linear_floor,
                    logistic_map_table, make_teacher_task, nonlinear_teacher,
                    trajectory_sequences)
from .tensor import Tensor, RngState
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
class MethodSpec:
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

    def adapter_config(self, r: int) -> AdapterConfig:
        return AdapterConfig(
            kind=self.kind, r=r, alpha=self.alpha, scale_s=self.scale_s,
            activation=self.activation, dropout_p=self.dropout_p,
            dropout_style=self.dropout_style,
            targets=self.targets if self.kind != "parallel_module" else ("Wq", "Wv"),
            init_gain=self.init_gain)

    def injection_targets(self) -> tuple[str, ...]:
        if self.kind == "parallel_module":
            return ("attn_block",)
        return self.targets

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["targets"] = list(self.targets)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "MethodSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown method keys {sorted(unknown)}")
        return cls(**d)


@dataclass
class ExperimentConfig:
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
        if self.spectral_source not in SPECTRAL_SOURCES:
            raise ConfigError(f"unknown spectral_source {self.spectral_source!r}")
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise ConfigError("method names must be unique")

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "task_id": self.task_id,
            "methods": [m.to_dict() for m in self.methods],
            "ranks": list(self.ranks),
            "seeds": list(self.seeds),
            "model": self.model.to_dict(),
            "train": self.train.to_dict(),
            "outputs_dir": self.outputs_dir,
            "spectral_source": self.spectral_source,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        expected = {"schema_version", "task_id", "methods", "ranks", "seeds",
                    "model", "train", "outputs_dir", "spectral_source"}
        unknown = set(d) - expected
        if unknown:
            raise ConfigError(f"unknown experiment config keys {sorted(unknown)}")
        missing = expected - set(d) - {"spectral_source", "schema_version"}
        if missing:
            raise ConfigError(f"missing experiment config keys {sorted(missing)}")
        return cls(
            task_id=d["task_id"],
            methods=[MethodSpec.from_dict(m) for m in d["methods"]],
            ranks=list(d["ranks"]),
            seeds=list(d["seeds"]),
            model=ModelConfig.from_dict(d["model"]),
            train=TrainConfig.from_dict(d["train"]),
            outputs_dir=d["outputs_dir"],
            spectral_source=d.get("spectral_source", "latent_H"),
            schema_version=d.get("schema_version", SCHEMA_VERSION),
        )

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))


@dataclass
class ResultRecord:
    run_id: str
    method: str
    rank: int
    seed: int
    trainable_params: int
    test_metric: float
    effective_rank: float
    auc90: int
    tokens_per_second: float
    wallclock_seconds: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in RESULT_COLUMNS}

    @classmethod
    def from_dict(cls, d: dict) -> "ResultRecord":
        return cls(**{k: d[k] for k in RESULT_COLUMNS})


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

        def frozen(x):
            return forward(backbone, Tensor(x), mode="eval").data

        teacher = nonlinear_teacher(data_seed, model.d_model, model.vocab_size,
                                    hidden=32, preact_scale=1.5)
        task = make_teacher_task(frozen, teacher, model.d_model, n_train=512,
                                 n_test=512, seed=data_seed,
                                 residual_share=0.25)
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
    train = dict(cfg.train.to_dict())
    train["seed"] = seed
    return {
        "schema_version": cfg.schema_version,
        "task_id": cfg.task_id,
        "method": method.to_dict(),
        "rank": rank,
        "seed": seed,
        "model": cfg.model.to_dict(),
        "train": train,
        "spectral_source": cfg.spectral_source,
    }


def _inject_method(backbone: FrozenBackbone, method: MethodSpec, rank: int,
                   seed: int) -> list[Adapter]:
    adapters = []
    rng = RngState(seed, 9)
    for layer in range(backbone.cfg.n_layers):
        for i, target in enumerate(method.injection_targets()):
            acfg = method.adapter_config(rank)
            adapter = Adapter.init(acfg, *adapter_shape(backbone.cfg, target),
                                   rng.child(layer * 8 + i))
            inject(backbone, layer, target, adapter)
            adapters.append(adapter)
    return adapters


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
        return activation_spectrum(mat.data, source_label=source)
    spectra, ers, aucs = [], [], []
    for adapter in backbone.adapters.values():
        cfg = adapter.cfg
        if not cfg.is_linear:
            raise ConfigError(
                "delta_w spectra need a linear adapter; use latent_H or "
                "output_delta_D for gated kinds")
        dw = delta_w_linear(adapter.state.w_up, adapter.state.w_down,
                            cfg.resolved_scale)
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


def _build_run(run_config: dict) -> tuple[MethodSpec, TaskBundle,
                                            FrozenBackbone, list[Adapter]]:
    """A run's method, task bundle, and backbone with its freshly
    initialized adapters injected, as the run starts training."""
    method = MethodSpec.from_dict(run_config["method"])
    model = ModelConfig.from_dict(run_config["model"])
    bundle = build_task_bundle(run_config["task_id"], model)
    backbone = build_model(model, bundle.backbone_seed)
    adapters = _inject_method(backbone, method, run_config["rank"],
                              run_config["seed"])
    return method, bundle, backbone, adapters


def run_from_config(run_config: dict) -> tuple[dict, dict, dict]:
    """Execute one run; returns (record, adapter bundles, train report) dicts."""
    train_cfg = TrainConfig.from_dict(run_config["train"])
    method, bundle, backbone, adapters = _build_run(run_config)
    report = train_adapter(backbone, adapters, bundle.train, bundle.test,
                           train_cfg)
    spectrum = spectral_report(backbone, bundle.test.inputs,
                               run_config["spectral_source"])
    record = ResultRecord(
        run_id=run_id_of(run_config),
        method=method.name,
        rank=run_config["rank"],
        seed=run_config["seed"],
        trainable_params=backbone.trainable_param_count(),
        test_metric=report.test_metric,
        effective_rank=spectrum.effective_rank,
        auc90=spectrum.auc90_index,
        tokens_per_second=report.tokens_per_second,
        wallclock_seconds=report.wallclock_seconds,
    )
    bundles = {f"{layer}:{target}": adapter.state.to_bundle()
               for (layer, target), adapter in sorted(backbone.adapters.items())}
    report_dict = {"loss_curve": report.loss_curve,
                   "final_train_loss": report.final_train_loss,
                   "test_metric": report.test_metric}
    return record.to_dict(), bundles, report_dict


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
        """The stored record file, or None if it is missing or unreadable;
        an unreadable one is logged before it is treated as missing."""
        path = self.record_path(run_id)
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except (json.JSONDecodeError, OSError) as exc:
            self.log(f"corrupt record {run_id} treated as missing: {exc}")
            return None

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


def _execute_grid(cfg: ExperimentConfig, grid: list[tuple[MethodSpec, int, int]],
                  store: RunStore, jobs: int = 1) -> GridOutcome:
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
    if jobs <= 1 or len(pending) <= 1:
        for rid, run_config in pending:
            try:
                finish(rid, run_config, result=run_from_config(run_config))
            except Exception as exc:
                finish(rid, run_config, error=f"{exc}\n{traceback.format_exc()}")
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(run_from_config, rc): (rid, rc)
                       for rid, rc in pending}
            for fut in concurrent.futures.as_completed(futures):
                rid, rc = futures[fut]
                try:
                    finish(rid, rc, result=fut.result())
                except Exception as exc:
                    finish(rid, rc, error=f"{exc}\n{traceback.format_exc()}")
    return outcome


def _write_failures(store: RunStore, failures: list[dict]) -> None:
    """failures.json lists this grid's failed runs; a clean grid removes
    the copy an earlier one left."""
    path = store.root / "failures.json"
    if failures:
        _atomic_write_json(path, failures)
    else:
        path.unlink(missing_ok=True)


def _metric_label(cfg: ExperimentConfig) -> str:
    return "test MSE" if cfg.model.mode == "regressor" else "test PPL"


def _mean_by(records: list[dict], method: str, rank: int, key: str) -> tuple[float, float, float]:
    vals = [r[key] for r in records if r["method"] == method and r["rank"] == rank]
    return float(np.mean(vals)), float(np.min(vals)), float(np.max(vals))


def _rank_series(cfg: ExperimentConfig, records: list[dict], key: str) -> list[Series]:
    series = []
    for method in cfg.methods:
        xs, ys, lo, hi = [], [], [], []
        for rank in sorted(cfg.ranks):
            sub = [r for r in records if r["method"] == method.name and r["rank"] == rank]
            if not sub:
                continue
            mean, mn, mx = _mean_by(records, method.name, rank, key)
            xs.append(rank)
            ys.append(mean)
            lo.append(mn)
            hi.append(mx)
        if xs:
            series.append(Series(label=method.name, xs=xs, ys=ys, y_lo=lo, y_hi=hi))
    return series


def cmd_sweep(cfg: ExperimentConfig, jobs: int = 1) -> GridOutcome:
    """Run the full grid; emit results.csv, per-run records, and plots."""
    store = RunStore(cfg.outputs_dir)
    bundle = build_task_bundle(cfg.task_id, cfg.model)  # validates early
    grid = [(m, r, s) for m in cfg.methods for r in sorted(cfg.ranks)
            for s in sorted(cfg.seeds)]
    store.log(f"sweep start: {len(grid)} runs over {cfg.task_id}")
    outcome = _execute_grid(cfg, grid, store, jobs)
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
    _write_failures(store, outcome.failures)
    store.log(f"sweep done: {len(outcome.records)} records, "
              f"{len(outcome.failures)} failures")
    return outcome


ABLATION_VARIANTS = ("cera_full", "no_dropout", "relu", "identity", "module_level")


def ablation_methods(base: MethodSpec) -> list[MethodSpec]:
    """The five Table-style variants derived from a full gated adapter."""
    if base.kind != "cera":
        raise ConfigError("the ablation derives its variants from a cera method")
    core = base.to_dict()

    def variant(name, **overrides):
        d = dict(core)
        d.update(name=name, **overrides)
        return MethodSpec.from_dict(d)

    return [
        variant("cera_full"),
        variant("no_dropout", dropout_p=0.0),
        variant("relu", activation="relu"),
        variant("identity", activation="identity"),
        variant("module_level", kind="parallel_module"),
    ]


def cmd_ablate(cfg: ExperimentConfig, jobs: int = 1) -> GridOutcome:
    """Run the five-variant grid at one fixed rank; emit a ranked table."""
    if len(cfg.ranks) != 1:
        raise ConfigError("the ablation runs at exactly one rank")
    store = RunStore(cfg.outputs_dir)
    build_task_bundle(cfg.task_id, cfg.model)
    variants = ablation_methods(cfg.methods[0])
    cfg_vars = ExperimentConfig(
        task_id=cfg.task_id, methods=variants, ranks=cfg.ranks, seeds=cfg.seeds,
        model=cfg.model, train=cfg.train, outputs_dir=cfg.outputs_dir,
        spectral_source=cfg.spectral_source)
    grid = [(m, cfg.ranks[0], s) for m in variants for s in sorted(cfg.seeds)]
    store.log(f"ablation start: {len(grid)} runs at rank {cfg.ranks[0]}")
    outcome = _execute_grid(cfg_vars, grid, store, jobs)
    write_results_csv(outcome.records, store.root / "ablation.csv")
    ranked = ablation_table(outcome.records, cfg.ranks[0])
    _atomic_write_json(store.root / "ablation_table.json", ranked)
    _write_failures(store, outcome.failures)
    store.log(f"ablation done: {len(outcome.records)} records, "
              f"{len(outcome.failures)} failures")
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
    """Recompute the spectrum of one stored run and emit JSON + SVGs."""
    store = RunStore(cfg.outputs_dir)
    source = source or cfg.spectral_source
    if source not in SPECTRAL_SOURCES:
        raise ConfigError(f"unknown spectral source {source!r}")
    stored = store.load_record(run_id)
    if stored is None:
        raise ConfigError(f"no record for run_id {run_id!r} in {store.records_dir}")
    run_config = stored["run_config"]
    bundles = json.loads(store.adapters_path(run_id).read_text())
    method, task, backbone, _ = _build_run(run_config)
    for (layer, target), adapter in sorted(backbone.adapters.items()):
        state = AdapterState.from_bundle(bundles[f"{layer}:{target}"])
        adapter.state.w_up.data[:] = state.w_up.data
        adapter.state.w_down.data[:] = state.w_down.data

    report = spectral_report(backbone, task.test.inputs, source)

    out_json = store.root / f"spectral_{run_id}_{source}.json"
    _atomic_write_bytes(out_json, report.to_json().encode())
    sv = [v for v in report.singular_values]
    if any(v > 0 for v in sv):
        emit_plot([Series(label=f"{method.name} r={run_config['rank']}",
                          xs=list(range(1, len(sv) + 1)), ys=sv)],
                  AxesSpec(title=f"singular spectrum ({source})",
                           xlabel="component index",
                           ylabel="singular value (log)", yscale="log"),
                  store.plots_dir / f"spectrum_{run_id}_{source}.svg")
    records = [r["record"] for r in store.all_records()]
    methods = sorted({r["method"] for r in records})
    er_series = []
    for name in methods:
        pts = {}
        for r in records:
            if r["method"] == name:
                pts.setdefault(r["rank"], []).append(r["effective_rank"])
        if pts:
            xs = sorted(pts)
            er_series.append(Series(label=name, xs=xs,
                                    ys=[float(np.mean(pts[x])) for x in xs]))
    if er_series:
        emit_plot(er_series, AxesSpec(title="effective rank vs rank",
                                      xlabel="adapter rank (log)",
                                      ylabel="effective rank", xscale="log"),
                  store.plots_dir / "er_vs_rank.svg")
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
