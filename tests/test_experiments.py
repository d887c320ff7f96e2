import concurrent.futures
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ceralab.adapters import Adapter, AdapterConfig, init_adapter, merge_linear
from ceralab.cli import main as cli_main
from ceralab import experiments
from ceralab.errors import ConfigError
from ceralab.experiments import (ABLATION_VARIANTS, NUMERICS_VERSION,
                                 ExperimentConfig, MethodSpec, RunStore,
                                 ablation_methods, build_task_bundle,
                                 cmd_ablate, cmd_logistic, cmd_params,
                                 cmd_spectral, cmd_sweep, make_run_config,
                                 run_from_config, run_id_of, spectral_report,
                                 stable_seed)
from ceralab.model import ModelConfig, adapter_shape, build_model, inject
from ceralab.spectral import svd_values
from ceralab.tensor import stream
from ceralab.trainer import TrainConfig

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SMALL_MODEL = dict(d_model=16, n_heads=2, d_head=8, n_layers=1, vocab_size=4,
                   max_seq_len=8, v_out_dim=16, mode="regressor")


def small_config(outputs_dir, methods=None, ranks=(4,), seeds=(1,), steps=5,
                 **kw) -> ExperimentConfig:
    methods = methods or [MethodSpec(name="cera", kind="cera", targets=("Wv",))]
    return ExperimentConfig(
        task_id="nonlinear_teacher",
        methods=methods,
        ranks=list(ranks),
        seeds=list(seeds),
        model=ModelConfig(**SMALL_MODEL),
        train=TrainConfig(steps=steps, batch_size=8),
        outputs_dir=str(outputs_dir),
        **kw)


def test_config_json_round_trip(tmp_path):
    cfg = small_config(tmp_path / "out", ranks=(4, 8), seeds=(1, 2))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert ExperimentConfig.load(path) == cfg


def test_config_unknown_keys_rejected(tmp_path):
    cfg = small_config(tmp_path / "out")
    d = cfg.to_dict()
    d["surprise"] = True
    with pytest.raises(ConfigError, match="surprise"):
        ExperimentConfig.from_dict(d)
    d2 = cfg.to_dict()
    d2["model"]["d_modell"] = 64
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d2)
    d3 = cfg.to_dict()
    d3["methods"][0]["rankk"] = 3
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d3)
    # a missing required key, a non-object entry and a null nested config
    # are config errors at every level, not TypeErrors
    no_kind, not_object, null_model = (cfg.to_dict() for _ in range(3))
    del no_kind["methods"][0]["kind"]
    not_object["methods"] = [["cera"]]
    null_model["model"] = None
    for bad, match in ((no_kind, "missing MethodSpec keys"),
                       (not_object, "MethodSpec must be a JSON object"),
                       (null_model, "ModelConfig must be a JSON object")):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict(bad)
    # a regressor never reads a Wq adapter, so its config refuses one
    wq = cfg.to_dict()
    wq["methods"][0]["targets"] = ["Wq", "Wv"]
    with pytest.raises(ConfigError, match="never reads"):
        ExperimentConfig.from_dict(wq)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config("out", ranks=())
    with pytest.raises(ConfigError):
        small_config("out", ranks=(0,))
    with pytest.raises(ConfigError):
        small_config("out", spectral_source="sigma")
    with pytest.raises(ConfigError):
        small_config("out", methods=[MethodSpec(name="x", kind="cera"),
                                     MethodSpec(name="x", kind="lora")])
    # results.csv is split on commas and line breaks; a name holding one
    # would shift its row's cells
    for name in ("lo,ra", "lo\nra", "lo\rra"):
        with pytest.raises(ConfigError, match="method name"):
            MethodSpec(name=name, kind="lora")


def test_repeated_or_negative_seeds_and_ranks_are_config_errors():
    # one run id run twice would write two rows to results.csv
    for kw, match in ((dict(ranks=(4, 4)), "ranks must be unique"),
                      (dict(seeds=(1, 2, 1)), "seeds must be unique"),
                      (dict(seeds=(-1,)), "seeds must be >= 0")):
        with pytest.raises(ConfigError, match=match):
            small_config("out", **kw)


def test_output_delta_needs_one_output_width():
    # the shipped trajectory model: Wq is 64 wide and Wv 32
    d = json.loads((CONFIG_DIR / "trajectory_sweep.json").read_text())
    ExperimentConfig.from_dict(d)
    d["spectral_source"] = "output_delta_D"
    with pytest.raises(ConfigError, match="widths"):
        ExperimentConfig.from_dict(d)
    for m in d["methods"]:
        m["targets"] = ["Wv"]
    ExperimentConfig.from_dict(d)


def test_config_values_are_checked_against_their_type_hints():
    base = json.loads(json.dumps(small_config("out").to_dict()))
    for path, value in ((("seeds",), ["1"]), (("methods", 0, "dropout_p"), "0.1"),
                        (("train", "grad_clip"), "1"), (("ranks",), [4.0]),
                        (("train", "steps"), True), (("model", "d_model"), None),
                        (("methods", 0, "targets"), "Wv")):
        d = json.loads(json.dumps(base))
        *parents, key = path
        node = d
        for part in parents:
            node = node[part]
        node[key] = value
        with pytest.raises(ConfigError, match=str(key)):
            ExperimentConfig.from_dict(d)
    # an int is a valid float, None fits an optional field, and a tuple or
    # a JSON array fits a list or tuple field
    d = json.loads(json.dumps(base))
    d["train"].update(lr_max=1, grad_clip=None)
    d["methods"][0]["alpha"] = 2
    d["ranks"] = (4, 8)
    cfg = ExperimentConfig.from_dict(d)
    assert cfg.train.lr_max == 1 and cfg.train.grad_clip is None
    assert cfg.ranks == [4, 8] and cfg.methods[0].targets == ("Wv",)


@pytest.mark.parametrize("config,method,rank,seed,run_id", [
    ("ceiling_sweep.json", "cera", 4, 1, "ed07c47ac0afa165"),
    ("ceiling_sweep.json", "lora", 64, 3, "a9998db03ba67e38"),
    ("trajectory_sweep.json", "cera", 16, 1, "46b4d44cfbdaddeb"),
    ("ablation.json", "module_level", 16, 2, "a6415e001a3a9f87"),
])
def test_shipped_config_run_ids_are_pinned(config, method, rank, seed, run_id):
    # a run id hashes the whole run config, so these pin how shipped configs
    # are read, defaulted and written back, and with them every cached record
    cfg = ExperimentConfig.load(CONFIG_DIR / config)
    methods = ablation_methods(cfg.methods[0]) if config == "ablation.json" \
        else cfg.methods
    spec = next(m for m in methods if m.name == method)
    assert run_id_of(make_run_config(cfg, spec, rank, seed)) == run_id


def test_run_id_stable_under_field_reordering(tmp_path):
    cfg = small_config(tmp_path / "out")
    rc = make_run_config(cfg, cfg.methods[0], 4, 1)
    shuffled = json.loads(json.dumps(dict(reversed(list(rc.items())))))
    assert run_id_of(rc) == run_id_of(shuffled)
    rc2 = make_run_config(cfg, cfg.methods[0], 4, 2)
    assert run_id_of(rc) != run_id_of(rc2)


def test_single_cell_grid_yields_one_record(tmp_path):
    cfg = small_config(tmp_path / "out")
    outcome = cmd_sweep(cfg)
    assert outcome.exit_code == 0
    assert len(outcome.records) == 1
    assert len(list((tmp_path / "out" / "records").glob("*.adapters.json"))) == 1


def test_sweep_rerun_is_idempotent(tmp_path):
    cfg = small_config(tmp_path / "out", ranks=(2, 4), seeds=(1, 2))
    cmd_sweep(cfg)
    csv_path = tmp_path / "out" / "results.csv"
    first = csv_path.read_bytes()
    cmd_sweep(cfg)
    assert csv_path.read_bytes() == first


def test_results_csv_columns_and_order(tmp_path):
    cfg = small_config(tmp_path / "out", ranks=(4, 2), seeds=(2, 1))
    cmd_sweep(cfg)
    lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
    assert lines[0] == ("run_id,method,rank,seed,trainable_params,test_metric,"
                        "effective_rank,auc90,tokens_per_second,wallclock_seconds")
    keys = [(row.split(",")[1], int(row.split(",")[2]), int(row.split(",")[3]))
            for row in lines[1:]]
    assert keys == sorted(keys)


def test_records_carry_numerics_version_and_csv_does_not(tmp_path):
    cfg = small_config(tmp_path / "out")
    rid = cmd_sweep(cfg).records[0]["run_id"]
    stored = json.loads((tmp_path / "out" / "records" / f"{rid}.json").read_text())
    assert stored["numerics_version"] == NUMERICS_VERSION
    assert "numerics" not in (tmp_path / "out" / "results.csv").read_text()


# a record without a version, and one of the first version: both stale
@pytest.mark.parametrize("version", [None, 1])
def test_stale_numerics_version_is_recomputed(tmp_path, version):
    cfg = small_config(tmp_path / "out")
    rid = cmd_sweep(cfg).records[0]["run_id"]
    path = tmp_path / "out" / "records" / f"{rid}.json"
    stored = json.loads(path.read_text())
    want = stored["record"]["test_metric"]
    stored["record"]["test_metric"] = -1.0
    if version is None:
        del stored["numerics_version"]
    else:
        stored["numerics_version"] = version
    path.write_text(json.dumps(stored))
    outcome = cmd_sweep(cfg)
    assert outcome.records[0]["test_metric"] == want
    assert json.loads(path.read_text())["numerics_version"] == NUMERICS_VERSION
    log = (tmp_path / "out" / "run.log").read_text()
    assert f"stale record {rid}" in log and f"numerics version {version}," in log


@pytest.mark.parametrize("corrupt", [
    lambda text: text[:len(text) // 2],             # truncated
    lambda text: "[]",                              # parses, not an object
    lambda text: f'{{"numerics_version": {NUMERICS_VERSION}}}',  # no record
    lambda text: json.dumps(dict(json.loads(text), record=[])),   # record not an object
    lambda text: json.dumps(dict(json.loads(text), record={"test_metric": 1.0})),  # partial
    # a diverged run's metric, written as JSON's Infinity by code that saved
    # such runs
    lambda text: json.dumps(dict(json.loads(text), record=dict(
        json.loads(text)["record"], test_metric=float("inf")))),
    # a run_config or a record of another run id, and a run_config that is
    # no run's (its missing "method" key used to raise in `cmd_spectral`)
    lambda text: json.dumps(dict(json.loads(text), run_config=dict(
        json.loads(text)["run_config"], seed=2))),
    lambda text: json.dumps(dict(json.loads(text), record=dict(
        json.loads(text)["record"], run_id="0" * 16))),
    lambda text: json.dumps(dict(json.loads(text), run_config={
        "task_id": "nonlinear_teacher"})),
], ids=["truncated", "list", "no_record", "record_list", "record_partial",
        "record_inf_metric", "run_config_of_another_id", "record_of_another_id",
        "run_config_partial"])
def test_corrupt_record_is_logged_and_recomputed(tmp_path, corrupt):
    cfg = small_config(tmp_path / "out")
    rid = cmd_sweep(cfg).records[0]["run_id"]
    path = tmp_path / "out" / "records" / f"{rid}.json"
    path.write_text(corrupt(path.read_text()))
    assert RunStore(tmp_path / "out").load_record(rid) is None
    assert f"corrupt record {rid}" in (tmp_path / "out" / "run.log").read_text()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg.to_dict()))
    assert cli_main(["spectral", "--config", str(config), "--run-id", rid]) == 2
    outcome = cmd_sweep(cfg)
    assert outcome.exit_code == 0
    assert json.loads(path.read_text())["record"]["run_id"] == rid


def test_unreadable_record_is_logged_by_all_records(tmp_path):
    cfg = small_config(tmp_path / "out")
    rid = cmd_sweep(cfg).records[0]["run_id"]
    path = tmp_path / "out" / "records" / f"{rid}.json"
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    assert RunStore(tmp_path / "out").all_records() == []
    assert f"corrupt record {rid}" in (tmp_path / "out" / "run.log").read_text()


# test_metric of one short ceiling run (cera, r=8, seed 1, 300 steps) and
# of one short trajectory run (cera, r=8, seed 1, 20 steps), exact, per
# numerics version. A change that moves either must bump NUMERICS_VERSION
# and add the new values here. Version 3 (the batched language model) moved
# only the trajectory value: the regressor path is untouched.
GOLDEN_TEST_METRIC = {1: 0.05447879761535826, 2: 0.054478797615358246,
                      3: 0.054478797615358246}
GOLDEN_TRAJECTORY_METRIC = {3: 11.161914891482919}
# more language-model placements on the trajectory task, each at r=8, seed
# 1 and 20 steps: the method spec and its test metric by numerics version
GOLDEN_TRAJECTORY_PLACEMENTS = {
    "cera-Wq+Wv": (dict(kind="cera", targets=["Wq", "Wv"]), GOLDEN_TRAJECTORY_METRIC),
    "lora-Wq+Wv": (dict(kind="lora", targets=["Wq", "Wv"]), {3: 10.911160037624395}),
    "cera-Wv-channel": (dict(kind="cera", targets=["Wv"], dropout_p=0.3,
                             dropout_style="channel"), {3: 11.660869388024723}),
    "cera-relu": (dict(kind="cera", targets=["Wq", "Wv"], activation="relu"),
                  {3: 11.029911962168045}),
    "parallel_module": (dict(kind="parallel_module"), {3: 8.60288389056641}),
}


def golden_run_metric(config: str, steps: int, method: MethodSpec | None = None) -> float:
    cfg = ExperimentConfig.load(CONFIG_DIR / config)
    cfg.train.steps = steps
    if method is None:
        method = next(m for m in cfg.methods if m.kind == "cera")
    record, _, _ = run_from_config(make_run_config(cfg, method, 8, 1))
    return record["test_metric"]


def test_numerics_version_golden_bits():
    metric = golden_run_metric("ceiling_sweep.json", 300)
    assert metric == GOLDEN_TEST_METRIC[NUMERICS_VERSION]


@pytest.mark.parametrize("placement", sorted(GOLDEN_TRAJECTORY_PLACEMENTS))
def test_trajectory_golden_bits(placement):
    spec, golden = GOLDEN_TRAJECTORY_PLACEMENTS[placement]
    method = MethodSpec(name=placement, **spec)
    metric = golden_run_metric("trajectory_sweep.json", 20, method)
    assert metric == golden[NUMERICS_VERSION]


def test_nonlinear_teacher_floor_is_pinned():
    # the teacher targets are built from the adapter-free regressor output
    cfg = ExperimentConfig.load(CONFIG_DIR / "ceiling_sweep.json")
    assert build_task_bundle(cfg.task_id, cfg.model).floor == 0.05202710531425961


def oversized_grid(outputs_dir):
    """A grid of ranks 4 and 64 for a model whose adapters fit rank 16 at
    most. The config's own check refuses rank 64, so the ranks are set past
    it: the rank-64 run then fails in `init_adapter`, on its own."""
    cfg = small_config(outputs_dir)
    cfg.ranks = [4, 64]
    return cfg


def test_a_config_refuses_a_rank_its_targets_cannot_fit(tmp_path):
    with pytest.raises(ConfigError, match=r"rank 64 exceeds min\(d, k\) = 16 of the Wv"):
        small_config(tmp_path / "out", ranks=(4, 64))
    # Wv is v_out_dim x d_model; a module adapter wraps the d_model x d_model
    # block
    cfg = small_config(tmp_path / "out", ranks=(12,))
    narrow = ModelConfig(**dict(SMALL_MODEL, v_out_dim=8))
    with pytest.raises(ConfigError, match=r"rank 12 exceeds min\(d, k\) = 8 of the Wv"):
        replace(cfg, model=narrow)
    replace(cfg, model=narrow, methods=[MethodSpec(name="module", kind="parallel_module")])


def test_partial_failure_isolation(tmp_path):
    # rank 64 exceeds min(d, k) = 16 for this model: that run must fail alone
    cfg = oversized_grid(tmp_path / "out")
    outcome = cmd_sweep(cfg)
    assert outcome.exit_code == 1
    assert len(outcome.records) == 1
    assert len(outcome.failures) == 1
    assert "rank 64" in outcome.failures[0]["error"]
    assert (tmp_path / "out" / "failures.json").exists()
    csv_text = (tmp_path / "out" / "results.csv").read_text()
    assert len(csv_text.splitlines()) == 2  # header + surviving record


def test_a_parallel_grid_starts_no_more_workers_than_pending_runs(tmp_path, monkeypatch):
    # a forked pool starts all its workers up front; this one records the
    # size asked for and runs each submitted run in this process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    outcome = cmd_sweep(small_config(tmp_path / "two", ranks=(4, 8)), jobs=8)
    assert outcome.exit_code == 0 and len(outcome.records) == 2
    outcome = cmd_sweep(small_config(tmp_path / "three", ranks=(2, 4, 8)), jobs=2)
    assert outcome.exit_code == 0 and len(outcome.records) == 3
    assert sizes == [2, 2]


def test_parallel_failure_keeps_worker_traceback(tmp_path):
    cfg = oversized_grid(tmp_path / "out")
    outcome = cmd_sweep(cfg, jobs=2)
    assert outcome.exit_code == 1 and len(outcome.records) == 1
    error = outcome.failures[0]["error"]
    # the frames of the worker that raised, not just the message
    assert "rank 64" in error and "Traceback" in error
    assert "in run_from_config" in error and "in init_adapter" in error
    saved = json.loads((tmp_path / "out" / "failures.json").read_text())
    assert saved[0]["error"] == error
    assert "in init_adapter" in (tmp_path / "out" / "run.log").read_text()


# the run.log that the first-listed run of `_fail_last_listed_last` reads
GRID_LOG = None


def _fail_last_listed_last(run_config):
    """A stand-in for `run_from_config` that fails every run; the rank-2 run
    fails only once the grid has logged the rank-4 run's failure (or after
    10 s), so it completes last."""
    if run_config["rank"] == 2:
        deadline = time.monotonic() + 10.0
        while ("r=4 seed=1): rank 4 fails" not in GRID_LOG.read_text()
               and time.monotonic() < deadline):
            time.sleep(0.01)
    raise RuntimeError(f"rank {run_config['rank']} fails")


def test_a_parallel_grid_reports_runs_in_grid_order(tmp_path, monkeypatch):
    # forked workers inherit both patches; rank 4's run completes first, and
    # the outcome and failures.json still list rank 2's first
    monkeypatch.setattr(experiments, "run_from_config", _fail_last_listed_last)
    monkeypatch.setitem(globals(), "GRID_LOG", tmp_path / "out" / "run.log")
    outcome = cmd_sweep(small_config(tmp_path / "out", ranks=(4, 2)), jobs=2)
    log = (tmp_path / "out" / "run.log").read_text()
    assert log.index("rank 4 fails") < log.index("rank 2 fails")
    assert [f["run_config"]["rank"] for f in outcome.failures] == [2, 4]
    saved = json.loads((tmp_path / "out" / "failures.json").read_text())
    assert [f["run_id"] for f in saved] == [f["run_id"] for f in outcome.failures]


def test_sweep_failures_file_tracks_the_latest_grid(tmp_path):
    failures = tmp_path / "out" / "failures.json"
    assert cmd_sweep(oversized_grid(tmp_path / "out")).exit_code == 1
    assert "rank 64" in json.loads(failures.read_text())[0]["error"]
    # a clean rerun into the same directory leaves no stale failure behind
    assert cmd_sweep(small_config(tmp_path / "out", ranks=(4,))).exit_code == 0
    assert not failures.exists()


def test_ablation_failures_file_tracks_the_latest_grid(tmp_path):
    failures = tmp_path / "out" / "failures.json"
    # at lr_max 1e300 all five variants leave float range in their first step
    diverging = replace(small_config(tmp_path / "out"),
                        train=TrainConfig(steps=5, batch_size=8, lr_max=1e300))
    assert cmd_ablate(diverging).exit_code == 1
    saved = json.loads(failures.read_text())
    assert len(saved) == 5 and all("in train_adapter" in f["error"] for f in saved)
    assert cmd_ablate(small_config(tmp_path / "out", ranks=(4,))).exit_code == 0
    assert not failures.exists()


def test_sweep_outputs_track_the_latest_grid(tmp_path):
    # the plots and floor.json in an outputs directory are its latest grid's:
    # a grid with no record to plot, or a task without a floor, leaves none
    # of an earlier grid's behind
    out = tmp_path / "out"
    plots = [out / "plots" / name for name in ("metric_vs_rank.svg", "er_vs_rank.svg")]
    assert cmd_sweep(small_config(out, ranks=(2, 4))).exit_code == 0
    assert all(p.exists() for p in plots) and (out / "floor.json").exists()
    failing = small_config(out)
    failing.ranks = [64]  # past the model's rank bound: the run fails
    assert cmd_sweep(failing).exit_code == 1
    assert (out / "results.csv").read_text().count("\n") == 1  # the header
    assert not any(p.exists() for p in plots)
    lm = ExperimentConfig(
        task_id="logistic_trajectories",
        methods=[MethodSpec(name="cera", kind="cera", targets=("Wv",))],
        ranks=[2], seeds=[1],
        model=ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=1,
                          vocab_size=12, max_seq_len=64, v_out_dim=8),
        train=TrainConfig(steps=2, batch_size=2), outputs_dir=str(out))
    assert cmd_sweep(lm).exit_code == 0
    assert all(p.exists() for p in plots) and not (out / "floor.json").exists()


def test_sweep_emits_plots_and_floor(tmp_path):
    cfg = small_config(tmp_path / "out", ranks=(2, 4), seeds=(1,))
    cmd_sweep(cfg)
    assert (tmp_path / "out" / "plots" / "metric_vs_rank.svg").exists()
    assert (tmp_path / "out" / "plots" / "er_vs_rank.svg").exists()
    floor = json.loads((tmp_path / "out" / "floor.json").read_text())
    assert floor["linear_floor"] > 0


def test_ablation_has_exactly_five_variants(tmp_path):
    cfg = small_config(tmp_path / "out", ranks=(4,), seeds=(1,))
    outcome = cmd_ablate(cfg)
    assert outcome.exit_code == 0
    names = {r["method"] for r in outcome.records}
    assert names == set(ABLATION_VARIANTS)
    table = json.loads((tmp_path / "out" / "ablation_table.json").read_text())
    assert len(table) == 5


def test_ablation_requires_cera_base_and_single_rank(tmp_path):
    with pytest.raises(ConfigError):
        ablation_methods(MethodSpec(name="lora", kind="lora"))
    cfg = small_config(tmp_path / "out", ranks=(2, 4))
    with pytest.raises(ConfigError):
        cmd_ablate(cfg)
    # every variant derives from one method: a second one is refused, not
    # dropped
    two = small_config(tmp_path / "out", methods=[
        MethodSpec(name="cera", kind="cera"), MethodSpec(name="lora", kind="lora")])
    with pytest.raises(ConfigError, match="one method"):
        cmd_ablate(two)
    for jobs in (0, -3):
        with pytest.raises(ConfigError, match="jobs"):
            cmd_ablate(small_config(tmp_path / "out"), jobs=jobs)


def test_identity_row_equals_linear_adapter_run(tmp_path):
    # cera with identity activation is the same computation as lora with the
    # same latent dropout: records must agree to numerical identity
    base = MethodSpec(name="idact", kind="cera", targets=("Wv",),
                      activation="identity", dropout_p=0.1)
    lora = MethodSpec(name="lin", kind="lora", targets=("Wv",), dropout_p=0.1)
    cfg_a = small_config(tmp_path / "a", methods=[base], ranks=(4,), seeds=(3,),
                         steps=25)
    cfg_b = small_config(tmp_path / "b", methods=[lora], ranks=(4,), seeds=(3,),
                         steps=25)
    rec_a = cmd_sweep(cfg_a).records[0]
    rec_b = cmd_sweep(cfg_b).records[0]
    assert rec_a["test_metric"] == pytest.approx(rec_b["test_metric"], abs=1e-12)


def test_spectral_command_outputs(tmp_path):
    method = MethodSpec(name="lora", kind="lora", targets=("Wv",))
    cfg = small_config(tmp_path / "out", methods=[method], ranks=(4,),
                       seeds=(1,), steps=30)
    outcome = cmd_sweep(cfg)
    rid = outcome.records[0]["run_id"]
    report = cmd_spectral(cfg, rid, "delta_w")
    sv = np.array(report.singular_values)
    assert np.sum(sv > 1e-12) <= 4
    assert (tmp_path / "out" / f"spectral_{rid}_delta_w.json").exists()
    assert (tmp_path / "out" / "plots" / f"spectrum_{rid}_delta_w.svg").exists()
    report_h = cmd_spectral(cfg, rid, "latent_H")
    assert report_h.effective_rank > 0


def test_spectral_delta_w_report_matches_the_record(tmp_path):
    # four lora adapters (Wq and Wv of two layers): the report and the
    # sweep's record both average over all of them
    cfg = ExperimentConfig(
        task_id="logistic_trajectories",
        methods=[MethodSpec(name="lora", kind="lora", targets=("Wq", "Wv"))],
        ranks=[2], seeds=[1],
        model=ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=2,
                          vocab_size=12, max_seq_len=64, v_out_dim=8),
        train=TrainConfig(steps=3, batch_size=2),
        outputs_dir=str(tmp_path / "out"), spectral_source="delta_w")
    record = cmd_sweep(cfg).records[0]
    report = cmd_spectral(cfg, record["run_id"])
    assert report.effective_rank == record["effective_rank"]
    assert report.auc90_index == record["auc90"]
    assert 1.0 < report.effective_rank <= 2.0
    assert len(report.singular_values) == 16
    assert np.all(np.array(report.singular_values[2:]) < 1e-12)


def test_spectral_delta_w_uses_the_applied_scale():
    # a linear cera adapter applies scale_s * B A, not (alpha / r) * B A
    model = ModelConfig(**SMALL_MODEL)
    backbone = build_model(model, 3)
    cfg = AdapterConfig(kind="cera", r=4, activation="identity", scale_s=2.0)
    rng = stream(4, 0)
    state = init_adapter(cfg, *adapter_shape(model, "Wv"), stream(4, 0, 0))
    state.w_down[:] = rng.normal(size=state.w_down.shape)
    inject(backbone, 0, "Wv", Adapter(cfg, state))
    report = spectral_report(backbone, rng.normal(size=(8, model.d_model)), "delta_w")
    applied = svd_values(merge_linear(0, state, cfg))
    got = np.array(report.singular_values)
    assert np.max(np.abs(got - applied)) <= 1e-12 * applied[0]


def test_spectral_zero_init_run_reports_er_zero(tmp_path):
    # a 0-step run leaves the down-projection at zero: its output deltas are
    # identically zero and the report degrades to the ER=0 convention
    cfg = small_config(tmp_path / "out", steps=0)
    outcome = cmd_sweep(cfg)
    rid = outcome.records[0]["run_id"]
    report = cmd_spectral(cfg, rid, "output_delta_D")
    assert report.effective_rank == 0.0
    assert report.auc90_index == 0


def test_spectral_delta_w_of_a_zero_step_lora_run_is_all_zero(tmp_path):
    # lora's down-projection starts at zero: each adapter's update, and so
    # the mean spectrum, is all-zero, and the report takes the ER=0
    # convention with no energy curve and no spectrum plot
    lora = MethodSpec(name="lora", kind="lora", targets=("Wv",))
    cfg = small_config(tmp_path / "out", methods=[lora], steps=0)
    rid = cmd_sweep(cfg).records[0]["run_id"]
    report = cmd_spectral(cfg, rid, "delta_w")
    assert report.singular_values == [0.0] * 16  # the 16 x 16 update of Wv
    assert report.effective_rank == 0.0
    assert report.auc90_index == 0
    assert report.energy_curve == []
    assert not (tmp_path / "out" / "plots" / f"spectrum_{rid}_delta_w.svg").exists()


def test_spectral_leaves_the_sweep_plots_alone(tmp_path):
    # the sweep is the only writer of its rank plots; a spectral report of
    # one run adds its own files and rewrites none of them
    cfg = small_config(tmp_path / "out", ranks=(2, 4), seeds=(1, 2), steps=3)
    outcome = cmd_sweep(cfg)
    plots = tmp_path / "out" / "plots"
    before = {name: (plots / name).read_bytes()
              for name in ("er_vs_rank.svg", "metric_vs_rank.svg")}
    for source in ("latent_H", "output_delta_D"):
        cmd_spectral(cfg, outcome.records[0]["run_id"], source)
    assert {name: (plots / name).read_bytes() for name in before} == before


def test_spectral_unknown_run_id(tmp_path):
    cfg = small_config(tmp_path / "out")
    cmd_sweep(cfg)
    with pytest.raises(ConfigError):
        cmd_spectral(cfg, "deadbeef00000000")


def test_spectral_delta_w_refuses_gated_adapter(tmp_path):
    cfg = small_config(tmp_path / "out", steps=5)
    outcome = cmd_sweep(cfg)
    with pytest.raises(ConfigError, match="linear"):
        cmd_spectral(cfg, outcome.records[0]["run_id"], "delta_w")


def test_cmd_params_goldens():
    rows = cmd_params("llama3-8b", [512, 64, 128])
    by_key = {(r["method"], r["rank"]): r["params"] for r in rows}
    assert by_key[("lora", 512)] == by_key[("cera", 512)] == 218_103_808
    assert by_key[("lora", 64)] == 27_262_976
    assert by_key[("lora", 128)] == 54_525_952


def test_cmd_params_rejects_bad_input():
    with pytest.raises(ConfigError):
        cmd_params("gpt-17", [4])
    with pytest.raises(ConfigError):
        cmd_params("desk", [0])


def test_cmd_logistic_table_and_collapse():
    result = cmd_logistic(3.5, 0.4, 5)
    assert result["trajectory"] == ["0.4000", "0.8400", "0.4704", "0.8719",
                                    "0.3909", "0.8333"]
    assert not result["collapsed"]
    flat = cmd_logistic(3.5, 0.0, 5)
    assert flat["collapsed"] and flat["repeated_value"] == "0.0000"


def test_task_bundle_validation():
    with pytest.raises(ConfigError):
        build_task_bundle("mystery_task", ModelConfig(**SMALL_MODEL))
    with pytest.raises(ConfigError):
        build_task_bundle("logistic_trajectories", ModelConfig(**SMALL_MODEL))
    lm = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=1, vocab_size=8,
                     max_seq_len=64, v_out_dim=8)
    with pytest.raises(ConfigError, match="vocab"):
        build_task_bundle("logistic_trajectories", lm)


def test_lm_task_bundle_and_tiny_sweep(tmp_path):
    model = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=1,
                        vocab_size=12, max_seq_len=64, v_out_dim=8)
    cfg = ExperimentConfig(
        task_id="logistic_trajectories",
        methods=[MethodSpec(name="cera", kind="cera", targets=("Wv",))],
        ranks=[2], seeds=[1], model=model,
        train=TrainConfig(steps=2, batch_size=2),
        outputs_dir=str(tmp_path / "lm"))
    outcome = cmd_sweep(cfg)
    assert outcome.exit_code == 0
    assert outcome.records[0]["test_metric"] > 1.0  # a PPL


def test_stable_seed_is_stable():
    assert stable_seed("nonlinear_teacher:data") == stable_seed("nonlinear_teacher:data")
    assert stable_seed("a") != stable_seed("b")
