import json
import os
import subprocess
import sys
import types
import typing
from pathlib import Path

import numpy as np
import pytest

from ceralab.cli import main
from ceralab.errors import ConfigError, DictConfig
from ceralab.experiments import RESULT_COLUMNS, ExperimentConfig, MethodSpec
from ceralab.model import ModelConfig
from ceralab.trainer import TrainConfig


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SRC = Path(__file__).resolve().parents[1] / "src"
SHIPPED = ("ceiling_sweep.json", "ablation.json", "trajectory_sweep.json")


def write_config(tmp_path, **kw):
    cfg = ExperimentConfig(
        task_id="nonlinear_teacher",
        methods=[MethodSpec(name="lora", kind="lora", targets=("Wv",))],
        ranks=kw.pop("ranks", [4]),
        seeds=kw.pop("seeds", [1]),
        model=ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=1,
                          vocab_size=4, max_seq_len=8, v_out_dim=16,
                          mode="regressor"),
        train=TrainConfig(steps=kw.pop("steps", 5), batch_size=8),
        outputs_dir=str(tmp_path / "out"),
        **kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return path, cfg


def test_sweep_exit_zero_and_outputs(tmp_path, capsys):
    path, cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "results.csv").exists()
    assert "1 records" in capsys.readouterr().out


def test_sweep_partial_failure_exit_one(tmp_path):
    # at lr_max 1e300 the lora run leaves float range in its first step; its
    # copy at alpha 0 (and no weight decay) never moves, and finishes
    path, cfg = write_config(tmp_path)
    d = cfg.to_dict()
    d["methods"].append(dict(d["methods"][0], name="still", alpha=0.0))
    d["train"].update(lr_max=1e300, weight_decay=0.0)
    path.write_text(json.dumps(d))
    assert main(["sweep", "--config", str(path)]) == 1
    assert len((tmp_path / "out" / "results.csv").read_text().splitlines()) == 2


def test_a_non_finite_test_metric_fails_its_run(tmp_path, capsys):
    # one step at lr_max 1e200 leaves every adapter's test MSE at inf. Each
    # such run fails and saves no record, so neither the plots nor a rerun
    # ever read an inf metric
    d = json.loads((CONFIG_DIR / "ceiling_sweep.json").read_text())
    d.update(ranks=[4, 8], outputs_dir=str(tmp_path / "out"))
    d["train"].update(steps=1, lr_max=1e200, weight_decay=0.0)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(d))
    out = tmp_path / "out"
    for _ in range(2):  # the rerun finds nothing cached and fails alike
        capsys.readouterr()
        with np.errstate(over="ignore"):
            assert main(["sweep", "--config", str(path)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        failures = json.loads((out / "failures.json").read_text())
        assert len(failures) == 2 * 2 * 3
        assert all("non-finite test metric inf" in f["error"] for f in failures)
        assert (out / "results.csv").read_text().splitlines() == [
            ",".join(RESULT_COLUMNS)]
        assert list((out / "records").iterdir()) == []


def test_a_rank_that_cannot_fit_its_target_exits_two(tmp_path, capsys):
    # the shipped ceiling model's Wv adapters fit rank 64 at most: the config
    # is refused at load, before any run or output
    d = json.loads((CONFIG_DIR / "ceiling_sweep.json").read_text())
    d.update(ranks=[4, 128], outputs_dir=str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(d))
    err = assert_config_error(["sweep", "--config", str(path)], capsys)
    assert "rank 128 exceeds min(d, k) = 64 of the Wv adapter" in err
    assert not (tmp_path / "out").exists()


def test_bad_config_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"task_id": "nonlinear_teacher", "surprise": 1}')
    assert main(["sweep", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["sweep", "--config", str(tmp_path / "missing.json")]) == 2
    # a path that cannot be read is named, not a traceback and not the exit
    # code of failed runs
    for unreadable in (tmp_path / "missing.json", tmp_path):
        err = assert_config_error(["sweep", "--config", str(unreadable)], capsys)
        assert f"cannot read {unreadable}" in err
    # nested entries get the same checks as the top level, a wrongly typed
    # value is a config error, a regressor refuses a Wq adapter it would
    # never read, an adapter scale must be finite (JSON NaN, Infinity), a
    # method names each target once, delta_w spectra need linear methods, and
    # a method name with a comma would split its results.csv row
    good, cfg = write_config(tmp_path)
    (no_kind, not_object, null_model, wq, text, nan_gain, inf_alpha,
     twice, gated_delta_w, comma_name) = (cfg.to_dict() for _ in range(10))
    del no_kind["methods"][0]["kind"]
    not_object["methods"] = ["lora"]
    null_model["model"] = None
    wq["methods"][0]["targets"] = ["Wq", "Wv"]
    text["train"]["steps"] = "5"
    nan_gain["methods"][0]["init_gain"] = float("nan")
    inf_alpha["methods"][0]["alpha"] = float("inf")
    twice["methods"][0]["targets"] = ["Wv", "Wv"]
    gated_delta_w["methods"] = [dict(name="cera", kind="cera", targets=["Wv"])]
    gated_delta_w["spectral_source"] = "delta_w"
    comma_name["methods"][0]["name"] = "lo,ra"
    for d in (no_kind, not_object, null_model, wq, text, nan_gain, inf_alpha,
              twice, gated_delta_w, comma_name):
        bad.write_text(json.dumps(d))
        capsys.readouterr()
        assert main(["sweep", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
    # the ablation takes one method, and --jobs counts processes
    two = cfg.to_dict()
    two["methods"] = [dict(two["methods"][0], name="cera", kind="cera"),
                      two["methods"][0]]
    bad.write_text(json.dumps(two))
    argvs = [["ablate", "--config", str(bad)]]
    argvs += [[command, "--config", str(bad), "--jobs", jobs]
              for command in ("sweep", "ablate") for jobs in ("0", "-3")]
    # a given seed override that names no seed is refused, empty or not
    argvs += [["sweep", "--config", str(good), "--seed-override", seeds]
              for seeds in ("", ",")]
    for argv in argvs:
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err


def test_out_and_seed_override(tmp_path):
    path, _ = write_config(tmp_path, seeds=[1])
    alt = tmp_path / "alt"
    assert main(["sweep", "--config", str(path), "--out", str(alt),
                 "--seed-override", "7,8"]) == 0
    lines = (alt / "results.csv").read_text().splitlines()
    assert len(lines) == 3  # header + two seeds
    assert not (tmp_path / "out").exists()


def test_ablate_cli(tmp_path):
    path, cfg = write_config(tmp_path)
    cfg.methods = [MethodSpec(name="cera", kind="cera", targets=("Wv",))]
    path.write_text(json.dumps(cfg.to_dict()))
    assert main(["ablate", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "ablation.csv").exists()


def test_spectral_cli(tmp_path, capsys):
    path, cfg = write_config(tmp_path, steps=20)
    assert main(["sweep", "--config", str(path)]) == 0
    records = list((tmp_path / "out" / "records").glob("*.json"))
    rid = next(p.stem for p in records if not p.name.endswith(".adapters.json"))
    assert main(["spectral", "--config", str(path), "--run-id", rid,
                 "--source", "delta_w"]) == 0
    assert "ER=" in capsys.readouterr().out
    assert main(["spectral", "--config", str(path),
                 "--run-id", "not-a-run"]) == 2


def test_spectral_of_a_record_stored_under_another_id_exits_two(tmp_path, capsys):
    # a record whose run_config does not hash to its file's run id is not
    # that run's; it used to be read, and its missing "method" key raised
    path, cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(path)]) == 0
    records = list((tmp_path / "out" / "records").glob("*.json"))
    record = next(p for p in records if not p.name.endswith(".adapters.json"))
    stored = json.loads(record.read_text())
    stored["run_config"] = {"task_id": cfg.task_id}
    record.write_text(json.dumps(stored))
    err = assert_config_error(["spectral", "--config", str(path),
                               "--run-id", record.stem], capsys)
    assert f"no record for run_id '{record.stem}'" in err


def test_params_cli(tmp_path, capsys):
    assert main(["params", "--preset", "llama3-8b", "--ranks", "64,512"]) == 0
    out = capsys.readouterr().out
    assert "218,103,808" in out and "27,262,976" in out
    assert main(["params", "--preset", "desk", "--ranks", "0"]) == 2


def test_logistic_cli(capsys):
    assert main(["logistic", "--r", "3.5", "--x0", "0.4", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "0.8400 -> 0.4704 -> 0.8719 -> 0.3909 -> 0.8333" in out
    assert "no state collapse" in out
    assert main(["logistic", "--x0", "0.0"]) == 0
    assert "STATE COLLAPSE" in capsys.readouterr().out
    assert main(["logistic", "--r", "9.9"]) == 2


@pytest.mark.parametrize("key,value", [
    ("grad_clip", 0.0), ("grad_clip", -1.0), ("eps", 0.0), ("eps", -1e-8),
    ("weight_decay", -0.01), ("seed", 5),
    # JSON's Infinity: every Adam step would be 0, or every run would fail
    ("eps", float("inf")), ("lr_max", float("inf")),
    ("weight_decay", float("inf")), ("grad_clip", float("inf"))])
def test_train_values_that_break_training_exit_two(tmp_path, capsys, key, value):
    path, cfg = write_config(tmp_path)
    d = cfg.to_dict()
    d["train"][key] = value
    path.write_text(json.dumps(d))
    assert_config_error(["sweep", "--config", str(path)], capsys)
    assert not (tmp_path / "out").exists()


def test_plot_cli(tmp_path):
    payload = {"series": [{"label": "demo", "xs": [1, 2, 4], "ys": [3, 2, 1]}],
               "axes": {"title": "demo", "xscale": "log"}}
    src = tmp_path / "series.json"
    src.write_text(json.dumps(payload))
    out = tmp_path / "demo.svg"
    assert main(["plot", "--input", str(src), "--out", str(out)]) == 0
    assert out.read_bytes().startswith(b"<svg")


def test_jobs_flag_parallel_runs(tmp_path):
    path, _ = write_config(tmp_path, ranks=[2, 4], seeds=[1, 2])
    assert main(["sweep", "--config", str(path), "--jobs", "2"]) == 0
    lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
    assert len(lines) == 5


def assert_config_error(argv, capsys):
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err
    return err


@pytest.mark.parametrize("command", ["sweep", "ablate", "spectral"])
def test_an_outputs_dir_that_cannot_be_created_exits_two(tmp_path, capsys, command):
    # an existing file given as --out: the records directory cannot be made
    # under it, which used to end in a NotADirectoryError traceback
    path, _ = write_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    argv = [command, "--config", str(path), "--out", str(taken)]
    err = assert_config_error(argv + (["--run-id", "any"] if command == "spectral" else []),
                              capsys)
    assert f"outputs_dir {str(taken)!r} cannot hold" in err
    assert taken.read_text() == "not a directory"


@pytest.mark.parametrize("case, message", [
    ("not_an_object", "holds no object of adapter states"),
    ("missing_entry", "no '0:Wv' entry"),
    ("short_data", "'w_up' is missing or malformed"),
    ("wrong_shape", "does not fit target 'Wv'")])
def test_a_malformed_adapters_file_exits_two(tmp_path, capsys, case, message):
    # a stored run whose adapters file is not an object, lacks an adapter,
    # holds too few values for a shape, or a shape that does not fit the run
    path, _ = write_config(tmp_path)
    assert main(["sweep", "--config", str(path)]) == 0
    records = tmp_path / "out" / "records"
    rid = next(p.stem for p in records.glob("*.json")
               if not p.name.endswith(".adapters.json"))
    stored = records / f"{rid}.adapters.json"
    bundles = json.loads(stored.read_text())
    w_up = bundles["0:Wv"]["w_up"]
    assert w_up["shape"] == [4, 16]
    if case == "not_an_object":
        bundles = 5
    elif case == "missing_entry":
        del bundles["0:Wv"]
    elif case == "short_data":
        w_up["data"].pop()
    else:
        w_up["shape"] = [2, 32]
    stored.write_text(json.dumps(bundles))
    err = assert_config_error(["spectral", "--config", str(path), "--run-id", rid], capsys)
    assert message in err


def test_seeds_and_ranks_are_checked_after_every_override(tmp_path, capsys):
    path, cfg = write_config(tmp_path)
    for override in ("1,1", "-3"):
        assert_config_error(["sweep", "--config", str(path),
                             "--seed-override", override], capsys)
    repeated, negative = cfg.to_dict(), cfg.to_dict()
    repeated["ranks"] = [4, 4]
    negative["seeds"] = [-1]
    for d in (repeated, negative):
        path.write_text(json.dumps(d))
        assert_config_error(["sweep", "--config", str(path)], capsys)
    assert not (tmp_path / "out").exists()  # no run started


def test_output_delta_of_mixed_widths_exits_two(tmp_path, capsys):
    # Wq is 16 wide and Wv 8: the sweep scores latent_H, and a report over
    # output_delta_D is refused, not a traceback
    cfg = ExperimentConfig(
        task_id="logistic_trajectories",
        methods=[MethodSpec(name="cera", kind="cera", targets=("Wq", "Wv"))],
        ranks=[2], seeds=[1],
        model=ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=1,
                          vocab_size=12, max_seq_len=64, v_out_dim=8),
        train=TrainConfig(steps=2, batch_size=2),
        outputs_dir=str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert main(["sweep", "--config", str(path)]) == 0
    rid = next(p.stem for p in (tmp_path / "out" / "records").glob("*.json")
               if not p.name.endswith(".adapters.json"))
    assert_config_error(["spectral", "--config", str(path), "--run-id", rid,
                         "--source", "output_delta_D"], capsys)
    path.write_text(json.dumps(dict(cfg.to_dict(), spectral_source="output_delta_D")))
    assert_config_error(["sweep", "--config", str(path)], capsys)


def test_malformed_plot_input_exits_two(tmp_path, capsys):
    good = {"label": "demo", "xs": [1, 2], "ys": [3, 4]}
    src, out = tmp_path / "series.json", tmp_path / "demo.svg"
    for payload in ({"series": [dict(good, colour="red")]},
                    {"series": [{"label": "demo", "xs": [1, 2]}]},
                    {"series": [good], "axes": {"titel": "x"}},
                    {"series": 5},
                    [good],
                    {"axes": {}},
                    {"series": [dict(good, ys="34")]},
                    {"series": [good], "axes": {"xscale": "logarithmic"}},
                    {"series": [good], "axes": {"width": -5}},
                    {"series": [dict(good, y_lo=[1], y_hi=[4, 5])]},
                    {"series": [dict(good, ys=[3, float("nan")])]},
                    {"series": [dict(good, ys=[3, float("inf")])]}):
        src.write_text(json.dumps(payload))
        assert_config_error(["plot", "--input", str(src), "--out", str(out)], capsys)
    # bytes that are not UTF-8, and a directory, cannot be read
    src.write_bytes(b"\xff\xfe\x00")
    for unreadable in (src, tmp_path):
        err = assert_config_error(["plot", "--input", str(unreadable), "--out", str(out)],
                                  capsys)
        assert f"cannot read {unreadable}" in err
    assert not out.exists()


# data ranges no axis can draw: a linear step below the spacing of floats at
# 1e16 (it used to loop forever), spans whose padding overflows, a log axis
# whose top tick would be 1e309, and a log clamp that underflows to 0
UNDRAWABLE = [([1e16, 10000000000000002], "linear"), ([-1e308, 1e308], "linear"),
              ([0, 1.7e308], "linear"), ([1, 1e308], "log"), ([1e-323, 0], "log")]


@pytest.mark.parametrize("ys, scale", UNDRAWABLE)
def test_an_undrawable_plot_range_exits_two(tmp_path, ys, scale):
    src, out = tmp_path / "series.json", tmp_path / "demo.svg"
    src.write_text(json.dumps({"series": [{"label": "s", "xs": [1, 2], "ys": ys}],
                               "axes": {"yscale": scale}}))
    proc = subprocess.run([sys.executable, "-m", "ceralab", "plot", "--input", str(src),
                           "--out", str(out)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=10)
    assert proc.returncode == 2
    assert "config error:" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


def wrong_values(hint, optional):
    """JSON values of a type that `hint` does not take, and for a float
    JSON's NaN and Infinity, which no float field takes."""
    if typing.get_origin(hint) in (list, tuple):
        wrong = [True, "x", 1.5, {}]
    else:
        wrong = {int: [True, "x", 1.5, [1], {}],
                 float: [True, "x", [1], {}, float("nan"), float("inf")],
                 str: [True, 1.5, [1], {}]}[hint]
    return wrong if optional else wrong + [None]


def leaf_fields(cls, d, path=()):
    """(path, hint, optional) of every leaf field of the config dict `d` of
    type `cls`; a list of plain values is a leaf, and so is each item."""
    hints = typing.get_type_hints(cls)
    for key, value in d.items():
        hint, optional = hints[key], isinstance(hints[key], types.UnionType)
        if optional:
            (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
        item = (typing.get_args(hint) or (None,))[0]
        if isinstance(hint, type) and issubclass(hint, DictConfig):
            yield from leaf_fields(hint, value, path + (key,))
        elif isinstance(item, type) and issubclass(item, DictConfig):
            for i, v in enumerate(value):
                yield from leaf_fields(item, v, path + (key, i))
        else:
            yield path + (key,), hint, optional
            for i in range(len(value) if isinstance(value, list) else 0):
                yield path + (key, i), item, False


def shipped_leaves():
    for name in SHIPPED:
        d = json.loads(json.dumps(ExperimentConfig.load(CONFIG_DIR / name).to_dict()))
        for path, hint, optional in leaf_fields(ExperimentConfig, d):
            yield pytest.param(name, d, path, wrong_values(hint, optional),
                               id=f"{name}:{'.'.join(map(str, path))}")


@pytest.mark.parametrize("name,base,path,wrong", shipped_leaves())
def test_a_wrongly_typed_shipped_value_is_a_config_error(tmp_path, capsys, name,
                                                         base, path, wrong):
    for i, value in enumerate(wrong):
        d = json.loads(json.dumps(base))
        *parents, key = path
        node = d
        for part in parents:
            node = node[part]
        node[key] = value
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)
        if i == 0:  # one case per field through the command line
            bad = tmp_path / name
            bad.write_text(json.dumps(d))
            assert_config_error(["sweep", "--config", str(bad),
                                 "--out", str(tmp_path / "out")], capsys)
