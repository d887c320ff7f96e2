"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The rank-sweep and ablation
grids train for real and are shared across criteria via module fixtures; the
whole module finishes in a few minutes on a laptop-class CPU.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from ceralab.adapters import (Adapter, AdapterConfig, init_adapter,
                              merge_linear, param_count)
from ceralab.errors import NotMergeableError
from ceralab.experiments import (ExperimentConfig, cmd_ablate, cmd_spectral,
                                 cmd_sweep)
from ceralab.model import (ModelConfig, adapter_shape, build_model, inject,
                           lm_logits)
from ceralab.spectral import auc90, effective_rank, svd_values
from ceralab.tasks import logistic_map_table
from ceralab.tensor import (RngState, cross_entropy_backward,
                            cross_entropy_forward, finite_difference_check)
from ceralab.trainer import measure_throughput

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number:02d} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# shared trained grids


@pytest.fixture(scope="module")
def ceiling(tmp_path_factory):
    cfg = ExperimentConfig.load(CONFIG_DIR / "ceiling_sweep.json")
    cfg.outputs_dir = str(tmp_path_factory.mktemp("ceiling"))
    outcome = cmd_sweep(cfg)
    assert not outcome.failures, outcome.failures
    floor = json.loads((Path(cfg.outputs_dir) / "floor.json").read_text())
    return cfg, outcome.records, floor["linear_floor"]


@pytest.fixture(scope="module")
def ablation(tmp_path_factory):
    cfg = ExperimentConfig.load(CONFIG_DIR / "ablation.json")
    cfg.outputs_dir = str(tmp_path_factory.mktemp("ablation"))
    outcome = cmd_ablate(cfg)
    assert not outcome.failures, outcome.failures
    return cfg, outcome.records


def mean_metric(records, method, rank):
    vals = [r["test_metric"] for r in records
            if r["method"] == method and r["rank"] == rank]
    assert vals, f"no records for {method} r={rank}"
    return float(np.mean(vals))


def mean_er(records, method, rank):
    vals = [r["effective_rank"] for r in records
            if r["method"] == method and r["rank"] == rank]
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_table3_param_counts():
    geometry = [(4096, 4096, 32), (1024, 4096, 32)]
    got = {r: param_count(AdapterConfig(kind="cera", r=r), geometry)
           for r in (512, 64, 128)}
    expected = {512: 218_103_808, 64: 27_262_976, 128: 54_525_952}
    ok = got == expected
    report(1, "table3-param-counts", ok, f"llama3-8b counts {got}")
    assert got == expected  # zero tolerance


def test_criterion_02_table1_trajectory():
    traj = logistic_map_table(3.5, 0.4, 5)
    golden = np.array([0.84, 0.4704, 0.8719, 0.3909, 0.8333])
    err = float(np.max(np.abs(traj[1:] - golden)))
    shown = [format(v, ".4f") for v in traj[1:]]
    ok = err < 5e-5 and shown == ["0.8400", "0.4704", "0.8719", "0.3909", "0.8333"]
    report(2, "table1-trajectory", ok, f"max pre-rounding error {err:.2e}")
    assert ok


def test_criterion_03_degeneracy_equivalence():
    worst = 0.0
    for i in range(100):
        rng = RngState(9000 + i)
        d, k, r = 6, 8, 4
        lora_cfg = AdapterConfig(kind="lora", r=r, alpha=2.5)
        cera_cfg = AdapterConfig(kind="cera", r=r, alpha=2.5,
                                 activation="identity", dropout_p=0.0)
        st = init_adapter(lora_cfg, d, k, rng.child(0))
        st.w_down[:] = rng.normal((d, r))
        w0 = rng.normal((d, k))
        x = rng.normal((1, k))
        a = x @ w0.T + Adapter(lora_cfg, st).delta_rows(x, None)[0]
        b = x @ w0.T + Adapter(cera_cfg, st).delta_rows(x, None)[0]
        worst = max(worst, float(np.max(np.abs(a - b))))
    ok = worst < 1e-12
    report(3, "degeneracy-cera-equals-lora", ok,
           f"max |cera - lora| over 100 draws = {worst:.2e}")
    assert ok


def test_criterion_04_merge_equivalence_and_asymmetry():
    worst = 0.0
    for i in range(20):
        rng = RngState(9500 + i)
        cfg = AdapterConfig(kind="lora", r=3, alpha=1.7)
        st = init_adapter(cfg, 5, 7, rng.child(0))
        st.w_down[:] = rng.normal((5, 3))
        w0 = rng.normal((5, 7))
        merged = merge_linear(w0, st, cfg)
        x = rng.normal((1, 7))
        unmerged = x @ w0.T + Adapter(cfg, st).delta_rows(x, None)[0]
        worst = max(worst, float(np.max(np.abs(unmerged - x @ merged.T))))
    cera_cfg = AdapterConfig(kind="cera", r=3)  # silu by default
    cera_st = init_adapter(cera_cfg, 5, 7, RngState(1))
    raised = False
    try:
        merge_linear(np.zeros((5, 7)), cera_st, cera_cfg)
    except NotMergeableError:
        raised = True
    ok = worst < 1e-10 and raised
    report(4, "merge-equivalence-and-asymmetry", ok,
           f"max merge error {worst:.2e}; silu merge raised NotMergeable={raised}")
    assert ok


def test_criterion_05_gradient_soundness_full_model():
    cfg = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=1,
                      vocab_size=11, max_seq_len=8, v_out_dim=8)
    worst = 0.0
    for seed in range(5):
        bb = build_model(cfg, 400 + seed)
        acfg = AdapterConfig(kind="cera", r=3)
        adapter = Adapter.init(acfg, *adapter_shape(cfg, "Wv"),
                               RngState(500 + seed, 9))
        adapter.state.w_down[:] = RngState(600 + seed).normal((8, 3)) * 0.3
        inject(bb, 0, "Wv", adapter)
        seq = RngState(700 + seed).integers(0, 11, 6)
        targets = RngState(800 + seed).integers(0, 11, 6)

        def training_pass():
            # the explicit pass; a fresh stream draws the same dropout masks
            logits, pullback = lm_logits(bb, seq, RngState(900 + seed))
            return (*cross_entropy_forward(logits, targets), pullback)

        _, saved, pullback = training_pass()
        st = adapter.state
        grads = {adapter: (np.empty(st.w_up.shape), np.empty(st.w_down.shape))}
        pullback(cross_entropy_backward(saved), grads)
        for name, grad in zip(("w_up", "w_down"), grads[adapter]):
            original = getattr(st, name)

            def f(probe, _name=name):
                setattr(st, _name, probe)
                return training_pass()[0]

            err = finite_difference_check(f, original, grad, 1e-6)
            setattr(st, name, original)
            worst = max(worst, err)
    ok = worst < 1e-4
    report(5, "gradient-soundness-full-model", ok,
           f"max relative error over 5 seeds = {worst:.2e}")
    assert ok


def test_criterion_06_spectral_unit_suite():
    checks = []
    checks.append(abs(effective_rank([1.0, 1.0, 1.0, 1.0]) - 4.0) < 1e-9)
    checks.append(abs(effective_rank([2.0, 1.0]) - 1.889882) < 1e-5)
    sv = np.array([5.0, 2.0, 0.4, 0.01])
    checks.append(all(abs(effective_rank(c * sv) - effective_rank(sv)) < 1e-10
                      for c in (1e-6, 0.5, 3.0, 1e6)))
    recon_errs = []
    for i in range(5):
        m = RngState(1000 + i).normal((8, 5))
        u, s, v = svd_values(m, with_vectors=True)
        recon_errs.append(np.linalg.norm(u @ np.diag(s) @ v.T - m)
                          / np.linalg.norm(m))
    checks.append(max(recon_errs) < 1e-10)
    checks.append(auc90([1.0] * 10) == 9)
    checks.append(auc90([100.0, 1.0]) == 1)
    checks.append(auc90([3.0, 1.0], exponent=2) == 1)
    checks.append(auc90([7.0, 0.0, 0.0]) == 1)
    ok = all(checks)
    report(6, "spectral-unit-suite", ok,
           f"ER goldens+scale-invariance+reconstruction({max(recon_errs):.1e})+auc90")
    assert ok


def test_criterion_07_linear_ceiling(ceiling):
    cfg, records, floor = ceiling
    lora_means = {r: mean_metric(records, "lora", r) for r in cfg.ranks}
    cera_16 = mean_metric(records, "cera", 16)
    lora_ok = all(m >= floor * 0.95 for m in lora_means.values())
    cera_ok = cera_16 < floor * 0.8
    ratios = {r: round(m / floor, 3) for r, m in lora_means.items()}
    ok = lora_ok and cera_ok
    report(7, "linear-ceiling", ok,
           f"floor={floor:.5f}; lora/floor by rank {ratios}; "
           f"cera@16/floor={cera_16 / floor:.3f} (needs <0.8)")
    assert lora_ok, f"lora mean fell below 0.95*floor: {ratios}"
    assert cera_ok, f"cera@16 = {cera_16} not < 0.8*floor = {0.8 * floor}"


def test_criterion_08_ablation_ordering(ablation):
    cfg, records = ablation
    rank = cfg.ranks[0]
    means = {name: mean_metric(records, name, rank)
             for name in ("cera_full", "no_dropout", "relu", "identity",
                          "module_level")}
    hard_pair = means["cera_full"] < means["identity"]
    robust = (means["cera_full"] < means["no_dropout"]
              and means["cera_full"] < means["relu"]
              and means["no_dropout"] < means["identity"]
              and means["relu"] < means["identity"])
    module_relation = (means["relu"] < means["module_level"]
                       and means["no_dropout"] < means["module_level"])
    ordered = sorted(means, key=means.get)
    ok = hard_pair and robust
    report(8, "ablation-ordering", ok,
           f"means={ {k: round(v, 5) for k, v in means.items()} }; "
           f"ranked {ordered}; hard pair full<identity={hard_pair}; "
           f"module-level relation (reported, not asserted)={module_relation}")
    assert hard_pair, means
    assert robust, means


def test_criterion_09_effective_rank_expansion(ceiling):
    cfg, records, _ = ceiling
    er_cera = mean_er(records, "cera", 16)
    er_lora = mean_er(records, "lora", 16)
    expansion_ok = er_cera > er_lora

    # delta_w spectrum of each trained lora r=16 run via the spectral command
    store_records = [r for r in records if r["method"] == "lora" and r["rank"] == 16]
    dw_ers, nnz_ok = [], True
    for rec in store_records:
        rep = cmd_spectral(cfg, rec["run_id"], "delta_w")
        sv = np.array(rep.singular_values)
        nnz_ok &= int(np.sum(sv > 1e-12)) <= 16
        dw_ers.append(rep.effective_rank)
    ratio_ok = float(np.mean(dw_ers)) / 16 < er_cera / 16
    ok = expansion_ok and nnz_ok and ratio_ok
    report(9, "effective-rank-expansion", ok,
           f"ER(H) cera={er_cera:.2f} > lora={er_lora:.2f}: {expansion_ok}; "
           f"lora delta_w nonzero<=r: {nnz_ok}; "
           f"ER(dW)/r={np.mean(dw_ers) / 16:.3f} < ER(H_cera)/r={er_cera / 16:.3f}: {ratio_ok}")
    assert ok


def test_criterion_10_determinism_idempotence(tmp_path):
    cfg = ExperimentConfig.load(CONFIG_DIR / "ceiling_sweep.json")
    cfg.ranks = [4, 8]
    cfg.seeds = [1]
    cfg.train.steps = 200
    cfg.outputs_dir = str(tmp_path / "rerun")
    cmd_sweep(cfg)
    csv_path = Path(cfg.outputs_dir) / "results.csv"
    first = csv_path.read_bytes()
    cmd_sweep(cfg)
    identical = csv_path.read_bytes() == first

    # fresh directory: all non-timing columns must also reproduce exactly
    cfg2 = ExperimentConfig.load(CONFIG_DIR / "ceiling_sweep.json")
    cfg2.ranks = [4, 8]
    cfg2.seeds = [1]
    cfg2.train.steps = 200
    cfg2.outputs_dir = str(tmp_path / "fresh")
    cmd_sweep(cfg2)
    strip = lambda text: [",".join(row.split(",")[:8]) for row in text.splitlines()]
    fresh_same = strip((Path(cfg2.outputs_dir) / "results.csv").read_text()) == \
        strip(first.decode())
    ok = identical and fresh_same
    report(10, "determinism-idempotence", ok,
           f"rerun byte-identical={identical}; fresh-dir non-timing columns identical={fresh_same}")
    assert ok


def test_criterion_11_throughput_ratio():
    cfg = ModelConfig(d_model=64, n_heads=4, d_head=16, n_layers=2,
                      vocab_size=12, max_seq_len=64, v_out_dim=32)
    batch = [list(range(12)) * 5] * 4  # 4 sequences x 60 tokens

    def build_with(kind):
        bb = build_model(cfg, 77)
        rng = RngState(78)
        for layer in range(cfg.n_layers):
            for j, target in enumerate(("Wq", "Wv")):
                acfg = AdapterConfig(kind=kind, r=8)
                adapter = Adapter.init(acfg, *adapter_shape(cfg, target),
                                       rng.child(layer * 2 + j))
                adapter.state.w_down[:] = 0.01
                inject(bb, layer, target, adapter)
        return bb

    lora_rep = measure_throughput(build_with("lora"), batch, repetitions=21)
    cera_rep = measure_throughput(build_with("cera"), batch, repetitions=21)
    ok = lora_rep.relative_latency >= 1.0
    report(11, "throughput", ok,
           f"merged-vs-unmerged lora ratio={lora_rep.relative_latency:.3f} (>=1.0 asserted); "
           f"cera ratio={cera_rep.relative_latency:.3f} at "
           f"{cera_rep.tokens_per_second:.0f} tok/s (logged, hardware-dependent, not asserted)")
    assert ok


def test_criterion_12_rank_efficiency(ceiling):
    # the paper's CeRA@64 beats LoRA@512 at this testbed's scale: cera at
    # rank 8 against lora at every rank of the sweep, full rank 64 included
    cfg, records, _ = ceiling
    cera_8 = mean_metric(records, "cera", 8)
    lora_means = {r: mean_metric(records, "lora", r) for r in cfg.ranks}
    best = min(lora_means, key=lora_means.get)
    ok = cera_8 < lora_means[best]
    report(12, "rank-efficiency", ok,
           f"cera@8={cera_8:.5f} < min over r of lora@r={lora_means[best]:.5f} "
           f"(r={best}); lora by rank { {r: round(m, 5) for r, m in lora_means.items()} }")
    assert ok, (cera_8, lora_means)
