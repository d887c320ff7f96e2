import numpy as np
import pytest

from ceralab import trainer as trainer_mod
from ceralab.adapters import Adapter, AdapterConfig
from ceralab.errors import ConfigError, DomainError
from ceralab import tensor as T
from ceralab.model import (ModelConfig, adapter_shape, build_model, forward,
                           inject, lm_logits)
from ceralab.tasks import (Dataset, make_teacher_task, nonlinear_teacher,
                           trajectory_sequences)
from ceralab.tensor import RngState, Tensor
from ceralab.trainer import (TrainConfig, adamw_state, adamw_step,
                             clip_global_norm, cosine_lr, evaluate,
                             measure_throughput, perplexity, train_adapter)

REG_CFG = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=1,
                      vocab_size=4, max_seq_len=8, v_out_dim=8,
                      mode="regressor")
LM_CFG = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=2,
                     vocab_size=12, max_seq_len=48, v_out_dim=8)


def make_regression_setup(adapter_kind="cera", r=8, seed=1, **adapter_kw):
    bb = build_model(REG_CFG, seed)
    frozen = lambda x: forward(bb, Tensor(x), mode="eval").data
    teacher = nonlinear_teacher(seed + 1, 16, 4, hidden=8)
    task = make_teacher_task(frozen, teacher, 16, n_train=32, n_test=32,
                             seed=seed + 2)
    cfg = AdapterConfig(kind=adapter_kind, r=r, targets=("Wv",), **adapter_kw)
    adapter = Adapter.init(cfg, *adapter_shape(REG_CFG, "Wv"), RngState(seed + 3, 9))
    inject(bb, 0, "Wv", adapter)
    return bb, adapter, task


def test_cosine_lr_endpoints_and_midpoint():
    cfg = TrainConfig(lr_max=1e-2, lr_min=1e-4, steps=100)
    assert cosine_lr(0, cfg) == pytest.approx(1e-2, rel=1e-12)
    assert cosine_lr(100, cfg) == pytest.approx(1e-4, rel=1e-12)
    assert cosine_lr(50, cfg) == pytest.approx((1e-2 + 1e-4) / 2, rel=1e-12)
    with pytest.raises(DomainError):
        cosine_lr(101, cfg)


def test_adamw_first_step_golden():
    cfg = TrainConfig(weight_decay=0.0)
    p = Tensor(np.array([1.0]), requires_grad=True)
    state = adamw_state([p])
    adamw_step([p], [np.array([1.0])], state, lr=0.1, cfg=cfg)
    assert p.data[0] == pytest.approx(1.0 - 0.1, abs=1e-6)


def test_adamw_zero_grad_no_decay_is_noop():
    cfg = TrainConfig(weight_decay=0.0)
    p = Tensor(np.array([2.0, -3.0]), requires_grad=True)
    state = adamw_state([p])
    adamw_step([p], [np.zeros(2)], state, lr=0.1, cfg=cfg)
    assert np.array_equal(p.data, [2.0, -3.0])


def test_adamw_decoupled_decay_shrinks():
    cfg = TrainConfig(weight_decay=0.5)
    p = Tensor(np.array([2.0]), requires_grad=True)
    state = adamw_state([p])
    adamw_step([p], [np.zeros(1)], state, lr=0.1, cfg=cfg)
    assert p.data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5), rel=1e-12)


def test_clip_global_norm():
    grads = [np.array([3.0]), np.array([4.0])]
    norm = clip_global_norm(grads, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.sqrt(grads[0][0] ** 2 + grads[1][0] ** 2) == pytest.approx(1.0)
    g = np.array([0.5])
    grads = [g]
    clip_global_norm(grads, 1.0)
    assert grads[0] is g and g[0] == 0.5  # below the clip: untouched


def test_clip_scales_a_gradient_shared_by_two_parameters_once():
    rng = RngState(66)
    p = Tensor(rng.normal((3, 3)), requires_grad=True)
    q = Tensor(rng.normal((3, 3)), requires_grad=True)
    w = rng.normal((3, 3))
    T.backward(T.tsum((p + q) * w))
    assert p.grad is q.grad  # both adopted the one upstream array
    grads = [p.grad, q.grad]
    norm = clip_global_norm(grads, 0.5)
    assert norm == pytest.approx(np.sqrt(2.0) * np.linalg.norm(w), rel=1e-14)
    want = w * (0.5 / norm)
    assert np.array_equal(grads[0], want) and np.array_equal(grads[1], want)
    assert np.array_equal(p.grad, w)  # the shared array is never written


def test_in_place_adamw_matches_the_formula_bit_for_bit():
    cfg = TrainConfig(weight_decay=0.01)
    rng = RngState(70)
    params = [Tensor(rng.normal((4, 6)), requires_grad=True),
              Tensor(rng.normal((6, 3)), requires_grad=True)]
    want = [p.data.copy() for p in params]
    m = [np.zeros_like(w) for w in want]
    v = [np.zeros_like(w) for w in want]
    state = adamw_state(params)
    for t in range(1, 51):
        lr = 1e-2 / t
        grads = [rng.normal(p.shape) for p in params]
        adamw_step(params, grads, state, lr, cfg)
        bc1, bc2 = 1.0 - cfg.beta1 ** t, 1.0 - cfg.beta2 ** t
        for i, g in enumerate(grads):
            want[i] = want[i] * (1.0 - lr * cfg.weight_decay)
            m[i] = m[i] * cfg.beta1 + (1.0 - cfg.beta1) * g
            v[i] = v[i] * cfg.beta2 + (1.0 - cfg.beta2) * g * g
            want[i] = want[i] - lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + cfg.eps)
    for p, w in zip(params, want):
        assert p.data.tobytes() == w.tobytes()


def test_zero_step_run_leaves_weights_and_metric():
    bb, adapter, task = make_regression_setup()
    before_up = adapter.state.w_up.data.copy()
    baseline_metric = evaluate(bb, task.test)
    rep = train_adapter(bb, [adapter], task.train, task.test,
                        TrainConfig(steps=0, batch_size=4))
    assert rep.loss_curve == []
    assert np.array_equal(adapter.state.w_up.data, before_up)
    assert rep.test_metric == baseline_metric
    assert np.isfinite(rep.final_train_loss)


def test_memorization_smoke():
    bb = build_model(REG_CFG, 7)
    frozen = lambda x: forward(bb, Tensor(x), mode="eval").data
    teacher = nonlinear_teacher(8, 16, 4, hidden=8)
    task = make_teacher_task(frozen, teacher, 16, n_train=4, n_test=4, seed=9)
    cfg = AdapterConfig(kind="cera", r=8, targets=("Wv",), dropout_p=0.0)
    adapter = Adapter.init(cfg, *adapter_shape(REG_CFG, "Wv"), RngState(10, 9))
    inject(bb, 0, "Wv", adapter)
    rep = train_adapter(bb, [adapter], task.train, task.test,
                        TrainConfig(steps=2000, batch_size=4, weight_decay=0.0,
                                    seed=11))
    assert min(rep.loss_curve) < 1e-3


def test_backbone_frozen_through_training():
    bb, adapter, task = make_regression_setup(seed=12)
    before = bb.checksum()
    train_adapter(bb, [adapter], task.train, task.test,
                  TrainConfig(steps=30, batch_size=8, seed=13))
    assert bb.checksum() == before


def test_seed_determinism_bit_for_bit():
    def run():
        bb, adapter, task = make_regression_setup(seed=14)
        rep = train_adapter(bb, [adapter], task.train, task.test,
                            TrainConfig(steps=40, batch_size=8, seed=15))
        return rep.loss_curve, adapter.state.w_up.data.copy()

    (c1, w1), (c2, w2) = run(), run()
    assert c1 == c2
    assert np.array_equal(w1, w2)


def test_dropout_active_in_train_only():
    bb, adapter, task = make_regression_setup(seed=16, dropout_p=0.5)
    adapter.state.w_down.data[:] = RngState(17).normal(adapter.state.w_down.shape)
    x = Tensor(task.train.inputs[:8])
    eval_a = forward(bb, x, mode="eval").data
    eval_b = forward(bb, x, mode="eval").data
    assert np.array_equal(eval_a, eval_b)
    train_a = forward(bb, x, mode="train", rng=RngState(18)).data
    train_b = forward(bb, x, mode="train", rng=RngState(19)).data
    assert not np.array_equal(train_a, train_b)


def test_budget_parity_lora_vs_cera():
    counts = {}
    for kind in ("lora", "cera"):
        bb, adapter, _ = make_regression_setup(adapter_kind=kind, seed=20)
        counts[kind] = bb.trainable_param_count()
    assert counts["lora"] == counts["cera"]


def test_evaluate_is_stable_without_training():
    bb, adapter, task = make_regression_setup(seed=21)
    assert evaluate(bb, task.test) == evaluate(bb, task.test)


def lm_with_adapters(style):
    """LM_CFG with cera on Wq and Wv of both layers and a module adapter on
    the last block, all with dropout, and non-zero down-projections."""
    bb = build_model(LM_CFG, 40)
    rng = RngState(41)
    for layer in range(LM_CFG.n_layers):
        for target in ("Wq", "Wv"):
            cfg = AdapterConfig(kind="cera", r=4, targets=(target,), dropout_p=0.3,
                                dropout_style=style)
            inject(bb, layer, target, Adapter.init(
                cfg, *adapter_shape(LM_CFG, target), rng.child(len(bb.adapters))))
    cfg = AdapterConfig(kind="parallel_module", r=4, dropout_p=0.3, dropout_style=style)
    inject(bb, 1, "attn_block", Adapter.init(
        cfg, *adapter_shape(LM_CFG, "attn_block"), rng.child(9)))
    for adapter in bb.adapters.values():
        adapter.state.w_down.data[:] = rng.normal(adapter.state.w_down.shape) * 0.3
    return bb


@pytest.mark.parametrize("style", ["elementwise", "channel"])
def test_batched_train_loss_is_mean_of_single_sequence_losses(style):
    # one tape over the batch draws each sequence's dropout masks as running
    # the sequences one by one from the same stream would
    bb = lm_with_adapters(style)
    params = bb.adapter_params()
    train, _ = trajectory_sequences(seed=42, count=10, n_steps=5)
    idx = np.array([3, 0, 3, 5, 1, 5])  # duplicates draw masks of their own

    def grads_of(loss):
        for p in params:
            p.zero_grad()
        T.backward(loss)
        return [p.grad.copy() for p in params]

    batched = trainer_mod._batch_loss(bb, train, idx, "train", RngState(43), None)
    rng = RngState(43)
    single = [T.cross_entropy_rows(
        lm_logits(bb, train.inputs[i], mode="train", rng=rng), train.targets[i])
        for i in idx]
    mean = single[0]
    for ce in single[1:]:
        mean = mean + ce
    mean = mean * (1.0 / len(idx))
    assert abs(batched.item() - mean.item()) <= 1e-12 * abs(mean.item())
    for got, want in zip(grads_of(batched), grads_of(mean)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # and the masks matter: another stream gives another loss
    other = trainer_mod._batch_loss(bb, train, idx, "train", RngState(44), None)
    assert abs(other.item() - mean.item()) > 1e-6


def test_perplexity_uniform_logits():
    bb = build_model(LM_CFG, 22)
    bb.head.data[:] = 0.0  # logits identically zero -> uniform predictive
    train, test = trajectory_sequences(seed=23, count=10, n_steps=5)
    assert perplexity(bb, test) == pytest.approx(LM_CFG.vocab_size, abs=1e-9)


def test_perplexity_perfect_predictions():
    bb = build_model(LM_CFG, 24)
    # final layer norm output has zero row-mean, so a bias of ones plus a
    # one-hot-ish head row yields a constant winning logit margin
    bb.ln_f_b.data[:] = 1.0
    bb.head.data[:] = 0.0
    bb.head.data[3, :] = 4.0  # logit for token 3 = 4 * d_model, others 0
    seqs = np.full((4, 6), 3, dtype=np.int64)
    ds = Dataset(inputs=seqs[:, :-1], targets=seqs[:, 1:], split="test",
                 task_id="synthetic", seed=0)
    assert perplexity(bb, ds) == pytest.approx(1.0, abs=1e-9)


def test_perplexity_at_least_one_and_empty_split():
    bb = build_model(LM_CFG, 25)
    train, test = trajectory_sequences(seed=26, count=10, n_steps=5)
    assert perplexity(bb, test) >= 1.0
    empty = Dataset(inputs=np.zeros((0, 4), dtype=np.int64),
                    targets=np.zeros((0, 4), dtype=np.int64),
                    split="test", task_id="t", seed=0)
    with pytest.raises(DomainError):
        perplexity(bb, empty)


def test_nan_loss_aborts_with_diagnostic():
    bb, adapter, task = make_regression_setup(seed=27)
    adapter.state.w_up.data[:] = np.inf
    adapter.state.w_down.data[:] = 1.0
    from ceralab.errors import TrainingDiverged
    with pytest.raises(TrainingDiverged, match="step 0"), \
            pytest.warns(RuntimeWarning, match="invalid value"):
        train_adapter(bb, [adapter], task.train, task.test,
                      TrainConfig(steps=5, batch_size=4, seed=28))


def test_requires_adapter_params():
    bb, adapter, task = make_regression_setup(seed=29)
    with pytest.raises(ConfigError):
        train_adapter(bb, [], task.train, task.test, TrainConfig(steps=1))


def test_train_report_round_trip():
    bb, adapter, task = make_regression_setup(seed=30)
    cfg = TrainConfig(steps=10, batch_size=4, seed=31)
    rep = train_adapter(bb, [adapter], task.train, task.test, cfg)
    assert len(rep.loss_curve) == 10
    assert all(np.isfinite(v) for v in rep.loss_curve)
    assert rep.final_train_loss == rep.loss_curve[-1]


def test_throughput_merged_vs_unmerged_lora():
    bb = build_model(LM_CFG, 32)
    rng = RngState(33)
    for layer in range(LM_CFG.n_layers):
        for target in ("Wq", "Wv"):
            cfg = AdapterConfig(kind="lora", r=8, targets=(target,))
            adapter = Adapter.init(cfg, *adapter_shape(LM_CFG, target),
                                   rng.child(layer * 2 + (target == "Wv")))
            adapter.state.w_down.data[:] = 0.01
            inject(bb, layer, target, adapter)
    batch = [list(range(12)) * 4] * 4  # 4 sequences of 48 tokens
    rep = measure_throughput(bb, batch, repetitions=15)
    assert rep.baseline == "merged"
    assert rep.relative_latency >= 1.0
    assert rep.tokens_per_second > 0


def test_throughput_alternates_adapter_and_baseline(monkeypatch):
    bb = build_model(LM_CFG, 36)
    cfg = AdapterConfig(kind="lora", r=2, targets=("Wv",))
    inject(bb, 0, "Wv", Adapter.init(cfg, *adapter_shape(LM_CFG, "Wv"), RngState(37)))
    adapted = []
    real = trainer_mod.forward

    def spy(backbone, *args, **kwargs):
        adapted.append(backbone is bb)
        return real(backbone, *args, **kwargs)

    monkeypatch.setattr(trainer_mod, "forward", spy)
    measure_throughput(bb, [[1, 2, 3, 4]] * 2, repetitions=4)
    assert adapted == [True, False] * 4


def test_throughput_cera_uses_bare_baseline():
    bb = build_model(LM_CFG, 34)
    cfg = AdapterConfig(kind="cera", r=4, targets=("Wv",))
    adapter = Adapter.init(cfg, *adapter_shape(LM_CFG, "Wv"), RngState(35))
    inject(bb, 0, "Wv", adapter)
    rep = measure_throughput(bb, [[1, 2, 3, 4]] * 2, repetitions=5)
    assert rep.baseline.startswith("bare-backbone")
    assert rep.median_seconds > 0
