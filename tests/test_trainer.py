import gc
import tracemalloc
import weakref
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from ceralab import trainer as trainer_mod
from ceralab.adapters import Adapter, AdapterConfig, AdapterState
from ceralab.errors import ConfigError, DomainError, TrainingDiverged
from ceralab.experiments import ExperimentConfig, build_task_bundle
from ceralab import tensor as T
from ceralab.model import (ModelConfig, adapter_shape, build_model,
                           collect_latents, forward, inject, lm_logits,
                           regressor_output)
from ceralab.tasks import (Dataset, make_teacher_task, nonlinear_teacher,
                           trajectory_sequences)
from ceralab.tensor import (cross_entropy_backward, cross_entropy_forward,
                            stream)
from ceralab.trainer import (TrainConfig, adamw_state, adamw_step,
                             clip_global_norm, cosine_lr, evaluate,
                             measure_throughput, train_adapter)

REG_CFG = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=1,
                      vocab_size=4, max_seq_len=8, v_out_dim=8,
                      mode="regressor")
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
LM_CFG = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=2,
                     vocab_size=12, max_seq_len=48, v_out_dim=8)


def adapter_of(w_up, w_down):
    """A lora adapter holding the two given matrices."""
    return Adapter(AdapterConfig(kind="lora", r=w_up.shape[0]), AdapterState(w_up, w_down))


def weights(adapters):
    """The adapters' matrices in the optimizer's buffer order: injection
    order, w_up before w_down."""
    return [w for a in adapters for w in (a.state.w_up, a.state.w_down)]


def step(grads, state, lr, cfg, clip=None):
    """One optimizer step of the training loop with the given gradients,
    one per matrix in buffer order; returns the norm before clipping."""
    views = [view for pair in state.grads.values() for view in pair]
    for view, g in zip(views, grads, strict=True):
        view[...] = g
    norm = clip_global_norm(state, clip)
    adamw_step(state, lr, cfg)
    return norm


def make_regression_setup(adapter_kind="cera", r=8, seed=1, **adapter_kw):
    bb = build_model(REG_CFG, seed)
    frozen = lambda x: forward(bb, x, mode="eval").data
    teacher = nonlinear_teacher(seed + 1, 16, 4, hidden=8)
    task = make_teacher_task(frozen, teacher, 16, n_train=32, n_test=32,
                             seed=seed + 2)
    cfg = AdapterConfig(kind=adapter_kind, r=r, **adapter_kw)
    adapter = Adapter.init(cfg, *adapter_shape(REG_CFG, "Wv"), stream(seed + 3, 9))
    inject(bb, 0, "Wv", adapter)
    return bb, adapter, task


def test_cosine_lr_endpoints_and_midpoint():
    cfg = TrainConfig(lr_max=1e-2, lr_min=1e-4, steps=100)
    assert cosine_lr(0, cfg) == pytest.approx(1e-2, rel=1e-12)
    assert cosine_lr(100, cfg) == pytest.approx(1e-4, rel=1e-12)
    assert cosine_lr(50, cfg) == pytest.approx((1e-2 + 1e-4) / 2, rel=1e-12)
    with pytest.raises(DomainError):
        cosine_lr(101, cfg)


@pytest.mark.parametrize("steps", [7, 70, 400, 3000, 5000])
def test_cosine_lr_equals_the_numpy_schedule_bit_for_bit(steps):
    # math.cos gives every step the bits np.cos gave the schedule before
    cfg = TrainConfig(steps=steps)
    for t in range(steps + 1):
        want = cfg.lr_min + 0.5 * (cfg.lr_max - cfg.lr_min) * (
            1.0 + np.cos(np.pi * t / steps))
        assert cosine_lr(t, cfg).hex() == float(want).hex()


def test_block_drawn_batches_equal_per_step_draws(monkeypatch):
    # 600 steps of batch 7 from 37 rows span several blocks and a partial one
    assert 600 % (trainer_mod.BATCH_BLOCK_BYTES // (8 * 7)) != 0
    assert 600 > 2 * (trainer_mod.BATCH_BLOCK_BYTES // (8 * 7))
    bb = build_model(REG_CFG, 76)
    inject(bb, 0, "Wv", Adapter.init(AdapterConfig(kind="lora", r=2),
                                     *adapter_shape(REG_CFG, "Wv"), stream(77, 0)))
    rng = stream(78, 0)
    rows = Dataset(inputs=rng.normal(size=(37, 16)), targets=rng.normal(size=(37, 4)))
    drawn, batch_loss = [], trainer_mod._batch_loss

    def recording(backbone, data, idx, rng, frozen):
        if rng is not None:  # a training step; the closing evaluation draws none
            drawn.append(idx.copy())
        return batch_loss(backbone, data, idx, rng, frozen)

    monkeypatch.setattr(trainer_mod, "_batch_loss", recording)
    train_adapter(bb, rows, rows, TrainConfig(steps=600, batch_size=7, seed=5))
    reference = stream(5, 0, 1)
    assert len(drawn) == 600
    for idx in drawn:
        assert np.array_equal(idx, reference.integers(0, 37, 7))


def test_adamw_first_step_golden():
    cfg = TrainConfig(weight_decay=0.0)
    adapter = adapter_of(np.array([[1.0]]), np.array([[1.0]]))
    step([np.array([[1.0]])] * 2, adamw_state([adapter]), lr=0.1, cfg=cfg)
    for w in weights([adapter]):
        assert w[0, 0] == pytest.approx(1.0 - 0.1, abs=1e-6)


def test_adamw_zero_grad_no_decay_is_noop():
    cfg = TrainConfig(weight_decay=0.0)
    adapter = adapter_of(np.array([[2.0, -3.0]]), np.array([[5.0]]))
    step([np.zeros((1, 2)), np.zeros((1, 1))], adamw_state([adapter]), lr=0.1, cfg=cfg)
    assert np.array_equal(adapter.state.w_up, [[2.0, -3.0]])
    assert np.array_equal(adapter.state.w_down, [[5.0]])


def test_adamw_decoupled_decay_shrinks():
    cfg = TrainConfig(weight_decay=0.5)
    adapter = adapter_of(np.array([[2.0]]), np.array([[2.0]]))
    step([np.zeros((1, 1))] * 2, adamw_state([adapter]), lr=0.1, cfg=cfg)
    for w in weights([adapter]):
        assert w[0, 0] == pytest.approx(2.0 * (1 - 0.1 * 0.5), rel=1e-12)


def test_train_config_rejects_values_that_break_training():
    # grad_clip <= 0 never clipped, eps = 0 divided 0 by 0 at step 1 (w_up's
    # first gradient is zero), and a negative decay grew the weights
    for kw in ({"grad_clip": 0.0}, {"grad_clip": -1.0}, {"eps": 0.0},
               {"eps": -1e-8}, {"eps": float("nan")}, {"weight_decay": -0.01}):
        key = next(iter(kw))
        with pytest.raises(ConfigError, match=key):
            TrainConfig(**kw)
    # null is the way to switch clipping off; the shipped values load
    TrainConfig(grad_clip=None, weight_decay=0.0)
    TrainConfig(grad_clip=1.0, eps=1e-8, weight_decay=0.01)


def test_clip_global_norm():
    state = adamw_state([adapter_of(np.zeros((1, 1)), np.zeros((1, 1)))])
    state.grad[:] = [3.0, 4.0]
    norm = clip_global_norm(state, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.sqrt(state.grad[0] ** 2 + state.grad[1] ** 2) == pytest.approx(1.0)
    state.grad[:] = [0.5, 0.0]
    assert clip_global_norm(state, 1.0) == 0.5
    assert state.grad.tolist() == [0.5, 0.0]  # below the clip: untouched


def injected_out_of_order():
    """A language model whose injection order is not (layer, target) order:
    cera r=3 on layer 1's Wv, then on layer 0's Wq, w_down nonzero."""
    bb = build_model(LM_CFG, 67)
    for layer, target in ((1, "Wv"), (0, "Wq")):
        adapter = Adapter.init(AdapterConfig(kind="cera", r=3),
                               *adapter_shape(LM_CFG, target), stream(68, layer))
        adapter.state.w_down[:] = stream(69, layer).normal(size=adapter.state.w_down.shape)
        inject(bb, layer, target, adapter)
    assert list(bb.adapters) == [(1, "Wv"), (0, "Wq")]
    return bb


def test_each_parameters_gradient_is_its_shaped_view_of_the_flat_buffer():
    # a pullback finds an adapter's gradient slices by the adapter, not by
    # position: each is its own slice of the flat buffer, in injection order
    bb = injected_out_of_order()
    adapters = list(bb.adapters.values())
    state = adamw_state(adapters)
    assert list(state.grads) == adapters
    views = [view for a in adapters for view in state.grads[a]]
    b = state.bounds
    for i, (w, view) in enumerate(zip(weights(adapters), views)):
        assert type(view) is np.ndarray and view.shape == w.shape
        assert view.base is state.grad
        view[...] = b[i] + 1.0
        assert np.all(state.grad[b[i]:b[i + 1]] == b[i] + 1.0)
    # the second adapter's pullback writes its two slices and nothing else
    state.grad[:] = np.nan
    x = stream(70, 0).normal(size=(5, LM_CFG.d_model))
    _, pullback = adapters[1].delta_rows(x, None)
    pullback(stream(71, 0).normal(size=(5, LM_CFG.qk_dim)), state.grads, None)
    assert np.isnan(state.grad[:b[2]]).all() and not np.isnan(state.grad[b[2]:]).any()


def test_clip_scales_a_gradient_shared_by_two_parameters_once():
    rng = stream(66, 0)
    adapter = adapter_of(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
    w = rng.normal(size=(3, 3))
    w_before = w.copy()
    state = adamw_state([adapter])
    for view in state.grads[adapter]:  # one upstream array handed to both
        view[...] = w
    norm = clip_global_norm(state, 0.5)
    assert norm == pytest.approx(np.sqrt(2.0) * np.linalg.norm(w), rel=1e-14)
    want = w * (0.5 / norm)
    assert np.array_equal(state.grad[:9].reshape(3, 3), want)
    assert np.array_equal(state.grad[9:].reshape(3, 3), want)
    assert np.array_equal(w, w_before)  # the shared array is never written


def test_adamw_state_makes_every_parameter_a_view_of_one_buffer():
    # each adapter's w_up and w_down become plain arrays over their slice of
    # the one buffer, in injection order, holding the values they had
    bb = injected_out_of_order()
    adapters = list(bb.adapters.values())
    values = [w.copy() for w in weights(adapters)]
    state = adamw_state(adapters)
    # Wv: w_up 3x16, w_down 8x3; Wq: w_up 3x16, w_down 16x3
    assert state.data.shape == (168,) and state.bounds == [0, 48, 72, 120, 168]
    b = state.bounds
    for i, (w, value) in enumerate(zip(weights(adapters), values)):
        assert type(w) is np.ndarray and w.flags["C_CONTIGUOUS"]
        assert w.base is state.data and w.size == b[i + 1] - b[i]
        assert np.shares_memory(w, state.data[b[i]:b[i + 1]])
        assert np.array_equal(w, value)


def test_in_place_adamw_matches_the_formula_bit_for_bit():
    cfg = TrainConfig(weight_decay=0.01)
    rng = stream(70, 0)
    adapter = adapter_of(rng.normal(size=(4, 6)), rng.normal(size=(6, 4)))
    want = [w.copy() for w in weights([adapter])]
    m = [np.zeros_like(w) for w in want]
    v = [np.zeros_like(w) for w in want]
    state = adamw_state([adapter])
    for t in range(1, 51):
        lr = 1e-2 / t
        grads = [rng.normal(size=w.shape) for w in want]
        step(grads, state, lr, cfg)
        bc1, bc2 = 1.0 - cfg.beta1 ** t, 1.0 - cfg.beta2 ** t
        for i, g in enumerate(grads):
            want[i] = want[i] * (1.0 - lr * cfg.weight_decay)
            m[i] = m[i] * cfg.beta1 + (1.0 - cfg.beta1) * g
            v[i] = v[i] * cfg.beta2 + (1.0 - cfg.beta2) * g * g
            want[i] = want[i] - lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + cfg.eps)
    for p, w in zip(weights([adapter]), want, strict=True):
        assert p.tobytes() == w.tobytes()


def per_parameter_clip(grads, clip):
    """The clip as it ran one parameter at a time: a scaled entry is a new
    array."""
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if clip is not None and norm > clip:
        scale = clip / norm
        grads[:] = [g * scale for g in grads]
    return norm


def per_parameter_adamw(params, grads, moments, t, lr, cfg):
    """AdamW as it ran one parameter at a time, in place in two scratch
    buffers per parameter; `moments` holds (m, v) per parameter."""
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    for p, g, (m, v) in zip(params, grads, moments):
        a, b = np.empty_like(p), np.empty_like(p)
        if cfg.weight_decay:
            p *= 1.0 - lr * cfg.weight_decay
        m *= cfg.beta1
        np.multiply(1.0 - cfg.beta1, g, out=a)
        m += a
        v *= cfg.beta2
        np.multiply(1.0 - cfg.beta2, g, out=a)
        a *= g
        v += a
        np.divide(m, bc1, out=a)
        np.multiply(lr, a, out=a)
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += cfg.eps
        a /= b
        p -= a


def test_flat_adamw_equals_the_per_parameter_loop_bit_for_bit():
    cfg = TrainConfig(weight_decay=0.01)
    rng = stream(72, 0)
    adapter = adapter_of(rng.normal(size=(3, 7)), rng.normal(size=(5, 3)))
    want = [w.copy() for w in weights([adapter])]
    moments = [(np.zeros_like(w), np.zeros_like(w)) for w in want]
    state = adamw_state([adapter])
    clipped = 0
    # past t = 355, 1 - beta1 ** t is exactly 1.0 and the step skips dividing by it
    for t in range(1, 401):
        lr = cosine_lr(t, TrainConfig(steps=400))
        grads = [rng.normal(size=w.shape) * (0.05 + 0.02 * t) for w in want]
        norm = step(grads, state, lr, cfg, clip=1.0)
        copies = list(grads)
        assert norm == per_parameter_clip(copies, 1.0)
        clipped += norm > 1.0
        per_parameter_adamw(want, copies, moments, t, lr, cfg)
    assert 0 < clipped < 400  # both branches of the clip ran
    assert 1.0 - cfg.beta1 ** 355 < 1.0 == 1.0 - cfg.beta1 ** 356
    for p, w in zip(weights([adapter]), want, strict=True):
        assert p.tobytes() == w.tobytes()


def test_zero_step_run_leaves_weights_and_metric():
    bb, adapter, task = make_regression_setup()
    before_up = adapter.state.w_up.copy()
    baseline_metric = evaluate(bb, task.test)
    rep = train_adapter(bb, task.train, task.test,
                        TrainConfig(steps=0, batch_size=4))
    assert rep.loss_curve == []
    assert np.array_equal(adapter.state.w_up, before_up)
    assert rep.test_metric == baseline_metric
    assert np.isfinite(rep.final_train_loss)


def test_memorization_smoke():
    bb = build_model(REG_CFG, 7)
    frozen = lambda x: forward(bb, x, mode="eval").data
    teacher = nonlinear_teacher(8, 16, 4, hidden=8)
    task = make_teacher_task(frozen, teacher, 16, n_train=4, n_test=4, seed=9)
    cfg = AdapterConfig(kind="cera", r=8, dropout_p=0.0)
    adapter = Adapter.init(cfg, *adapter_shape(REG_CFG, "Wv"), stream(10, 9))
    inject(bb, 0, "Wv", adapter)
    rep = train_adapter(bb, task.train, task.test,
                        TrainConfig(steps=2000, batch_size=4, weight_decay=0.0,
                                    seed=11))
    assert min(rep.loss_curve) < 1e-3


def test_backbone_frozen_through_training():
    bb, adapter, task = make_regression_setup(seed=12)
    before = bb.checksum()
    train_adapter(bb, task.train, task.test,
                  TrainConfig(steps=30, batch_size=8, seed=13))
    assert bb.checksum() == before


def test_seed_determinism_bit_for_bit():
    def run():
        bb, adapter, task = make_regression_setup(seed=14)
        rep = train_adapter(bb, task.train, task.test,
                            TrainConfig(steps=40, batch_size=8, seed=15))
        return rep.loss_curve, adapter.state.w_up.copy()

    (c1, w1), (c2, w2) = run(), run()
    assert c1 == c2
    assert np.array_equal(w1, w2)


def test_dropout_active_in_train_only():
    # dropout runs exactly when a stream is given
    bb, adapter, task = make_regression_setup(seed=16, dropout_p=0.5)
    adapter.state.w_down[:] = stream(17, 0).normal(size=adapter.state.w_down.shape)
    x = task.train.inputs[:8]
    eval_a, _ = regressor_output(bb, x)
    eval_b, _ = regressor_output(bb, x)
    assert np.array_equal(eval_a, eval_b)
    train_a, _ = regressor_output(bb, x, stream(18, 0))
    train_b, _ = regressor_output(bb, x, stream(19, 0))
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


def test_evaluate_is_the_training_loss_without_dropout(monkeypatch):
    # bit for bit the test MSE and the perplexity as computed directly,
    # after training adapters that drop out, and with no dropout mask
    reg, _, task = make_regression_setup(seed=60, dropout_p=0.5)
    train_adapter(reg, task.train, task.test, TrainConfig(steps=20, batch_size=8))
    lm = lm_with_adapters("channel")
    train, test = trajectory_sequences(seed=61, count=10, n_steps=5)
    train_adapter(lm, train, test, TrainConfig(steps=3, batch_size=4))
    x, y = task.test.inputs, task.test.targets
    want_mse = np.mean((regressor_output(reg, x)[0] - y) ** 2)
    want_ppl = np.exp(cross_entropy_forward(
        lm_logits(lm, test.inputs, None)[0], test.targets.reshape(-1))[0])
    masked, delta_rows = [], Adapter.delta_rows
    monkeypatch.setattr(Adapter, "delta_rows", lambda self, x, mask: (
        masked.append(mask is not None), delta_rows(self, x, mask))[1])
    got_mse = evaluate(reg, task.test)
    got_ppl = evaluate(lm, test)
    assert got_mse.hex() == float(want_mse).hex()
    assert got_ppl.hex() == float(want_ppl).hex()
    assert masked and not any(masked)


def test_evaluation_capture_and_forward_keep_nothing_for_a_pullback(monkeypatch):
    # evaluate, both capture sources in both model modes and forward drop
    # every adapter's pullback, and with it what the pullback would read,
    # by the time they return; a training pass keeps them while its own
    # pullback is held
    reg, _, task = make_regression_setup(seed=62, dropout_p=0.5)
    lm = lm_with_adapters("elementwise")
    lm_wv = build_model(LM_CFG, 63)  # Wv only: its delta rows share one width
    for layer in range(LM_CFG.n_layers):
        adapter = Adapter.init(AdapterConfig(kind="cera", r=4),
                               *adapter_shape(LM_CFG, "Wv"), stream(64, layer))
        adapter.state.w_down[:] = stream(65, layer).normal(size=adapter.state.w_down.shape)
        inject(lm_wv, layer, "Wv", adapter)
    train, test = trajectory_sequences(seed=66, count=10, n_steps=5)
    x = task.test.inputs
    captures = [(reg, x, "latent_H"), (reg, x, "output_delta_D"),
                (lm, test.inputs, "latent_H"), (lm_wv, test.inputs, "output_delta_D")]
    # (pass, whether it runs an adapter's delta): only the regressor's latent
    # capture does not
    passes = [(lambda: evaluate(reg, task.test), True), (lambda: evaluate(lm, test), True),
              (lambda: forward(reg, x), True), (lambda: forward(lm, test.inputs), True)]
    passes += [(lambda c=c: collect_latents(*c), c[0] is not reg or c[2] == "output_delta_D")
               for c in captures]
    pullbacks, delta_rows = [], Adapter.delta_rows

    def recording(self, rows, mask):
        out = delta_rows(self, rows, mask)
        pullbacks.append(weakref.ref(out[1]))
        return out

    monkeypatch.setattr(Adapter, "delta_rows", recording)
    gc.disable()  # only reference counts may free them
    try:
        for run, deltas in passes:
            pullbacks.clear()
            run()
            assert bool(pullbacks) == deltas
            assert all(ref() is None for ref in pullbacks)
        pullbacks.clear()
        _, pullback = trainer_mod._batch_loss(lm, train, np.arange(4), stream(67, 0), None)
        assert len(pullbacks) == 5 and all(ref() is not None for ref in pullbacks)
        del pullback
        assert all(ref() is None for ref in pullbacks)
    finally:
        gc.enable()


# tracemalloc peaks (MiB) of the bench's trajectory model with an r=16
# adapter on Wq and Wv of both blocks: one training step at batch 8
# (forward, and the pullback into the flat gradient buffer) and `evaluate`
# over the 12-sequence test split. With cera: when every tape node lived to
# the end of backward and evaluate recorded a tape they read 20.1 and 25.2;
# freed as backward went and with no tape they read 15.2 and 7.0; the
# explicit pass read 12.1 and 6.8, and 11.9 and 6.8 both with attention's
# head copies and with its head views; lora read 11.2 there. The step
# bound is set below both, which kept the lowest block's norm rows and q,
# the keys' second copy and a hidden-width SiLU slope. A pass that keeps
# only what its pullback reads reads 10.7 (cera) and 9.9 (lora), and 6.8
STEP_PEAK_MIB = 11.0
EVALUATE_PEAK_MIB = 10.0


def peak_mib(fn) -> float:
    """The tracemalloc peak of a second call of `fn`, in MiB."""
    fn()  # warm
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["cera", "lora"])
def test_training_step_and_evaluation_memory_peaks(kind):
    cfg = ModelConfig(d_model=64, n_heads=4, d_head=16, n_layers=2, vocab_size=12,
                      max_seq_len=64, v_out_dim=32)
    bb = build_model(cfg, 0)
    for layer in range(cfg.n_layers):
        for target in ("Wq", "Wv"):
            inject(bb, layer, target, Adapter.init(
                AdapterConfig(kind=kind, r=16), *adapter_shape(cfg, target),
                stream(1, len(bb.adapters))))
    train, test = trajectory_sequences(n_steps=8, count=64, seed=0)
    assert train.inputs.shape[1] == 61 and len(test) == 12
    opt = adamw_state(list(bb.adapters.values()))
    drop_rng = stream(0, 0, 2)

    def step():
        _, pullback = trainer_mod._batch_loss(bb, train, np.arange(8), drop_rng, None)
        pullback(opt.grads)

    step_peak, eval_peak = peak_mib(step), peak_mib(lambda: evaluate(bb, test))
    assert step_peak < STEP_PEAK_MIB, f"training step peak {step_peak:.2f} MiB"
    assert eval_peak < EVALUATE_PEAK_MIB, f"evaluate peak {eval_peak:.2f} MiB"


# tracemalloc peaks (MiB) of the shipped ceiling task: building its bundle
# (the teacher's targets over 1024 rows, the linear floor) and the frozen
# regressor term of its 512 test rows, which the training split and
# `evaluate` each compute once per run. With the FFN's three hidden-width
# arrays over all rows at once they read 7.92 and 3.50; both bounds were set
# below those before the blocked FFN was first measured against them
TASK_BUILD_PEAK_MIB = 5.0
FROZEN_TERM_PEAK_MIB = 3.0


def test_ceiling_task_build_and_frozen_term_memory_peaks():
    model = ExperimentConfig.load(CONFIG_DIR / "ceiling_sweep.json").model
    bundle = build_task_bundle("nonlinear_teacher", model)
    bb = build_model(model, bundle.backbone_seed)
    assert len(bundle.test) == 512
    build_peak = peak_mib(lambda: build_task_bundle("nonlinear_teacher", model))
    frozen_peak = peak_mib(lambda: trainer_mod.regressor_frozen(bb, bundle.test.inputs))
    assert build_peak < TASK_BUILD_PEAK_MIB, f"task build peak {build_peak:.2f} MiB"
    assert frozen_peak < FROZEN_TERM_PEAK_MIB, f"frozen term peak {frozen_peak:.2f} MiB"


# capture and forward over the same 12 test sequences, with cera r=16 on Wv
# (one delta width) of the same model: 6.97 MiB each while they ran the
# tape under `_no_tape`, 6.80 MiB now, with attention's head copies or its
# head views. They keep nothing for a pullback, so they share evaluate's
# bound
@pytest.mark.parametrize("which", ["latent_H", "output_delta_D", "forward"])
def test_capture_and_forward_memory_peaks(which):
    cfg = ModelConfig(d_model=64, n_heads=4, d_head=16, n_layers=2, vocab_size=12,
                      max_seq_len=64, v_out_dim=32)
    bb = build_model(cfg, 0)
    for layer in range(cfg.n_layers):
        inject(bb, layer, "Wv", Adapter.init(AdapterConfig(kind="cera", r=16),
                                             *adapter_shape(cfg, "Wv"), stream(1, layer)))
    _, test = trajectory_sequences(n_steps=8, count=64, seed=0)
    peak = peak_mib((lambda: forward(bb, test.inputs)) if which == "forward"
                    else (lambda: collect_latents(bb, test.inputs, which)))
    assert peak < EVALUATE_PEAK_MIB, f"{which} peak {peak:.2f} MiB"


HALVES = ("mlp_hidden", "mlp_forward", "mlp_backward", "causal_attention_forward",
          "causal_attention_backward", "layer_norm_forward", "layer_norm_backward",
          "cross_entropy_forward", "cross_entropy_backward")


def counted_halves(monkeypatch) -> Counter:
    """The counter that collects, by name, every call of a numpy half in
    `tensor` made from now."""
    calls = Counter()
    for name in HALVES:
        monkeypatch.setattr(T, name, lambda *args, _fn=getattr(T, name), _name=name: (
            calls.update([_name]), _fn(*args))[1])
    return calls


def step_gradient_error(bb, data, idx, drop_seed) -> float:
    """The worst finite-difference error of one training step's flat
    gradient, dropout drawn from a fresh stream `drop_seed` each time."""
    frozen = (trainer_mod.regressor_frozen(bb, data.inputs)
              if bb.cfg.mode == "regressor" else None)
    state = adamw_state(list(bb.adapters.values()))
    state.grad[:] = np.nan
    _, pullback = trainer_mod._batch_loss(bb, data, idx, stream(drop_seed, 0), frozen)
    pullback(state.grads)
    flat = state.data
    loss = lambda: trainer_mod._batch_loss(bb, data, idx, stream(drop_seed, 0), frozen)[0]

    def f(probe):
        flat[:] = probe
        return loss()

    return T.finite_difference_check(f, flat.copy(), state.grad.copy(), 1e-6)


def test_a_regressor_training_step_runs_one_pair_of_halves_per_adapter(monkeypatch):
    # the adapters' deltas are the two-matrix map's numpy halves, and the
    # head and the loss are plain numpy: a step runs each adapter's forward
    # half and, in its pullback, its backward half, and nothing else.
    # lora's scale 2 and the module's activation and dropout included
    bb = build_model(REG_CFG, 73)
    for target, cfg in (("Wv", AdapterConfig(kind="lora", r=2, alpha=4)),
                        ("attn_block", AdapterConfig(kind="parallel_module", r=2))):
        inject(bb, 0, target, Adapter.init(cfg, *adapter_shape(REG_CFG, target),
                                           stream(74, len(bb.adapters))))
        bb.adapters[(0, target)].state.w_down[:] = 0.3
    rng = stream(75, 0)
    rows = Dataset(inputs=rng.normal(size=(8, 16)), targets=rng.normal(size=(8, 4)))
    frozen = trainer_mod.regressor_frozen(bb, rows.inputs)
    calls = counted_halves(monkeypatch)
    _, pullback = trainer_mod._batch_loss(bb, rows, np.arange(4), stream(76, 0), frozen)
    assert calls == {"mlp_forward": 2, "mlp_hidden": 2}
    pullback(adamw_state(list(bb.adapters.values())).grads)
    assert calls == {"mlp_forward": 2, "mlp_hidden": 2, "mlp_backward": 2}
    monkeypatch.undo()
    # and the flat gradient it wrote is the loss's
    assert step_gradient_error(bb, Dataset(rows.inputs[:4], rows.targets[:4]),
                               np.arange(4), 76) < 1e-8


def test_each_training_step_is_one_reverse_pass(monkeypatch):
    # in both model modes a step's backward is one `tensor.backward` call
    # of its pullback, whose span is the step's backward phase
    calls = []
    monkeypatch.setattr(trainer_mod, "backward", lambda pullback: (
        calls.append(callable(pullback)), T.backward(pullback))[1])
    bb = build_model(REG_CFG, 79)
    for target, cfg in (("Wv", AdapterConfig(kind="cera", r=2)),
                        ("attn_block", AdapterConfig(kind="parallel_module", r=2))):
        inject(bb, 0, target, Adapter.init(cfg, *adapter_shape(REG_CFG, target),
                                           stream(80, len(bb.adapters))))
    rng = stream(81, 0)
    rows = Dataset(inputs=rng.normal(size=(8, 16)), targets=rng.normal(size=(8, 4)))
    train_adapter(bb, rows, rows, TrainConfig(steps=3, batch_size=4))
    assert calls == [True] * 3
    calls.clear()
    lm = build_model(LM_CFG, 82)
    inject(lm, 0, "Wv", Adapter.init(AdapterConfig(kind="cera", r=2),
                                     *adapter_shape(LM_CFG, "Wv"), stream(83, 0)))
    train, test = trajectory_sequences(n_steps=5, count=6, seed=84)
    train_adapter(lm, train, test, TrainConfig(steps=2, batch_size=2))
    assert calls == [True] * 2


def test_a_language_model_training_step_runs_each_half_once_per_piece(monkeypatch):
    # cera on Wq and Wv of both layers: per layer two layer norms, three
    # two-matrix maps (two adapters and the FFN) and one attention, then the
    # last layer norm and the loss. The pullback runs each backward half
    # once per piece, except the lowest block's first layer norm: no
    # adapter reads that block's input. Evaluation runs no backward half
    bb = build_model(LM_CFG, 76)
    for layer in range(LM_CFG.n_layers):
        for target in ("Wq", "Wv"):
            inject(bb, layer, target, Adapter.init(
                AdapterConfig(kind="cera", r=4), *adapter_shape(LM_CFG, target),
                stream(77, len(bb.adapters))))
            w_down = bb.adapters[(layer, target)].state.w_down
            w_down[:] = stream(78, len(bb.adapters)).normal(size=w_down.shape)
    train, test = trajectory_sequences(n_steps=5, count=6, seed=78)
    forward_halves = {"layer_norm_forward": 5, "mlp_forward": 6, "mlp_hidden": 6,
                      "causal_attention_forward": 2, "cross_entropy_forward": 1}
    calls = counted_halves(monkeypatch)
    _, pullback = trainer_mod._batch_loss(bb, train, np.arange(4), stream(79, 0), None)
    assert calls == forward_halves
    calls.clear()
    pullback(adamw_state(list(bb.adapters.values())).grads)
    assert calls == {"cross_entropy_backward": 1, "layer_norm_backward": 4,
                     "mlp_backward": 6, "causal_attention_backward": 2}
    calls.clear()
    evaluate(bb, test)
    assert calls == forward_halves
    monkeypatch.undo()
    # and the flat gradient it wrote is the loss's
    assert step_gradient_error(bb, train, np.arange(2), 80) < 1e-6


def lm_with_adapters(style):
    """LM_CFG with cera on Wq and Wv of both layers and a module adapter on
    the last block, all with dropout, and non-zero down-projections."""
    bb = build_model(LM_CFG, 40)
    rng = stream(41, 0)
    for layer in range(LM_CFG.n_layers):
        for target in ("Wq", "Wv"):
            cfg = AdapterConfig(kind="cera", r=4, dropout_p=0.3,
                                dropout_style=style)
            inject(bb, layer, target, Adapter.init(
                cfg, *adapter_shape(LM_CFG, target), stream(41, 0, len(bb.adapters))))
    cfg = AdapterConfig(kind="parallel_module", r=4, dropout_p=0.3, dropout_style=style)
    inject(bb, 1, "attn_block", Adapter.init(
        cfg, *adapter_shape(LM_CFG, "attn_block"), stream(41, 0, 9)))
    for adapter in bb.adapters.values():
        adapter.state.w_down[:] = rng.normal(size=adapter.state.w_down.shape) * 0.3
    return bb


@pytest.mark.parametrize("style", ["elementwise", "channel"])
def test_batched_train_loss_is_mean_of_single_sequence_losses(style):
    # one pass over the batch draws each sequence's dropout masks as running
    # the sequences one by one from the same stream would
    bb = lm_with_adapters(style)
    adapters = list(bb.adapters.values())
    train, _ = trajectory_sequences(seed=42, count=10, n_steps=5)
    idx = np.array([3, 0, 3, 5, 1, 5])  # duplicates draw masks of their own

    def grads_of(pullbacks):
        """The sum of the gradients each pullback writes, in order."""
        total = [np.zeros(w.shape) for w in weights(adapters)]
        for pullback in pullbacks:
            grads = {a: (np.empty(a.state.w_up.shape), np.empty(a.state.w_down.shape))
                     for a in adapters}
            pullback(grads)
            for t, g in zip(total, (g for a in adapters for g in grads[a])):
                t += g
        return total

    batched, pullback = trainer_mod._batch_loss(bb, train, idx, stream(43, 0), None)
    rng = stream(43, 0)
    single = []
    for i in idx:
        logits, logits_pullback = lm_logits(bb, train.inputs[i], rng)
        single.append((*cross_entropy_forward(logits, train.targets[i]), logits_pullback))
    mean = sum(loss for loss, _, _ in single) * (1.0 / len(idx))
    assert abs(batched - mean) <= 1e-12 * abs(mean)
    # the mean's gradient: each sequence's loss gradient over the batch size
    seeded = [partial(logits_pullback, cross_entropy_backward(saved) * (1.0 / len(idx)))
              for _, saved, logits_pullback in single]
    for got, want in zip(grads_of([pullback]), grads_of(seeded)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # and the masks matter: another stream gives another loss
    other, _ = trainer_mod._batch_loss(bb, train, idx, stream(44, 0), None)
    assert abs(other - mean) > 1e-6


def test_perplexity_uniform_logits():
    bb = build_model(LM_CFG, 22)
    bb.head[:] = 0.0  # logits identically zero -> uniform predictive
    train, test = trajectory_sequences(seed=23, count=10, n_steps=5)
    assert evaluate(bb, test) == pytest.approx(LM_CFG.vocab_size, abs=1e-9)


def test_perplexity_perfect_predictions():
    bb = build_model(LM_CFG, 24)
    # final layer norm output has zero row-mean, so a bias of ones plus a
    # one-hot-ish head row yields a constant winning logit margin
    bb.ln_f_b[:] = 1.0
    bb.head[:] = 0.0
    bb.head[3, :] = 4.0  # logit for token 3 = 4 * d_model, others 0
    seqs = np.full((4, 6), 3, dtype=np.int64)
    ds = Dataset(inputs=seqs[:, :-1], targets=seqs[:, 1:])
    assert evaluate(bb, ds) == pytest.approx(1.0, abs=1e-9)


def test_perplexity_at_least_one_and_empty_split():
    bb = build_model(LM_CFG, 25)
    train, test = trajectory_sequences(seed=26, count=10, n_steps=5)
    assert evaluate(bb, test) >= 1.0
    empty = Dataset(inputs=np.zeros((0, 4), dtype=np.int64),
                    targets=np.zeros((0, 4), dtype=np.int64))
    with pytest.raises(DomainError):
        evaluate(bb, empty)
    # an empty regressor split too, rather than a nan
    empty_rows = Dataset(inputs=np.zeros((0, 16)), targets=np.zeros((0, 4)))
    with pytest.raises(DomainError):
        evaluate(build_model(REG_CFG, 25), empty_rows)


def test_nan_loss_aborts_with_diagnostic():
    bb, adapter, task = make_regression_setup(seed=27)
    adapter.state.w_up[:] = np.inf
    adapter.state.w_down[:] = 1.0
    with pytest.raises(TrainingDiverged, match="step 0"), \
            pytest.warns(RuntimeWarning, match="invalid value"):
        train_adapter(bb, task.train, task.test,
                      TrainConfig(steps=5, batch_size=4, seed=28))


@pytest.mark.parametrize("target", ["Wq", "Wv"])
def test_a_language_model_nan_loss_aborts_with_diagnostic(target):
    # inf adapter weights make every q (scores) or v (values) entry nan; the
    # softmax's row max reads only each query's kept positions, and a
    # non-finite score must still reach the loss and end the run
    bb = build_model(LM_CFG, 85)
    for layer in range(LM_CFG.n_layers):
        adapter = Adapter.init(AdapterConfig(kind="cera", r=2),
                               *adapter_shape(LM_CFG, target), stream(86, layer))
        adapter.state.w_up[:] = np.inf
        adapter.state.w_down[:] = 1.0
        inject(bb, layer, target, adapter)
    train, test = trajectory_sequences(n_steps=5, count=6, seed=87)
    with pytest.raises(TrainingDiverged, match="non-finite loss nan at step 0"), \
            pytest.warns(RuntimeWarning, match="invalid value encountered in matmul"):
        train_adapter(bb, train, test, TrainConfig(steps=3, batch_size=2, seed=88))


def test_an_overflowing_gradient_norm_aborts_rather_than_zeroing_the_step():
    # at scale_s 1e300 the squared gradient overflows, so the global norm is
    # inf, and clipping by clip / inf would zero every entry and leave w_down
    # at exactly 0 while the run passed for a success
    bb, adapter, task = make_regression_setup(seed=41, scale_s=1e300)
    with np.errstate(over="ignore"), \
            pytest.raises(TrainingDiverged, match="gradient norm inf at step 0"):
        train_adapter(bb, task.train, task.test,
                      TrainConfig(steps=5, batch_size=4, seed=42))


def test_a_non_finite_test_metric_aborts():
    # a 0-step run trains nothing, so only the test metric can catch the
    # overflow of these weights' outputs
    bb, adapter, task = make_regression_setup(seed=43)
    adapter.state.w_down[:] = 1e300
    with np.errstate(over="ignore"), \
            pytest.raises(TrainingDiverged, match="non-finite test metric inf"):
        train_adapter(bb, task.train, task.test, TrainConfig(steps=0, batch_size=4))


def test_requires_adapter_params():
    # training reads the backbone's adapter registry: an empty one is an error
    _, _, task = make_regression_setup(seed=29)
    with pytest.raises(ConfigError):
        train_adapter(build_model(REG_CFG, 29), task.train, task.test,
                      TrainConfig(steps=1))


def test_train_report_round_trip():
    bb, adapter, task = make_regression_setup(seed=30)
    cfg = TrainConfig(steps=10, batch_size=4, seed=31)
    rep = train_adapter(bb, task.train, task.test, cfg)
    assert len(rep.loss_curve) == 10
    assert all(np.isfinite(v) for v in rep.loss_curve)
    assert rep.final_train_loss == rep.loss_curve[-1]


def test_throughput_merged_vs_unmerged_lora():
    bb = build_model(LM_CFG, 32)
    for layer in range(LM_CFG.n_layers):
        for target in ("Wq", "Wv"):
            cfg = AdapterConfig(kind="lora", r=8)
            adapter = Adapter.init(cfg, *adapter_shape(LM_CFG, target),
                                   stream(33, 0, layer * 2 + (target == "Wv")))
            adapter.state.w_down[:] = 0.01
            inject(bb, layer, target, adapter)
    batch = [list(range(12)) * 4] * 4  # 4 sequences of 48 tokens
    # a forward here takes well under a millisecond; at 15 repetitions one
    # burst of host noise put the ratio's median at 0.90
    rep = measure_throughput(bb, batch, repetitions=75)
    assert rep.baseline == "merged"
    assert rep.relative_latency >= 1.0
    assert rep.tokens_per_second > 0


def test_throughput_alternates_adapter_and_baseline(monkeypatch):
    bb = build_model(LM_CFG, 36)
    cfg = AdapterConfig(kind="lora", r=2)
    inject(bb, 0, "Wv", Adapter.init(cfg, *adapter_shape(LM_CFG, "Wv"), stream(37, 0)))
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
    cfg = AdapterConfig(kind="cera", r=4)
    adapter = Adapter.init(cfg, *adapter_shape(LM_CFG, "Wv"), stream(35, 0))
    inject(bb, 0, "Wv", adapter)
    rep = measure_throughput(bb, [[1, 2, 3, 4]] * 2, repetitions=5)
    assert rep.baseline.startswith("bare-backbone")
    assert rep.tokens_per_second > 0
