import contextlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ceralab import trainer as trainer_mod
from ceralab.adapters import Adapter, AdapterConfig
from ceralab.errors import ConfigError, DomainError, ShapeError
from ceralab import tensor as T
from ceralab.model import (ModelConfig, adapter_shape, build_model,
                           collect_latents, forward, inject, lm_logits,
                           regressor_output)
from ceralab.tasks import (Dataset, make_teacher_task, nonlinear_teacher,
                           trajectory_sequences)
from ceralab.tensor import RngState, Tensor
from ceralab.trainer import (TrainConfig, adamw_state, adamw_step,
                             clip_global_norm, cosine_lr, evaluate,
                             gather_grads, measure_throughput, train_adapter)

REG_CFG = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=1,
                      vocab_size=4, max_seq_len=8, v_out_dim=8,
                      mode="regressor")
LM_CFG = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=2,
                     vocab_size=12, max_seq_len=48, v_out_dim=8)


def step(params, grads, state, lr, cfg, clip=None):
    """One optimizer step of the training loop with the given gradients;
    returns the norm before clipping."""
    for p, g in zip(params, grads):
        p.grad = g
    gather_grads(params, state)
    norm = clip_global_norm(state, clip)
    adamw_step(state, lr, cfg)
    return norm


def make_regression_setup(adapter_kind="cera", r=8, seed=1, **adapter_kw):
    bb = build_model(REG_CFG, seed)
    frozen = lambda x: forward(bb, Tensor(x), mode="eval").data
    teacher = nonlinear_teacher(seed + 1, 16, 4, hidden=8)
    task = make_teacher_task(frozen, teacher, 16, n_train=32, n_test=32,
                             seed=seed + 2)
    cfg = AdapterConfig(kind=adapter_kind, r=r, **adapter_kw)
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
                                     *adapter_shape(REG_CFG, "Wv"), RngState(77)))
    rng = RngState(78)
    rows = Dataset(inputs=rng.normal((37, 16)), targets=rng.normal((37, 4)))
    drawn, batch_loss = [], trainer_mod._batch_loss

    def recording(backbone, data, idx, rng, frozen):
        if rng is not None:  # a training step; the closing evaluation draws none
            drawn.append(idx.copy())
        return batch_loss(backbone, data, idx, rng, frozen)

    monkeypatch.setattr(trainer_mod, "_batch_loss", recording)
    train_adapter(bb, rows, rows, TrainConfig(steps=600, batch_size=7, seed=5))
    reference = RngState(5).child(1)
    assert len(drawn) == 600
    for idx in drawn:
        assert np.array_equal(idx, reference.integers(0, 37, 7))


def test_adamw_first_step_golden():
    cfg = TrainConfig(weight_decay=0.0)
    p = Tensor(np.array([1.0]), requires_grad=True)
    step([p], [np.array([1.0])], adamw_state([p]), lr=0.1, cfg=cfg)
    assert p.data[0] == pytest.approx(1.0 - 0.1, abs=1e-6)


def test_adamw_zero_grad_no_decay_is_noop():
    cfg = TrainConfig(weight_decay=0.0)
    p = Tensor(np.array([2.0, -3.0]), requires_grad=True)
    step([p], [np.zeros(2)], adamw_state([p]), lr=0.1, cfg=cfg)
    assert np.array_equal(p.data, [2.0, -3.0])


def test_adamw_decoupled_decay_shrinks():
    cfg = TrainConfig(weight_decay=0.5)
    p = Tensor(np.array([2.0]), requires_grad=True)
    step([p], [np.zeros(1)], adamw_state([p]), lr=0.1, cfg=cfg)
    assert p.data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5), rel=1e-12)


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
    params = [Tensor(np.zeros(1), requires_grad=True) for _ in range(2)]
    state = adamw_state(params)
    params[0].grad, params[1].grad = np.array([3.0]), np.array([4.0])
    gather_grads(params, state)
    norm = clip_global_norm(state, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.sqrt(state.grad[0] ** 2 + state.grad[1] ** 2) == pytest.approx(1.0)
    params[0].grad, params[1].grad = np.array([0.5]), None  # no gradient: zero
    gather_grads(params, state)
    assert clip_global_norm(state, 1.0) == 0.5
    assert state.grad.tolist() == [0.5, 0.0]  # below the clip: untouched


def test_gather_grads_checks_shapes():
    params = [Tensor(np.zeros((2, 3)), requires_grad=True)]
    state = adamw_state(params)
    params[0].grad = np.zeros((3, 2))
    with pytest.raises(ShapeError, match="grad shape"):
        gather_grads(params, state)
    with pytest.raises(ShapeError, match="align"):
        gather_grads(params * 2, state)


def test_clip_scales_a_gradient_shared_by_two_parameters_once():
    rng = RngState(66)
    p = Tensor(rng.normal((3, 3)), requires_grad=True)
    q = Tensor(rng.normal((3, 3)), requires_grad=True)
    w = rng.normal((3, 3))
    T.backward(T.add(p, q), w.copy())
    assert p.grad is q.grad  # both adopted the one upstream array
    state = adamw_state([p, q])
    gather_grads([p, q], state)
    norm = clip_global_norm(state, 0.5)
    assert norm == pytest.approx(np.sqrt(2.0) * np.linalg.norm(w), rel=1e-14)
    want = w * (0.5 / norm)
    assert np.array_equal(state.grad[:9].reshape(3, 3), want)
    assert np.array_equal(state.grad[9:].reshape(3, 3), want)
    assert np.array_equal(p.grad, w)  # the shared array is never written


def test_adamw_state_makes_every_parameter_a_view_of_one_buffer():
    rng = RngState(71)
    params = [Tensor(rng.normal((4, 6)), requires_grad=True),
              Tensor(rng.normal((6, 3)), requires_grad=True)]
    values = [p.data.copy() for p in params]
    state = adamw_state(params)
    assert state.data.shape == (42,) and state.bounds == [0, 24, 42]
    for p, value in zip(params, values):
        assert p.data.base is state.data and p.data.flags["C_CONTIGUOUS"]
        assert np.array_equal(p.data, value)


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
        step(params, grads, state, lr, cfg)
        bc1, bc2 = 1.0 - cfg.beta1 ** t, 1.0 - cfg.beta2 ** t
        for i, g in enumerate(grads):
            want[i] = want[i] * (1.0 - lr * cfg.weight_decay)
            m[i] = m[i] * cfg.beta1 + (1.0 - cfg.beta1) * g
            v[i] = v[i] * cfg.beta2 + (1.0 - cfg.beta2) * g * g
            want[i] = want[i] - lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + cfg.eps)
    for p, w in zip(params, want):
        assert p.data.tobytes() == w.tobytes()


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
    rng = RngState(72)
    params = [Tensor(rng.normal((5, 7)), requires_grad=True),
              Tensor(rng.normal((3,)), requires_grad=True)]
    want = [p.data.copy() for p in params]
    moments = [(np.zeros_like(w), np.zeros_like(w)) for w in want]
    state = adamw_state(params)
    clipped = 0
    for t in range(1, 51):
        lr = cosine_lr(t, TrainConfig(steps=50))
        grads = [rng.normal(p.shape) * (0.05 + 0.02 * t) for p in params]
        norm = step(params, grads, state, lr, cfg, clip=1.0)
        copies = list(grads)
        assert norm == per_parameter_clip(copies, 1.0)
        clipped += norm > 1.0
        per_parameter_adamw(want, copies, moments, t, lr, cfg)
    assert 0 < clipped < 50  # both branches of the clip ran
    for p, w in zip(params, want):
        assert p.data.tobytes() == w.tobytes()


def test_zero_step_run_leaves_weights_and_metric():
    bb, adapter, task = make_regression_setup()
    before_up = adapter.state.w_up.data.copy()
    baseline_metric = evaluate(bb, task.test)
    rep = train_adapter(bb, task.train, task.test,
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
    cfg = AdapterConfig(kind="cera", r=8, dropout_p=0.0)
    adapter = Adapter.init(cfg, *adapter_shape(REG_CFG, "Wv"), RngState(10, 9))
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
        return rep.loss_curve, adapter.state.w_up.data.copy()

    (c1, w1), (c2, w2) = run(), run()
    assert c1 == c2
    assert np.array_equal(w1, w2)


def test_dropout_active_in_train_only():
    # dropout runs exactly when a stream is given
    bb, adapter, task = make_regression_setup(seed=16, dropout_p=0.5)
    adapter.state.w_down.data[:] = RngState(17).normal(adapter.state.w_down.shape)
    x = Tensor(task.train.inputs[:8])
    eval_a, _ = regressor_output(bb, x)
    eval_b, _ = regressor_output(bb, x)
    assert np.array_equal(eval_a, eval_b)
    train_a, _ = regressor_output(bb, x, RngState(18))
    train_b, _ = regressor_output(bb, x, RngState(19))
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
    want_mse = np.mean((regressor_output(reg, Tensor(x))[0] - y) ** 2)
    want_ppl = np.exp(T.cross_entropy_rows(
        lm_logits(lm, test.inputs), test.targets.reshape(-1)).item())
    ops = recorded_ops(monkeypatch)
    masked, delta_rows = [], Adapter.delta_rows
    monkeypatch.setattr(Adapter, "delta_rows", lambda self, x, mask=None: (
        masked.append(mask is not None), delta_rows(self, x, mask))[1])
    got_mse = evaluate(reg, task.test)
    reg_ops = set(ops)
    got_ppl = evaluate(lm, test)
    assert got_mse.hex() == float(want_mse).hex()
    assert got_ppl.hex() == float(want_ppl).hex()
    assert "cross_entropy" in ops and masked and not any(masked)
    assert "add" not in reg_ops  # the regressor's head is off the tape


def test_evaluation_capture_and_forward_record_no_tape(monkeypatch):
    # evaluate, both capture sources in both model modes and forward give
    # the bytes they give with the tape on, record no tape, and leave every
    # adapter gradient unset
    reg, _, task = make_regression_setup(seed=62, dropout_p=0.5)
    lm = lm_with_adapters("elementwise")
    lm_wv = build_model(LM_CFG, 63)  # Wv only: its delta rows share one width
    for layer in range(LM_CFG.n_layers):
        adapter = Adapter.init(AdapterConfig(kind="cera", r=4),
                               *adapter_shape(LM_CFG, "Wv"), RngState(64, layer))
        adapter.state.w_down.data[:] = RngState(65, layer).normal(adapter.state.w_down.shape)
        inject(lm_wv, layer, "Wv", adapter)
    _, test = trajectory_sequences(seed=66, count=10, n_steps=5)
    x = task.test.inputs
    captures = [(reg, x, "latent_H"), (reg, x, "output_delta_D"),
                (lm, test.inputs, "latent_H"), (lm_wv, test.inputs, "output_delta_D")]
    passes = [lambda: evaluate(reg, task.test), lambda: evaluate(lm, test),
              lambda: forward(reg, x).data, lambda: forward(lm, test.inputs).data]
    passes += [lambda c=c: collect_latents(*c).data for c in captures]
    nodes, node = [], T._node
    monkeypatch.setattr(T, "_node", lambda *args: (nodes.append(node(*args)), nodes[-1])[1])

    def run():
        nodes.clear()
        return [np.asarray(p()).tobytes() for p in passes], list(nodes)

    tape_free, free_nodes = run()
    with monkeypatch.context() as m:
        m.setattr(T, "_no_tape", contextlib.nullcontext)
        taped, taped_nodes = run()
    assert tape_free == taped
    assert len(free_nodes) == len(taped_nodes)
    assert any(n._backward is not None for n in taped_nodes)
    assert all(n._parents == () and n._backward is None and not n.requires_grad
               for n in free_nodes)
    params = reg.adapter_params() + lm.adapter_params() + lm_wv.adapter_params()
    assert all(p.grad is None for p in params)


# tracemalloc peaks (MiB) of the bench's trajectory model with cera r=16 on
# Wq and Wv: one training step at batch 8 (forward, backward, gradient
# gather) and `evaluate` over the 12-sequence test split. When every node
# lived to the end of backward and evaluate recorded a tape they read 20.1
# and 25.2; freed as backward goes and with no tape they read 15.2 and 7.0
STEP_PEAK_MIB = 18.0
EVALUATE_PEAK_MIB = 10.0


def test_training_step_and_evaluation_memory_peaks():
    cfg = ModelConfig(d_model=64, n_heads=4, d_head=16, n_layers=2, vocab_size=12,
                      max_seq_len=64, v_out_dim=32)
    bb = build_model(cfg, 0)
    for layer in range(cfg.n_layers):
        for target in ("Wq", "Wv"):
            inject(bb, layer, target, Adapter.init(
                AdapterConfig(kind="cera", r=16), *adapter_shape(cfg, target),
                RngState(1, len(bb.adapters))))
    train, test = trajectory_sequences(n_steps=8, count=64, seed=0)
    assert train.inputs.shape[1] == 61 and len(test) == 12
    params = bb.adapter_params()
    opt = adamw_state(params)
    drop_rng = RngState(0).child(2)

    def step():
        _, backprop = trainer_mod._batch_loss(bb, train, np.arange(8), drop_rng, None)
        T.zero_grads(params)
        backprop()
        gather_grads(params, opt)

    def peak_mib(fn) -> float:
        fn()  # warm
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    step_peak, eval_peak = peak_mib(step), peak_mib(lambda: evaluate(bb, test))
    assert step_peak < STEP_PEAK_MIB, f"training step peak {step_peak:.2f} MiB"
    assert eval_peak < EVALUATE_PEAK_MIB, f"evaluate peak {eval_peak:.2f} MiB"


def recorded_ops(monkeypatch) -> set:
    """The set that collects the op name of every tape node made from now."""
    ops, node = set(), T._node
    monkeypatch.setattr(T, "_node", lambda data, parents, bwd, op: (
        ops.add(op), node(data, parents, bwd, op))[1])
    return ops


def test_a_regressor_training_step_builds_only_adapter_nodes(monkeypatch):
    # the head and the loss are off the tape: no add joins the deltas to the
    # frozen term, and there is no loss node. Each adapter is one node, lora's
    # scale 2 and cera's activation and dropout included
    bb = build_model(REG_CFG, 73)
    for target, cfg in (("Wv", AdapterConfig(kind="lora", r=2, alpha=4)),
                        ("attn_block", AdapterConfig(kind="parallel_module", r=2))):
        inject(bb, 0, target, Adapter.init(cfg, *adapter_shape(REG_CFG, target),
                                           RngState(74, len(bb.adapters))))
    rng = RngState(75)
    rows = Dataset(inputs=rng.normal((8, 16)), targets=rng.normal((8, 4)))
    nodes, node = [], T._node
    monkeypatch.setattr(T, "_node", lambda data, parents, bwd, op: (
        nodes.append(op), node(data, parents, bwd, op))[1])
    rep = train_adapter(bb, rows, rows, TrainConfig(steps=2, batch_size=4))
    assert len(rep.loss_curve) == 2
    # one node per adapter in each of the two steps and the closing evaluation
    assert nodes == ["mlp"] * (2 * 3)


def test_a_language_model_training_step_builds_one_node_per_piece(monkeypatch):
    # cera r=16 on Wq and Wv of the trajectory model's two layers: per layer
    # four projections, two layer norms, two adapter adds and two residual
    # adds, three two-matrix maps (two adapters and the FFN) and one
    # attention; then the last layer norm, the head and the loss
    cfg = ModelConfig(d_model=64, n_heads=4, d_head=16, n_layers=2, vocab_size=12,
                      max_seq_len=64, v_out_dim=32)
    bb = build_model(cfg, 76)
    for layer in range(cfg.n_layers):
        for target in ("Wq", "Wv"):
            inject(bb, layer, target, Adapter.init(
                AdapterConfig(kind="cera", r=16), *adapter_shape(cfg, target),
                RngState(77, len(bb.adapters))))
    train, test = trajectory_sequences(n_steps=8, count=6, seed=78)
    nodes, node = [], T._node
    monkeypatch.setattr(T, "_node", lambda data, parents, bwd, op: (
        nodes.append(op), node(data, parents, bwd, op))[1])
    train_adapter(bb, train, test, TrainConfig(steps=1, batch_size=4))
    want = {"linear": 9, "layer_norm": 5, "add": 8, "mlp": 6,
            "causal_attention": 2, "cross_entropy": 1}
    # the step's tape, then the closing evaluation's, each 31 nodes
    assert len(nodes) == 2 * 31
    assert Counter(nodes[:31]) == want and Counter(nodes[31:]) == want


def lm_with_adapters(style):
    """LM_CFG with cera on Wq and Wv of both layers and a module adapter on
    the last block, all with dropout, and non-zero down-projections."""
    bb = build_model(LM_CFG, 40)
    rng = RngState(41)
    for layer in range(LM_CFG.n_layers):
        for target in ("Wq", "Wv"):
            cfg = AdapterConfig(kind="cera", r=4, dropout_p=0.3,
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

    def grads_of(backprop):
        for p in params:
            p.zero_grad()
        backprop()
        return [p.grad.copy() for p in params]

    batched, backprop = trainer_mod._batch_loss(bb, train, idx, RngState(43), None)
    rng = RngState(43)
    single = [T.cross_entropy_rows(
        lm_logits(bb, train.inputs[i], rng=rng), train.targets[i])
        for i in idx]
    summed = single[0]
    for ce in single[1:]:
        summed = T.add(summed, ce)
    mean = summed.item() * (1.0 / len(idx))
    assert abs(batched - mean) <= 1e-12 * abs(mean)
    seeded = lambda: T.backward(summed, np.asarray(1.0 / len(idx)))  # the mean's gradient
    for got, want in zip(grads_of(backprop), grads_of(seeded)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # and the masks matter: another stream gives another loss
    other, _ = trainer_mod._batch_loss(bb, train, idx, RngState(44), None)
    assert abs(other - mean) > 1e-6


def test_perplexity_uniform_logits():
    bb = build_model(LM_CFG, 22)
    bb.head.data[:] = 0.0  # logits identically zero -> uniform predictive
    train, test = trajectory_sequences(seed=23, count=10, n_steps=5)
    assert evaluate(bb, test) == pytest.approx(LM_CFG.vocab_size, abs=1e-9)


def test_perplexity_perfect_predictions():
    bb = build_model(LM_CFG, 24)
    # final layer norm output has zero row-mean, so a bias of ones plus a
    # one-hot-ish head row yields a constant winning logit margin
    bb.ln_f_b.data[:] = 1.0
    bb.head.data[:] = 0.0
    bb.head.data[3, :] = 4.0  # logit for token 3 = 4 * d_model, others 0
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
    adapter.state.w_up.data[:] = np.inf
    adapter.state.w_down.data[:] = 1.0
    from ceralab.errors import TrainingDiverged
    with pytest.raises(TrainingDiverged, match="step 0"), \
            pytest.warns(RuntimeWarning, match="invalid value"):
        train_adapter(bb, task.train, task.test,
                      TrainConfig(steps=5, batch_size=4, seed=28))


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
    rng = RngState(33)
    for layer in range(LM_CFG.n_layers):
        for target in ("Wq", "Wv"):
            cfg = AdapterConfig(kind="lora", r=8)
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
    cfg = AdapterConfig(kind="lora", r=2)
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
    cfg = AdapterConfig(kind="cera", r=4)
    adapter = Adapter.init(cfg, *adapter_shape(LM_CFG, "Wv"), RngState(35))
    inject(bb, 0, "Wv", adapter)
    rep = measure_throughput(bb, [[1, 2, 3, 4]] * 2, repetitions=5)
    assert rep.baseline.startswith("bare-backbone")
    assert rep.median_seconds > 0
