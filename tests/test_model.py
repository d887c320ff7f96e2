import numpy as np
import pytest

from ceralab import model as model_mod
from ceralab import tensor as T
from ceralab.adapters import Adapter, AdapterConfig, AdapterState
from ceralab.errors import ConfigError, DomainError, NotMergeableError, ShapeError
from ceralab.model import (ModelConfig, adapter_shape, build_model,
                           collect_latents, forward, inject, lm_logits,
                           merged_copy, regressor_frozen, regressor_output)
from ceralab.spectral import activation_spectrum, svd_values
from ceralab.tensor import RngState, Tensor, backward, cross_entropy_rows

TINY = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=1, vocab_size=11,
                   max_seq_len=8, v_out_dim=8)


def tiny_model(seed=0, cfg=TINY):
    return build_model(cfg, seed)


def inject_cera(backbone, target="Wv", r=3, layer=0, seed=5, **kw):
    cfg = AdapterConfig(kind="cera", r=r, targets=(target,), **kw)
    d, k = adapter_shape(backbone.cfg, target)
    adapter = Adapter.init(cfg, d, k, RngState(seed, 9))
    inject(backbone, layer, target, adapter)
    return adapter


def test_build_same_seed_same_checksum():
    assert tiny_model(3).checksum() == tiny_model(3).checksum()
    assert tiny_model(3).checksum() != tiny_model(4).checksum()


def test_forward_zero_length_batch():
    out = forward(tiny_model(), [])
    assert out.shape[0] == 0


def test_logits_shape_contract():
    bb = tiny_model()
    batch = [[1, 2, 3, 4], [5, 6, 7, 8], [0, 0, 1, 1]]
    out = forward(bb, batch)
    assert out.shape == (3, 4, TINY.vocab_size)
    # lm_logits gives one row per token, sequence by sequence; a 1-d
    # sequence is a batch of one, and each sequence of a batch gets the
    # logits it gets on its own
    rows = lm_logits(bb, np.array(batch))
    assert rows.shape == (12, TINY.vocab_size)
    assert np.array_equal(out.data.reshape(12, -1), rows.data)
    for i, seq in enumerate(batch):
        alone = lm_logits(bb, seq).data
        assert alone.shape == (4, TINY.vocab_size)
        assert np.max(np.abs(out.data[i] - alone)) <= 1e-13 * np.max(np.abs(alone))
    with pytest.raises(ShapeError):
        forward(bb, [[1, 2, 3], [4, 5]])
    with pytest.raises(ShapeError):
        lm_logits(bb, np.zeros((2, 2, 2), dtype=np.int64))


def test_vocab_overflow_rejected():
    bb = tiny_model()
    with pytest.raises(DomainError):
        lm_logits(bb, [0, TINY.vocab_size])
    with pytest.raises(DomainError):
        lm_logits(bb, list(range(TINY.max_seq_len + 1)))
    with pytest.raises(DomainError):
        lm_logits(bb, [[0, 1], [2, TINY.vocab_size]])
    with pytest.raises(DomainError):
        lm_logits(bb, [[0, 1], [2, -1]])
    with pytest.raises(DomainError):
        lm_logits(bb, np.zeros((2, TINY.max_seq_len + 1), dtype=np.int64))


def test_causality():
    bb = tiny_model(7)
    base = lm_logits(bb, [[1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1]]).data
    poked = lm_logits(bb, [[1, 2, 9, 4, 5, 6], [6, 5, 4, 3, 2, 1]]).data
    diff = np.abs(base - poked).max(axis=1).reshape(2, 6)
    assert np.all(diff[0, :2] == 0.0)
    assert np.all(diff[0, 2:] > 0.0)
    # no position of another sequence in the batch sees the change
    assert np.all(diff[1] == 0.0)


def test_attention_rows_sum_to_one():
    bb = tiny_model(8)
    trace = {}
    lm_logits(bb, [[3, 1, 4, 1, 5, 9, 2, 6], [2, 7, 1, 8, 2, 8, 1, 8],
                   [1, 4, 1, 4, 2, 1, 3, 5]], trace=trace)
    assert len(trace["attention"]) == TINY.n_layers
    for attn in trace["attention"]:
        assert attn.shape == (3, TINY.n_heads, 8, 8)
        assert np.max(np.abs(attn.sum(axis=-1) - 1.0)) < 1e-12
        later = np.triu_indices(8, k=1)  # causal: no weight on later positions
        assert np.all(attn[..., later[0], later[1]] == 0.0)


def test_injection_neutrality_bit_identical():
    bb = tiny_model(9)
    seqs = [[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]]
    base = lm_logits(bb, seqs).data.copy()
    inject_cera(bb, "Wv")
    inject_cera(bb, "Wq", seed=6)
    assert np.array_equal(lm_logits(bb, seqs).data, base)


@pytest.mark.parametrize("style", ["elementwise", "channel"])
def test_dropout_masks_follow_the_per_sequence_draw_order(style):
    # sequence by sequence, layer by layer, Wq before Wv; channel style
    # draws one row per sequence, shared by all its positions
    cfg = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=2, vocab_size=11,
                      max_seq_len=8, v_out_dim=8)
    bb = build_model(cfg, 31)
    for layer in range(2):
        for target in ("Wq", "Wv"):
            inject_cera(bb, target, layer=layer, dropout_p=0.5, dropout_style=style)
    masks = model_mod._dropout_masks(bb, 3, 5, "train", RngState(7))
    rng = RngState(7)
    for b in range(3):
        for layer in range(2):
            for target in ("Wq", "Wv"):
                want = rng.keep_mask((5 if style == "elementwise" else 1, 3), 0.5) / 0.5
                got = masks[(layer, target)][5 * b:5 * (b + 1)]
                assert np.array_equal(got, np.broadcast_to(want, (5, 3)))
    assert model_mod._dropout_masks(bb, 3, 5, "eval", RngState(7)) == {}
    with pytest.raises(DomainError):
        model_mod._dropout_masks(bb, 3, 5, "train", None)


def test_double_injection_rejected():
    bb = tiny_model()
    inject_cera(bb, "Wv")
    with pytest.raises(ConfigError):
        inject_cera(bb, "Wv", seed=1)


def test_invalid_layer_rejected():
    bb = tiny_model()
    cfg = AdapterConfig(kind="cera", r=2)
    adapter = Adapter.init(cfg, *adapter_shape(bb.cfg, "Wq"), RngState(0))
    with pytest.raises(ConfigError):
        inject(bb, 5, "Wq", adapter)


def test_kind_target_mismatch_rejected():
    bb = tiny_model()
    cfg = AdapterConfig(kind="parallel_module", r=2)
    adapter = Adapter.init(cfg, *adapter_shape(bb.cfg, "attn_block"), RngState(0))
    with pytest.raises(ConfigError):
        inject(bb, 0, "Wq", adapter)


def test_wq_vs_wv_placement_is_observable():
    # square geometry so the same state fits both targets
    cfg = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=1,
                      vocab_size=11, max_seq_len=8, v_out_dim=16)
    rng = RngState(11)
    state = AdapterState(w_up=Tensor(rng.normal((3, 16)), requires_grad=True),
                         w_down=Tensor(rng.normal((16, 3)), requires_grad=True))
    seq = [1, 2, 3, 4, 5, 6]
    outs = {}
    for target in ("Wq", "Wv"):
        bb = build_model(cfg, 12)
        acfg = AdapterConfig(kind="cera", r=3, targets=(target,), dropout_p=0.0)
        inject(bb, 0, target, Adapter(acfg, AdapterState(
            Tensor(state.w_up.data.copy(), requires_grad=True),
            Tensor(state.w_down.data.copy(), requires_grad=True))))
        outs[target] = lm_logits(bb, seq).data
    assert np.max(np.abs(outs["Wq"] - outs["Wv"])) > 1e-6


def test_weight_level_vs_module_level_is_observable():
    rng = RngState(13)
    up = rng.normal((3, 16))
    down = rng.normal((16, 3))
    seq = [1, 2, 3, 4, 5, 6]
    outs = {}
    for kind, target in (("cera", "Wq"), ("parallel_module", "attn_block")):
        bb = tiny_model(14, ModelConfig(d_model=16, n_heads=2, d_head=8,
                                        n_layers=1, vocab_size=11,
                                        max_seq_len=8, v_out_dim=16))
        acfg = AdapterConfig(kind=kind, r=3, dropout_p=0.0)
        adapter = Adapter(acfg, AdapterState(Tensor(up.copy(), requires_grad=True),
                                             Tensor(down.copy(), requires_grad=True)))
        inject(bb, 0, target, adapter)
        outs[kind] = lm_logits(bb, seq).data
    assert np.max(np.abs(outs["cera"] - outs["parallel_module"])) > 1e-6


def test_gradient_through_model_and_adapter():
    bb = tiny_model(15)
    adapter = inject_cera(bb, "Wv", r=3)
    adapter.state.w_down.data[:] = RngState(16).normal((8, 3)) * 0.3
    seq = np.array([[1, 2, 3, 4, 5, 6], [7, 6, 5, 4, 3, 2]])
    targets = np.array([2, 3, 4, 5, 6, 7, 6, 5, 4, 3, 2, 1])

    def loss_of(tensor_attr):
        def f(probe):
            setattr(adapter.state, tensor_attr, probe)
            return cross_entropy_rows(lm_logits(bb, seq), targets)
        return f

    for attr in ("w_up", "w_down"):
        original = getattr(adapter.state, attr)
        err = T.finite_difference_check(loss_of(attr), original, 1e-6)
        setattr(adapter.state, attr, original)
        assert err < 1e-4


def test_backbone_checksum_unchanged_by_forward_and_backward():
    bb = tiny_model(17)
    adapter = inject_cera(bb, "Wv")
    before = bb.checksum()
    loss = cross_entropy_rows(lm_logits(bb, [1, 2, 3]), np.array([2, 3, 4]))
    backward(loss)
    assert bb.checksum() == before
    for name, t in bb.frozen_tensors():
        assert t.grad is None, name


def test_collect_latents_zero_init_delta_is_zero():
    bb = tiny_model(18)
    inject_cera(bb, "Wv", r=3)
    d = collect_latents(bb, [[1, 2, 3, 4], [5, 6, 7, 8]], which="output_delta_D")
    assert np.all(d.data == 0.0)
    assert activation_spectrum(d.data).effective_rank == 0.0


def test_collect_latents_row_count():
    bb = tiny_model(19)
    inject_cera(bb, "Wv", r=3)
    h = collect_latents(bb, [[1, 2, 3, 4], [5, 6, 7, 8]], which="latent_H")
    assert h.shape == (8, 3)  # 2 sequences x 4 tokens


def test_collect_latents_requires_adapter():
    bb = tiny_model(20)
    with pytest.raises(ConfigError):
        collect_latents(bb, [[1, 2, 3]])


def test_lora_delta_rank_bound():
    bb = tiny_model(21)
    cfg = AdapterConfig(kind="lora", r=2, targets=("Wv",))
    d, k = adapter_shape(bb.cfg, "Wv")
    adapter = Adapter.init(cfg, d, k, RngState(22))
    adapter.state.w_down.data[:] = RngState(23).normal((d, 2))
    inject(bb, 0, "Wv", adapter)
    dmat = collect_latents(bb, [[1, 2, 3, 4, 5, 6, 7, 0]] * 4, which="output_delta_D")
    assert np.sum(svd_values(dmat.data) > 1e-10) <= 2


def test_merged_copy_matches_unmerged_lora():
    bb = tiny_model(24)
    cfg = AdapterConfig(kind="lora", r=2, targets=("Wv",), alpha=4.0)
    d, k = adapter_shape(bb.cfg, "Wv")
    adapter = Adapter.init(cfg, d, k, RngState(25))
    adapter.state.w_down.data[:] = RngState(26).normal((d, 2)) * 0.5
    inject(bb, 0, "Wv", adapter)
    merged = merged_copy(bb)
    assert not merged.adapters
    seqs = [[1, 2, 3, 4, 5], [9, 8, 7, 6, 5]]
    a = lm_logits(bb, seqs).data
    b = lm_logits(merged, seqs).data
    assert np.max(np.abs(a - b)) < 1e-10


def test_merged_copy_refuses_nonlinear():
    bb = tiny_model(27)
    adapter = inject_cera(bb, "Wv")
    adapter.state.w_down.data[:] = 0.1
    with pytest.raises(NotMergeableError):
        merged_copy(bb)


def test_regressor_mode_shapes_and_determinism():
    cfg = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=1,
                      vocab_size=4, max_seq_len=8, v_out_dim=8, mode="regressor")
    bb = build_model(cfg, 28)
    x = RngState(29).normal((10, 16))
    a = regressor_output(bb, x).data
    b = regressor_output(bb, x).data
    assert a.shape == (10, 4)
    assert np.array_equal(a, b)


def test_regressor_requires_single_block():
    with pytest.raises(ConfigError):
        ModelConfig(n_layers=2, mode="regressor")


REG = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=1, vocab_size=4,
                  max_seq_len=8, v_out_dim=8, mode="regressor")


def tape_regressor_output(bb, x, mode="eval", rng=None):
    """Reference: the regressor as one tape, op for op as the network is
    drawn (attention and FFN branches on the raw input, the Wv adapter
    inside the value projection, the module adapter on the attention
    output), against which the frozen-term split is checked."""
    ws = bb.layers[0]
    v = T.linear(x, ws["Wv"])
    wv = bb.adapters.get((0, "Wv"))
    if wv is not None:
        v = v + wv.delta_rows(x, mode, rng)
    attn_out = T.linear(v, ws["Wo"])
    module = bb.adapters.get((0, "attn_block"))
    if module is not None:
        attn_out = attn_out + module.delta_rows(x, mode, rng)
    ff = T.linear(T.silu(T.linear(x, ws["W1"])), ws["W2"])
    return T.linear(x + attn_out + ff, bb.head)


def regressor_with_both_adapters(seed):
    bb = build_model(REG, seed)
    rng = RngState(seed + 1)
    for kind, target in (("cera", "Wv"), ("parallel_module", "attn_block")):
        cfg = AdapterConfig(kind=kind, r=3, targets=("Wv",))
        adapter = Adapter.init(cfg, *adapter_shape(REG, target), rng.child(len(bb.adapters)))
        adapter.state.w_down.data[:] = rng.normal(adapter.state.w_down.shape) * 0.3
        inject(bb, 0, target, adapter)
    return bb


def test_adapter_free_regressor_is_bit_identical_to_tape():
    bb = build_model(REG, 40)
    x = Tensor(RngState(41).normal((37, 16)))
    got = regressor_output(bb, x).data
    assert got.tobytes() == tape_regressor_output(bb, x).data.tobytes()
    assert regressor_frozen(bb, x.data).tobytes() == got.tobytes()


@pytest.mark.parametrize("mode", ["eval", "train"])
def test_adapted_regressor_matches_tape_composition(mode):
    bb = regressor_with_both_adapters(42)
    x = Tensor(RngState(43).normal((29, 16)))
    want = tape_regressor_output(bb, x, mode, RngState(44)).data
    got = regressor_output(bb, x, mode, RngState(44)).data
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # a frozen term passed in gives the same output as one computed inside
    again = regressor_output(bb, x, mode, RngState(44),
                             frozen=regressor_frozen(bb, x.data)).data
    assert np.array_equal(again, got)


def test_regressor_gradient_matches_finite_differences():
    bb = regressor_with_both_adapters(45)
    x = Tensor(RngState(46).normal((12, 16)))
    y = RngState(47).normal((12, 4))
    worst = 0.0
    for adapter in bb.adapters.values():
        for attr in ("w_up", "w_down"):
            original = getattr(adapter.state, attr)

            def f(probe, _adapter=adapter, _attr=attr):
                setattr(_adapter.state, _attr, probe)
                return T.mse(regressor_output(bb, x), y)

            worst = max(worst, T.finite_difference_check(f, original, 1e-6))
            setattr(adapter.state, attr, original)
    assert worst < 1e-9
