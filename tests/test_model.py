import numpy as np
import pytest

from ceralab import model as model_mod
from ceralab import tensor as T
from ceralab import trainer as trainer_mod
from ceralab.adapters import Adapter, AdapterConfig, AdapterState
from ceralab.errors import ConfigError, DomainError, NotMergeableError, ShapeError
from ceralab.model import (ModelConfig, adapter_shape, build_model,
                           collect_latents, forward, inject, lm_logits,
                           merged_copy, regressor_frozen, regressor_output)
from ceralab.spectral import activation_spectrum, svd_values
from ceralab.tasks import Dataset
from ceralab.tensor import RngState, Tensor, backward, cross_entropy_rows

TINY = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=1, vocab_size=11,
                   max_seq_len=8, v_out_dim=8)


def tiny_model(seed=0, cfg=TINY):
    return build_model(cfg, seed)


def inject_cera(backbone, target="Wv", r=3, layer=0, seed=5, **kw):
    cfg = AdapterConfig(kind="cera", r=r, **kw)
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
    # the model's first-layer queries and keys; with each head's v an
    # identity (d_v = S) the output rows hold the weight matrices themselves
    bb = tiny_model(8)
    ids = np.array([[3, 1, 4, 1, 5, 9, 2, 6], [2, 7, 1, 8, 2, 8, 1, 8],
                    [1, 4, 1, 4, 2, 1, 3, 5]])
    ws = bb.layers[0]
    x = Tensor((bb.tok_emb.data[ids] + bb.pos_emb.data[:8]).reshape(24, TINY.d_model))
    xn = T.layer_norm(x, ws["ln1_g"], ws["ln1_b"])
    q, k = (T.linear(xn, ws[w]) for w in ("Wq", "Wk"))
    eye = np.tile(np.eye(8), (3, TINY.n_heads))
    rows = T.causal_attention(q, k, eye, TINY.n_heads, 8).data
    attn = rows.reshape(3, 8, TINY.n_heads, 8).transpose(0, 2, 1, 3)
    assert attn.shape == (3, TINY.n_heads, 8, 8)
    assert np.max(np.abs(attn.sum(axis=-1) - 1.0)) < 1e-12
    later = np.triu_indices(8, k=1)  # causal: no weight on later positions
    assert np.all(attn[..., later[0], later[1]] == 0.0)
    assert np.all(attn[..., np.arange(8), np.arange(8)] > 0.0)


def test_injection_neutrality_bit_identical():
    bb = tiny_model(9)
    seqs = [[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]]
    base = lm_logits(bb, seqs).data.copy()
    inject_cera(bb, "Wv")
    inject_cera(bb, "Wq", seed=6)
    assert np.array_equal(lm_logits(bb, seqs).data, base)


def keep_mask(shape, p, rng):
    """One scaled keep mask of inverted dropout drawn from `rng`: 1/(1-p)
    where the draw is below 1 - p, 0 elsewhere."""
    keep = 1.0 - p
    return (rng.uniform(0.0, 1.0, shape) < keep) / keep


def per_sequence_masks(bb, n_seq, seq_len, rng):
    """Reference: the masks drawn one at a time, sequence by sequence, then
    layer by layer, then in injection-target order, for every adapter with
    p > 0; a channel mask's one row is shared by the sequence's positions."""
    drawn = {}
    for _ in range(n_seq):
        for layer in range(bb.cfg.n_layers):
            for target in model_mod.INJECTION_TARGETS:
                adapter = bb.adapters.get((layer, target))
                if adapter is None or adapter.cfg.dropout_p == 0.0:
                    continue
                cfg = adapter.cfg
                rows = seq_len if cfg.dropout_style == "elementwise" else 1
                mask = keep_mask((rows, cfg.r), cfg.dropout_p, rng)
                drawn.setdefault((layer, target), []).append(
                    np.broadcast_to(mask, (seq_len, cfg.r)))
    return {key: np.concatenate(parts) for key, parts in drawn.items()}


def mixed_registry():
    """Two layers of every injection target: different ranks and dropout
    rates, both styles, a module adapter, and a lora adapter, which has
    p = 0 and so neither a mask nor a draw."""
    cfg = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=2, vocab_size=11,
                      max_seq_len=8, v_out_dim=8)
    bb = build_model(cfg, 31)
    placements = [
        (0, "Wq", AdapterConfig(kind="cera", r=3, dropout_p=0.5)),
        (0, "Wv", AdapterConfig(kind="lora", r=2)),
        (0, "attn_block", AdapterConfig(kind="parallel_module", r=4, dropout_p=0.2,
                                        dropout_style="channel")),
        (1, "Wq", AdapterConfig(kind="cera", r=2, dropout_p=0.3, dropout_style="channel")),
        (1, "Wv", AdapterConfig(kind="cera", r=5, dropout_p=0.4)),
        (1, "attn_block", AdapterConfig(kind="parallel_module", r=3, dropout_p=0.1)),
    ]
    for layer, target, adapter_cfg in reversed(placements):  # registry order is not walk order
        inject(bb, layer, target, Adapter.init(adapter_cfg, *adapter_shape(cfg, target),
                                               RngState(5, 9)))
    return bb


@pytest.mark.parametrize("registry", ["elementwise", "channel", "mixed"])
def test_dropout_masks_follow_the_per_sequence_draw_order(registry):
    # the one draw per batch gives each mask the bits of drawing sequence by
    # sequence, layer by layer, Wq before Wv before attn_block
    if registry == "mixed":
        bb = mixed_registry()
    else:
        cfg = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=2, vocab_size=11,
                          max_seq_len=8, v_out_dim=8)
        bb = build_model(cfg, 31)
        for layer in range(2):
            for target in ("Wq", "Wv"):
                inject_cera(bb, target, layer=layer, dropout_p=0.5, dropout_style=registry)
    rng, ref_rng = RngState(7), RngState(7)
    masks = model_mod._dropout_masks(bb, 3, 5, rng)
    want = per_sequence_masks(bb, 3, 5, ref_rng)
    assert sorted(masks) == sorted(want)
    for key in want:
        assert masks[key].shape == (15, bb.adapters[key].cfg.r)
        assert np.array_equal(masks[key], want[key])
    # the stream ends where the reference's ends
    assert np.array_equal(rng.uniform(0.0, 1.0, 6), ref_rng.uniform(0.0, 1.0, 6))
    # without a stream there is no dropout
    assert model_mod._dropout_masks(bb, 3, 5, None) == {}


def test_dropout_preserves_expectation():
    # inverted dropout scales each kept entry by 1/keep, so means survive
    bb = tiny_model()
    inject_cera(bb, "Wv", r=8, dropout_p=0.5)
    mask = model_mod._dropout_masks(bb, 40, 50, RngState(4))[(0, "Wv")]
    out = np.full(mask.shape, 2.0) * mask
    assert out.mean() == pytest.approx(2.0, rel=0.05)


def test_dropout_channel_masks_whole_columns():
    bb = tiny_model()
    inject_cera(bb, "Wv", r=8, dropout_p=0.4, dropout_style="channel")
    mask = model_mod._dropout_masks(bb, 6, 50, RngState(5))[(0, "Wv")]
    out = np.ones(mask.shape) * mask
    for seq in out.reshape(6, 50, 8):  # each column all-kept or all-dropped
        assert np.array_equal(seq.min(axis=0), seq.max(axis=0))
    assert 0.0 < np.mean(out == 0.0) < 1.0
    assert all(v == 0.0 or abs(v - 1 / 0.6) < 1e-12 for v in np.unique(out))


def test_adapter_params_keep_injection_order():
    bb = tiny_model()
    wv, wq = inject_cera(bb, "Wv"), inject_cera(bb, "Wq", seed=6)
    assert [id(p) for p in bb.adapter_params()] == \
        [id(p) for p in (*wv.params, *wq.params)]


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
    # a regressor never reads its query path, so it refuses a Wq adapter
    with pytest.raises(ConfigError, match="never reads"):
        inject_cera(build_model(REG, 0), "Wq")


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
        acfg = AdapterConfig(kind="cera", r=3, dropout_p=0.0)
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


SQUARE = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=2, vocab_size=11,
                     max_seq_len=8, v_out_dim=16)  # every adapter 16 wide


def adapted_backbone(cfg, placements, seed=30):
    """A backbone with trained-looking (non-zero w_down) adapters, r=3,
    at each (layer, kind, target) placement."""
    bb = build_model(cfg, seed)
    rng = RngState(seed + 1)
    for layer, kind, target in placements:
        adapter = Adapter.init(AdapterConfig(kind=kind, r=3),
                               *adapter_shape(cfg, target), rng.child(len(bb.adapters)))
        adapter.state.w_down.data[:] = rng.normal(adapter.state.w_down.shape)
        inject(bb, layer, target, adapter)
    return bb


def stacked(bb, reads, which):
    """Each adapter's latent or delta rows over the rows its layer reads,
    stacked in (layer, target) order."""
    return np.concatenate([
        (a.latent_rows(reads[layer]) if which == "latent_H"
         else a.delta_rows(reads[layer])).data
        for (layer, _), a in sorted(bb.adapters.items())])


def test_collect_latents_is_each_adapter_on_the_rows_it_reads(monkeypatch):
    # language model: an adapter of layer l reads that layer's first layer
    # norm, seen here by recording every layer norm of a forward pass
    bb = adapted_backbone(SQUARE, [(layer, kind, target) for layer in (0, 1)
                                   for kind, target in (("cera", "Wq"), ("lora", "Wv"),
                                                        ("parallel_module", "attn_block"))])
    seqs = [[1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1], [0, 9, 0, 9, 0, 9]]
    norms, layer_norm = [], T.layer_norm

    def recording(x, gain, bias):
        out = layer_norm(x, gain, bias)
        norms.append((gain, out))
        return out

    monkeypatch.setattr(T, "layer_norm", recording)
    forward(bb, seqs)
    monkeypatch.undo()
    reads = [next(out for gain, out in norms if gain is ws["ln1_g"]) for ws in bb.layers]

    def no_forward(*args, **kw):
        raise AssertionError("collect_latents ran a forward pass")

    for name in ("forward", "lm_logits", "regressor_output", "regressor_frozen"):
        monkeypatch.setattr(model_mod, name, no_forward)
    for which in ("latent_H", "output_delta_D"):
        got = collect_latents(bb, seqs, which).data
        assert got.shape[0] == 6 * 18
        assert np.array_equal(got, stacked(bb, reads, which))
    # regressor: every adapter reads the features
    reg_cfg = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=1, vocab_size=4,
                          max_seq_len=8, v_out_dim=16, mode="regressor")
    reg = adapted_backbone(reg_cfg, [(0, "cera", "Wv"), (0, "parallel_module", "attn_block")])
    x = RngState(32).normal((10, 16))
    for which in ("latent_H", "output_delta_D"):
        got = collect_latents(reg, x, which).data
        assert np.array_equal(got, stacked(reg, [Tensor(x)], which))
    with pytest.raises(ShapeError):
        collect_latents(reg, x[:, :8])


def test_output_delta_of_mixed_widths_is_a_config_error():
    # TINY's Wq is 16 wide and its Wv 8: their latents stack, their deltas not
    bb = tiny_model(33)
    inject_cera(bb, "Wq", seed=6)
    inject_cera(bb, "Wv")
    assert collect_latents(bb, [[1, 2, 3, 4]], "latent_H").shape == (8, 3)
    with pytest.raises(ConfigError, match="mixed widths"):
        collect_latents(bb, [[1, 2, 3, 4]], "output_delta_D")


def test_lora_delta_rank_bound():
    bb = tiny_model(21)
    cfg = AdapterConfig(kind="lora", r=2)
    d, k = adapter_shape(bb.cfg, "Wv")
    adapter = Adapter.init(cfg, d, k, RngState(22))
    adapter.state.w_down.data[:] = RngState(23).normal((d, 2))
    inject(bb, 0, "Wv", adapter)
    dmat = collect_latents(bb, [[1, 2, 3, 4, 5, 6, 7, 0]] * 4, which="output_delta_D")
    assert np.sum(svd_values(dmat.data) > 1e-10) <= 2


def test_merged_copy_matches_unmerged_lora():
    bb = tiny_model(24)
    cfg = AdapterConfig(kind="lora", r=2, alpha=4.0)
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
    a, _ = regressor_output(bb, x)
    b, _ = regressor_output(bb, x)
    assert a.shape == (10, 4)
    assert np.array_equal(a, b)


def test_regressor_requires_single_block():
    with pytest.raises(ConfigError):
        ModelConfig(n_layers=2, mode="regressor")


REG = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=1, vocab_size=4,
                  max_seq_len=8, v_out_dim=8, mode="regressor")


def tape_regressor_output(bb, x, rng=None):
    """Reference: the regressor as one tape, op for op as the network is
    drawn (attention and FFN branches on the raw input, the Wv adapter
    inside the value projection, the module adapter on the attention
    output), against which the frozen-term split is checked. Given a stream,
    each adapter draws its own mask as it runs, Wv first: one (n, r) block
    for elementwise dropout, one (1, r) row for channel."""
    def delta(adapter):
        cfg = adapter.cfg
        mask = None
        if rng is not None and cfg.dropout_p > 0.0:
            rows = x.shape[0] if cfg.dropout_style == "elementwise" else 1
            mask = keep_mask((rows, cfg.r), cfg.dropout_p, rng)
        return adapter.delta_rows(x, mask=mask)

    ws = bb.layers[0]
    v = T.linear(x, ws["Wv"])
    wv = bb.adapters.get((0, "Wv"))
    if wv is not None:
        v = T.add(v, delta(wv))
    attn_out = T.linear(v, ws["Wo"])
    module = bb.adapters.get((0, "attn_block"))
    if module is not None:
        attn_out = T.add(attn_out, delta(module))
    ff = T.mlp(x, ws["W1"], ws["W2"], "silu", None, 1.0)
    return T.linear(T.add(T.add(x, attn_out), ff), bb.head)


def regressor_with(seed, placements):
    """REG with the given (target, AdapterConfig) adapters, non-zero w_down."""
    bb = build_model(REG, seed)
    rng = RngState(seed + 1)
    for target, cfg in placements:
        adapter = Adapter.init(cfg, *adapter_shape(REG, target), rng.child(len(bb.adapters)))
        adapter.state.w_down.data[:] = rng.normal(adapter.state.w_down.shape) * 0.3
        inject(bb, 0, target, adapter)
    return bb


def regressor_with_both_adapters(seed, **kw):
    return regressor_with(seed, [("Wv", AdapterConfig(kind="cera", r=3, **kw)),
                                 ("attn_block", AdapterConfig(kind="parallel_module", r=3, **kw))])


def test_adapter_free_regressor_is_bit_identical_to_tape():
    bb = build_model(REG, 40)
    x = Tensor(RngState(41).normal((37, 16)))
    got, deltas = regressor_output(bb, x)
    assert deltas == []
    assert got.tobytes() == tape_regressor_output(bb, x).data.tobytes()
    assert regressor_frozen(bb, x.data).tobytes() == got.tobytes()


@pytest.mark.parametrize("stream", [None, 44], ids=["eval", "train"])
def test_adapted_regressor_matches_tape_composition(stream):
    bb = regressor_with_both_adapters(42)
    x = Tensor(RngState(43).normal((29, 16)))
    rng = lambda: None if stream is None else RngState(stream)  # a fresh stream
    want = tape_regressor_output(bb, x, rng()).data
    got, _ = regressor_output(bb, x, rng())
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # a frozen term passed in gives the same output as one computed inside
    again, _ = regressor_output(bb, x, rng(), frozen=regressor_frozen(bb, x.data))
    assert np.array_equal(again, got)


def regressor_rows(seed, n):
    """n feature rows and targets for REG."""
    rng = RngState(seed)
    return Dataset(inputs=rng.normal((n, 16)), targets=rng.normal((n, 4)))


def training_loss(bb, data, stream):
    """The regressor's training loss over every row of `data` and the
    adapter gradients its backward pass gives, dropout drawn from a fresh
    stream `stream`."""
    value, backprop = trainer_mod._batch_loss(
        bb, data, np.arange(len(data)), RngState(stream), regressor_frozen(bb, data.inputs))
    params = bb.adapter_params()
    T.zero_grads(params)
    backprop()
    return value, [p.grad for p in params]


def test_regressor_gradient_matches_finite_differences():
    # the training path: MSE and its output gradient off the tape, seeded
    # into each adapter's nodes; the masks repeat with the stream
    bb = regressor_with_both_adapters(45)
    data = regressor_rows(46, 12)
    _, analytic = training_loss(bb, data, 47)
    worst, step = 0.0, 1e-6
    for p, grad in zip(bb.adapter_params(), analytic):
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = training_loss(bb, data, 47)[0]
            flat[i] = orig - step
            lo = training_loss(bb, data, 47)[0]
            flat[i] = orig
            a = grad.reshape(-1)[i]
            worst = max(worst, abs(a - (hi - lo) / (2.0 * step)) / max(1.0, abs(a)))
    assert worst < 1e-9


def tape_head(bb, x, rng):
    """The regressor's head and the adapters on one tape, node for node as
    training built it before the head left the tape: the frozen term plus,
    Wv first, one add of linear(delta, C) per adapter."""
    masks = model_mod._dropout_masks(bb, 1, x.shape[0], rng)
    out = Tensor(regressor_frozen(bb, x.data))
    for target in ("Wv", "attn_block"):
        adapter = bb.adapters.get((0, target))
        if adapter is not None:
            to_output = bb.carry if target == "Wv" else bb.head.data
            delta = adapter.delta_rows(x, masks.get((0, target)))
            out = T.add(out, T.linear(delta, Tensor(to_output)))
    return out


CLOSED_FORM_CASES = {
    "Wv+attn_block": lambda: regressor_with_both_adapters(60, dropout_p=0.3),
    "lora-alpha": lambda: regressor_with(61, [("Wv", AdapterConfig(kind="lora", r=3, alpha=6.0))]),
    "cera-elementwise": lambda: regressor_with(
        62, [("Wv", AdapterConfig(kind="cera", r=3, dropout_p=0.5))]),
    "cera-channel": lambda: regressor_with(
        63, [("Wv", AdapterConfig(kind="cera", r=3, dropout_p=0.5, dropout_style="channel"))]),
    "cera-relu": lambda: regressor_with(
        64, [("Wv", AdapterConfig(kind="cera", r=3, activation="relu"))]),
}


@pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
def test_closed_form_gradients_equal_the_tape_seeded_with_the_mse_gradient(case):
    bb = CLOSED_FORM_CASES[case]()
    data = regressor_rows(65, 23)
    x = Tensor(data.inputs)
    value, got = training_loss(bb, data, 66)
    params = bb.adapter_params()
    for reference, bit_for_bit in ((tape_head, True), (tape_regressor_output, False)):
        out = reference(bb, x, RngState(66))
        diff = out.data - data.targets
        T.zero_grads(params)
        backward(out, (1.0 / diff.size) * 2.0 * diff)
        if bit_for_bit:
            assert value == float((diff ** 2.0).mean())
            assert [g.tobytes() for g in got] == [p.grad.tobytes() for p in params]
        else:  # the network as drawn multiplies by head, then Wo
            for g, p in zip(got, params):
                assert np.max(np.abs(g - p.grad)) <= 1e-13 * np.max(np.abs(p.grad))


@pytest.mark.parametrize("style", ["elementwise", "channel"])
def test_regressor_masks_are_one_sequence_of_n_rows(style):
    # Wv's mask is drawn before attn_block's: one (n, r) block each for
    # elementwise, one (1, r) row each for channel
    bb = regressor_with_both_adapters(48, dropout_p=0.5, dropout_style=style)
    masks = model_mod._dropout_masks(bb, 1, 7, RngState(49))
    assert sorted(masks) == [(0, "Wv"), (0, "attn_block")]
    rng = RngState(49)
    for target in ("Wv", "attn_block"):
        want = keep_mask((7 if style == "elementwise" else 1, 3), 0.5, rng)
        assert np.array_equal(masks[(0, target)], np.broadcast_to(want, (7, 3)))
    # and the regressor's output is the tape's under those draws
    x = Tensor(RngState(50).normal((7, 16)))
    got, _ = regressor_output(bb, x, RngState(49))
    want_out = tape_regressor_output(bb, x, RngState(49)).data
    assert np.max(np.abs(got - want_out)) <= 1e-14 * np.max(np.abs(want_out))


def tape_ops(out):
    """The op names of every node on the tape that ends in `out`."""
    ops, stack, seen = set(), [out], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops.add(node._op)
            stack.extend(node._parents)
    return ops


def reg_ops(output):
    """The op names on the tapes of a regressor's adapter deltas."""
    return set().union(*(tape_ops(delta) for delta, _ in output[1]))


def lm_with_cera(dropout_p):
    bb = tiny_model(51)
    for target in ("Wq", "Wv"):
        inject_cera(bb, target, dropout_p=dropout_p, seed=52)
    return bb


def test_eval_mode_and_p_zero_build_no_dropout_node(monkeypatch):
    # dropout is the mask inside each adapter's one node: a training pass
    # with p > 0 hands every adapter a mask, eval mode and p = 0 hand none
    # (the frozen FFN is the same node with no mask, so adapter calls count)
    masked, delta_rows = [], Adapter.delta_rows
    monkeypatch.setattr(Adapter, "delta_rows", lambda self, x, mask=None: (
        masked.append(mask is not None), delta_rows(self, x, mask))[1])
    x = Tensor(RngState(53).normal((6, 16)))
    seqs = [[1, 2, 3, 4], [4, 3, 2, 1]]
    reg, lm = regressor_with_both_adapters(54, dropout_p=0.5), lm_with_cera(0.5)
    reg0, lm0 = regressor_with_both_adapters(54, dropout_p=0.0), lm_with_cera(0.0)
    for dropout, run in (
            (True, lambda: reg_ops(regressor_output(reg, x, RngState(55)))),
            (True, lambda: tape_ops(lm_logits(lm, seqs, RngState(55)))),
            (False, lambda: reg_ops(regressor_output(reg, x))),
            (False, lambda: tape_ops(lm_logits(lm, seqs))),
            (False, lambda: tape_ops(forward(reg, x))),
            (False, lambda: tape_ops(forward(lm, seqs))),
            (False, lambda: reg_ops(regressor_output(reg0, x, RngState(55)))),
            (False, lambda: tape_ops(lm_logits(lm0, seqs, RngState(55))))):
        masked.clear()
        ops = run()
        assert masked and set(masked) == {dropout}
        assert not ops & {"dropout", "mul", "relu"}


def test_unknown_mode_is_rejected():
    # forward is eval-only
    x = RngState(56).normal((4, 16))
    for bb, inputs in ((regressor_with_both_adapters(57), x),
                       (lm_with_cera(0.1), [[1, 2, 3]])):
        for mode in ("train", "Train"):
            with pytest.raises(DomainError):
                forward(bb, inputs, mode=mode)
