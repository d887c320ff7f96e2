import weakref

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
from ceralab.tensor import (cross_entropy_backward, cross_entropy_forward,
                            stream)

TINY = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=1, vocab_size=11,
                   max_seq_len=8, v_out_dim=8)


def tiny_model(seed=0, cfg=TINY):
    return build_model(cfg, seed)


def eval_logits(bb, tokens):
    """The logits rows of a pass without a stream: no dropout, no pullback."""
    logits, pullback = lm_logits(bb, tokens, None)
    assert pullback is None
    return logits


def inject_cera(backbone, target="Wv", r=3, layer=0, seed=5, **kw):
    cfg = AdapterConfig(kind="cera", r=r, **kw)
    d, k = adapter_shape(backbone.cfg, target)
    adapter = Adapter.init(cfg, d, k, stream(seed, 9))
    inject(backbone, layer, target, adapter)
    return adapter


def test_build_same_seed_same_checksum():
    assert tiny_model(3).checksum() == tiny_model(3).checksum()
    assert tiny_model(3).checksum() != tiny_model(4).checksum()


def test_forward_zero_length_batch():
    out = forward(tiny_model(), []).data
    assert out.shape[0] == 0


def test_logits_shape_contract():
    bb = tiny_model()
    batch = [[1, 2, 3, 4], [5, 6, 7, 8], [0, 0, 1, 1]]
    out = forward(bb, batch).data
    assert out.shape == (3, 4, TINY.vocab_size)
    # lm_logits gives one row per token, sequence by sequence; a 1-d
    # sequence is a batch of one, and each sequence of a batch gets the
    # logits it gets on its own
    rows = eval_logits(bb, np.array(batch))
    assert rows.shape == (12, TINY.vocab_size)
    assert np.array_equal(out.reshape(12, -1), rows)
    for i, seq in enumerate(batch):
        alone = eval_logits(bb, seq)
        assert alone.shape == (4, TINY.vocab_size)
        assert np.max(np.abs(out[i] - alone)) <= 1e-13 * np.max(np.abs(alone))
    with pytest.raises(ShapeError):
        forward(bb, [[1, 2, 3], [4, 5]])
    with pytest.raises(ShapeError):
        eval_logits(bb, np.zeros((2, 2, 2), dtype=np.int64))


def test_vocab_overflow_rejected():
    bb = tiny_model()
    with pytest.raises(DomainError):
        eval_logits(bb, [0, TINY.vocab_size])
    with pytest.raises(DomainError):
        eval_logits(bb, list(range(TINY.max_seq_len + 1)))
    with pytest.raises(DomainError):
        eval_logits(bb, [[0, 1], [2, TINY.vocab_size]])
    with pytest.raises(DomainError):
        eval_logits(bb, [[0, 1], [2, -1]])
    with pytest.raises(DomainError):
        eval_logits(bb, np.zeros((2, TINY.max_seq_len + 1), dtype=np.int64))


def test_causality():
    bb = tiny_model(7)
    base = eval_logits(bb, [[1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1]])
    poked = eval_logits(bb, [[1, 2, 9, 4, 5, 6], [6, 5, 4, 3, 2, 1]])
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
    x = (bb.tok_emb[ids] + bb.pos_emb[:8]).reshape(24, TINY.d_model)
    xn, _ = T.layer_norm_forward(x, ws["ln1_g"], ws["ln1_b"])
    q, k = (xn @ ws[w].T for w in ("Wq", "Wk"))
    eye = np.tile(np.eye(8), (3, TINY.n_heads))
    rows = T.causal_attention_forward(q, k, eye, TINY.n_heads, 8)[0]
    attn = rows.reshape(3, 8, TINY.n_heads, 8).transpose(0, 2, 1, 3)
    assert attn.shape == (3, TINY.n_heads, 8, 8)
    assert np.max(np.abs(attn.sum(axis=-1) - 1.0)) < 1e-12
    later = np.triu_indices(8, k=1)  # causal: no weight on later positions
    assert np.all(attn[..., later[0], later[1]] == 0.0)
    assert np.all(attn[..., np.arange(8), np.arange(8)] > 0.0)


def test_injection_neutrality_bit_identical():
    bb = tiny_model(9)
    seqs = [[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]]
    base = eval_logits(bb, seqs).copy()
    inject_cera(bb, "Wv")
    inject_cera(bb, "Wq", seed=6)
    assert np.array_equal(eval_logits(bb, seqs), base)


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
                                               stream(5, 9)))
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
    rng, ref_rng = stream(7, 0), stream(7, 0)
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


def test_no_adapter_with_dropout_draws_nothing():
    # lora and p = 0 drop nothing, so the stream is never called, not even
    # for an empty draw
    class Spy:
        def __getattr__(self, name):
            raise AssertionError(f"drew {name} with nothing to drop")

    bb = tiny_model()
    inject(bb, 0, "Wq", Adapter.init(AdapterConfig(kind="lora", r=2),
                                     *adapter_shape(bb.cfg, "Wq"), stream(6, 0)))
    inject_cera(bb, "Wv", dropout_p=0.0)
    assert model_mod._dropout_masks(bb, 3, 5, Spy()) == {}


def test_dropout_preserves_expectation():
    # inverted dropout scales each kept entry by 1/keep, so means survive
    bb = tiny_model()
    inject_cera(bb, "Wv", r=8, dropout_p=0.5)
    mask = model_mod._dropout_masks(bb, 40, 50, stream(4, 0))[(0, "Wv")]
    out = np.full(mask.shape, 2.0) * mask
    assert out.mean() == pytest.approx(2.0, rel=0.05)


def test_dropout_channel_masks_whole_columns():
    bb = tiny_model()
    inject_cera(bb, "Wv", r=8, dropout_p=0.4, dropout_style="channel")
    mask = model_mod._dropout_masks(bb, 6, 50, stream(5, 0))[(0, "Wv")]
    out = np.ones(mask.shape) * mask
    for seq in out.reshape(6, 50, 8):  # each column all-kept or all-dropped
        assert np.array_equal(seq.min(axis=0), seq.max(axis=0))
    assert 0.0 < np.mean(out == 0.0) < 1.0
    assert all(v == 0.0 or abs(v - 1 / 0.6) < 1e-12 for v in np.unique(out))


def test_double_injection_rejected():
    bb = tiny_model()
    inject_cera(bb, "Wv")
    with pytest.raises(ConfigError):
        inject_cera(bb, "Wv", seed=1)


def test_invalid_layer_rejected():
    bb = tiny_model()
    cfg = AdapterConfig(kind="cera", r=2)
    adapter = Adapter.init(cfg, *adapter_shape(bb.cfg, "Wq"), stream(0, 0))
    with pytest.raises(ConfigError):
        inject(bb, 5, "Wq", adapter)


def test_kind_target_mismatch_rejected():
    bb = tiny_model()
    cfg = AdapterConfig(kind="parallel_module", r=2)
    adapter = Adapter.init(cfg, *adapter_shape(bb.cfg, "attn_block"), stream(0, 0))
    with pytest.raises(ConfigError):
        inject(bb, 0, "Wq", adapter)
    # a regressor never reads its query path, so it refuses a Wq adapter
    with pytest.raises(ConfigError, match="never reads"):
        inject_cera(build_model(REG, 0), "Wq")


def test_wq_vs_wv_placement_is_observable():
    # square geometry so the same state fits both targets
    cfg = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=1,
                      vocab_size=11, max_seq_len=8, v_out_dim=16)
    rng = stream(11, 0)
    state = AdapterState(w_up=rng.normal(size=(3, 16)), w_down=rng.normal(size=(16, 3)))
    seq = [1, 2, 3, 4, 5, 6]
    outs = {}
    for target in ("Wq", "Wv"):
        bb = build_model(cfg, 12)
        acfg = AdapterConfig(kind="cera", r=3, dropout_p=0.0)
        inject(bb, 0, target, Adapter(acfg, AdapterState(
            state.w_up.copy(), state.w_down.copy())))
        outs[target] = eval_logits(bb, seq)
    assert np.max(np.abs(outs["Wq"] - outs["Wv"])) > 1e-6


def test_weight_level_vs_module_level_is_observable():
    rng = stream(13, 0)
    up = rng.normal(size=(3, 16))
    down = rng.normal(size=(16, 3))
    seq = [1, 2, 3, 4, 5, 6]
    outs = {}
    for kind, target in (("cera", "Wq"), ("parallel_module", "attn_block")):
        bb = tiny_model(14, ModelConfig(d_model=16, n_heads=2, d_head=8,
                                        n_layers=1, vocab_size=11,
                                        max_seq_len=8, v_out_dim=16))
        acfg = AdapterConfig(kind=kind, r=3, dropout_p=0.0)
        adapter = Adapter(acfg, AdapterState(up.copy(), down.copy()))
        inject(bb, 0, target, adapter)
        outs[kind] = eval_logits(bb, seq)
    assert np.max(np.abs(outs["cera"] - outs["parallel_module"])) > 1e-6


def gradient_map(bb, fill):
    """The map a pullback writes into: each adapter's w_up and w_down
    gradient arrays, filled with `fill`."""
    return {a: (np.full(a.state.w_up.shape, fill), np.full(a.state.w_down.shape, fill))
            for a in bb.adapters.values()}


def training_pass(bb, tokens, targets, drop_seed):
    """The cross-entropy of a language-model training pass, dropout drawn
    from a fresh stream `drop_seed`, and the adapters' gradients its pullback
    writes into a NaN-filled map from each adapter."""
    logits, pullback = lm_logits(bb, tokens, stream(drop_seed, 0))
    loss, saved = cross_entropy_forward(logits, targets)
    grads = gradient_map(bb, np.nan)
    pullback(cross_entropy_backward(saved), grads)
    return loss, grads


def pullback_error(bb, tokens, targets, drop_seed):
    """The worst finite-difference error of the pullback's gradient of
    every adapter matrix; every entry of the map must be written."""
    _, grads = training_pass(bb, tokens, targets, drop_seed)
    worst = 0.0
    for adapter, pair in grads.items():
        for name, grad in zip(("w_up", "w_down"), pair):
            assert not np.isnan(grad).any()
            original = getattr(adapter.state, name)

            def f(probe):
                setattr(adapter.state, name, probe)
                logits, _ = lm_logits(bb, tokens, stream(drop_seed, 0))
                return cross_entropy_forward(logits, targets)[0]

            worst = max(worst, T.finite_difference_check(f, original, grad, 1e-6))
            setattr(adapter.state, name, original)
    return worst


def test_gradient_through_model_and_adapter():
    bb = tiny_model(15)
    adapter = inject_cera(bb, "Wv", r=3)
    adapter.state.w_down[:] = stream(16, 0).normal(size=(8, 3)) * 0.3
    seq = np.array([[1, 2, 3, 4, 5, 6], [7, 6, 5, 4, 3, 2]])
    targets = np.array([2, 3, 4, 5, 6, 7, 6, 5, 4, 3, 2, 1])
    assert pullback_error(bb, seq, targets, 17) < 1e-4


def cera(**kw):
    return AdapterConfig(kind="cera", r=3, **kw)


MODULE = AdapterConfig(kind="parallel_module", r=3)
# (layer, target, config) placements on SQUARE's two blocks
PULLBACK_CASES = {
    # a lower block's adapters get their gradient through the residual
    # stream, both layer norms, attention and the FFN of the block above
    "every-target": [(layer, target, cfg) for layer in (0, 1) for target, cfg in (
        ("Wq", cera()), ("Wv", AdapterConfig(kind="lora", r=3)), ("attn_block", MODULE))],
    # no adapter reads the lower block: it is not run backward
    "upper-block": [(1, "Wq", cera()), (1, "Wv", cera()), (1, "attn_block", MODULE)],
    "relu-channel": [(layer, target, cera(activation="relu", dropout_p=0.3,
                                          dropout_style="channel"))
                     for layer in (0, 1) for target in ("Wq", "Wv")],
    "identity-scale-2": [(layer, target, cera(activation="identity", scale_s=2.0))
                         for layer in (0, 1) for target in ("Wq", "Wv")],
    # module adapters only: the lowest block's attention feeds no adapter, so
    # it is not run backward
    "module-only": [(layer, "attn_block", MODULE) for layer in (0, 1)],
    # the lowest block's attention forms only v's gradient
    "value-below": [(0, "Wv", cera()), (1, "Wq", cera())],
}


def case_backbone(case):
    """SQUARE with PULLBACK_CASES[case]'s adapters, their w_down non-zero."""
    bb = build_model(SQUARE, 30)
    rng = stream(31, 0)
    for layer, target, cfg in PULLBACK_CASES[case]:
        adapter = Adapter.init(cfg, *adapter_shape(SQUARE, target),
                               stream(31, 0, len(bb.adapters)))
        adapter.state.w_down[:] = rng.normal(size=adapter.state.w_down.shape) * 0.3
        inject(bb, layer, target, adapter)
    return bb


@pytest.mark.parametrize("case", sorted(PULLBACK_CASES))
def test_the_explicit_pullback_matches_finite_differences_through_every_block(
        monkeypatch, case):
    bb = case_backbone(case)
    seqs = np.array([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1], [0, 9, 0, 9, 0]])
    targets = stream(34, 0).integers(0, 11, 15)
    blocks, attention_backward = [], T.causal_attention_backward
    monkeypatch.setattr(T, "causal_attention_backward", lambda *args: (
        blocks.append(args[-1]), attention_backward(*args))[1])
    assert pullback_error(bb, seqs, targets, 35) < 1e-6
    # the pullback runs attention backward down to the lowest block with an
    # adapter that reads it, forming only the products something reads
    lowest = min(layer for layer, _, _ in PULLBACK_CASES[case])
    wq = any(target == "Wq" and layer == lowest for layer, target, _ in PULLBACK_CASES[case])
    wv = any(target == "Wv" and layer == lowest for layer, target, _ in PULLBACK_CASES[case])
    want = [(True, True, True)] * (SQUARE.n_layers - 1 - lowest)
    if wq or wv:
        want.append((wq, False, wv))
    assert blocks == want


def saved_entries(pullback):
    """The per-sublayer arrays a language-model pullback will read, bottom
    block first and attention before FFN, then the final layer norm's: the
    list its closure holds."""
    cells = dict(zip(pullback.__code__.co_freevars, pullback.__closure__))
    return cells["saved"].cell_contents


def two_block_training_pass():
    """A training pass of SQUARE with every target on both blocks: the
    backbone, the tokens, the loss's gradient at the logits, and the
    pullback."""
    bb = adapted_backbone(SQUARE, [(layer, kind, target) for layer in (0, 1)
                                   for kind, target in (("cera", "Wq"), ("cera", "Wv"),
                                                        ("parallel_module", "attn_block"))])
    seqs = np.array([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]])
    logits, pullback = lm_logits(bb, seqs, stream(36, 0))
    _, saved = cross_entropy_forward(logits, seqs.reshape(-1))
    return bb, seqs, cross_entropy_backward(saved), pullback


@pytest.mark.parametrize("case", sorted(PULLBACK_CASES))
def test_a_training_pass_keeps_only_what_its_pullback_reads(case):
    bb = case_backbone(case)
    seqs = np.array([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]])
    n, s = seqs.size, seqs.shape[1]
    entries = saved_entries(lm_logits(bb, seqs, stream(36, 0))[1])
    lowest = min(layer for layer, _ in bb.adapters)
    # two entries per block from the lowest adapted one up, its attention
    # sublayer's then its FFN's, and the final layer norm's last: the
    # blocks below keep nothing
    assert len(entries) == 2 * (SQUARE.n_layers - lowest) + 1
    assert [a.shape for a in entries[-1]] == [(n, 16), (n, 1)]
    for layer, attention, (ln2, (lat, sig, kept)) in zip(
            range(lowest, SQUARE.n_layers), entries[:-1:2], entries[1::2]):
        ln1, q, v, keys_t, weights, *pulls = attention
        below = layer > lowest
        wq, wv, module = ((layer, target) in bb.adapters
                          for target in ("Wq", "Wv", "attn_block"))
        # the lowest block forms no input gradient and no k gradient, so it
        # keeps no layer-norm state and no q
        assert (ln1 is not None) == (q is not None) == below
        if below:
            assert [a.shape for a in ln1] == [(n, 16), (n, 1)]
            assert q.shape == (n, SQUARE.qk_dim)
        # v and the keys' (B, H, d, S) copy are read for q's and k's
        # gradients, the weights for any of the three, and a module adapter
        # alone reads none of them
        assert (v is not None) == (keys_t is not None) == (below or wq)
        if v is not None:
            assert v.shape == (n, 16)
            assert keys_t.shape == (2, SQUARE.n_heads, SQUARE.d_head, s)
        assert (weights is not None) == (below or wq or wv)
        if weights is not None:
            assert weights.shape == (2, SQUARE.n_heads, s, s)
        # every adapter keeps its pullback
        assert [callable(pull) for pull in pulls] == [wq, wv, module]
        # the frozen FFN keeps no activation rows: only w_down's product reads them
        assert [a.shape for a in ln2] == [(n, 16), (n, 1)]
        assert lat.shape == sig.shape == (n, SQUARE.d_ff) and kept is None
    # without a stream nothing is kept
    assert lm_logits(bb, seqs, None)[1] is None


def test_the_pullback_drops_each_blocks_arrays_once_it_has_run(monkeypatch):
    # the FFN's hidden rows go once its backward half has run, before its
    # layer norm's backward, and the attention weights before the adapters'
    # pullbacks, unless the caller holds them; the gradients are the same
    def run(hold: bool):
        bb, _, g, pullback = two_block_training_pass()
        entries = saved_entries(pullback)
        # attention weights, FFN hidden rows: attn0, ffn0, attn1, ffn1
        alive = [weakref.ref(entry[4] if i % 2 == 0 else entry[1][0])
                 for i, entry in enumerate(entries[:-1])]
        held = list(entries) if hold else []  # alive until `run` returns
        seen = []
        for name in ("layer_norm_backward", "mlp_backward"):
            def recording(*args, name=name, original=getattr(T, name)):
                seen.append((name, [ref() is not None for ref in alive]))
                return original(*args)

            monkeypatch.setattr(T, name, recording)
        del entries
        grads = gradient_map(bb, 0.0)
        pullback(g, grads)
        monkeypatch.undo()
        return seen, [g.tobytes() for pair in grads.values() for g in pair]

    (freed, grads), (kept, want) = run(hold=False), run(hold=True)
    norm, mlp = "layer_norm_backward", "mlp_backward"
    # the final norm; per block from the top: the FFN, its norm, the three
    # adapters and, above the lowest block, the first norm
    names = [norm, mlp, norm, mlp, mlp, mlp, norm, mlp, norm, mlp, mlp, mlp]
    alive = [[True] * 4, [True] * 4, [True, True, True, False]] + [[True, True, False, False]] * 5 \
        + [[True, False, False, False]] + [[False] * 4] * 3
    assert freed == list(zip(names, alive))
    assert kept == [(name, [True] * 4) for name in names]
    assert grads == want


def test_backbone_checksum_unchanged_by_forward_and_backward():
    bb = tiny_model(17)
    adapter = inject_cera(bb, "Wv")
    before = bb.checksum()
    # the pullback writes only into the map it is handed, which holds the
    # adapters' parameters alone, and writes every entry of it
    _, grads = training_pass(bb, [1, 2, 3], np.array([2, 3, 4]), 18)
    assert bb.checksum() == before
    assert list(grads) == [adapter]
    assert all(not np.isnan(g).any() for g in grads[adapter])


def test_collect_latents_zero_init_delta_is_zero():
    bb = tiny_model(18)
    inject_cera(bb, "Wv", r=3)
    d = collect_latents(bb, [[1, 2, 3, 4], [5, 6, 7, 8]], which="output_delta_D")
    assert np.all(d == 0.0)
    assert activation_spectrum(d).effective_rank == 0.0


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
    rng = stream(seed + 1, 0)
    for layer, kind, target in placements:
        adapter = Adapter.init(AdapterConfig(kind=kind, r=3),
                               *adapter_shape(cfg, target),
                               stream(seed + 1, 0, len(bb.adapters)))
        adapter.state.w_down[:] = rng.normal(size=adapter.state.w_down.shape)
        inject(bb, layer, target, adapter)
    return bb


def stacked(bb, reads, which):
    """Each adapter's latent or delta rows over the rows its layer reads,
    stacked in (layer, target) order."""
    return np.concatenate([
        a.latent_rows(reads[layer]) if which == "latent_H"
        else a.delta_rows(reads[layer], None)[0]
        for (layer, _), a in sorted(bb.adapters.items())])


def test_collect_latents_is_each_adapter_on_the_rows_it_reads(monkeypatch):
    # language model: an adapter of layer l reads that layer's first layer
    # norm, seen here by recording every layer norm of a forward pass
    bb = adapted_backbone(SQUARE, [(layer, kind, target) for layer in (0, 1)
                                   for kind, target in (("cera", "Wq"), ("lora", "Wv"),
                                                        ("parallel_module", "attn_block"))])
    seqs = [[1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1], [0, 9, 0, 9, 0, 9]]
    norms, layer_norm = [], T.layer_norm_forward

    def recording(x, gain, bias):
        out = layer_norm(x, gain, bias)
        norms.append((gain, out[0]))
        return out

    monkeypatch.setattr(T, "layer_norm_forward", recording)
    forward(bb, seqs)
    monkeypatch.undo()
    reads = [next(out for gain, out in norms if gain is ws["ln1_g"]) for ws in bb.layers]

    def no_forward(*args, **kw):
        raise AssertionError("collect_latents ran a forward pass")

    for name in ("forward", "lm_logits", "regressor_output", "regressor_frozen"):
        monkeypatch.setattr(model_mod, name, no_forward)
    for which in ("latent_H", "output_delta_D"):
        got = collect_latents(bb, seqs, which)
        assert got.shape[0] == 6 * 18
        assert np.array_equal(got, stacked(bb, reads, which))
    # regressor: every adapter reads the features
    reg_cfg = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=1, vocab_size=4,
                          max_seq_len=8, v_out_dim=16, mode="regressor")
    reg = adapted_backbone(reg_cfg, [(0, "cera", "Wv"), (0, "parallel_module", "attn_block")])
    x = stream(32, 0).normal(size=(10, 16))
    for which in ("latent_H", "output_delta_D"):
        got = collect_latents(reg, x, which)
        assert np.array_equal(got, stacked(reg, [x], which))
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
    adapter = Adapter.init(cfg, d, k, stream(22, 0))
    adapter.state.w_down[:] = stream(23, 0).normal(size=(d, 2))
    inject(bb, 0, "Wv", adapter)
    dmat = collect_latents(bb, [[1, 2, 3, 4, 5, 6, 7, 0]] * 4, which="output_delta_D")
    assert np.sum(svd_values(dmat) > 1e-10) <= 2


def test_merged_copy_matches_unmerged_lora():
    bb = tiny_model(24)
    cfg = AdapterConfig(kind="lora", r=2, alpha=4.0)
    d, k = adapter_shape(bb.cfg, "Wv")
    adapter = Adapter.init(cfg, d, k, stream(25, 0))
    adapter.state.w_down[:] = stream(26, 0).normal(size=(d, 2)) * 0.5
    inject(bb, 0, "Wv", adapter)
    merged = merged_copy(bb)
    assert not merged.adapters
    seqs = [[1, 2, 3, 4, 5], [9, 8, 7, 6, 5]]
    a = eval_logits(bb, seqs)
    b = eval_logits(merged, seqs)
    assert np.max(np.abs(a - b)) < 1e-10


def test_merged_copy_refuses_nonlinear():
    bb = tiny_model(27)
    adapter = inject_cera(bb, "Wv")
    adapter.state.w_down[:] = 0.1
    with pytest.raises(NotMergeableError):
        merged_copy(bb)


def test_regressor_mode_shapes_and_determinism():
    cfg = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=1,
                      vocab_size=4, max_seq_len=8, v_out_dim=8, mode="regressor")
    bb = build_model(cfg, 28)
    x = stream(29, 0).normal(size=(10, 16))
    a, _ = regressor_output(bb, x)
    b, _ = regressor_output(bb, x)
    assert a.shape == (10, 4)
    assert np.array_equal(a, b)


def test_regressor_requires_single_block():
    with pytest.raises(ConfigError):
        ModelConfig(n_layers=2, mode="regressor")


REG = ModelConfig(d_model=16, n_heads=2, d_head=8, n_layers=1, vocab_size=4,
                  max_seq_len=8, v_out_dim=8, mode="regressor")


def chain_rows(adapter, x, mask):
    """Reference: an adapter's delta rows, op for op as the linear,
    activation, mask, linear, scale chain; and its activations, kept
    activations and hidden rows."""
    cfg = adapter.cfg
    lat = x @ adapter.state.w_up.T
    sig = None
    if cfg.activation == "silu":
        sig = 1.0 / (1.0 + np.exp(-lat))
        act = lat * sig
    else:
        act = np.maximum(lat, 0.0) if cfg.activation == "relu" else lat
    kept = act if mask is None else act * mask
    rows = kept @ adapter.state.w_down.T
    if cfg.scale_s != 1.0:
        rows = rows * cfg.scale_s
    return rows, (lat, sig, kept)


def chain_grads(adapter, x, mask, g):
    """Reference: w_up's and w_down's gradient products for the gradient g
    of the adapter's delta rows, as the chain's own steps form them."""
    cfg = adapter.cfg
    _, (lat, sig, kept) = chain_rows(adapter, x, mask)
    if cfg.scale_s != 1.0:
        g = g * cfg.scale_s
    dact = g @ adapter.state.w_down
    if mask is not None:
        dact = dact * mask
    if cfg.activation == "silu":
        dact = dact * sig * ((1.0 - sig) * lat + 1.0)
    elif cfg.activation == "relu":
        dact = dact * (lat > 0.0)
    return [dact.T @ x, g.T @ kept]


def drawn_masks(bb, x, rng):
    """Each adapter's mask as the network draws it, adapter by adapter, Wv
    first: one (n, r) block for elementwise dropout, one (1, r) row for
    channel; none without a stream."""
    masks = {}
    for target in ("Wv", "attn_block"):
        adapter = bb.adapters.get((0, target))
        if adapter is not None and rng is not None and adapter.cfg.dropout_p > 0.0:
            cfg = adapter.cfg
            rows = x.shape[0] if cfg.dropout_style == "elementwise" else 1
            masks[target] = keep_mask((rows, cfg.r), cfg.dropout_p, rng)
    return masks


def network_regressor_output(bb, x, masks):
    """Reference: the regressor in numpy, op for op as the network is drawn
    (attention and FFN branches on the raw input, the Wv adapter inside the
    value projection, the module adapter on the attention output), against
    which the frozen-term split is checked."""
    ws = bb.layers[0]
    v = x @ ws["Wv"].T
    wv = bb.adapters.get((0, "Wv"))
    if wv is not None:
        v = v + chain_rows(wv, x, masks.get("Wv"))[0]
    attn_out = v @ ws["Wo"].T
    module = bb.adapters.get((0, "attn_block"))
    if module is not None:
        attn_out = attn_out + chain_rows(module, x, masks.get("attn_block"))[0]
    ff = T.mlp_forward(x, ws["W1"], ws["W2"], "silu", None, 1.0)[0]
    return (x + attn_out + ff) @ bb.head.T


def network_regressor_grads(bb, x, masks, g):
    """Reference: each adapter's gradient products for the output's
    gradient g, pulled back through the network as drawn: through head,
    then, for the Wv adapter, through Wo."""
    dz = g @ bb.head
    grads = []
    for target, to_delta in (("Wv", bb.layers[0]["Wo"]), ("attn_block", None)):
        adapter = bb.adapters.get((0, target))
        if adapter is not None:
            g_delta = dz if to_delta is None else dz @ to_delta
            grads += chain_grads(adapter, x, masks.get(target), g_delta)
    return grads


def regressor_with(seed, placements):
    """REG with the given (target, AdapterConfig) adapters, non-zero w_down."""
    bb = build_model(REG, seed)
    rng = stream(seed + 1, 0)
    for target, cfg in placements:
        adapter = Adapter.init(cfg, *adapter_shape(REG, target),
                               stream(seed + 1, 0, len(bb.adapters)))
        adapter.state.w_down[:] = rng.normal(size=adapter.state.w_down.shape) * 0.3
        inject(bb, 0, target, adapter)
    return bb


def regressor_with_both_adapters(seed, **kw):
    return regressor_with(seed, [("Wv", AdapterConfig(kind="cera", r=3, **kw)),
                                 ("attn_block", AdapterConfig(kind="parallel_module", r=3, **kw))])


def test_adapter_free_regressor_is_bit_identical_to_the_network():
    bb = build_model(REG, 40)
    x = stream(41, 0).normal(size=(37, 16))
    got, pullback = regressor_output(bb, x)
    assert pullback is None  # a pullback comes exactly with a stream
    assert callable(regressor_output(bb, x, stream(42, 0))[1])
    assert got.tobytes() == network_regressor_output(bb, x, {}).tobytes()
    assert regressor_frozen(bb, x).tobytes() == got.tobytes()


def whole_batch_frozen(bb, x):
    """Reference: `regressor_frozen` as one whole-batch chain, the FFN one
    `mlp_forward` over all rows."""
    ws = bb.layers[0]
    attn_out = (x @ ws["Wv"].T) @ ws["Wo"].T
    ff = T.mlp_forward(x, ws["W1"], ws["W2"], "silu", None, 1.0)[0]
    return (x + attn_out + ff) @ bb.head.T


@pytest.mark.parametrize("vocab", [1, 8, 64])
@pytest.mark.parametrize("d_model", [4, 16, 32, 64, 128])
def test_blocked_regressor_frozen_is_the_whole_batch_chain_bit_for_bit(d_model, vocab):
    # the FFN over row blocks of 256 to 511 rows gives the whole batch's
    # bits: row counts at and around each block edge, and the task's 512
    # and 1024 rows
    bb = build_model(ModelConfig(d_model=d_model, n_heads=1, d_head=d_model, n_layers=1,
                                 vocab_size=vocab, max_seq_len=8, v_out_dim=d_model,
                                 mode="regressor"), d_model + vocab)
    rng = stream(48, d_model, vocab)
    for n in (1, 255, 256, 511, 512, 513, 767, 1024, 2000):
        x = rng.normal(size=(n, d_model))
        got = regressor_frozen(bb, x)
        assert got.shape == (n, vocab)
        assert got.tobytes() == whole_batch_frozen(bb, x).tobytes(), n


def test_regressor_frozen_runs_its_ffn_over_blocks_of_256_to_511_rows(monkeypatch):
    # one block below 512 rows; from 512 rows on, n // 256 near-equal
    # blocks in row order, none shorter than 256 rows
    bb = build_model(REG, 49)
    blocks = []
    mlp_forward = T.mlp_forward
    monkeypatch.setattr(T, "mlp_forward", lambda x, *args: (
        blocks.append(len(x)), mlp_forward(x, *args))[1])
    for n in (*range(1, 1100, 7), 2000, 4095, 4096, 10007):
        blocks.clear()
        regressor_frozen(bb, np.zeros((n, 16)))
        assert sum(blocks) == n
        if n < 2 * model_mod.FFN_BLOCK_ROWS:
            assert blocks == [n]
        else:
            assert len(blocks) == n // model_mod.FFN_BLOCK_ROWS
            assert min(blocks) >= model_mod.FFN_BLOCK_ROWS
            assert max(blocks) < 2 * model_mod.FFN_BLOCK_ROWS
            assert max(blocks) - min(blocks) <= 1


@pytest.mark.parametrize("drop_seed", [None, 44], ids=["eval", "train"])
def test_adapted_regressor_matches_the_network_composition(drop_seed):
    bb = regressor_with_both_adapters(42)
    x = stream(43, 0).normal(size=(29, 16))
    rng = lambda: None if drop_seed is None else stream(drop_seed, 0)  # a fresh stream
    want = network_regressor_output(bb, x, drawn_masks(bb, x, rng()))
    got, _ = regressor_output(bb, x, rng())
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # a frozen term passed in gives the same output as one computed inside
    again, _ = regressor_output(bb, x, rng(), frozen=regressor_frozen(bb, x))
    assert np.array_equal(again, got)


def regressor_rows(seed, n):
    """n feature rows and targets for REG."""
    rng = stream(seed, 0)
    return Dataset(inputs=rng.normal(size=(n, 16)), targets=rng.normal(size=(n, 4)))


def training_loss(bb, data, drop_seed, state=None):
    """The regressor's training loss over every row of `data` and the
    adapter gradients its pullback writes into the optimizer state's flat
    buffer, dropout drawn from a fresh stream `drop_seed`. Without a `state`
    one is made, which moves the adapters' values into its buffer."""
    value, pullback = trainer_mod._batch_loss(
        bb, data, np.arange(len(data)), stream(drop_seed, 0),
        regressor_frozen(bb, data.inputs))
    if state is None:
        state = trainer_mod.adamw_state(list(bb.adapters.values()))
    state.grad[:] = np.nan  # every entry must be written
    pullback(state.grads)
    return value, [g.copy() for pair in state.grads.values() for g in pair]


def test_regressor_gradient_matches_finite_differences():
    # the training path: MSE and its output gradient in numpy, pulled back
    # through each adapter's numpy halves; the masks repeat with the stream
    bb = regressor_with_both_adapters(45)
    data = regressor_rows(46, 12)
    state = trainer_mod.adamw_state(list(bb.adapters.values()))
    _, analytic = training_loss(bb, data, 47, state)
    worst, step = 0.0, 1e-6
    weights = [w for a in bb.adapters.values() for w in (a.state.w_up, a.state.w_down)]
    for w, grad in zip(weights, analytic):
        flat = w.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = training_loss(bb, data, 47, state)[0]
            flat[i] = orig - step
            lo = training_loss(bb, data, 47, state)[0]
            flat[i] = orig
            a = grad.reshape(-1)[i]
            worst = max(worst, abs(a - (hi - lo) / (2.0 * step)) / max(1.0, abs(a)))
    assert worst < 1e-9


def chain_head(bb, x, rng):
    """Reference: the regressor's output as training composes it, the
    frozen term plus, Wv first, each adapter's chain rows times the matrix
    C that carries them to the output; and each adapter's target, mask and
    C."""
    masks = model_mod._dropout_masks(bb, 1, x.shape[0], rng)
    out, carried = regressor_frozen(bb, x), []
    for target in ("Wv", "attn_block"):
        adapter = bb.adapters.get((0, target))
        if adapter is not None:
            to_output = bb.carry if target == "Wv" else bb.head
            mask = masks.get((0, target))
            out = out + chain_rows(adapter, x, mask)[0] @ to_output.T
            carried.append((target, adapter, mask, to_output))
    return out, carried


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
def test_closed_form_gradients_equal_the_chain_pulled_back_from_the_mse_gradient(case):
    bb = CLOSED_FORM_CASES[case]()
    data = regressor_rows(65, 23)
    x = data.inputs
    value, got = training_loss(bb, data, 66)
    # bit for bit: the test-local chain, composed as training composes it
    out, carried = chain_head(bb, x, stream(66, 0))
    diff = out - data.targets
    g = (1.0 / diff.size) * 2.0 * diff
    assert value == float((diff ** 2.0).mean())
    want = [grad for _, adapter, mask, to_output in carried
            for grad in chain_grads(adapter, x, mask, g @ to_output)]
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
    # the network as drawn multiplies by head, then Wo
    masks = {target: mask for target, _, mask, _ in carried if mask is not None}
    drawn = network_regressor_output(bb, x, masks)
    want = network_regressor_grads(bb, x, masks, (1.0 / diff.size) * 2.0 * (drawn - data.targets))
    for a, b in zip(got, want, strict=True):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


@pytest.mark.parametrize("style", ["elementwise", "channel"])
def test_regressor_masks_are_one_sequence_of_n_rows(style):
    # Wv's mask is drawn before attn_block's: one (n, r) block each for
    # elementwise, one (1, r) row each for channel
    bb = regressor_with_both_adapters(48, dropout_p=0.5, dropout_style=style)
    masks = model_mod._dropout_masks(bb, 1, 7, stream(49, 0))
    assert sorted(masks) == [(0, "Wv"), (0, "attn_block")]
    rng = stream(49, 0)
    for target in ("Wv", "attn_block"):
        want = keep_mask((7 if style == "elementwise" else 1, 3), 0.5, rng)
        assert np.array_equal(masks[(0, target)], np.broadcast_to(want, (7, 3)))
    # and the regressor's output is the network's under those draws
    x = stream(50, 0).normal(size=(7, 16))
    got, _ = regressor_output(bb, x, stream(49, 0))
    want_out = network_regressor_output(bb, x, drawn_masks(bb, x, stream(49, 0)))
    assert np.max(np.abs(got - want_out)) <= 1e-14 * np.max(np.abs(want_out))


def lm_with_cera(dropout_p):
    bb = tiny_model(51)
    for target in ("Wq", "Wv"):
        inject_cera(bb, target, dropout_p=dropout_p, seed=52)
    return bb


def test_eval_mode_and_p_zero_hand_no_adapter_a_mask(monkeypatch):
    # dropout is the mask inside each adapter's delta, in both model modes:
    # a training pass with p > 0 hands every adapter a mask, eval mode and
    # p = 0 hand none (the frozen FFN runs the same halves with no mask, so
    # adapter calls count)
    masked, delta_rows = [], Adapter.delta_rows
    monkeypatch.setattr(Adapter, "delta_rows", lambda self, x, mask: (
        masked.append(mask is not None), delta_rows(self, x, mask))[1])
    x = stream(53, 0).normal(size=(6, 16))
    seqs = [[1, 2, 3, 4], [4, 3, 2, 1]]
    reg, lm = regressor_with_both_adapters(54, dropout_p=0.5), lm_with_cera(0.5)
    reg0, lm0 = regressor_with_both_adapters(54, dropout_p=0.0), lm_with_cera(0.0)
    for dropout, run in (
            (True, lambda: regressor_output(reg, x, stream(55, 0))),
            (True, lambda: lm_logits(lm, seqs, stream(55, 0))),
            (False, lambda: regressor_output(reg, x)),
            (False, lambda: lm_logits(lm, seqs, None)),
            (False, lambda: forward(reg, x)),
            (False, lambda: forward(lm, seqs)),
            (False, lambda: regressor_output(reg0, x, stream(55, 0))),
            (False, lambda: lm_logits(lm0, seqs, stream(55, 0)))):
        masked.clear()
        run()
        assert masked and set(masked) == {dropout}


def test_unknown_mode_is_rejected():
    # forward is eval-only
    x = stream(56, 0).normal(size=(4, 16))
    for bb, inputs in ((regressor_with_both_adapters(57), x),
                       (lm_with_cera(0.1), [[1, 2, 3]])):
        for mode in ("train", "Train"):
            with pytest.raises(DomainError):
                forward(bb, inputs, mode=mode)
