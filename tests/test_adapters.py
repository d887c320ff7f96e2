import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceralab import tensor as tensor_mod
from ceralab.tensor import finite_difference_check
from ceralab.adapters import (Adapter, AdapterConfig, AdapterState,
                              init_adapter, merge_linear, param_count)
from ceralab.errors import ConfigError, NotMergeableError
from ceralab.experiments import MethodSpec
from ceralab.model import ModelConfig, build_model, inject, regressor_output
from ceralab.spectral import delta_w_linear, svd_values
from ceralab.tensor import RngState

LLAMA3_GEOMETRY = [(4096, 4096, 32), (1024, 4096, 32)]


def make_lora(r=4, d=6, k=8, seed=0, **kw):
    cfg = AdapterConfig(kind="lora", r=r, **kw)
    return cfg, init_adapter(cfg, d, k, RngState(seed))


def make_cera(r=4, d=6, k=8, seed=0, **kw):
    cfg = AdapterConfig(kind="cera", r=r, **kw)
    return cfg, init_adapter(cfg, d, k, RngState(seed))


def keep_mask(shape, p, rng):
    """One scaled keep mask of inverted dropout drawn from `rng`: 1/(1-p)
    where the draw is below 1 - p, 0 elsewhere."""
    keep = 1.0 - p
    return (rng.uniform(0.0, 1.0, shape) < keep) / keep


def adapted(x, w0, st_, cfg, mask=None):
    """W0 x plus the adapter's delta, for a batch of rows."""
    return x @ w0.T + Adapter(cfg, st_).delta_rows(x, mask)[0]


def delta(adapter, x):
    """An adapter's delta rows without dropout."""
    return adapter.delta_rows(x, None)[0]


def gradient_arrays(adapter):
    """The map a pullback writes an adapter's w_up and w_down gradients into."""
    return {adapter: (np.empty(adapter.state.w_up.shape),
                      np.empty(adapter.state.w_down.shape))}


def test_init_is_exact_noop():
    cfg, st_ = make_cera()
    rng = RngState(1)
    w0 = rng.normal((6, 8))
    x = rng.normal((1, 8))
    base = x @ w0.T
    out = adapted(x, w0, st_, cfg)
    assert np.array_equal(out, base)


def test_init_deterministic():
    _, a = make_cera(seed=7)
    _, b = make_cera(seed=7)
    assert np.array_equal(a.w_up, b.w_up)
    assert np.array_equal(a.w_down, b.w_down)


def test_init_gain_zero():
    cfg = AdapterConfig(kind="cera", r=3, init_gain=0.0)
    st_ = init_adapter(cfg, 5, 5, RngState(2))
    assert np.all(st_.w_up == 0.0)


def test_init_rank_too_large():
    cfg = AdapterConfig(kind="lora", r=9)
    with pytest.raises(ConfigError):
        init_adapter(cfg, 4, 16, RngState(0))


def test_lora_zero_b_and_zero_alpha():
    cfg, st_ = make_lora(alpha=0.0)
    rng = RngState(3)
    st_.w_down[:] = rng.normal((6, 4))  # nonzero B, alpha kills it
    w0 = rng.normal((6, 8))
    x = rng.normal((1, 8))
    assert np.allclose(adapted(x, w0, st_, cfg), x @ w0.T)


def test_lora_matches_materialized_delta_w():
    rng = RngState(4)
    cfg, st_ = make_lora(r=3, d=5, k=7, alpha=2.0)
    st_.w_down[:] = rng.normal((5, 3))
    st_.w_up[:] = rng.normal((3, 7))
    w0 = rng.normal((5, 7))
    x = rng.normal((1, 7))
    merged = w0 + delta_w_linear(st_.w_up, st_.w_down, 2.0 / 3)
    got = adapted(x, w0, st_, cfg)
    assert np.max(np.abs(got - x @ merged.T)) < 1e-10


def test_cera_degenerates_to_lora():
    rng = RngState(5)
    lora_cfg, st_ = make_lora(r=4, d=6, k=8)
    st_.w_down[:] = rng.normal((6, 4))
    cera_cfg = AdapterConfig(kind="cera", r=4, activation="identity", dropout_p=0.0)
    w0 = rng.normal((6, 8))
    for _ in range(20):
        x = rng.normal((1, 8))
        a = adapted(x, w0, st_, lora_cfg)
        b = adapted(x, w0, st_, cera_cfg)
        assert np.max(np.abs(a - b)) < 1e-12


def test_lora_is_the_identity_case_of_the_one_delta_path():
    rng = RngState(19)
    lora_cfg, st_ = make_lora(r=4, d=6, k=8, alpha=3.0)
    st_.w_down[:] = rng.normal((6, 4))
    cera_cfg = AdapterConfig(kind="cera", r=4, alpha=3.0, activation="identity",
                             dropout_p=0.0)
    x = rng.normal((5, 8))
    lora, cera = Adapter(lora_cfg, st_), Adapter(cera_cfg, st_)
    assert np.array_equal(delta(lora, x), delta(cera, x))
    assert np.array_equal(lora.latent_rows(x), cera.latent_rows(x))
    assert np.array_equal(lora.latent_rows(x), x @ st_.w_up.T)


def test_lora_rejects_scale_s():
    # lora's update is scaled by alpha / r; a scale_s it would not apply is
    # refused rather than silently ignored
    with pytest.raises(ConfigError, match="scale_s"):
        AdapterConfig(kind="lora", r=3, scale_s=5.0)
    with pytest.raises(ConfigError, match="scale_s"):
        MethodSpec(name="lora", kind="lora", scale_s=5.0)
    rng = RngState(20)
    cfg, st_ = make_lora(r=3, d=5, k=7, alpha=6.0)
    st_.w_down[:] = rng.normal((5, 3))
    x = rng.normal((4, 7))
    applied = delta(Adapter(cfg, st_), x)
    unit = x @ (st_.w_down @ st_.w_up).T
    assert cfg.scale_s == 2.0
    assert np.max(np.abs(applied - cfg.scale_s * unit)) < 1e-12


def test_unit_scale_adds_no_multiply():
    rng = RngState(21)
    cfg, st_ = make_cera(r=3, d=5, k=7, dropout_p=0.0)
    st_.w_down[:] = rng.normal((5, 3))
    x = rng.normal((4, 7))
    # s = alpha / r = 1: the delta is the down-projection's product itself,
    # and w_down's gradient the product of the rows' gradient alone
    assert cfg.scale_s == 1.0
    act = tensor_mod.mlp_hidden(x, st_.w_up, "silu")[1]
    unit = act @ st_.w_down.T
    adapter = Adapter(cfg, st_)
    rows, pullback = adapter.delta_rows(x, None)
    assert np.array_equal(rows, unit)
    g = rng.normal((4, 5))
    grads = gradient_arrays(adapter)
    pullback(g, grads, None)
    assert grads[adapter][1].tobytes() == (g.T @ act).tobytes()
    scaled_cfg = AdapterConfig(kind="cera", r=3, scale_s=2.0, dropout_p=0.0)
    assert np.array_equal(delta(Adapter(scaled_cfg, st_), x), 2.0 * unit)


def test_cera_scalar_silu_golden():
    cfg = AdapterConfig(kind="cera", r=1, scale_s=1.0, dropout_p=0.0)
    st_ = AdapterState(w_up=np.array([[1.0]]),
                       w_down=np.array([[1.0]]))
    out = adapted(np.array([[1.0]]), np.array([[0.0]]), st_, cfg)
    assert out[0, 0] == pytest.approx(0.731059, abs=1e-6)


def test_cera_zero_down_projection():
    cfg, st_ = make_cera(dropout_p=0.5)
    rng = RngState(6)
    w0 = rng.normal((6, 8))
    x = rng.normal((1, 8))
    mask = keep_mask((1, 4), 0.5, rng.child(1))
    out = adapted(x, w0, st_, cfg, mask=mask)
    assert np.allclose(out, x @ w0.T)


def test_cera_eval_independent_of_rng():
    model = ModelConfig(d_model=8, n_heads=2, d_head=4, n_layers=1, vocab_size=3,
                        max_seq_len=4, v_out_dim=6, mode="regressor")
    bb = build_model(model, 8)
    rng = RngState(8)
    cfg = AdapterConfig(kind="cera", r=4, dropout_p=0.3)
    st_ = init_adapter(cfg, 6, 8, rng.child(0))
    st_.w_down[:] = rng.normal((6, 4))
    inject(bb, 0, "Wv", Adapter(cfg, st_))
    x = rng.normal((5, 8))
    # without a stream there is no dropout to draw: the output repeats
    a, _ = regressor_output(bb, x)
    b, _ = regressor_output(bb, x)
    assert np.array_equal(a, b)
    # a stream does draw: the same rows then give another output
    assert not np.array_equal(regressor_output(bb, x, RngState(1))[0], a)


def test_parallel_module_zero_down_is_identity():
    cfg = AdapterConfig(kind="parallel_module", r=4)
    st_ = init_adapter(cfg, 8, 8, RngState(9))
    rng = RngState(10)
    block_in = rng.normal((1, 8))
    block_out = rng.normal((1, 8))
    got = block_out + delta(Adapter(cfg, st_), block_in)
    assert np.array_equal(got, block_out)


def test_parallel_module_identity_is_linear_composition():
    rng = RngState(11)
    cfg = AdapterConfig(kind="parallel_module", r=3, activation="identity",
                        dropout_p=0.0, scale_s=2.0)
    st_ = init_adapter(cfg, 6, 6, rng.child(0))
    st_.w_down[:] = rng.normal((6, 3))
    block_in = rng.normal((1, 6))
    block_out = rng.normal((1, 6))
    got = block_out + delta(Adapter(cfg, st_), block_in)
    expected = block_out + block_in @ (2.0 * (st_.w_down @ st_.w_up)).T
    assert np.max(np.abs(got - expected)) < 1e-12


def test_param_count_llama3_goldens():
    for r, expected in [(512, 218_103_808), (64, 27_262_976), (128, 54_525_952)]:
        for kind in ("lora", "cera"):
            cfg = AdapterConfig(kind=kind, r=r)
            assert param_count(cfg, LLAMA3_GEOMETRY) == expected


def test_param_parity_between_kinds():
    geometry = [(64, 64, 2), (32, 64, 2)]
    for r in (4, 8, 16, 32):
        counts = {kind: param_count(AdapterConfig(kind=kind, r=r), geometry)
                  for kind in ("lora", "cera")}
        assert counts["lora"] == counts["cera"] == r * ((64 + 64) * 2 + (32 + 64) * 2)


def test_merge_lora_zero_b_returns_w0():
    cfg, st_ = make_lora()
    w0 = RngState(12).normal((6, 8))
    assert np.array_equal(merge_linear(w0, st_, cfg), w0)


def test_merged_lora_equals_unmerged_forward():
    rng = RngState(13)
    cfg, st_ = make_lora(r=3, d=5, k=7, alpha=1.5)
    st_.w_down[:] = rng.normal((5, 3))
    st_.w_up[:] = rng.normal((3, 7))
    w0 = rng.normal((5, 7))
    merged = merge_linear(w0, st_, cfg)
    for _ in range(10):
        x = rng.normal((1, 7))
        unmerged = adapted(x, w0, st_, cfg)
        assert np.max(np.abs(unmerged - x @ merged.T)) < 1e-10


def test_merge_cera_silu_refuses():
    cfg, st_ = make_cera()
    with pytest.raises(NotMergeableError):
        merge_linear(np.zeros((6, 8)), st_, cfg)


def test_merge_parallel_module_refuses():
    cfg = AdapterConfig(kind="parallel_module", r=2)
    st_ = init_adapter(cfg, 4, 4, RngState(0))
    with pytest.raises(NotMergeableError):
        merge_linear(np.zeros((4, 4)), st_, cfg)


def test_merge_cera_identity_is_mergeable():
    rng = RngState(14)
    cfg = AdapterConfig(kind="cera", r=2, activation="identity", dropout_p=0.0)
    st_ = init_adapter(cfg, 4, 6, rng.child(0))
    st_.w_down[:] = rng.normal((4, 2))
    w0 = rng.normal((4, 6))
    merged = merge_linear(w0, st_, cfg)
    x = rng.normal((1, 6))
    assert np.max(np.abs(x @ merged.T - adapted(x, w0, st_, cfg))) < 1e-12


def test_rank_bound_of_linear_update():
    rng = RngState(15)
    cfg, st_ = make_lora(r=2, d=8, k=8)
    st_.w_down[:] = rng.normal((8, 2))
    dw = merge_linear(np.zeros((8, 8)), st_, cfg)
    assert np.sum(svd_values(dw) > 1e-12) <= 2


def test_config_validation():
    with pytest.raises(ConfigError):
        AdapterConfig(kind="lora", r=4, activation="silu")
    with pytest.raises(ConfigError):
        AdapterConfig(kind="cera", r=0)
    with pytest.raises(ConfigError):
        MethodSpec(name="c", kind="cera", targets=())
    with pytest.raises(ConfigError):
        MethodSpec(name="c", kind="cera", targets=("Wk",))
    with pytest.raises(ConfigError):
        AdapterConfig(kind="mystery", r=4)
    with pytest.raises(ConfigError):
        AdapterConfig(kind="cera", r=4, dropout_p=1.0)
    with pytest.raises(ConfigError):
        AdapterConfig(kind="cera", r=4, dropout_p=-0.1)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["alpha", "scale_s", "init_gain"])
def test_config_rejects_a_non_finite_scale(field, value):
    # a non-finite scale loaded, then failed every run with an overflow or a
    # diverged loss
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        AdapterConfig(kind="cera", r=4, **{field: value})


def test_config_defaults_by_kind():
    lora = AdapterConfig(kind="lora", r=8)
    cera = AdapterConfig(kind="cera", r=8)
    assert lora.activation == "identity" and lora.dropout_p == 0.0
    assert cera.activation == "silu" and cera.dropout_p == 0.1
    assert lora.alpha == 8.0 and lora.scale_s == 1.0 and cera.scale_s == 1.0


def test_config_defaults_are_settled_at_construction():
    # every default is filled in once; the result is the config written out
    assert AdapterConfig(kind="cera", r=4) == AdapterConfig(
        kind="cera", r=4, alpha=4.0, scale_s=1.0, activation="silu",
        dropout_p=0.1, dropout_style="elementwise", init_gain=1.0)
    assert AdapterConfig(kind="cera", r=4, alpha=6.0).scale_s == 1.5
    assert AdapterConfig(kind="lora", r=4, alpha=6.0).scale_s == 1.5


def test_config_round_trip_and_unknown_keys():
    # adapter configs are stored as the method spec they are built from
    method = MethodSpec(name="c", kind="cera", alpha=8.0, dropout_p=0.2,
                        dropout_style="channel", targets=("Wv",), init_gain=0.5)
    assert MethodSpec.from_dict(method.to_dict()) == method
    assert method.adapter_config(16) == AdapterConfig(
        kind="cera", r=16, alpha=8.0, dropout_p=0.2, dropout_style="channel",
        init_gain=0.5)
    bad = method.to_dict()
    bad["tyop"] = 1
    with pytest.raises(ConfigError):
        MethodSpec.from_dict(bad)


def test_state_bundle_round_trip():
    rng = RngState(16)
    _, st_ = make_cera(r=3, d=4, k=5)
    st_.w_down[:] = rng.normal((4, 3))
    back = AdapterState.from_bundle(st_.to_bundle())
    assert np.array_equal(back.w_up, st_.w_up)
    assert np.array_equal(back.w_down, st_.w_down)
    assert type(back.w_up) is np.ndarray and type(back.w_down) is np.ndarray
    assert back.w_up.dtype == back.w_down.dtype == np.float64


@pytest.mark.parametrize("case", ["missing", "no_data", "short_data", "not_numbers"])
def test_a_malformed_state_bundle_is_a_config_error(case):
    _, st_ = make_cera(r=3, d=4, k=5)
    bundle = st_.to_bundle()
    if case == "missing":
        del bundle["w_down"]
    elif case == "no_data":
        del bundle["w_up"]["data"]
    elif case == "short_data":
        bundle["w_up"]["data"] = bundle["w_up"]["data"][:-1]
    else:
        bundle["w_up"]["data"] = ["x"] * 15
    with pytest.raises(ConfigError, match="w_down" if case == "missing" else "w_up"):
        AdapterState.from_bundle(bundle)


def test_cera_forward_gradient_matches_finite_differences():
    rng = RngState(18)
    cfg = AdapterConfig(kind="cera", r=3, dropout_p=0.0)
    st_ = init_adapter(cfg, 5, 7, rng.child(0))
    st_.w_down[:] = rng.normal((5, 3))
    w0 = rng.normal((5, 7))
    x0 = rng.uniform(-2, 2, (1, 7))

    # the loss is the sum of the adapted rows' entries: its gradient is ones
    adapter = Adapter(cfg, st_)
    _, pullback = adapter.delta_rows(x0, None)
    g = np.ones((1, 5))
    grads = gradient_arrays(adapter)
    dx = np.empty_like(x0)
    pullback(g, grads, dx)

    def through_input(probe):
        return float(adapted(probe, w0, st_, cfg).sum())

    assert finite_difference_check(through_input, x0, g @ w0 + dx, 1e-6) < 1e-5

    up = st_.w_up

    def through_up(probe):
        st_.w_up = probe
        return float(adapted(x0, w0, st_, cfg).sum())

    assert finite_difference_check(through_up, up, grads[adapter][0], 1e-6) < 1e-5
    st_.w_up = up


def test_adapter_latent_capture_is_pre_dropout():
    rng = RngState(17)
    cfg = AdapterConfig(kind="cera", r=4, dropout_p=0.9)
    adapter = Adapter.init(cfg, 6, 8, rng.child(0))
    x = rng.normal((3, 8))
    mask = keep_mask((3, 4), 0.9, rng.child(1))
    lat = adapter.latent_rows(x)
    expected = x @ adapter.state.w_up.T
    expected = expected / (1.0 + np.exp(-expected))  # silu
    assert np.allclose(lat, expected)  # no dropout zeros in the latent
    # capture only reads values: the latent is a plain array
    assert type(lat) is np.ndarray
    # the delta drops out exactly these rows
    dropped = (lat * mask) @ adapter.state.w_down.T
    assert np.array_equal(adapter.delta_rows(x, mask)[0], dropped)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_degeneracy_property(seed):
    rng = RngState(seed)
    lora_cfg = AdapterConfig(kind="lora", r=4, alpha=3.0)
    cera_cfg = AdapterConfig(kind="cera", r=4, alpha=3.0, activation="identity",
                             dropout_p=0.0)
    st_ = init_adapter(lora_cfg, 6, 8, rng.child(0))
    st_.w_down[:] = rng.normal((6, 4))
    w0 = rng.normal((6, 8))
    x = rng.normal((1, 8))
    a = adapted(x, w0, st_, lora_cfg)
    b = adapted(x, w0, st_, cera_cfg)
    assert np.max(np.abs(a - b)) < 1e-12
