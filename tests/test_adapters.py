import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceralab import tensor as tensor_mod
from ceralab.adapters import (Adapter, AdapterConfig, AdapterState,
                              init_adapter, merge_linear, param_count)
from ceralab.errors import ConfigError, NotMergeableError
from ceralab.experiments import MethodSpec
from ceralab.spectral import delta_w_linear, svd_values
from ceralab.tensor import RngState, Tensor

LLAMA3_GEOMETRY = [(4096, 4096, 32), (1024, 4096, 32)]


def make_lora(r=4, d=6, k=8, seed=0, **kw):
    cfg = AdapterConfig(kind="lora", r=r, **kw)
    return cfg, init_adapter(cfg, d, k, RngState(seed))


def make_cera(r=4, d=6, k=8, seed=0, **kw):
    cfg = AdapterConfig(kind="cera", r=r, **kw)
    return cfg, init_adapter(cfg, d, k, RngState(seed))


def adapted(x, w0, st_, cfg, **kw):
    """W0 x plus the adapter's delta, for a batch of rows."""
    return tensor_mod.linear(x, w0) + Adapter(cfg, st_).delta_rows(x, **kw)


def test_init_is_exact_noop():
    cfg, st_ = make_cera()
    rng = RngState(1)
    w0 = Tensor(rng.normal((6, 8)))
    x = Tensor(rng.normal((1, 8)))
    base = x.data @ w0.data.T
    out = adapted(x, w0, st_, cfg)
    assert np.array_equal(out.data, base)


def test_init_deterministic():
    _, a = make_cera(seed=7)
    _, b = make_cera(seed=7)
    assert np.array_equal(a.w_up.data, b.w_up.data)
    assert np.array_equal(a.w_down.data, b.w_down.data)


def test_init_gain_zero():
    cfg = AdapterConfig(kind="cera", r=3, init_gain=0.0)
    st_ = init_adapter(cfg, 5, 5, RngState(2))
    assert np.all(st_.w_up.data == 0.0)


def test_init_rank_too_large():
    cfg = AdapterConfig(kind="lora", r=9)
    with pytest.raises(ConfigError):
        init_adapter(cfg, 4, 16, RngState(0))


def test_lora_zero_b_and_zero_alpha():
    cfg, st_ = make_lora(alpha=0.0)
    rng = RngState(3)
    st_.w_down.data[:] = rng.normal((6, 4))  # nonzero B, alpha kills it
    w0 = Tensor(rng.normal((6, 8)))
    x = Tensor(rng.normal((1, 8)))
    assert np.allclose(adapted(x, w0, st_, cfg).data, x.data @ w0.data.T)


def test_lora_matches_materialized_delta_w():
    rng = RngState(4)
    cfg, st_ = make_lora(r=3, d=5, k=7, alpha=2.0)
    st_.w_down.data[:] = rng.normal((5, 3))
    st_.w_up.data[:] = rng.normal((3, 7))
    w0 = Tensor(rng.normal((5, 7)))
    x = Tensor(rng.normal((1, 7)))
    merged = w0.data + delta_w_linear(st_.w_up, st_.w_down, 2.0 / 3)
    got = adapted(x, w0, st_, cfg).data
    assert np.max(np.abs(got - x.data @ merged.T)) < 1e-10


def test_cera_degenerates_to_lora():
    rng = RngState(5)
    lora_cfg, st_ = make_lora(r=4, d=6, k=8)
    st_.w_down.data[:] = rng.normal((6, 4))
    cera_cfg = AdapterConfig(kind="cera", r=4, activation="identity", dropout_p=0.0)
    w0 = Tensor(rng.normal((6, 8)))
    for _ in range(20):
        x = Tensor(rng.normal((1, 8)))
        a = adapted(x, w0, st_, lora_cfg).data
        b = adapted(x, w0, st_, cera_cfg).data
        assert np.max(np.abs(a - b)) < 1e-12


def test_lora_is_the_identity_case_of_the_one_delta_path():
    rng = RngState(19)
    lora_cfg, st_ = make_lora(r=4, d=6, k=8, alpha=3.0)
    st_.w_down.data[:] = rng.normal((6, 4))
    cera_cfg = AdapterConfig(kind="cera", r=4, alpha=3.0, activation="identity",
                             dropout_p=0.0)
    x = Tensor(rng.normal((5, 8)))
    lora_sink, cera_sink = [], []
    a = Adapter(lora_cfg, st_).delta_rows(x, mode="train", rng=RngState(1),
                                          latent_sink=lora_sink)
    b = Adapter(cera_cfg, st_).delta_rows(x, mode="train", rng=RngState(1),
                                          latent_sink=cera_sink)
    assert np.array_equal(a.data, b.data)
    assert len(lora_sink) == len(cera_sink) == 1
    assert np.array_equal(lora_sink[0], cera_sink[0])
    assert np.array_equal(lora_sink[0], x.data @ st_.w_up.data.T)


def test_lora_rejects_scale_s():
    # lora's update is scaled by alpha / r; a scale_s it would not apply is
    # refused rather than silently ignored
    with pytest.raises(ConfigError, match="scale_s"):
        AdapterConfig(kind="lora", r=3, scale_s=5.0)
    with pytest.raises(ConfigError, match="scale_s"):
        MethodSpec(name="lora", kind="lora", scale_s=5.0)
    rng = RngState(20)
    cfg, st_ = make_lora(r=3, d=5, k=7, alpha=6.0)
    st_.w_down.data[:] = rng.normal((5, 3))
    x = Tensor(rng.normal((4, 7)))
    applied = Adapter(cfg, st_).delta_rows(x).data
    unit = x.data @ (st_.w_down.data @ st_.w_up.data).T
    assert cfg.resolved_scale == 2.0
    assert np.max(np.abs(applied - cfg.resolved_scale * unit)) < 1e-12


def test_unit_scale_adds_no_multiply_node():
    rng = RngState(21)
    cfg, st_ = make_cera(r=3, d=5, k=7, dropout_p=0.0)
    st_.w_down.data[:] = rng.normal((5, 3))
    x = Tensor(rng.normal((4, 7)))
    out = Adapter(cfg, st_).delta_rows(x)
    # s = alpha / r = 1: the delta is the down-projection node itself
    assert cfg.resolved_scale == 1.0 and out._op == "linear"
    lat = tensor_mod.silu(tensor_mod.linear(x, st_.w_up))
    assert np.array_equal(out.data, (1.0 * tensor_mod.linear(lat, st_.w_down)).data)
    scaled_cfg = AdapterConfig(kind="cera", r=3, scale_s=2.0, dropout_p=0.0)
    assert Adapter(scaled_cfg, st_).delta_rows(x)._op == "mul"


def test_cera_scalar_silu_golden():
    cfg = AdapterConfig(kind="cera", r=1, scale_s=1.0, dropout_p=0.0)
    st_ = AdapterState(w_up=Tensor([[1.0]], requires_grad=True),
                       w_down=Tensor([[1.0]], requires_grad=True))
    out = adapted(Tensor([[1.0]]), Tensor([[0.0]]), st_, cfg, mode="eval")
    assert out.data[0, 0] == pytest.approx(0.731059, abs=1e-6)


def test_cera_zero_down_projection():
    cfg, st_ = make_cera(dropout_p=0.5)
    rng = RngState(6)
    w0 = Tensor(rng.normal((6, 8)))
    x = Tensor(rng.normal((1, 8)))
    out = adapted(x, w0, st_, cfg, mode="train", rng=rng.child(1))
    assert np.allclose(out.data, x.data @ w0.data.T)


def test_cera_eval_independent_of_rng():
    rng = RngState(8)
    cfg, st_ = make_cera(dropout_p=0.3)
    st_.w_down.data[:] = rng.normal((6, 4))
    w0 = Tensor(rng.normal((6, 8)))
    x = Tensor(rng.normal((1, 8)))
    a = adapted(x, w0, st_, cfg, mode="eval", rng=RngState(1))
    b = adapted(x, w0, st_, cfg, mode="eval", rng=RngState(999))
    assert np.array_equal(a.data, b.data)


def test_parallel_module_zero_down_is_identity():
    cfg = AdapterConfig(kind="parallel_module", r=4)
    st_ = init_adapter(cfg, 8, 8, RngState(9))
    rng = RngState(10)
    block_in = Tensor(rng.normal((1, 8)))
    block_out = Tensor(rng.normal((1, 8)))
    got = block_out + Adapter(cfg, st_).delta_rows(block_in)
    assert np.array_equal(got.data, block_out.data)


def test_parallel_module_identity_is_linear_composition():
    rng = RngState(11)
    cfg = AdapterConfig(kind="parallel_module", r=3, activation="identity",
                        dropout_p=0.0, scale_s=2.0)
    st_ = init_adapter(cfg, 6, 6, rng.child(0))
    st_.w_down.data[:] = rng.normal((6, 3))
    block_in = Tensor(rng.normal((1, 6)))
    block_out = Tensor(rng.normal((1, 6)))
    got = (block_out + Adapter(cfg, st_).delta_rows(block_in)).data
    expected = block_out.data + block_in.data @ (2.0 * (st_.w_down.data @ st_.w_up.data)).T
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
    w0 = Tensor(RngState(12).normal((6, 8)))
    assert np.array_equal(merge_linear(w0, st_, cfg).data, w0.data)


def test_merged_lora_equals_unmerged_forward():
    rng = RngState(13)
    cfg, st_ = make_lora(r=3, d=5, k=7, alpha=1.5)
    st_.w_down.data[:] = rng.normal((5, 3))
    st_.w_up.data[:] = rng.normal((3, 7))
    w0 = Tensor(rng.normal((5, 7)))
    merged = merge_linear(w0, st_, cfg)
    for _ in range(10):
        x = Tensor(rng.normal((1, 7)))
        unmerged = adapted(x, w0, st_, cfg).data
        assert np.max(np.abs(unmerged - x.data @ merged.data.T)) < 1e-10


def test_merge_cera_silu_refuses():
    cfg, st_ = make_cera()
    with pytest.raises(NotMergeableError):
        merge_linear(Tensor(np.zeros((6, 8))), st_, cfg)


def test_merge_parallel_module_refuses():
    cfg = AdapterConfig(kind="parallel_module", r=2)
    st_ = init_adapter(cfg, 4, 4, RngState(0))
    with pytest.raises(NotMergeableError):
        merge_linear(Tensor(np.zeros((4, 4))), st_, cfg)


def test_merge_cera_identity_is_mergeable():
    rng = RngState(14)
    cfg = AdapterConfig(kind="cera", r=2, activation="identity", dropout_p=0.0)
    st_ = init_adapter(cfg, 4, 6, rng.child(0))
    st_.w_down.data[:] = rng.normal((4, 2))
    w0 = Tensor(rng.normal((4, 6)))
    merged = merge_linear(w0, st_, cfg)
    x = Tensor(rng.normal((1, 6)))
    assert np.max(np.abs(x.data @ merged.data.T - adapted(x, w0, st_, cfg).data)) < 1e-12


def test_rank_bound_of_linear_update():
    rng = RngState(15)
    cfg, st_ = make_lora(r=2, d=8, k=8)
    st_.w_down.data[:] = rng.normal((8, 2))
    dw = merge_linear(Tensor(np.zeros((8, 8))), st_, cfg)
    assert np.sum(svd_values(dw.data) > 1e-12) <= 2


def test_config_validation():
    with pytest.raises(ConfigError):
        AdapterConfig(kind="lora", r=4, activation="silu")
    with pytest.raises(ConfigError):
        AdapterConfig(kind="cera", r=0)
    with pytest.raises(ConfigError):
        AdapterConfig(kind="cera", r=4, targets=())
    with pytest.raises(ConfigError):
        AdapterConfig(kind="mystery", r=4)
    with pytest.raises(ConfigError):
        AdapterConfig(kind="cera", r=4, dropout_p=1.0)


def test_config_defaults_by_kind():
    lora = AdapterConfig(kind="lora", r=8)
    cera = AdapterConfig(kind="cera", r=8)
    assert lora.resolved_activation == "identity" and lora.resolved_dropout_p == 0.0
    assert cera.resolved_activation == "silu" and cera.resolved_dropout_p == 0.1
    assert lora.resolved_alpha == 8.0 and cera.resolved_scale == 1.0


def test_config_round_trip_and_unknown_keys():
    # adapter configs are stored as the method spec they are built from
    method = MethodSpec(name="c", kind="cera", alpha=8.0, dropout_p=0.2,
                        dropout_style="channel", targets=("Wv",), init_gain=0.5)
    assert MethodSpec.from_dict(method.to_dict()) == method
    assert method.adapter_config(16) == AdapterConfig(
        kind="cera", r=16, alpha=8.0, dropout_p=0.2, dropout_style="channel",
        targets=("Wv",), init_gain=0.5)
    bad = method.to_dict()
    bad["tyop"] = 1
    with pytest.raises(ConfigError):
        MethodSpec.from_dict(bad)


def test_state_bundle_round_trip():
    rng = RngState(16)
    _, st_ = make_cera(r=3, d=4, k=5)
    st_.w_down.data[:] = rng.normal((4, 3))
    back = AdapterState.from_bundle(st_.to_bundle())
    assert np.array_equal(back.w_up.data, st_.w_up.data)
    assert np.array_equal(back.w_down.data, st_.w_down.data)
    assert back.w_up.requires_grad and back.w_down.requires_grad


def test_cera_forward_gradient_matches_finite_differences():
    rng = RngState(18)
    cfg = AdapterConfig(kind="cera", r=3, dropout_p=0.0)
    st_ = init_adapter(cfg, 5, 7, rng.child(0))
    st_.w_down.data[:] = rng.normal((5, 3))
    w0 = Tensor(rng.normal((5, 7)))
    x0 = Tensor(rng.uniform(-2, 2, (1, 7)))

    def through_input(probe):
        return tensor_mod.tsum(adapted(probe, w0, st_, cfg, mode="eval"))

    assert tensor_mod.finite_difference_check(through_input, x0, 1e-6) < 1e-5

    def through_up(probe):
        st_.w_up = probe
        return tensor_mod.tsum(adapted(x0, w0, st_, cfg, mode="eval"))

    assert tensor_mod.finite_difference_check(through_up, st_.w_up, 1e-6) < 1e-5


def test_adapter_latent_capture_is_pre_dropout():
    rng = RngState(17)
    cfg = AdapterConfig(kind="cera", r=4, dropout_p=0.9)
    adapter = Adapter.init(cfg, 6, 8, rng.child(0))
    x = Tensor(rng.normal((3, 8)))
    sink: list = []
    adapter.delta_rows(x, mode="train", rng=rng.child(1), latent_sink=sink)
    lat = sink[0]
    expected = x.data @ adapter.state.w_up.data.T
    expected = expected / (1.0 + np.exp(-expected))  # silu
    assert np.allclose(lat, expected)  # no dropout zeros in the captured latent


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_degeneracy_property(seed):
    rng = RngState(seed)
    lora_cfg = AdapterConfig(kind="lora", r=4, alpha=3.0)
    cera_cfg = AdapterConfig(kind="cera", r=4, alpha=3.0, activation="identity",
                             dropout_p=0.0)
    st_ = init_adapter(lora_cfg, 6, 8, rng.child(0))
    st_.w_down.data[:] = rng.normal((6, 4))
    w0 = Tensor(rng.normal((6, 8)))
    x = Tensor(rng.normal((1, 8)))
    a = adapted(x, w0, st_, lora_cfg).data
    b = adapted(x, w0, st_, cera_cfg).data
    assert np.max(np.abs(a - b)) < 1e-12
