import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceralab import tensor as T
from ceralab.errors import DomainError, ShapeError
from ceralab.tensor import (Tensor, backward, causal_attention_backward,
                            causal_attention_forward, cross_entropy_backward,
                            cross_entropy_forward, finite_difference_check,
                            layer_norm_backward, layer_norm_forward,
                            mlp_backward, mlp_forward, mlp_hidden, stream)

ALL = (True, True, True)


def keep_mask(shape, p, rng):
    """One scaled keep mask of inverted dropout drawn from `rng`: 1/(1-p)
    where the draw is below 1 - p, 0 elsewhere."""
    keep = 1.0 - p
    return (rng.uniform(0.0, 1.0, shape) < keep) / keep


def silu(x):
    """SiLU of each entry of a 1-d array through `mlp_hidden` with a unit
    weight, under which the hidden rows are the entries themselves."""
    column = np.asarray(x, dtype=np.float64)[:, None]
    return mlp_hidden(column, np.ones((1, 1)), "silu")[1][:, 0]


def mlp_rows(x, w_up, w_down, activation, mask, scale):
    return mlp_forward(x, w_up, w_down, activation, mask, scale)[0]


def mlp_grads(x, w_up, w_down, activation, mask, scale, g, wanted=ALL):
    """The gradient products of x, w_up and w_down for the rows' gradient
    g, each only where `wanted` asks for it (None otherwise)."""
    _, saved = mlp_forward(x, w_up, w_down, activation, mask, scale)
    grads = tuple(np.empty(a.shape) if want else None
                  for a, want in zip((x, w_up, w_down), wanted))
    mlp_backward(g, x, w_up, w_down, activation, mask, scale, saved, grads)
    return grads


def ce_loss_and_grad(logits, targets):
    """The cross-entropy of `logits` rows and its gradient."""
    loss, saved = cross_entropy_forward(logits, targets)
    return loss, cross_entropy_backward(saved)


def test_silu_at_zero_and_one():
    assert silu([0.0])[0] == 0.0
    assert silu([1.0])[0] == pytest.approx(0.731059, abs=1e-6)
    # the hidden rows, their SiLU, and the sigmoid the backward reuses
    lat, act, sig = mlp_hidden(np.array([[1.0, -2.0]]), np.eye(2), "silu")
    assert np.array_equal(lat, [[1.0, -2.0]]) and np.array_equal(act, lat * sig)
    assert np.allclose(sig, 1.0 / (1.0 + np.exp(-lat)), rtol=1e-15, atol=0)


def test_silu_odd_plus_identity():
    # silu(x) - silu(-x) = x, from sigmoid(x) + sigmoid(-x) = 1
    x = np.linspace(-10.0, 10.0, 1000)
    lhs = silu(x) - silu(-x)
    assert np.max(np.abs(lhs - x)) < 1e-12


def test_relu_and_identity():
    # with unit projections the latent is the input itself
    eye = np.eye(2)
    x = np.array([[-2.0, 3.0]])
    assert mlp_rows(x, eye, eye, "relu", None, 1.0).tolist() == [[0.0, 3.0]]
    assert mlp_rows(x, eye, eye, "identity", None, 1.0).tolist() == [[-2.0, 3.0]]
    assert mlp_hidden(x, eye, "relu")[2] is None
    assert T.ACTIVATIONS == ("identity", "relu", "silu")
    with pytest.raises(DomainError, match="unknown activation"):
        mlp_forward(x, eye, eye, "tanh", None, 1.0)


def test_dropout_mask_at_p_zero_keeps_every_entry():
    rng = stream(3, 0)
    x = rng.normal(size=(8, 8))
    w_up, w_down = rng.normal(size=(4, 8)), rng.normal(size=(5, 4))
    mask = keep_mask((8, 4), 0.0, rng)
    assert np.array_equal(mask, np.ones((8, 4)))
    assert np.array_equal(mlp_rows(x, w_up, w_down, "silu", mask, 1.0),
                          mlp_rows(x, w_up, w_down, "silu", None, 1.0))


def test_accum_is_the_bits_of_a_new_sum_and_reads_its_operand():
    # a block of rows with three consumers: the in-place sum of their
    # gradients, in order, is (a + b) + c bit for bit, and no operand moves
    rng = stream(64, 0)
    a, b, c = (rng.normal(size=(3, 4)) for _ in range(3))
    want = (a + b) + c
    total, b_before, c_before = a.copy(), b.copy(), c.copy()
    T._accum(total, b)
    T._accum(total, c)
    assert total.tobytes() == want.tobytes()
    assert b.tobytes() == b_before.tobytes() and c.tobytes() == c_before.tobytes()


def test_backward_calls_its_pullback_once():
    calls = []
    backward(lambda: calls.append(1))
    assert calls == [1]  # called once, as it is


def _attention_chain(q, k, v, n_heads, seq_len, g):
    """The split, matmul, scale, mask-add, softmax, matmul, merge chain op
    for op over (B*S, H*d) rows, and its backward for the output rows'
    gradient `g`, split as a contiguous copy: (output rows, transposed keys,
    weights, q grad, k grad, v grad)."""
    def split(rows):
        n, w = rows.shape
        return np.ascontiguousarray(rows.reshape(
            n // seq_len, seq_len, n_heads, w // n_heads).transpose(0, 2, 1, 3))

    def merge(heads):
        b, h, s, d = heads.shape
        return heads.transpose(0, 2, 1, 3).reshape(b * s, h * d)

    qh, kh, vh, gh = split(q), split(k), split(v), split(g)
    scale = 1.0 / np.sqrt(qh.shape[-1])
    kt = np.ascontiguousarray(kh.swapaxes(-1, -2))
    scores = np.matmul(qh, kt) * np.asarray(scale) + np.triu(
        np.full((seq_len, seq_len), -1e30), k=1)
    y = scores - scores.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = merge(np.matmul(y, vh))
    gy = np.matmul(gh, vh.swapaxes(-1, -2))
    gv = np.matmul(y.swapaxes(-1, -2), gh)
    ds = gy - (gy * y).sum(axis=-1, keepdims=True)
    ds *= y
    ds = ds * np.asarray(scale)
    gq = np.matmul(ds, kt.swapaxes(-1, -2))
    gk = np.matmul(qh.swapaxes(-1, -2), ds).swapaxes(-1, -2)
    return out, kt, y, merge(gq), merge(gk), merge(gv)


@pytest.mark.parametrize("shape", [(3, 4, 7, 6, 3), (8, 4, 62, 16, 8), (8, 4, 64, 16, 8),
                                   (1, 4, 1, 16, 8), (8, 4, 62, 1, 8)],
                         ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("frozen", ["none", "q", "k", "v", "qk"])
def test_causal_attention_is_bit_for_bit_the_op_chain(frozen, shape):
    # (B, H, S, d, d_v): B > 1 sequences and v narrower than q and k, as in
    # the model; the trajectory model's 62 positions and its 64-position
    # maximum, long enough for the BLAS paths its strided head views take;
    # one sequence of one position; and one-wide heads, where numpy would
    # hand a strided q view to another BLAS routine in k's gradient
    rng = stream(67, 0)
    b, h, s, d, d_v = shape
    q, k = (rng.normal(size=(b * s, h * d)) for _ in "qk")
    v = rng.normal(size=(b * s, h * d_v))
    g = rng.normal(size=(b * s, h * d_v))
    before = [a.copy() for a in (q, k, v, g)]
    out, keys_t, weights = causal_attention_forward(q, k, v, h, s)
    saved_before = keys_t.copy(), weights.copy()
    wanted = tuple(name not in frozen for name in "qkv")
    # the backward half takes the forward's keys in place of k, and an
    # operand that the wanted products do not read may be None: q is read
    # only for k's gradient, v and the keys for q's and k's
    scores = wanted[0] or wanted[1]
    got = causal_attention_backward(g, q if wanted[1] else None, v if scores else None,
                                    keys_t if scores else None, weights, wanted)
    want_out, want_kt, want_attn, gq, gk, gv = _attention_chain(q, k, v, h, s, g)
    assert out.tobytes() == want_out.tobytes()
    assert keys_t.tobytes() == want_kt.tobytes() and keys_t.shape == (b, h, d, s)
    assert weights.tobytes() == want_attn.tobytes()
    # every weight after its query's position is +0.0, by its bytes
    after = weights[..., ~np.tri(s, dtype=bool)]
    assert after.tobytes() == np.zeros_like(after).tobytes()
    # the causal masks come from a per-length cache that no call can write
    masks = T._causal_masks(s)
    assert masks is T._causal_masks(s)
    for mask, want in zip(masks, (np.tri(s, dtype=bool), ~np.tri(s, dtype=bool))):
        assert np.array_equal(mask, want) and not mask.flags.writeable
    for grad, want, asked in zip(got, (gq, gk, gv), wanted):
        if asked:
            assert grad.tobytes() == want.tobytes()
        else:  # an unwanted gradient product is never formed
            assert grad is None
    # both halves only read their operands
    for a, was in zip((q, k, v, g, keys_t, weights), (*before, *saved_before)):
        assert a.tobytes() == was.tobytes()
    # with each head's v an identity (d_v = S) the output rows are the weights
    eye = np.tile(np.eye(s), (b, h))
    rows = causal_attention_forward(q, k, eye, h, s)[0]
    assert np.array_equal(rows.reshape(b, s, h, s).transpose(0, 2, 1, 3), want_attn)


@pytest.mark.parametrize("probe", ["q", "k", "v"])
def test_causal_attention_gradient_per_operand(probe):
    # two sequences of 4 over 2 heads, v narrower than q and k
    rng = stream(68, 0)
    fixed = {name: rng.normal(size=(8, 6 if name != "v" else 4)) for name in "qkv"}
    targets = np.array([0, 3, 1, 2, 3, 0, 2, 1])

    def loss(z):
        ops = dict(fixed, **{probe: z})
        return cross_entropy_forward(
            causal_attention_forward(ops["q"], ops["k"], ops["v"], 2, 4)[0], targets)[0]

    rows, keys_t, weights = causal_attention_forward(fixed["q"], fixed["k"], fixed["v"], 2, 4)
    _, g = ce_loss_and_grad(rows, targets)
    grads = dict(zip("qkv", causal_attention_backward(
        g, fixed["q"], fixed["v"], keys_t, weights, ALL)))
    assert finite_difference_check(loss, fixed[probe], grads[probe], 1e-6) < 1e-5


def _adapter_chain(x, w_up, w_down, activation, mask, scale, g):
    """The linear, activation, mask, linear, scale chain op for op, and its
    backward for the output gradient `g`, as the chain's own steps formed
    each product: (output, x grad, w_up grad, w_down grad)."""
    lat = x @ w_up.T
    if activation == "silu":
        sig = 1.0 / (1.0 + np.exp(-lat))
        act = lat * sig
    else:
        act = np.maximum(lat, 0.0) if activation == "relu" else lat
    kept = act if mask is None else act * mask
    out = kept @ w_down.T
    if scale != 1.0:
        out = out * scale
        g = g * scale
    dact = g @ w_down
    if mask is not None:
        dact = dact * mask
    if activation == "silu":
        dact = dact * sig * ((1.0 - sig) * lat + 1.0)
    elif activation == "relu":
        dact = dact * (lat > 0.0)
    return out, dact @ w_up, dact.T @ x, g.T @ kept


ADAPTER_MASKS = {
    "none": lambda rng: None,
    "elementwise": lambda rng: keep_mask((6, 3), 0.4, rng),
    "channel": lambda rng: keep_mask((1, 3), 0.4, rng),  # one row, broadcast
}


# which products of x, w_up, w_down are asked for: an adapter on a block
# whose input an adapter below reads, an adapter of the lowest adapted
# block, and the frozen FFN
TRAINABLE = {"all": (True, True, True), "x_frozen": (False, True, True),
             "ffn": (True, False, False)}


@pytest.mark.parametrize("trainable", sorted(TRAINABLE))
@pytest.mark.parametrize("scale", [1.0, 2.0])
@pytest.mark.parametrize("mask", sorted(ADAPTER_MASKS))
@pytest.mark.parametrize("activation", ["identity", "relu", "silu"])
def test_mlp_is_bit_for_bit_the_op_chain(activation, mask, scale, trainable):
    rng = stream(70, 0)
    wanted = TRAINABLE[trainable]
    x, w_up, w_down = rng.normal(size=(6, 5)), rng.normal(size=(3, 5)), rng.normal(size=(4, 3))
    m = ADAPTER_MASKS[mask](stream(70, 0, 1))
    g = rng.normal(size=(6, 4))
    rows, saved = mlp_forward(x, w_up, w_down, activation, m, scale)
    if not wanted[2]:
        saved = (*saved[:2], None)  # the frozen FFN keeps no activations
    grads = tuple(np.empty(a.shape) if want else None
                  for a, want in zip((x, w_up, w_down), wanted))
    mlp_backward(g, x if wanted[1] else None, w_up, w_down, activation, m, scale,
                 saved, grads)
    want, gx, gw_up, gw_down = _adapter_chain(x, w_up, w_down, activation, m, scale, g)
    assert rows.tobytes() == want.tobytes()
    for got, want_grad, asked in zip(grads, (gx, gw_up, gw_down), wanted):
        if asked:
            assert got.tobytes() == want_grad.tobytes()
        else:  # an unwanted product is never formed
            assert got is None


@pytest.mark.parametrize("mask", sorted(ADAPTER_MASKS))
@pytest.mark.parametrize("activation", ["identity", "relu", "silu"])
def test_mlp_halves_write_the_chain_products_into_the_given_arrays(activation, mask):
    # the products are the chain's bits, written into views of one flat
    # buffer; a None entry is neither formed nor written, and g is only read
    rng = stream(73, 0)
    x, w_up, w_down = rng.normal(size=(6, 5)), rng.normal(size=(3, 5)), rng.normal(size=(4, 3))
    m = ADAPTER_MASKS[mask](stream(73, 0, 1))
    g = rng.normal(size=(6, 4))
    g_before = g.copy()
    want, gx, gw_up, gw_down = _adapter_chain(x, w_up, w_down, activation, m, 2.0, g)
    rows, saved = mlp_forward(x, w_up, w_down, activation, m, 2.0)
    assert rows.tobytes() == want.tobytes()
    flat = np.full(1 + 30 + 15 + 12, np.nan)
    dx, d_up, d_down = (flat[1:31].reshape(6, 5), flat[31:46].reshape(3, 5),
                        flat[46:].reshape(4, 3))
    mlp_backward(g, x, w_up, w_down, activation, m, 2.0, saved, (dx, d_up, d_down))
    for got, want_grad in ((dx, gx), (d_up, gw_up), (d_down, gw_down)):
        assert got.tobytes() == want_grad.tobytes()
    assert np.isnan(flat[0]) and g.tobytes() == g_before.tobytes()
    flat[:] = np.nan
    # the backward half consumed that forward's saved state: run a fresh one
    _, saved = mlp_forward(x, w_up, w_down, activation, m, 2.0)
    mlp_backward(g, x, w_up, w_down, activation, m, 2.0, saved, (None, d_up, d_down))
    assert np.isnan(dx).all()
    assert d_up.tobytes() == gw_up.tobytes() and d_down.tobytes() == gw_down.tobytes()


@pytest.mark.parametrize("activation", ["identity", "relu", "silu"])
def test_mlp_backward_overwrites_only_a_silus_saved_sigmoid(activation):
    # the backward half consumes its forward's saved state: g, x, the hidden
    # rows, the kept activations and the mask are only read, and a SiLU's
    # sigmoid is overwritten with the slope 1 + lat (1 - sig)
    rng = stream(74, 0)
    x, w_up, w_down = rng.normal(size=(6, 5)), rng.normal(size=(3, 5)), rng.normal(size=(4, 3))
    m = keep_mask((6, 3), 0.4, stream(74, 0, 1))
    g = rng.normal(size=(6, 4))
    _, saved = mlp_forward(x, w_up, w_down, activation, m, 2.0)
    lat, sig, kept = saved
    read = [a.copy() for a in (g, x, lat, kept, m)]
    sig_before = None if sig is None else sig.copy()
    mlp_backward(g, x, w_up, w_down, activation, m, 2.0, saved,
                 tuple(np.empty(a.shape) for a in (x, w_up, w_down)))
    for a, was in zip((g, x, lat, kept, m), read):
        assert a.tobytes() == was.tobytes()
    if activation == "silu":
        assert sig.tobytes() == ((1.0 - sig_before) * lat + 1.0).tobytes()
        assert sig.tobytes() != sig_before.tobytes()
    else:
        assert sig is None


@pytest.mark.parametrize("mask", [None, "elementwise"])
@pytest.mark.parametrize("activation", ["relu", "silu"])
def test_mlp_gradient_matches_finite_differences(activation, mask):
    rng = stream(71, 0)
    ops = {"x": rng.uniform(-2.0, 2.0, (6, 5)), "w_up": rng.uniform(-1.0, 1.0, (3, 5)),
           "w_down": rng.uniform(-1.0, 1.0, (4, 3))}
    m = None if mask is None else keep_mask((6, 3), 0.4, stream(71, 0, 1))
    targets = np.array([0, 3, 1, 2, 3, 0])
    # relu is checked away from its kink: no latent within reach of the step
    assert np.min(np.abs(ops["x"] @ ops["w_up"].T)) > 1e-3
    rows = mlp_rows(ops["x"], ops["w_up"], ops["w_down"], activation, m, 2.0)
    _, g = ce_loss_and_grad(rows, targets)
    grads = dict(zip(ops, mlp_grads(ops["x"], ops["w_up"], ops["w_down"],
                                    activation, m, 2.0, g)))
    for name, probe in ops.items():
        def loss(z):
            moved = dict(ops, **{name: z})
            return cross_entropy_forward(mlp_rows(moved["x"], moved["w_up"], moved["w_down"],
                                                  activation, m, 2.0), targets)[0]

        assert finite_difference_check(loss, probe, grads[name], 1e-6) < 1e-5, name


def test_layer_norm_rows_are_normalized_and_its_input_is_only_read():
    rng = stream(74, 0)
    x = rng.normal(size=(5, 8)) * 3.0 + 1.0
    x_before = x.copy()
    gain, bias = np.linspace(0.5, 1.5, 8), np.linspace(-0.2, 0.2, 8)
    rows, (xc, inv) = layer_norm_forward(x, gain, bias)
    xhat = (rows - bias) / gain
    assert np.max(np.abs(xhat.mean(axis=1))) < 1e-14
    assert np.max(np.abs(xhat.var(axis=1) - 1.0)) < 1e-5  # eps keeps it under one
    assert np.array_equal(xc, x - x.mean(axis=1, keepdims=True))
    assert inv.shape == (5, 1) and x.tobytes() == x_before.tobytes()
    g = rng.normal(size=(5, 8))
    g_before = g.copy()
    dx = layer_norm_backward(g, gain, (xc, inv))
    # the gradient of normalized rows is orthogonal to shifting a row
    assert np.max(np.abs(dx.sum(axis=1))) < 1e-12
    assert g.tobytes() == g_before.tobytes()
    with pytest.raises(ShapeError, match="layer_norm"):
        layer_norm_forward(np.ones(3), np.ones(3), np.zeros(3))


def test_layer_norm_halves_are_bit_for_bit_the_op_chain():
    # mean, centre, variance, scale, gain, bias; and the backward as the
    # chain's own steps form the input's gradient
    rng = stream(76, 0)
    x = rng.normal(size=(6, 5)) * 2.0 + 0.5
    gain, bias, g = rng.normal(size=5), rng.normal(size=5), rng.normal(size=(6, 5))
    xc = x - x.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + T.LAYER_NORM_EPS)
    want = xc * inv * gain + bias
    dxhat = g * gain
    dvar = (dxhat * xc).sum(axis=1, keepdims=True) * -0.5 * inv ** 3
    dmu = -(dxhat * inv).sum(axis=1, keepdims=True)
    want_dx = dxhat * inv + dvar * 2.0 * xc / 5 + dmu / 5
    rows, saved = layer_norm_forward(x, gain, bias)
    assert rows.tobytes() == want.tobytes()
    assert layer_norm_backward(g, gain, saved).tobytes() == want_dx.tobytes()


def test_cross_entropy_halves_are_bit_for_bit_the_op_chain():
    rng = stream(77, 0)
    logits, targets = rng.normal(size=(7, 5)) * 3.0, np.array([4, 0, 1, 1, 3, 2, 0])
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    one_hot = np.eye(5)[targets]
    loss, grad = ce_loss_and_grad(logits, targets)
    assert loss == float(-logp[np.arange(7), targets].mean())
    assert grad.tobytes() == ((np.exp(logp) - one_hot) / 7).tobytes()


def test_cross_entropy_backward_is_softmax_minus_one_hot_over_n():
    rng = stream(75, 0)
    logits = rng.normal(size=(4, 6))
    targets = np.array([5, 0, 2, 2])
    loss, grad = ce_loss_and_grad(logits, targets)
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    assert loss == pytest.approx(-np.log(p[np.arange(4), targets]).mean(), rel=1e-14)
    p[np.arange(4), targets] -= 1.0
    assert np.max(np.abs(grad - p / 4)) < 1e-16
    with pytest.raises(DomainError, match="vocabulary"):
        cross_entropy_forward(logits, np.array([0, 1, 2, 6]))
    with pytest.raises(ShapeError, match="cross_entropy"):
        cross_entropy_forward(logits, np.array([0, 1, 2]))


def test_fd_check_quadratic():
    rng = stream(6, 0)
    x = rng.normal(size=(1, 5))
    # 2 sum(t^2) has the gradient 4 t
    err = finite_difference_check(lambda t: 2.0 * float((t * t).sum()), x, 4.0 * x, 1e-6)
    assert err < 1e-8
    assert finite_difference_check(lambda t: 2.0 * float((t * t).sum()), x, 5.0 * x,
                                   1e-6) > 1e-2
    with pytest.raises(ShapeError, match="gradient shape"):
        finite_difference_check(lambda t: 0.0, x, np.zeros(5))
    with pytest.raises(DomainError, match="step"):
        finite_difference_check(lambda t: 0.0, x, x, 0.0)


def test_fd_check_constant_function():
    x = np.ones(3)
    err = finite_difference_check(lambda t: 7.0, x, np.zeros(3), 1e-6)
    assert err == 0.0


def _eye_mlp(activation):
    """The two-matrix map with unit projections, as a (rows, pullback to
    the rows) pair: the activation of each entry."""
    def run(z):
        rows, saved = mlp_forward(z, np.eye(4), np.eye(4), activation, None, 1.0)

        def pull(g):
            dx = np.empty_like(z)
            mlp_backward(g, z, np.eye(4), np.eye(4), activation, None, 1.0, saved,
                         (dx, None, None))
            return dx

        return rows, pull
    return run


def _layer_norm(z):
    gain, bias = np.linspace(0.5, 1.5, 4), np.linspace(-1.0, 1.0, 4)
    rows, saved = layer_norm_forward(z, gain, bias)
    return rows, lambda g: layer_norm_backward(g, gain, saved)


def _attention(z):
    rows, keys_t, weights = causal_attention_forward(z, z, z, 2, 3)

    def pull(g):
        dq, dk, dv = causal_attention_backward(g, z, z, keys_t, weights, ALL)
        return (dq + dk) + dv

    return rows, pull


def _identity(z):
    return z, lambda g: g


@pytest.mark.parametrize("name,op", [
    ("silu", _eye_mlp("silu")), ("relu", _eye_mlp("relu")),
    ("identity", _eye_mlp("identity")), ("layer_norm", _layer_norm),
    ("attention", _attention), ("cross_entropy", _identity),
])
def test_gradient_soundness_per_op(name, op):
    # each op under a cross-entropy loss: the backward halves against
    # central differences
    rng = stream(sum(map(ord, name)), 0)
    x = rng.uniform(-2.0, 2.0, (3, 4))
    if name == "relu":  # keep away from the kink
        x[np.abs(x) < 1e-3] = 0.5
    targets = np.array([3, 0, 2])
    rows, pull = op(x)
    _, g = ce_loss_and_grad(rows, targets)
    loss = lambda z: cross_entropy_forward(op(z)[0], targets)[0]
    assert finite_difference_check(loss, x, pull(g), 1e-6) < 1e-5


def test_batched_ops_match_per_matrix_ops():
    # rows are (sequence, position), columns (head, feature): each
    # sequence's block of a head's columns attends on its own
    rng = stream(63, 0)
    b, h, s, d, d_v = 2, 3, 5, 4, 2
    q, k = (rng.normal(size=(b * s, h * d)) for _ in range(2))
    v = rng.normal(size=(b * s, h * d_v))
    got = causal_attention_forward(q, k, v, h, s)[0]
    for i in range(b):
        rows = slice(i * s, (i + 1) * s)
        for j in range(h):
            cols, v_cols = slice(j * d, (j + 1) * d), slice(j * d_v, (j + 1) * d_v)
            one = causal_attention_forward(q[rows, cols], k[rows, cols], v[rows, v_cols], 1, s)
            assert np.array_equal(got[rows, v_cols], one[0])
    for shapes in (((10, 12), (5, 12), (10, 6)),   # k's rows
                   ((10, 12), (10, 12), (8, 6)),   # v's rows
                   ((9, 12), (9, 12), (9, 6)),     # rows not whole sequences
                   ((10, 10), (10, 10), (10, 6)),  # q width not whole heads
                   ((10, 12), (10, 12), (10, 5)),  # v width not whole heads
                   ((10,), (10,), (10,))):
        with pytest.raises(ShapeError, match="causal_attention"):
            causal_attention_forward(*(np.ones(shape) for shape in shapes), h, s)


def test_cross_entropy_uniform_logits():
    loss, _ = cross_entropy_forward(np.zeros((5, 10)), np.zeros(5, dtype=int))
    assert loss == pytest.approx(np.log(10.0), abs=1e-12)


def test_tensor_holds_a_contiguous_float64_array_and_nothing_else():
    # `model.forward` is the one maker of a Tensor, in both model modes: it
    # holds the output rows as they are, a contiguous float64 array
    from ceralab.model import ModelConfig, build_model, forward
    reg = ModelConfig(d_model=8, n_heads=2, d_head=4, n_layers=1, vocab_size=3,
                      max_seq_len=4, v_out_dim=4, mode="regressor")
    lm = ModelConfig(d_model=8, n_heads=2, d_head=4, n_layers=1, vocab_size=12,
                     max_seq_len=4, v_out_dim=4)
    for cfg, inputs, shape in ((reg, stream(0, 0).normal(size=(5, 8)), (5, 3)),
                               (lm, [[1, 2, 3], [4, 5, 6]], (2, 3, 12))):
        t = forward(build_model(cfg, 0), inputs)
        assert type(t) is Tensor and type(t.data) is np.ndarray
        assert t.data.dtype == np.float64 and t.data.flags["C_CONTIGUOUS"]
        assert t.data.shape == shape
    assert Tensor.__slots__ == ("data",)
    with pytest.raises(AttributeError):
        t.grad = np.zeros(shape)
    with pytest.raises(AttributeError):
        t.shape


def test_rng_determinism_and_stream_independence():
    a = stream(42, 3).uniform(0, 1, 100)
    b = stream(42, 3).uniform(0, 1, 100)
    c = stream(42, 4).uniform(0, 1, 100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_random_draws_the_bits_of_the_unit_uniform():
    # and leaves the stream where `uniform(0.0, 1.0, shape)` leaves it
    a, b = stream(42, 5), stream(42, 5)
    assert a.random((3, 7)).tobytes() == b.uniform(0.0, 1.0, (3, 7)).tobytes()
    assert a.random(4).tobytes() == b.random(4).tobytes()


def test_rng_children_never_alias():
    # a path and its extension are distinct addresses
    direct = stream(9, 0, 2).uniform(0, 1, 50)
    nested = stream(9, 0, 2, 2).uniform(0, 1, 50)
    assert not np.array_equal(direct, nested)


def test_op_sequence_determinism():
    def run():
        rng = stream(11, 0)
        x = rng.normal(size=(8, 8))
        w_up, w_down = rng.normal(size=(4, 8)), rng.normal(size=(3, 4))
        mask = keep_mask((8, 4), 0.3, stream(11, 0, 1))
        rows = mlp_rows(x, w_up, w_down, "silu", mask, 1.0)
        dx, _, _ = mlp_grads(x, w_up, w_down, "silu", mask, 1.0, np.ones_like(rows))
        return rows, dx

    (v1, g1), (v2, g2) = run(), run()
    assert np.array_equal(v1, v2) and np.array_equal(g1, g2)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_silu_identity_property(x):
    got = silu([x])[0] - silu([-x])[0]
    assert got == pytest.approx(x, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_halves_keep_shapes_and_stay_finite(seed):
    rng = stream(seed, 0)
    x, w_up = rng.uniform(-2, 2, (3, 5)), rng.uniform(-1, 1, (2, 5))
    rows = mlp_rows(x, w_up, np.eye(2), "silu", None, 1.0)
    assert rows.shape == (3, 2)
    dx, _, _ = mlp_grads(x, w_up, np.eye(2), "silu", None, 1.0, np.ones_like(rows))
    assert dx.shape == x.shape
    assert np.all(np.isfinite(rows)) and np.all(np.isfinite(dx))
