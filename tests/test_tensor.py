import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceralab import tensor as T
from ceralab.errors import DomainError, ShapeError
from ceralab.tensor import (RngState, Tensor, backward, causal_attention,
                            cross_entropy_rows, finite_difference_check,
                            layer_norm, linear, mlp, mlp_hidden)


def keep_mask(shape, p, rng):
    """One scaled keep mask of inverted dropout drawn from `rng`: 1/(1-p)
    where the draw is below 1 - p, 0 elsewhere."""
    keep = 1.0 - p
    return (rng.uniform(0.0, 1.0, shape) < keep) / keep


def total(t):
    """The sum of every entry of a 2-d t as tape ops: a row of ones times
    t's rows gives the row sums, and those times a row of ones their sum.
    Its gradient is exactly the upstream one, broadcast to t's shape.
    (`linear` of two single rows is their dot product: each operand's
    gradient is the other's entries times the upstream one, bit for bit
    what an elementwise product hands it.)"""
    n, m = t.shape
    return linear(linear(Tensor(np.ones((1, m))), t), Tensor(np.ones((1, n))))


def silu(x):
    """SiLU of each entry of a 1-d array through `mlp_hidden` with a unit
    weight, under which the hidden rows are the entries themselves."""
    column = np.asarray(x, dtype=np.float64)[:, None]
    return mlp_hidden(column, np.ones((1, 1)), "silu")[1][:, 0]


def test_total_is_the_sum_with_a_pass_through_gradient():
    rng = RngState(5)
    x = Tensor(rng.normal((3, 4)), requires_grad=True)
    out = total(x)
    assert out.shape == (1, 1)
    assert abs(out.data.item() - x.data.sum()) < 1e-14
    backward(out)
    assert x.grad.tobytes() == np.ones((3, 4)).tobytes()


def test_linear_identity():
    rng = RngState(0)
    m = Tensor(rng.normal((3, 3)))
    out = linear(m, Tensor(np.eye(3)))
    assert np.array_equal(out.data, m.data)


def test_linear_hand_example():
    out = linear(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0, 1.0]]))
    assert np.array_equal(out.data, [[2.0], [4.0]])


def test_linear_zero_annihilates():
    rng = RngState(1)
    m = Tensor(rng.normal((4, 5)))
    out = linear(Tensor(np.zeros((2, 5))), m)
    assert np.all(out.data == 0.0)


def test_linear_shape_error():
    with pytest.raises(ShapeError, match="linear shapes"):
        linear(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))
    with pytest.raises(ShapeError, match="linear shapes"):
        linear(Tensor(np.ones(3)), Tensor(np.ones((2, 3))))


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
    eye = Tensor(np.eye(2))
    x = Tensor([[-2.0, 3.0]])
    assert mlp(x, eye, eye, "relu", None, 1.0).data.tolist() == [[0.0, 3.0]]
    assert mlp(x, eye, eye, "identity", None, 1.0).data.tolist() == [[-2.0, 3.0]]
    assert mlp_hidden(x.data, eye.data, "relu")[2] is None
    assert T.ACTIVATIONS == ("identity", "relu", "silu")
    with pytest.raises(DomainError, match="unknown activation"):
        mlp(x, eye, eye, "tanh", None, 1.0)


def test_dropout_mask_at_p_zero_keeps_every_entry():
    rng = RngState(3)
    x = Tensor(rng.normal((8, 8)))
    w_up, w_down = Tensor(rng.normal((4, 8))), Tensor(rng.normal((5, 4)))
    mask = keep_mask((8, 4), 0.0, rng)
    assert np.array_equal(mask, np.ones((8, 4)))
    assert np.array_equal(mlp(x, w_up, w_down, "silu", mask, 1.0).data,
                          mlp(x, w_up, w_down, "silu", None, 1.0).data)


def test_backward_linear_form():
    # loss = sum(W x): each row of grad(W) is x^T
    x = np.array([1.0, -2.0, 0.5])
    w = Tensor(np.zeros((4, 3)), requires_grad=True)
    loss = total(linear(Tensor(x.reshape(1, 3)), w))
    backward(loss)
    assert np.allclose(w.grad, np.tile(x, (4, 1)))


@pytest.mark.parametrize("trainable", [(True, False), (False, True), (True, True)])
def test_gemm_backward_skips_frozen_operands(monkeypatch, trainable):
    rng = RngState(60)
    a = Tensor(rng.normal((5, 3)), requires_grad=trainable[0])
    b = Tensor(rng.normal((4, 3)), requires_grad=trainable[1])
    c = rng.normal((5, 4))
    handed = []
    accum = T._accum
    monkeypatch.setattr(T, "_accum", lambda t, g: (handed.append(t), accum(t, g)))
    backward(linear(a, b), c)
    # the frozen operand's gradient product is never formed
    for t in (a, b):
        assert any(h is t for h in handed) == t.requires_grad
        if not t.requires_grad:
            assert t.grad is None
    # the trainable ones get, bit for bit, what zeros plus the product gave
    want_a, want_b = c @ b.data, c.T @ a.data
    for t, want in ((a, want_a), (b, want_b)):
        if t.requires_grad:
            assert t.grad.tobytes() == (np.zeros_like(t.data) + want).tobytes()


def test_elementwise_backward_skips_frozen_operand(monkeypatch):
    rng = RngState(61)
    a = Tensor(rng.normal((3, 4)), requires_grad=True)
    b = Tensor(rng.normal((3, 4)))
    handed = []
    accum = T._accum
    monkeypatch.setattr(T, "_accum", lambda t, g: (handed.append(t), accum(t, g)))
    backward(total(T.add(a, b)))
    assert not any(h is b for h in handed) and b.grad is None
    assert a.grad.tobytes() == (np.zeros_like(a.data) + np.ones((3, 4))).tobytes()
    # the program only adds tensors of one shape; add does not broadcast
    with pytest.raises(ShapeError, match="add shapes"):
        T.add(a, Tensor(np.ones(4)))


def test_backward_constant_loss_zero_grads():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    loss = total(Tensor(np.zeros((2, 2))))
    backward(loss)
    assert w.grad is None


def test_backward_rejects_non_scalar():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(T.add(w, w))


def test_backward_clears_tape():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    out = total(mlp(w, np.eye(2), np.eye(2), "silu", None, 1.0))
    backward(out)
    assert out._parents == () and out._backward is None


def test_backward_frees_each_node_once_its_consumers_have_run():
    # a chain x -> h1 -> h2 -> h3 -> loss: when h1's backward runs, h2 and
    # h3 are gone unless the caller holds them, and x's gradient is the same
    rng = RngState(66)
    x0, ws = rng.normal((3, 4)), [rng.normal((4, 4)), rng.normal((4, 4)), rng.normal((5, 4))]

    def run(hold: bool):
        x = Tensor(x0, requires_grad=True)
        h1 = linear(x, ws[0])
        h2 = linear(h1, ws[1])
        h3 = linear(h2, ws[2])
        loss = cross_entropy_rows(h3, [0, 4, 2])
        alive = [weakref.ref(h.data) for h in (h1, h2, h3)]
        seen, inner = [], h1._backward
        h1._backward = lambda g: (seen.append([r() is not None for r in alive]), inner(g))
        held = [h1, h2, h3] if hold else []
        del h1, h2, h3
        backward(loss)
        assert all(h.grad is not None for h in held)
        return seen, x.grad.tobytes()

    (freed, grad), (kept, want) = run(hold=False), run(hold=True)
    assert freed == [[True, False, False]] and kept == [[True, True, True]]
    assert grad == want


def test_each_node_keeps_only_what_its_backward_reads():
    def kept_arrays(node):
        bwd = node._backward
        return {name for name, cell in zip(bwd.__code__.co_freevars, bwd.__closure__)
                if isinstance(cell.cell_contents, np.ndarray)}

    rng = RngState(67)
    x = Tensor(rng.normal((6, 4)), requires_grad=True)
    w_up, w_down = rng.normal((8, 4)), rng.normal((4, 8))
    # the frozen FFN keeps no activation rows: only w_down's gradient reads them
    assert kept_arrays(mlp(x, w_up, w_down, "silu", None, 1.0)) == {"lat", "sig"}
    adapter = mlp(x, w_up, Tensor(w_down, requires_grad=True), "silu", None, 1.0)
    assert kept_arrays(adapter) == {"lat", "sig", "kept"}
    # attention keeps its weights; the heads are split off q, k and v again
    assert kept_arrays(causal_attention(x, x, x, 2, 3)) == {"attn"}


def test_no_tape_records_nothing_nests_and_restores_after_an_error():
    rng = RngState(68)
    x = Tensor(rng.normal((2, 3)))
    w = Tensor(rng.normal((4, 3)), requires_grad=True)

    def taped():
        out = linear(x, w)
        assert (out._parents == (x, w)) == (out._backward is not None) == out.requires_grad
        return out.requires_grad

    assert taped()
    with T._no_tape():
        assert not taped()
        with T._no_tape():
            assert not taped()
        assert not taped()  # the inner exit restores the outer off state
    assert taped()
    with pytest.raises(DomainError):
        with T._no_tape():
            raise DomainError("inside")
    assert taped() and w.grad is None


def test_grad_accumulates_across_reuse():
    # q = (x + y) * (x + 1) -> dq/dx = (x + y) + (x + 1)
    x = Tensor([[2.0]], requires_grad=True)
    y = Tensor([[-4.0]], requires_grad=True)
    q = linear(T.add(x, y), T.add(x, [[1.0]]))
    backward(q)
    assert x.grad[0, 0] == pytest.approx(1.0)
    assert y.grad[0, 0] == pytest.approx(3.0)


def test_adopted_gradient_of_three_consumers_never_aliases():
    rng = RngState(64)
    x = Tensor(rng.normal((1, 4)), requires_grad=True)
    w1, w2, w3 = (rng.normal((1, 4)) for _ in range(3))
    a, b = linear(x, Tensor(np.eye(4))), T.add(x, np.zeros((1, 4)))
    c = linear(x, Tensor(3.0 * np.eye(4)))  # 3 x
    backward(T.add(T.add(linear(a, w1), linear(b, w2)), linear(c, w3)))
    # each consumer's gradient is as it arrived; x's sum is a new array
    assert np.array_equal(a.grad, w1) and np.array_equal(b.grad, w2)
    assert np.array_equal(c.grad, w3)
    assert all(not np.shares_memory(x.grad, t.grad) for t in (a, b, c))
    assert np.allclose(x.grad, w1 + w2 + 3.0 * w3, rtol=1e-15, atol=0)


def test_adopted_gradient_of_a_tensor_added_to_itself():
    rng = RngState(65)
    x = Tensor(rng.normal((1, 5)), requires_grad=True)
    w = rng.normal((1, 5))
    y = T.add(x, x)
    backward(linear(y, w))
    assert np.array_equal(x.grad, w + w)
    assert np.array_equal(y.grad, w)  # not doubled in place


def _attention_chain(q, k, v, n_heads, seq_len, g):
    """The split, matmul, scale, mask-add, softmax, matmul, merge chain op
    for op over (B*S, H*d) rows, and its backward for the output rows'
    gradient `g`, split as a contiguous copy: (output rows, weights, q
    grad, k grad, v grad)."""
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
    return out, y, merge(gq), merge(gk), merge(gv)


@pytest.mark.parametrize("frozen", ["none", "q", "k", "v"])
def test_causal_attention_is_bit_for_bit_the_op_chain(monkeypatch, frozen):
    # B > 1 sequences, and v narrower than q and k, as in the model
    rng = RngState(67)
    b, h, s, d, d_v = 3, 4, 7, 6, 3
    q, k = (Tensor(rng.normal((b * s, h * d)), requires_grad=frozen != name)
            for name in "qk")
    v = Tensor(rng.normal((b * s, h * d_v)), requires_grad=frozen != "v")
    g = rng.normal((b * s, h * d_v))
    handed = []
    accum = T._accum
    monkeypatch.setattr(T, "_accum", lambda t, grad: (handed.append(t), accum(t, grad)))
    out = causal_attention(q, k, v, h, s)
    assert out._op == "causal_attention" and out._parents == (q, k, v)
    backward(out, g)
    want_out, want_attn, gq, gk, gv = _attention_chain(q.data, k.data, v.data, h, s, g)
    assert out.data.tobytes() == want_out.tobytes()
    for t, want in ((q, gq), (k, gk), (v, gv)):
        if t.requires_grad:
            assert t.grad.tobytes() == want.tobytes()
        else:  # a frozen operand's gradient product is never formed
            assert t.grad is None and not any(x is t for x in handed)
    # with each head's v an identity (d_v = S) the output rows are the weights
    eye = Tensor(np.tile(np.eye(s), (b, h)))
    rows = causal_attention(q, k, eye, h, s).data
    assert np.array_equal(rows.reshape(b, s, h, s).transpose(0, 2, 1, 3), want_attn)


@pytest.mark.parametrize("probe", ["q", "k", "v"])
def test_causal_attention_gradient_per_operand(probe):
    # two sequences of 4 over 2 heads, v narrower than q and k
    rng = RngState(68)
    fixed = {name: Tensor(rng.normal((8, 6 if name != "v" else 4))) for name in "qkv"}
    targets = np.array([0, 3, 1, 2, 3, 0, 2, 1])

    def f(z):
        ops = dict(fixed, **{probe: z})
        return cross_entropy_rows(causal_attention(ops["q"], ops["k"], ops["v"], 2, 4),
                                  targets)

    assert finite_difference_check(f, fixed[probe], 1e-6) < 1e-5


def _adapter_chain(x, w_up, w_down, activation, mask, scale, g):
    """The linear, activation, mask, linear, scale chain op for op, and its
    backward for the output gradient `g`, as the chain's own nodes formed
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


# which of x, w_up, w_down require grad: an adapter on a trainable input,
# an adapter on a frozen one, and the frozen FFN on a trainable input
TRAINABLE = {"all": (True, True, True), "x_frozen": (False, True, True),
             "ffn": (True, False, False)}


@pytest.mark.parametrize("trainable", sorted(TRAINABLE))
@pytest.mark.parametrize("scale", [1.0, 2.0])
@pytest.mark.parametrize("mask", sorted(ADAPTER_MASKS))
@pytest.mark.parametrize("activation", ["identity", "relu", "silu"])
def test_mlp_is_bit_for_bit_the_op_chain(monkeypatch, activation, mask, scale,
                                         trainable):
    rng = RngState(70)
    x_grad, up_grad, down_grad = TRAINABLE[trainable]
    x = Tensor(rng.normal((6, 5)), requires_grad=x_grad)
    w_up = Tensor(rng.normal((3, 5)), requires_grad=up_grad)
    w_down = Tensor(rng.normal((4, 3)), requires_grad=down_grad)
    m = ADAPTER_MASKS[mask](rng.child(1))
    g = rng.normal((6, 4))
    handed = []
    accum = T._accum
    monkeypatch.setattr(T, "_accum", lambda t, grad: (handed.append(t), accum(t, grad)))
    out = mlp(x, w_up, w_down, activation, m, scale)
    assert out._op == "mlp" and out._parents == (x, w_up, w_down)
    backward(out, g)
    want, gx, gw_up, gw_down = _adapter_chain(x.data, w_up.data, w_down.data,
                                              activation, m, scale, g)
    assert out.data.tobytes() == want.tobytes()
    for t, want_grad in ((x, gx), (w_up, gw_up), (w_down, gw_down)):
        if t.requires_grad:
            assert t.grad.tobytes() == want_grad.tobytes()
        else:  # a frozen operand's gradient product is never formed
            assert t.grad is None and not any(h is t for h in handed)


@pytest.mark.parametrize("mask", sorted(ADAPTER_MASKS))
@pytest.mark.parametrize("activation", ["identity", "relu", "silu"])
def test_mlp_halves_write_the_chain_products_into_the_given_arrays(activation, mask):
    # the numpy halves a caller off the tape runs: the rows and each product
    # are the chain's bits, written into views of one flat buffer; a None
    # entry is neither formed nor written, and g is only read
    rng = RngState(73)
    x, w_up, w_down = rng.normal((6, 5)), rng.normal((3, 5)), rng.normal((4, 3))
    m = ADAPTER_MASKS[mask](rng.child(1))
    g = rng.normal((6, 4))
    g_before = g.copy()
    want, gx, gw_up, gw_down = _adapter_chain(x, w_up, w_down, activation, m, 2.0, g)
    rows, saved = T.mlp_forward(x, w_up, w_down, activation, m, 2.0)
    assert rows.tobytes() == want.tobytes()
    flat = np.full(1 + 30 + 15 + 12, np.nan)
    dx, d_up, d_down = (flat[1:31].reshape(6, 5), flat[31:46].reshape(3, 5),
                        flat[46:].reshape(4, 3))
    T.mlp_backward(g, x, w_up, w_down, activation, m, 2.0, saved, (dx, d_up, d_down))
    for got, want_grad in ((dx, gx), (d_up, gw_up), (d_down, gw_down)):
        assert got.tobytes() == want_grad.tobytes()
    assert np.isnan(flat[0]) and g.tobytes() == g_before.tobytes()
    flat[:] = np.nan
    T.mlp_backward(g, x, w_up, w_down, activation, m, 2.0, saved, (None, d_up, d_down))
    assert np.isnan(dx).all()
    assert d_up.tobytes() == gw_up.tobytes() and d_down.tobytes() == gw_down.tobytes()


def test_a_function_root_is_a_reverse_pass_off_the_tape():
    calls = []
    backward(lambda: calls.append(1))
    assert calls == [1]  # called once, as it is


@pytest.mark.parametrize("mask", [None, "elementwise"])
@pytest.mark.parametrize("activation", ["relu", "silu"])
def test_mlp_gradient_matches_finite_differences(activation, mask):
    rng = RngState(71)
    x = Tensor(rng.uniform(-2.0, 2.0, (6, 5)))
    w_up = Tensor(rng.uniform(-1.0, 1.0, (3, 5)))
    w_down = Tensor(rng.uniform(-1.0, 1.0, (4, 3)))
    m = None if mask is None else keep_mask((6, 3), 0.4, rng.child(1))
    targets = np.array([0, 3, 1, 2, 3, 0])
    # relu is checked away from its kink: no latent within reach of the step
    assert np.min(np.abs(x.data @ w_up.data.T)) > 1e-3
    operands = {"x": x, "w_up": w_up, "w_down": w_down}
    for name, probe in operands.items():
        def f(z):
            ops = dict(operands, **{name: z})
            return cross_entropy_rows(mlp(ops["x"], ops["w_up"], ops["w_down"],
                                          activation, m, 2.0), targets)

        assert finite_difference_check(f, probe, 1e-6) < 1e-5, name


def test_backward_from_a_seeded_root():
    # a seed G at a non-scalar root y gives, bit for bit, the gradients of
    # the scalar y Gᵀ of the two rows, which hands y exactly G
    rng = RngState(69)
    seed = rng.normal((1, 5))
    w = Tensor(rng.normal((5, 4)), requires_grad=True)
    x = Tensor(rng.normal((1, 4)), requires_grad=True)
    w_down = Tensor(rng.normal((5, 5)))
    backward(mlp(x, w, w_down, "silu", None, 1.0), seed)
    got = (w.grad, x.grad)
    w.zero_grad()
    x.zero_grad()
    backward(linear(mlp(x, w, w_down, "silu", None, 1.0), seed))
    assert got[0].tobytes() == w.grad.tobytes()
    assert got[1].tobytes() == x.grad.tobytes()
    with pytest.raises(ShapeError, match="seed gradient"):
        backward(linear(x, w), np.ones((5, 1)))
    with pytest.raises(ShapeError, match="scalar loss"):
        backward(linear(x, w))


def test_fd_check_quadratic():
    rng = RngState(6)
    x = Tensor(rng.normal((1, 5)))
    err = finite_difference_check(lambda t: linear(t, T.add(t, t)), x, 1e-6)
    assert err < 1e-8


def test_fd_check_constant_function():
    x = Tensor(np.ones(3))
    err = finite_difference_check(lambda t: Tensor(np.asarray(7.0)), x, 1e-6)
    assert err == 0.0


@pytest.mark.parametrize("name,f", [
    ("silu", lambda z: total(mlp(z, np.eye(4), np.eye(4), "silu", None, 1.0))),
    ("relu", lambda z: cross_entropy_rows(mlp(z, np.eye(4), np.eye(4), "relu", None, 1.0),
                                          np.array([0, 2, 1]))),
    ("linear", lambda z: total(linear(z, Tensor(np.linspace(-1, 1, 20).reshape(5, 4))))),
    ("layer_norm", lambda z: total(layer_norm(z, Tensor(np.linspace(0.5, 1.5, 4)),
                                             Tensor(np.zeros(4))))),
    ("add", lambda z: total(linear(T.add(z, np.full(z.shape, -0.5)),
                                   T.add(z, np.full(z.shape, 2.0))))),
    ("attention", lambda z: cross_entropy_rows(causal_attention(z, z, z, 2, 3),
                                               np.array([3, 0, 2]))),
    ("cross_entropy", lambda z: cross_entropy_rows(z, np.array([0, 2, 1]))),
])
def test_gradient_soundness_per_op(name, f):
    rng = RngState(hash(name) % 2 ** 32)
    x = Tensor(rng.uniform(-2.0, 2.0, (3, 4)))
    if name == "relu":  # keep away from the kink
        x.data[np.abs(x.data) < 1e-3] = 0.5
    assert finite_difference_check(f, x, 1e-6) < 1e-5


def test_batched_ops_match_per_matrix_ops():
    # rows are (sequence, position), columns (head, feature): each
    # sequence's block of a head's columns attends on its own
    rng = RngState(63)
    b, h, s, d, d_v = 2, 3, 5, 4, 2
    q, k = (rng.normal((b * s, h * d)) for _ in range(2))
    v = rng.normal((b * s, h * d_v))
    got = causal_attention(Tensor(q), Tensor(k), Tensor(v), h, s).data
    for i in range(b):
        rows = slice(i * s, (i + 1) * s)
        for j in range(h):
            cols, v_cols = slice(j * d, (j + 1) * d), slice(j * d_v, (j + 1) * d_v)
            one = causal_attention(Tensor(q[rows, cols]), Tensor(k[rows, cols]),
                                   Tensor(v[rows, v_cols]), 1, s)
            assert np.array_equal(got[rows, v_cols], one.data)
    for shapes in (((10, 12), (5, 12), (10, 6)),   # k's rows
                   ((10, 12), (10, 12), (8, 6)),   # v's rows
                   ((9, 12), (9, 12), (9, 6)),     # rows not whole sequences
                   ((10, 10), (10, 10), (10, 6)),  # q width not whole heads
                   ((10, 12), (10, 12), (10, 5)),  # v width not whole heads
                   ((10,), (10,), (10,))):
        with pytest.raises(ShapeError, match="causal_attention"):
            causal_attention(*(Tensor(np.ones(shape)) for shape in shapes), h, s)


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((5, 10)))
    ce = cross_entropy_rows(logits, np.zeros(5, dtype=int))
    assert ce.item() == pytest.approx(np.log(10.0), abs=1e-12)


def test_rng_determinism_and_stream_independence():
    a = RngState(42, 3).uniform(0, 1, 100)
    b = RngState(42, 3).uniform(0, 1, 100)
    c = RngState(42, 4).uniform(0, 1, 100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_random_draws_the_bits_of_the_unit_uniform():
    # and leaves the stream where `uniform(0.0, 1.0, shape)` leaves it
    a, b = RngState(42, 5), RngState(42, 5)
    assert a.random((3, 7)).tobytes() == b.uniform(0.0, 1.0, (3, 7)).tobytes()
    assert a.random(4).tobytes() == b.random(4).tobytes()


def test_rng_children_never_alias():
    root = RngState(9)
    direct = root.child(2).uniform(0, 1, 50)
    nested = root.child(2).child(2).uniform(0, 1, 50)
    assert not np.array_equal(direct, nested)


def test_op_sequence_determinism():
    def run():
        rng = RngState(11)
        x = Tensor(rng.normal((8, 8)), requires_grad=True)
        mask = keep_mask((8, 4), 0.3, rng.child(1))
        y = total(mlp(x, Tensor(rng.normal((4, 8))), Tensor(rng.normal((3, 4))),
                      "silu", mask, 1.0))
        backward(y)
        return y.data.copy(), x.grad.copy()

    (v1, g1), (v2, g2) = run(), run()
    assert np.array_equal(v1, v2) and np.array_equal(g1, g2)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_silu_identity_property(x):
    got = silu([x])[0] - silu([-x])[0]
    assert got == pytest.approx(x, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_tensor_invariants_after_ops(seed):
    rng = RngState(seed)
    x = Tensor(rng.uniform(-2, 2, (3, 5)), requires_grad=True)
    out = mlp(x, Tensor(rng.uniform(-1, 1, (2, 5))), np.eye(2), "silu", None, 1.0)
    assert out.data.size == int(np.prod(out.shape))
    backward(total(out))
    assert x.grad.shape == x.shape
    assert np.all(np.isfinite(out.data)) and np.all(np.isfinite(x.grad))
