import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceralab import tensor as T
from ceralab.errors import DomainError, ShapeError
from ceralab.tensor import (RngState, Tensor, adapter_delta, backward,
                            causal_attention, cross_entropy_rows,
                            finite_difference_check, layer_norm, linear, silu)


def keep_mask(shape, p, rng):
    """One scaled keep mask of inverted dropout drawn from `rng`: 1/(1-p)
    where the draw is below 1 - p, 0 elsewhere."""
    keep = 1.0 - p
    return (rng.uniform(0.0, 1.0, shape) < keep) / keep


def total(t):
    """The sum of every entry as tape ops: a row of ones times t's entries.
    Its gradient is exactly the upstream one, broadcast to t's shape."""
    return linear(T.reshape(t, (1, t.size)), Tensor(np.ones((1, t.size))))


def dot(a, b):
    """The sum of a * b as tape ops: a's entries as one row times b's as a
    weight row. Each operand's gradient is the other's entries times the
    upstream one, bit for bit what an elementwise product hands it."""
    return linear(T.reshape(a, (1, a.size)), T.reshape(b, (1, b.size)))


def total_sq(t):
    return dot(t, t)


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
    assert silu(Tensor([0.0])).data[0] == 0.0
    assert silu(Tensor([1.0])).data[0] == pytest.approx(0.731059, abs=1e-6)


def test_silu_odd_plus_identity():
    # silu(x) - silu(-x) = x, from sigmoid(x) + sigmoid(-x) = 1
    x = np.linspace(-10.0, 10.0, 1000)
    lhs = silu(Tensor(x)).data - silu(Tensor(-x)).data
    assert np.max(np.abs(lhs - x)) < 1e-12


def test_relu_and_identity():
    # with unit projections the latent is the input itself
    eye = Tensor(np.eye(2))
    x = Tensor([[-2.0, 3.0]])
    assert adapter_delta(x, eye, eye, "relu", None, 1.0).data.tolist() == [[0.0, 3.0]]
    assert adapter_delta(x, eye, eye, "identity", None, 1.0).data.tolist() == [[-2.0, 3.0]]
    assert T.ACTIVATIONS == ("identity", "relu", "silu")
    with pytest.raises(DomainError, match="unknown activation"):
        adapter_delta(x, eye, eye, "tanh", None, 1.0)


def test_dropout_mask_at_p_zero_keeps_every_entry():
    rng = RngState(3)
    x = Tensor(rng.normal((8, 8)))
    w_up, w_down = Tensor(rng.normal((4, 8))), Tensor(rng.normal((5, 4)))
    mask = keep_mask((8, 4), 0.0, rng)
    assert np.array_equal(mask, np.ones((8, 4)))
    assert np.array_equal(adapter_delta(x, w_up, w_down, "silu", mask, 1.0).data,
                          adapter_delta(x, w_up, w_down, "silu", None, 1.0).data)


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
    backward(dot(linear(a, b), c))
    # the frozen operand's gradient product is never formed
    for t in (a, b):
        assert any(h is t for h in handed) == t.requires_grad
        if not t.requires_grad:
            assert t.grad is None
    # the trainable ones get, bit for bit, what zeros plus the product gave
    g = np.ones((5, 4)) * c
    want_a, want_b = g @ b.data, g.T @ a.data
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
    loss = dot(Tensor(np.zeros((2, 2))), np.full((2, 2), 3.0))
    backward(loss)
    assert w.grad is None


def test_backward_rejects_non_scalar():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(T.add(w, w))


def test_backward_clears_tape():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    out = total(silu(w))
    backward(out)
    assert out._parents == () and out._backward is None


def test_grad_accumulates_across_reuse():
    # q = (x + y) * (x + 1) -> dq/dx = (x + y) + (x + 1)
    x = Tensor([2.0], requires_grad=True)
    y = Tensor([-4.0], requires_grad=True)
    q = dot(T.add(x, y), T.add(x, [1.0]))
    backward(q)
    assert x.grad[0] == pytest.approx(1.0)
    assert y.grad[0] == pytest.approx(3.0)


def test_adopted_gradient_of_three_consumers_never_aliases():
    rng = RngState(64)
    x = Tensor(rng.normal((3, 4)), requires_grad=True)
    w1, w2, w3 = (rng.normal((3, 4)) for _ in range(3))
    a, b = T.reshape(x, x.shape), T.add(x, np.zeros((3, 4)))
    c = linear(x, Tensor(3.0 * np.eye(4)))  # 3 x
    backward(T.add(T.add(dot(a, w1), dot(b, w2)), dot(c, w3)))
    # each consumer's gradient is as it arrived; x's sum is a new array
    assert np.array_equal(a.grad, w1) and np.array_equal(b.grad, w2)
    assert np.array_equal(c.grad, w3)
    assert all(not np.shares_memory(x.grad, t.grad) for t in (a, b, c))
    assert np.allclose(x.grad, w1 + w2 + 3.0 * w3, rtol=1e-15, atol=0)


def test_adopted_gradient_of_a_tensor_added_to_itself():
    rng = RngState(65)
    x = Tensor(rng.normal((2, 5)), requires_grad=True)
    w = rng.normal((2, 5))
    y = T.add(x, x)
    backward(dot(y, w))
    assert np.array_equal(x.grad, w + w)
    assert np.array_equal(y.grad, w)  # not doubled in place


def _attention_chain(q, k, v, scale, g):
    """The matmul, scale, mask-add, softmax, matmul chain op for op, with
    its backward for the output gradient `g`, taken as a contiguous copy
    (what the chain's nodes received when a first gradient was copied)."""
    s = q.shape[2]
    kt = np.ascontiguousarray(k.swapaxes(-1, -2))
    scores = np.matmul(q, kt) * np.asarray(scale) + np.triu(np.full((s, s), -1e30), k=1)
    y = scores - scores.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = np.matmul(y, v)
    g = np.ascontiguousarray(g)
    gy = np.matmul(g, v.swapaxes(-1, -2))
    gv = np.matmul(y.swapaxes(-1, -2), g)
    ds = gy - (gy * y).sum(axis=-1, keepdims=True)
    ds *= y
    ds = ds * np.asarray(scale)
    gq = np.matmul(ds, kt.swapaxes(-1, -2))
    gk = np.ascontiguousarray(np.matmul(q.swapaxes(-1, -2), ds).swapaxes(-1, -2))
    return out, y, gq, gk, gv


def test_causal_attention_is_bit_for_bit_the_op_chain():
    rng = RngState(67)
    b, h, s, d = 3, 4, 7, 5
    q, k, v = (Tensor(rng.normal((b, h, s, d)), requires_grad=True) for _ in range(3))
    w = rng.normal((b * s, h * d))
    out = causal_attention(q, k, v, 1.0 / np.sqrt(d))
    # the gradient reaches the op as merge_heads' strided view, as in the model
    backward(dot(T.merge_heads(out), w))
    g = w.reshape(b, s, h, d).transpose(0, 2, 1, 3)
    want_out, want_attn, gq, gk, gv = _attention_chain(q.data, k.data, v.data,
                                                       1.0 / np.sqrt(d), g)
    assert np.array_equal(out.data, want_out)
    # with v an identity stack (d = S) the output is the weight matrix itself
    eye = np.broadcast_to(np.eye(s), (b, h, s, s))
    assert np.array_equal(causal_attention(q, k, eye, 1.0 / np.sqrt(d)).data, want_attn)
    for t, want in ((q, gq), (k, gk), (v, gv)):
        assert np.array_equal(t.grad, want)


@pytest.mark.parametrize("probe", ["q", "k", "v"])
def test_causal_attention_gradient_per_operand(probe):
    rng = RngState(68)
    fixed = {name: Tensor(rng.normal((2, 2, 4, 3))) for name in "qkv"}
    weights = Tensor(rng.normal((2, 2, 4, 3)))

    def f(z):
        ops = dict(fixed, **{probe: z})
        return dot(causal_attention(ops["q"], ops["k"], ops["v"], 0.6), weights)

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


@pytest.mark.parametrize("x_grad", [True, False], ids=["x_grad", "x_frozen"])
@pytest.mark.parametrize("scale", [1.0, 2.0])
@pytest.mark.parametrize("mask", sorted(ADAPTER_MASKS))
@pytest.mark.parametrize("activation", ["identity", "relu", "silu"])
def test_adapter_delta_is_bit_for_bit_the_op_chain(monkeypatch, activation, mask,
                                                   scale, x_grad):
    rng = RngState(70)
    x = Tensor(rng.normal((6, 5)), requires_grad=x_grad)
    w_up = Tensor(rng.normal((3, 5)), requires_grad=True)
    w_down = Tensor(rng.normal((4, 3)), requires_grad=True)
    m = ADAPTER_MASKS[mask](rng.child(1))
    g = rng.normal((6, 4))
    handed = []
    accum = T._accum
    monkeypatch.setattr(T, "_accum", lambda t, grad: (handed.append(t), accum(t, grad)))
    out = adapter_delta(x, w_up, w_down, activation, m, scale)
    assert out._op == "adapter_delta" and out._parents == (x, w_up, w_down)
    backward(out, g)
    want, gx, gw_up, gw_down = _adapter_chain(x.data, w_up.data, w_down.data,
                                              activation, m, scale, g)
    assert out.data.tobytes() == want.tobytes()
    assert w_up.grad.tobytes() == gw_up.tobytes()
    assert w_down.grad.tobytes() == gw_down.tobytes()
    if x_grad:
        assert x.grad.tobytes() == gx.tobytes()
    else:  # a frozen input's gradient product is never formed
        assert x.grad is None and not any(h is x for h in handed)


@pytest.mark.parametrize("mask", [None, "elementwise"])
@pytest.mark.parametrize("activation", ["relu", "silu"])
def test_adapter_delta_gradient_matches_finite_differences(activation, mask):
    rng = RngState(71)
    x = Tensor(rng.uniform(-2.0, 2.0, (6, 5)))
    w_up = Tensor(rng.uniform(-1.0, 1.0, (3, 5)))
    w_down = Tensor(rng.uniform(-1.0, 1.0, (4, 3)))
    m = None if mask is None else keep_mask((6, 3), 0.4, rng.child(1))
    weights = rng.normal((6, 4))
    # relu is checked away from its kink: no latent within reach of the step
    assert np.min(np.abs(x.data @ w_up.data.T)) > 1e-3
    operands = {"x": x, "w_up": w_up, "w_down": w_down}
    for name, probe in operands.items():
        def f(z):
            ops = dict(operands, **{name: z})
            return dot(adapter_delta(ops["x"], ops["w_up"], ops["w_down"],
                                     activation, m, 2.0), weights)

        assert finite_difference_check(f, probe, 1e-6) < 1e-5, name


def test_backward_from_a_seeded_root():
    # a seed G at a non-scalar root y gives, bit for bit, the gradients of
    # the scalar dot(y, G), which hands y exactly G
    rng = RngState(69)
    seed = rng.normal((6, 5))
    w = Tensor(rng.normal((5, 4)), requires_grad=True)
    x = Tensor(rng.normal((6, 4)), requires_grad=True)
    backward(silu(linear(x, w)), seed)
    got = (w.grad, x.grad)
    w.zero_grad()
    x.zero_grad()
    backward(dot(silu(linear(x, w)), seed))
    assert got[0].tobytes() == w.grad.tobytes()
    assert got[1].tobytes() == x.grad.tobytes()
    with pytest.raises(ShapeError, match="seed gradient"):
        backward(linear(x, w), np.ones((5, 6)))
    with pytest.raises(ShapeError, match="scalar loss"):
        backward(linear(x, w))


def test_fd_check_quadratic():
    rng = RngState(6)
    x = Tensor(rng.normal((5,)))
    err = finite_difference_check(lambda t: dot(t, T.add(t, t)), x, 1e-6)
    assert err < 1e-8


def test_fd_check_constant_function():
    x = Tensor(np.ones(3))
    err = finite_difference_check(lambda t: Tensor(np.asarray(7.0)), x, 1e-6)
    assert err == 0.0


@pytest.mark.parametrize("name,f", [
    ("silu", lambda z: total(silu(z))),
    ("relu", lambda z: total_sq(adapter_delta(z, np.eye(4), np.eye(4), "relu", None, 1.0))),
    ("linear", lambda z: total(linear(z, Tensor(np.linspace(-1, 1, 20).reshape(5, 4))))),
    ("layer_norm", lambda z: total(layer_norm(z, Tensor(np.linspace(0.5, 1.5, 4)),
                                             Tensor(np.zeros(4))))),
    ("sub_mul", lambda z: dot(T.add(z, np.full(z.shape, -0.5)),
                              T.add(z, np.full(z.shape, 2.0)))),
    ("reshape", lambda z: total(linear(T.reshape(z, (4, 3)), Tensor(np.ones((1, 3)))))),
    ("split_merge_heads", lambda z: dot(T.merge_heads(T.split_heads(z, 2, 3)),
                                        np.arange(12.0).reshape(3, 4))),
    ("attention", lambda z: dot(T.merge_heads(causal_attention(
        T.split_heads(z, 2, 3), T.split_heads(z, 2, 3), T.split_heads(z, 2, 3), 0.7)),
        np.arange(12.0).reshape(3, 4))),
    ("cross_entropy", lambda z: cross_entropy_rows(z, np.array([0, 2, 1]))),
])
def test_gradient_soundness_per_op(name, f):
    rng = RngState(hash(name) % 2 ** 32)
    x = Tensor(rng.uniform(-2.0, 2.0, (3, 4)))
    if name == "relu":  # keep away from the kink
        x.data[np.abs(x.data) < 1e-3] = 0.5
    assert finite_difference_check(f, x, 1e-6) < 1e-5


def test_split_merge_heads_gradients():
    # rows are (sequence, position), columns (head, feature): each entry
    # lands at [sequence, head, position, feature] and its gradient comes back
    x = Tensor(np.arange(24.0).reshape(6, 4), requires_grad=True)
    heads = T.split_heads(x, 2, 3)
    assert heads.shape == (2, 2, 3, 2)
    assert heads.data[1, 0, 2, 1] == x.data[1 * 3 + 2, 0 * 2 + 1]
    assert heads.data[0, 1, 1, 0] == x.data[0 * 3 + 1, 1 * 2 + 0]
    assert np.array_equal(T.merge_heads(heads).data, x.data)
    backward(total_sq(heads))
    assert np.array_equal(x.grad, 2.0 * x.data)


def test_batched_ops_match_per_matrix_ops():
    rng = RngState(63)
    q, k, v = (rng.normal((2, 3, 5, 4)) for _ in range(3))
    got = causal_attention(Tensor(q), Tensor(k), Tensor(v), 0.5).data
    for i in range(2):
        for j in range(3):
            one = causal_attention(*(Tensor(a[i:i + 1, j:j + 1]) for a in (q, k, v)), 0.5)
            assert np.array_equal(got[i, j], one.data[0, 0])
    with pytest.raises(ShapeError):
        causal_attention(Tensor(q), Tensor(k[:1]), Tensor(v), 0.5)
    with pytest.raises(ShapeError):
        causal_attention(Tensor(q[0]), Tensor(k[0]), Tensor(v[0]), 0.5)
    with pytest.raises(ShapeError):
        T.split_heads(Tensor(np.ones((5, 4))), 2, 3)
    with pytest.raises(ShapeError):
        T.merge_heads(Tensor(np.ones((3, 4))))


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
        y = total(adapter_delta(x, Tensor(rng.normal((4, 8))), Tensor(rng.normal((3, 4))),
                                "silu", mask, 1.0))
        backward(y)
        return y.data.copy(), x.grad.copy()

    (v1, g1), (v2, g2) = run(), run()
    assert np.array_equal(v1, v2) and np.array_equal(g1, g2)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_silu_identity_property(x):
    got = silu(Tensor([x])).data[0] - silu(Tensor([-x])).data[0]
    assert got == pytest.approx(x, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_tensor_invariants_after_ops(seed):
    rng = RngState(seed)
    x = Tensor(rng.uniform(-2, 2, (3, 5)), requires_grad=True)
    out = silu(linear(x, Tensor(rng.uniform(-1, 1, (2, 5)))))
    assert out.data.size == int(np.prod(out.shape))
    backward(total(out))
    assert x.grad.shape == x.shape
    assert np.all(np.isfinite(out.data)) and np.all(np.isfinite(x.grad))
