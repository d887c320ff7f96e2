import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceralab import tensor as T
from ceralab.errors import DomainError, NumericsError, ShapeError
from ceralab.tensor import (RngState, Tensor, backward, cross_entropy_rows,
                            dropout, finite_difference_check, identity,
                            layer_norm, linear, matmul, mse, relu, silu,
                            softmax_rows, tmean, tsum)


def test_matmul_identity():
    rng = RngState(0)
    m = Tensor(rng.normal((3, 3)))
    out = matmul(Tensor(np.eye(3)), m)
    assert np.array_equal(out.data, m.data)


def test_matmul_hand_example():
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [1.0]]))
    assert np.array_equal(out.data, [[2.0], [4.0]])


def test_matmul_zero_annihilates():
    rng = RngState(1)
    m = Tensor(rng.normal((4, 5)))
    out = matmul(Tensor(np.zeros((2, 4))), m)
    assert np.all(out.data == 0.0)


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_silu_at_zero_and_one():
    assert silu(Tensor([0.0])).data[0] == 0.0
    assert silu(Tensor([1.0])).data[0] == pytest.approx(0.731059, abs=1e-6)


def test_silu_odd_plus_identity():
    # silu(x) - silu(-x) = x, from sigmoid(x) + sigmoid(-x) = 1
    x = np.linspace(-10.0, 10.0, 1000)
    lhs = silu(Tensor(x)).data - silu(Tensor(-x)).data
    assert np.max(np.abs(lhs - x)) < 1e-12


def test_relu_and_identity():
    assert relu(Tensor([-2.0])).data[0] == 0.0
    assert relu(Tensor([3.0])).data[0] == 3.0
    v = np.array([1.5, -0.25, 0.0])
    assert np.array_equal(identity(Tensor(v)).data, v)


def test_dropout_p_zero_and_eval_are_identity():
    rng = RngState(3)
    x = Tensor(rng.normal((8, 8)))
    assert np.array_equal(dropout(x, 0.0, "train", rng=rng).data, x.data)
    assert np.array_equal(dropout(x, 0.5, "eval").data, x.data)


def test_dropout_preserves_expectation():
    rng = RngState(4)
    x = Tensor(np.full((1000, 100), 2.0))
    out = dropout(x, 0.5, "train", rng=rng)
    assert out.data.mean() == pytest.approx(2.0, rel=0.05)


def test_dropout_channel_masks_whole_columns():
    rng = RngState(5)
    x = Tensor(np.ones((50, 20)))
    out = dropout(x, 0.4, "train", style="channel", rng=rng).data
    col_mins = out.min(axis=0)
    col_maxs = out.max(axis=0)
    assert np.array_equal(col_mins, col_maxs)  # each column all-kept or all-dropped
    values = np.unique(out)
    assert all(v == 0.0 or abs(v - 1 / 0.6) < 1e-12 for v in values)


def test_dropout_domain_errors():
    x = Tensor(np.ones(4))
    with pytest.raises(DomainError):
        dropout(x, 1.0, "train", rng=RngState(0))
    with pytest.raises(DomainError):
        dropout(x, -0.1, "train", rng=RngState(0))


def test_backward_linear_form():
    # loss = sum(W x): each row of grad(W) is x^T
    x = np.array([1.0, -2.0, 0.5])
    w = Tensor(np.zeros((4, 3)), requires_grad=True)
    loss = tsum(matmul(w, Tensor(x.reshape(3, 1))))
    backward(loss)
    assert np.allclose(w.grad, np.tile(x, (4, 1)))


@pytest.mark.parametrize("op", ["linear", "matmul"])
@pytest.mark.parametrize("trainable", [(True, False), (False, True), (True, True)])
def test_gemm_backward_skips_frozen_operands(monkeypatch, op, trainable):
    rng = RngState(60)
    a = Tensor(rng.normal((5, 3)), requires_grad=trainable[0])
    b = Tensor(rng.normal((4, 3) if op == "linear" else (3, 4)),
               requires_grad=trainable[1])
    c = rng.normal((5, 4))
    handed = []
    accum = T._accum
    monkeypatch.setattr(T, "_accum", lambda t, g: (handed.append(t), accum(t, g)))
    backward(tsum(getattr(T, op)(a, b) * c))
    # the frozen operand's gradient product is never formed
    for t in (a, b):
        assert any(h is t for h in handed) == t.requires_grad
        if not t.requires_grad:
            assert t.grad is None
    # the trainable ones get, bit for bit, what zeros plus the product gave
    g = np.ones((5, 4)) * c
    if op == "linear":
        want_a, want_b = g @ b.data, g.T @ a.data
    else:
        want_a, want_b = g @ b.data.T, a.data.T @ g
    for t, want in ((a, want_a), (b, want_b)):
        if t.requires_grad:
            assert t.grad.tobytes() == (np.zeros_like(t.data) + want).tobytes()


@pytest.mark.parametrize("op", ["mul", "sub", "add"])
def test_elementwise_backward_skips_frozen_operand(monkeypatch, op):
    rng = RngState(61)
    a = Tensor(rng.normal((3, 4)), requires_grad=True)
    b = Tensor(rng.normal((3, 4)))
    handed = []
    accum = T._accum
    monkeypatch.setattr(T, "_accum", lambda t, g: (handed.append(t), accum(t, g)))
    backward(tsum(getattr(T, op)(a, b)))
    assert not any(h is b for h in handed) and b.grad is None
    want = np.ones((3, 4)) * b.data if op == "mul" else np.ones((3, 4))
    assert a.grad.tobytes() == (np.zeros_like(a.data) + want).tobytes()


def test_add_skips_broadcast_reduction_of_frozen_operand(monkeypatch):
    # the causal mask case: a frozen (S, S) operand broadcast over (B, H, S, S)
    rng = RngState(62)
    a = Tensor(rng.normal((2, 3, 4, 4)), requires_grad=True)
    mask = Tensor(np.triu(np.full((4, 4), -1e30), k=1))
    reduced = []
    real = T._broadcast_bwd
    monkeypatch.setattr(T, "_broadcast_bwd",
                        lambda t, g: (reduced.append(t), real(t, g))[1])
    backward(tsum(T.softmax_rows(a + mask) * rng.normal((2, 3, 4, 4))))
    assert not any(t is mask for t in reduced) and mask.grad is None
    assert a.grad.shape == a.shape


def test_backward_constant_loss_zero_grads():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    loss = tsum(Tensor(np.zeros((2, 2))) * 3.0)
    backward(loss)
    assert w.grad is None


def test_backward_rejects_non_scalar():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(w * 2.0)


def test_backward_clears_tape():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    out = tsum(silu(w))
    backward(out)
    assert out._parents == () and out._backward is None


def test_grad_accumulates_across_reuse():
    # q = (x + y) * (x + 1) -> dq/dx = (x + y) + (x + 1)
    x = Tensor([2.0], requires_grad=True)
    y = Tensor([-4.0], requires_grad=True)
    q = tsum((x + y) * (x + 1.0))
    backward(q)
    assert x.grad[0] == pytest.approx(1.0)
    assert y.grad[0] == pytest.approx(3.0)


def test_fd_check_quadratic():
    rng = RngState(6)
    x = Tensor(rng.normal((5,)))
    err = finite_difference_check(lambda t: tmean(T.square(t)) * 2.5, x, 1e-6)
    assert err < 1e-8


def test_fd_check_constant_function():
    x = Tensor(np.ones(3))
    err = finite_difference_check(lambda t: Tensor(np.asarray(7.0)), x, 1e-6)
    assert err == 0.0


@pytest.mark.parametrize("name,f", [
    ("silu", lambda z: tsum(silu(z))),
    ("relu", lambda z: tsum(relu(z) * relu(z))),
    ("identity", lambda z: tsum(identity(z) * 3.0)),
    ("matmul", lambda z: tsum(matmul(z, Tensor(np.linspace(-1, 1, 12).reshape(4, 3))))),
    ("linear", lambda z: tsum(linear(z, Tensor(np.linspace(-1, 1, 20).reshape(5, 4))))),
    ("softmax", lambda z: tsum(softmax_rows(z) * Tensor(np.arange(12.0).reshape(3, 4)))),
    ("layer_norm", lambda z: tsum(layer_norm(z, Tensor(np.linspace(0.5, 1.5, 4)),
                                             Tensor(np.zeros(4))))),
    ("mean", lambda z: tmean(z * z)),
    ("sub_mul", lambda z: tsum((z - 0.5) * (z + 2.0))),
    ("transpose", lambda z: tsum(T.transpose(z) @ Tensor(np.ones((3, 2))))),
    ("reshape", lambda z: tsum(T.reshape(z, (4, 3)) @ Tensor(np.ones((3, 1))))),
    ("split_merge_heads", lambda z: tsum(T.merge_heads(
        T.split_heads(z, 2, 3) * Tensor(np.arange(12.0).reshape(1, 2, 3, 2))) ** 2)),
    ("bmm", lambda z: tsum(T.bmm(T.split_heads(z, 2, 3),
                                 Tensor(np.linspace(-1, 1, 20).reshape(1, 2, 2, 5))) ** 2)),
    ("bmm_right", lambda z: tsum(T.bmm(Tensor(np.linspace(-1, 1, 12).reshape(1, 2, 2, 3)),
                                       T.split_heads(z, 2, 3)) ** 2)),
    ("attention", lambda z: tsum(T.merge_heads(T.bmm(T.softmax_rows(
        T.bmm(T.split_heads(z, 2, 3), T.transpose(T.split_heads(z, 2, 3)))),
        T.split_heads(z, 2, 3))) * Tensor(np.arange(12.0).reshape(3, 4)))),
    ("cross_entropy", lambda z: cross_entropy_rows(z, np.array([0, 2, 1]))),
    ("mse", lambda z: mse(z, np.linspace(0, 1, 12).reshape(3, 4))),
])
def test_gradient_soundness_per_op(name, f):
    rng = RngState(hash(name) % 2 ** 32)
    x = Tensor(rng.uniform(-2.0, 2.0, (3, 4)))
    if name == "relu":  # keep away from the kink
        x.data[np.abs(x.data) < 1e-3] = 0.5
    assert finite_difference_check(f, x, 1e-6) < 1e-5


def test_fd_check_dropout_with_fixed_mask():
    x = Tensor(RngState(7).uniform(-2, 2, (4, 6)))

    def f(z):
        return tsum(dropout(z, 0.5, "train", rng=RngState(123)) ** 2)

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
    backward(tsum(heads * heads))
    assert np.array_equal(x.grad, 2.0 * x.data)


def test_batched_ops_match_per_matrix_ops():
    rng = RngState(63)
    a, b = rng.normal((2, 3, 4, 5)), rng.normal((2, 3, 5, 6))
    got = T.bmm(Tensor(a), Tensor(b)).data
    sm = T.softmax_rows(Tensor(a)).data
    tr = T.transpose(Tensor(a)).data
    for i in range(2):
        for j in range(3):
            assert np.allclose(got[i, j], a[i, j] @ b[i, j], rtol=1e-14, atol=0)
            assert np.array_equal(sm[i, j], softmax_rows(Tensor(a[i, j])).data)
            assert np.array_equal(tr[i, j], a[i, j].T)
    with pytest.raises(ShapeError):
        T.bmm(Tensor(a), Tensor(b[:1]))
    with pytest.raises(ShapeError):
        T.bmm(Tensor(a), Tensor(a))
    with pytest.raises(ShapeError):
        T.split_heads(Tensor(np.ones((5, 4))), 2, 3)
    with pytest.raises(ShapeError):
        T.merge_heads(Tensor(np.ones((3, 4))))


def test_softmax_rows_sum_to_one():
    x = Tensor(RngState(8).normal((6, 9)) * 4.0)
    rows = softmax_rows(x).data.sum(axis=1)
    assert np.max(np.abs(rows - 1.0)) < 1e-12


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
        y = tsum(silu(linear(dropout(x, 0.3, "train", rng=rng.child(1)),
                             Tensor(rng.normal((4, 8))))))
        backward(y)
        return y.data.copy(), x.grad.copy()

    (v1, g1), (v2, g2) = run(), run()
    assert np.array_equal(v1, v2) and np.array_equal(g1, g2)


def test_debug_mode_flags_nonfinite():
    T.debug_checks(True)
    try:
        with pytest.raises(NumericsError, match="pow"):
            Tensor(np.array([0.0])) ** -1.0
    finally:
        T.debug_checks(False)


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
    backward(tsum(out))
    assert x.grad.shape == x.shape
    assert np.all(np.isfinite(out.data)) and np.all(np.isfinite(x.grad))
