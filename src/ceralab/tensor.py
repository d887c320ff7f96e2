"""Dense float64 tensors with tape-based reverse-mode autodiff.

Deliberately small: only the six ops the program runs. A row-times-weight
product, elementwise add, the SiLU-gated two-matrix map that is both an
adapter's whole delta and the frozen FFN, multi-head causal attention over
(B*S, H*d) projection rows with the head split and merge inside it, layer
norm, and the cross-entropy loss. Each is one tape node. The two-matrix
map is also two plain numpy halves, `mlp_forward` and `mlp_backward`, which
its node runs and which the regressor, which has no tape, runs directly;
the backward half writes each gradient product into an array it is handed.
Values are row-major numpy arrays; the tape is the implicit graph of parent
links and backward closures. It holds only what a backward will read: each
node keeps the arrays its own backward needs and nothing else, `backward`
releases each interior node once it and all its consumers have run, and
inside `_no_tape()` ops record no parents and no closure at all, so an
evaluation frees each intermediate as soon as it is consumed.

Gradient ownership: a tensor adopts the first gradient handed to it, with
no copy, and every later contribution makes a new array (`grad + g`). A
`.grad` may therefore be the very array another tensor holds, or a view of
it; read it, never write it in place. Backward closures likewise never
write the gradient they receive.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DomainError, ShapeError

LAYER_NORM_EPS = 1e-5


class RngState:
    """Deterministic random stream addressed by (seed, stream id).

    Streams are PCG64 generators keyed by SeedSequence spawn paths, so the
    same (seed, stream path) replays the identical draw sequence on every
    platform, and children derived via `child` never alias each other.
    """

    def __init__(self, seed: int, stream_id: int = 0,
                 _path: tuple[int, ...] | None = None):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._path = _path if _path is not None else (self.stream_id,)
        self._gen = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=self.seed, spawn_key=self._path)))

    def child(self, stream_id: int) -> "RngState":
        return RngState(self.seed, stream_id,
                        _path=self._path + (int(stream_id),))

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def random(self, shape) -> np.ndarray:
        """Uniform draws on [0, 1): the bits of `uniform(0.0, 1.0, shape)`,
        without its bound handling."""
        return self._gen.random(shape)

    def normal(self, shape, scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, scale, size=shape)

    def integers(self, low: int, high: int, shape) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, path={self._path})"


class Tensor:
    """A dense float64 array plus an optional gradient buffer.

    Ops on tensors record parent links and a backward closure when any
    input requires grad, outside `_no_tape`; the module's `backward` from a
    result replays them.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple["Tensor", ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op!r}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


# whether ops record the tape; only `_no_tape` clears it
_taping = True


@contextmanager
def _no_tape() -> Iterator[None]:
    """Ops inside record no tape: a result requires no grad and keeps no
    parents and no closure, whatever its inputs. For passes no backward
    reads; the outer state returns on exit, on error too, so it nests."""
    global _taping
    outer, _taping = _taping, False
    try:
        yield
    finally:
        _taping = outer


def _node(data: np.ndarray, parents: Sequence[Tensor],
          bwd: Callable[[np.ndarray], None], op: str) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._op = op
    rg = _taping and any(p.requires_grad for p in parents)
    out.requires_grad = rg
    out._parents = tuple(parents) if rg else ()
    out._backward = bwd if rg else None
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add `g` to t's gradient under the ownership rule (module doc)."""
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.zero_grad()


def backward(root: Tensor | Callable[[], None],
             grad: np.ndarray | None = None) -> None:
    """Run the reverse pass of a loss: populate grads of every requires_grad
    tensor reachable from the tape's `root`.

    A function root is a reverse pass computed off the tape, such as the
    regressor's, and is called as it is, with no seed. So every reverse
    pass of a training step, taped or not, is this one call, and a step's
    backward phase is its span (the benchmark's step phases read it).

    Without `grad` the root must be a scalar loss (size 1), seeded with one.
    A `grad` shaped like the root seeds it instead: the gradient, with
    respect to the root, of a loss computed off the tape; the root adopts
    it with no copy, and it is only read.

    The nodes run in reverse topological order, popped off that order as
    they run, and each drops its parent links and closure once its backward
    has run. So once a node and all its consumers have run, nothing refers
    to it any more, and its data, gradient and closure are freed. A tensor
    the caller still holds (the root, a parameter) keeps its data and
    gradient.
    """
    if callable(root):
        root()
        return
    if grad is None:
        if root.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {root.shape}")
        grad = np.ones_like(root.data)
    elif grad.shape != root.shape:
        raise ShapeError(f"seed gradient shape {grad.shape} != root shape {root.shape}")
    # iterative topological sort; graphs can be long-chained
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    if root.requires_grad:
        root.grad = grad
    while topo:
        node = topo.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        node._parents = ()
        node._backward = None


# ---------------------------------------------------------------------------
# arithmetic


def linear(x: Tensor, w: Tensor) -> Tensor:
    """Rows-times-weight product: x (n,k) @ w (d,k).T -> (n,d).

    Backward forms the gradient product of an operand only if it requires
    grad; the same holds for `add`, `mlp` and `causal_attention`.
    """
    x, w = _wrap(x), _wrap(w)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear shapes {x.shape} x {w.shape}.T do not agree")
    data = x.data @ w.data.T

    def bwd(g):
        if x.requires_grad:
            _accum(x, g @ w.data)
        if w.requires_grad:
            _accum(w, g.T @ x.data)

    return _node(data, (x, w), bwd, "linear")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    a, b = _wrap(a), _wrap(b)
    if a.shape != b.shape:
        raise ShapeError(f"add shapes {a.shape} + {b.shape} differ")
    data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            _accum(a, g)
        if b.requires_grad:
            _accum(b, g)

    return _node(data, (a, b), bwd, "add")


# ---------------------------------------------------------------------------
# the two-matrix map

# the activations `mlp` applies between its two matrices
ACTIVATIONS = ("identity", "relu", "silu")


def _silu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * sigmoid(x) and the sigmoid, 1 / (1 + exp(-x)) in one buffer."""
    sig = np.negative(x, out=np.empty_like(x))
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    return x * sig, sig


def _silu_grad(x: np.ndarray, sig: np.ndarray, g: np.ndarray) -> None:
    """Write g * sig * (1 + x (1 - sig)) over g, which the caller owns; one
    more buffer."""
    slope = np.subtract(1.0, sig)
    slope *= x
    slope += 1.0
    g *= sig
    g *= slope


def mlp_hidden(x: np.ndarray, w_up: np.ndarray, activation: str
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The hidden rows x w_upᵀ of a two-matrix map, their activation, and
    the sigmoid of a SiLU (None otherwise): the first half of `mlp`, off
    the tape."""
    lat = x @ w_up.T
    if activation == "silu":
        return (lat, *_silu(lat))
    if activation == "relu":
        return lat, np.maximum(lat, 0.0), None
    if activation != "identity":
        raise DomainError(f"unknown activation {activation!r}")
    return lat, lat, None


def mlp_forward(x: np.ndarray, w_up: np.ndarray, w_down: np.ndarray,
                activation: str, mask: np.ndarray | None, scale: float
                ) -> tuple[np.ndarray, tuple]:
    """The forward half of `mlp`, in numpy: the rows
    scale * (mask * act(x w_upᵀ)) w_downᵀ, and what the backward half reads
    of this pass: the hidden rows, the sigmoid of a SiLU (None otherwise)
    and the kept activations, mask applied."""
    lat, act, sig = mlp_hidden(x, w_up, activation)
    kept = act if mask is None else act * mask
    rows = kept @ w_down.T
    if scale != 1.0:
        rows *= scale
    return rows, (lat, sig, kept)


def mlp_backward(g: np.ndarray, x: np.ndarray, w_up: np.ndarray,
                 w_down: np.ndarray, activation: str, mask: np.ndarray | None,
                 scale: float, saved: tuple, grads: tuple) -> None:
    """The backward half of `mlp`, in numpy. From the gradient g of the
    rows, it forms the gradient products of x, w_up and w_down, each
    written with matmul's `out` into its array of `grads` (dx, dw_up,
    dw_down); a None entry is neither formed nor written. `saved` is what
    `mlp_forward` returned beside the rows; its kept activations are read
    only for w_down's product. g is only read."""
    dx, d_up, d_down = grads
    lat, sig, kept = saved
    if scale != 1.0:
        g = g * scale
    if d_down is not None:
        np.matmul(g.T, kept, out=d_down)
    if dx is None and d_up is None:
        return
    dact = g @ w_down
    if mask is not None:
        dact *= mask
    if activation == "silu":
        _silu_grad(lat, sig, dact)
    elif activation == "relu":
        dact *= lat > 0.0
    if dx is not None:
        np.matmul(dact, w_up, out=dx)
    if d_up is not None:
        np.matmul(dact.T, x, out=d_up)


def mlp(x: Tensor, w_up: Tensor, w_down: Tensor, activation: str,
        mask: np.ndarray | None, scale: float) -> Tensor:
    """The two-matrix map scale * (mask * act(x w_upᵀ)) w_downᵀ as one node:
    x (n,k), w_up (r,k), w_down (d,r) -> (n,d). It is an adapter's delta
    rows, and with no mask and unit scale the frozen FFN. `mask` is a
    dropout mask as `model._dropout_masks` draws it, or None; a scale of 1
    is no multiply. The node runs `mlp_forward` and `mlp_backward`, which
    run the linear, activation, mask, linear, scale chain op for op and
    form each of the chain's gradient products as the chain does, so both
    are the chain's bit for bit."""
    x, w_up, w_down = _wrap(x), _wrap(w_up), _wrap(w_down)
    data, (lat, sig, kept) = mlp_forward(x.data, w_up.data, w_down.data,
                                         activation, mask, scale)
    if not w_down.requires_grad:
        kept = None  # only w_down's gradient reads it: the frozen FFN keeps none

    def bwd(g):
        operands = (x, w_up, w_down)
        grads = tuple(np.empty(t.shape) if t.requires_grad else None for t in operands)
        mlp_backward(g, x.data, w_up.data, w_down.data, activation, mask, scale,
                     (lat, sig, kept), grads)
        for t, d in zip(operands, grads):
            if d is not None:
                _accum(t, d)

    return _node(data, (x, w_up, w_down), bwd, "mlp")


# ---------------------------------------------------------------------------
# attention


def _heads(rows: np.ndarray, n_heads: int, seq_len: int) -> np.ndarray:
    """(B*S, H*d) rows, sequence-major, as a contiguous (B, H, S, d) stack."""
    n, w = rows.shape
    return np.ascontiguousarray(
        rows.reshape(n // seq_len, seq_len, n_heads, w // n_heads).transpose(0, 2, 1, 3))


def _rows(heads: np.ndarray) -> np.ndarray:
    """A (B, H, S, d) stack as (B*S, H*d) rows: the inverse of `_heads`."""
    b, h, s, d = heads.shape
    return heads.transpose(0, 2, 1, 3).reshape(b * s, h * d)


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
                     seq_len: int) -> Tensor:
    """Multi-head causal attention over (B*S, H*d) projection rows, S =
    `seq_len`: each head's softmax(q kᵀ / sqrt(d) + causal mask) v, with the
    heads' (B*S, H*d_v) output rows side by side. d is q's width over the
    heads; v may be narrower.

    One node that keeps one (B, H, S, S) array, the attention weights. The
    heads are split off the rows and merged back inside it, and the ops and
    their order are those of the split, matmul, scale, mask-add, softmax,
    matmul, merge chain, so values and gradients are bit for bit that
    chain's. Backward splits the heads it needs off the parents' rows again
    rather than keeping the forward's copies. A position attends to itself
    and the positions before it.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    if (q.ndim != 2 or k.shape != q.shape or v.ndim != 2 or v.shape[0] != q.shape[0]
            or q.shape[0] % seq_len or q.shape[1] % n_heads or v.shape[1] % n_heads):
        raise ShapeError(f"causal_attention rows {q.shape}, {k.shape}, {v.shape} do "
                         f"not split into {n_heads} heads of length-{seq_len} sequences")
    n, dv = v.shape[0], v.shape[1] // n_heads
    scale = 1.0 / np.sqrt(q.shape[1] // n_heads)

    def keys_t():
        return np.ascontiguousarray(_heads(k.data, n_heads, seq_len).swapaxes(-1, -2))

    attn = np.matmul(_heads(q.data, n_heads, seq_len), keys_t())
    attn *= scale
    attn += np.triu(np.full((seq_len, seq_len), -1e30), k=1)
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)

    def bwd(g):
        g = g.reshape(n // seq_len, seq_len, n_heads, dv).transpose(0, 2, 1, 3)
        if v.requires_grad:
            _accum(v, _rows(np.matmul(attn.swapaxes(-1, -2), g)))
        if q.requires_grad or k.requires_grad:
            ds = np.matmul(g, _heads(v.data, n_heads, seq_len).swapaxes(-1, -2))
            ds -= (ds * attn).sum(axis=-1, keepdims=True)
            ds *= attn
            ds *= scale
            if q.requires_grad:
                _accum(q, _rows(np.matmul(ds, keys_t().swapaxes(-1, -2))))
            if k.requires_grad:
                qh = _heads(q.data, n_heads, seq_len)
                _accum(k, _rows(np.matmul(qh.swapaxes(-1, -2), ds).swapaxes(-1, -2)))

    return _node(_rows(np.matmul(attn, _heads(v.data, n_heads, seq_len))),
                 (q, k, v), bwd, "causal_attention")


# ---------------------------------------------------------------------------
# normalization / loss


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Row-wise layer normalization with per-feature gain and bias."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    if x.ndim != 2:
        raise ShapeError(f"layer_norm expects a 2-d tensor, got {x.shape}")
    d = x.shape[1]
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    data = xc * inv  # xhat, scaled and shifted in place
    data *= gain.data
    data += bias.data

    def bwd(g):
        if x.requires_grad:
            # dxhat inv + dvar 2 xc / d + dmu / d, summed in that order
            dxhat = g * gain.data
            dvar = (dxhat * xc).sum(axis=1, keepdims=True) * (-0.5) * inv ** 3
            dx = dxhat * inv
            dmu = -dx.sum(axis=1, keepdims=True)
            centred = dvar * 2.0 * xc
            centred /= d
            dx += centred
            dx += dmu / d
            _accum(x, dx)
        if gain.requires_grad:
            _accum(gain, (g * (xc * inv)).sum(axis=0))
        if bias.requires_grad:
            _accum(bias, g.sum(axis=0))

    return _node(data, (x, gain, bias), bwd, "layer_norm")


def cross_entropy_rows(logits: Tensor, targets) -> Tensor:
    """Mean token-level cross-entropy (natural log) of 2-d logits."""
    logits = _wrap(logits)
    t = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2 or t.ndim != 1 or t.shape[0] != logits.shape[0]:
        raise ShapeError(f"cross_entropy shapes {logits.shape} vs targets {t.shape}")
    if t.min() < 0 or t.max() >= logits.shape[1]:
        raise DomainError("target id outside the vocabulary")
    n = logits.shape[0]
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    data = np.asarray(-logp[np.arange(n), t].mean())

    def bwd(g):
        p = np.exp(logp)
        p[np.arange(n), t] -= 1.0
        _accum(logits, g * p / n)

    return _node(data, (logits,), bwd, "cross_entropy")


# ---------------------------------------------------------------------------
# verification


def finite_difference_check(f: Callable[[Tensor], Tensor], x: Tensor,
                            step: float = 1e-6) -> float:
    """Max relative error between analytic and central-difference gradients.

    The error at each coordinate is |analytic - numeric| / max(1, |analytic|);
    `f` must be deterministic and return a scalar tensor.
    """
    if step <= 0:
        raise DomainError(f"step must be positive, got {step}")
    probe = Tensor(x.data.copy(), requires_grad=True)
    loss = f(probe)
    backward(loss)
    analytic = np.zeros_like(probe.data) if probe.grad is None else probe.grad.copy()
    flat = probe.data.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(probe).item()
        flat[i] = orig - step
        lo = f(probe).item()
        flat[i] = orig
        numeric = (hi - lo) / (2.0 * step)
        a = analytic.reshape(-1)[i]
        err = abs(a - numeric) / max(1.0, abs(a))
        worst = max(worst, err)
    return worst
