"""Dense float64 tensors with tape-based reverse-mode autodiff.

Deliberately small: 2-d matrix algebra, elementwise activations, dropout,
reductions, and the few structural ops a tiny transformer needs to run a
whole batch at once: head split/merge between (B*S, H*d) rows and a
(B, H, S, d) layout, and causal attention over that layout as one op.
Values are row-major numpy arrays; the tape is the implicit graph of parent
links, torn down after each backward pass.

Gradient ownership: a tensor adopts the first gradient handed to it, with
no copy, and every later contribution makes a new array (`grad + g`). A
`.grad` may therefore be the very array another tensor holds, or a view of
it; read it, never write it in place. Backward closures likewise never
write the gradient they receive.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NumericsError, ShapeError

_DEBUG_CHECKS = False


def debug_checks(enabled: bool) -> None:
    """Toggle eager NaN/Inf detection after every op (off by default)."""
    global _DEBUG_CHECKS
    _DEBUG_CHECKS = enabled


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

    def normal(self, shape, scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, scale, size=shape)

    def integers(self, low: int, high: int, shape) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def keep_mask(self, shape, keep_prob: float) -> np.ndarray:
        return (self._gen.random(size=shape) < keep_prob).astype(np.float64)

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, path={self._path})"


class Tensor:
    """A dense float64 array plus an optional gradient buffer.

    Ops on tensors record parent links and a backward closure when any
    input requires grad; `backward` on a scalar result replays them.
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

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

    # operator sugar, thin wrappers over the module-level ops
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_wrap(other, self), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return powi(self, p)


def _wrap(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _node(data: np.ndarray, parents: Sequence[Tensor],
          bwd: Callable[[np.ndarray], None], op: str) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._op = op
    rg = any(p.requires_grad for p in parents)
    out.requires_grad = rg
    out._parents = tuple(parents) if rg else ()
    out._backward = bwd if rg else None
    if _DEBUG_CHECKS and not np.all(np.isfinite(data)):
        raise NumericsError(f"non-finite values produced by op '{op}'")
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add `g` to t's gradient under the ownership rule (module doc)."""
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.zero_grad()


def backward(loss: Tensor) -> None:
    """Populate grads of every requires_grad tensor reachable from `loss`.

    The loss must be scalar (size 1). The tape is cleared afterwards:
    interior nodes drop their parent links and closures.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    # iterative topological sort; graphs can be long-chained
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
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
    if loss.requires_grad:
        loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        node._parents = ()
        node._backward = None


# ---------------------------------------------------------------------------
# arithmetic


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-d tensors.

    Backward forms the gradient product of an operand only if it requires
    grad; the same holds for `linear`, `add`, `mul`, `sub`, `mse` and
    `causal_attention`.
    """
    a, b = _wrap(a), _wrap(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes {a.shape} x {b.shape} do not agree")
    data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return _node(data, (a, b), bwd, "matmul")


def linear(x: Tensor, w: Tensor) -> Tensor:
    """Rows-times-weight product: x (n,k) @ w (d,k).T -> (n,d)."""
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


def _broadcast_bwd(t: Tensor, g: np.ndarray) -> np.ndarray:
    if t.shape == g.shape:
        return g
    # leading-axis, row-vector or scalar broadcast against the grad
    extra = g.ndim - t.ndim
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    for ax, n in enumerate(t.shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(t.shape)


def add(a: Tensor, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add shapes {a.shape} + {b.shape}") from exc

    def bwd(g):
        if a.requires_grad:
            _accum(a, _broadcast_bwd(a, g))
        if b.requires_grad:
            _accum(b, _broadcast_bwd(b, g))

    return _node(data, (a, b), bwd, "add")


def sub(a: Tensor, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        data = a.data - b.data
    except ValueError as exc:
        raise ShapeError(f"sub shapes {a.shape} - {b.shape}") from exc

    def bwd(g):
        _accum(a, _broadcast_bwd(a, g))
        if b.requires_grad:
            _accum(b, _broadcast_bwd(b, -g))

    return _node(data, (a, b), bwd, "sub")


def mul(a: Tensor, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul shapes {a.shape} * {b.shape}") from exc

    def bwd(g):
        if a.requires_grad:
            _accum(a, _broadcast_bwd(a, g * b.data))
        if b.requires_grad:
            _accum(b, _broadcast_bwd(b, g * a.data))

    return _node(data, (a, b), bwd, "mul")


def neg(a: Tensor) -> Tensor:
    a = _wrap(a)

    def bwd(g):
        _accum(a, -g)

    return _node(-a.data, (a,), bwd, "neg")


def powi(a: Tensor, p: float) -> Tensor:
    a = _wrap(a)
    data = a.data ** p

    def bwd(g):
        _accum(a, g * p * a.data ** (p - 1))

    return _node(data, (a,), bwd, "pow")


def square(a: Tensor) -> Tensor:
    return powi(a, 2.0)


# ---------------------------------------------------------------------------
# activations


def silu(x: Tensor) -> Tensor:
    """Elementwise x * sigmoid(x)."""
    x = _wrap(x)
    # 1 / (1 + exp(-x)) in one buffer; the in-place steps give the same bits
    sig = np.negative(x.data, out=np.empty_like(x.data))
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    data = x.data * sig

    def bwd(g):
        # g * sig * (1 + x (1 - sig)) in two buffers
        slope = np.subtract(1.0, sig)
        slope *= x.data
        slope += 1.0
        dx = g * sig
        dx *= slope
        _accum(x, dx)

    return _node(data, (x,), bwd, "silu")


def relu(x: Tensor) -> Tensor:
    x = _wrap(x)
    data = np.maximum(x.data, 0.0)

    def bwd(g):
        _accum(x, g * (x.data > 0.0))

    return _node(data, (x,), bwd, "relu")


def identity(x: Tensor) -> Tensor:
    x = _wrap(x)

    def bwd(g):
        _accum(x, g)

    return _node(x.data, (x,), bwd, "identity")


ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "identity": identity,
    "relu": relu,
    "silu": silu,
}


def dropout_mask(shape, p: float, rng: RngState | None) -> np.ndarray:
    """The scaled keep mask of inverted dropout: 1/(1-p) where an entry is
    kept, 0 where it is dropped."""
    if rng is None:
        raise DomainError("train-mode dropout with p > 0 requires an RngState")
    keep = 1.0 - p
    return rng.keep_mask(shape, keep) / keep


def dropout(x: Tensor, p: float, mode: str, style: str = "elementwise",
            rng: RngState | None = None, mask: np.ndarray | None = None) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-p); eval mode is identity.

    `elementwise` masks single entries; `channel` masks whole latent
    columns, one Bernoulli draw per column shared across the batch rows.
    A train-mode call draws its mask from `rng`, unless `mask` (as
    `dropout_mask` draws it, broadcastable to x) is given: then it applies
    that one and draws nothing.
    """
    x = _wrap(x)
    if not 0.0 <= p < 1.0:
        raise DomainError(f"dropout probability must be in [0, 1), got {p}")
    if mode not in ("train", "eval"):
        raise DomainError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    if style not in ("elementwise", "channel"):
        raise DomainError(f"dropout style must be 'elementwise' or 'channel', got {style!r}")
    if mode == "eval" or p == 0.0:
        return identity(x)
    if mask is None:
        if style == "elementwise":
            mask_shape = x.shape
        else:
            mask_shape = (1, x.shape[-1]) if x.ndim == 2 else (x.shape[-1],)
        mask = dropout_mask(mask_shape, p, rng)
    data = x.data * mask

    def bwd(g):
        _accum(x, g * mask)

    return _node(data, (x,), bwd, "dropout")


# ---------------------------------------------------------------------------
# reductions


def tsum(x: Tensor) -> Tensor:
    x = _wrap(x)
    data = np.asarray(x.data.sum())

    def bwd(g):
        _accum(x, np.broadcast_to(g, x.shape).copy())

    return _node(data, (x,), bwd, "sum")


def tmean(x: Tensor) -> Tensor:
    x = _wrap(x)
    n = x.size
    data = np.asarray(x.data.mean())

    def bwd(g):
        _accum(x, np.broadcast_to(g / n, x.shape).copy())

    return _node(data, (x,), bwd, "mean")


def mse(pred: Tensor, target) -> Tensor:
    """Mean over all elements of squared error against a constant target.

    One node with the ops and their order of `tmean(square(sub(...)))`, so
    the loss and its gradient are bit for bit those of that chain.
    """
    pred, target = _wrap(pred), _wrap(target)
    try:
        diff = pred.data - target.data
    except ValueError as exc:
        raise ShapeError(f"mse shapes {pred.shape} vs {target.shape}") from exc
    n = diff.size
    data = np.asarray((diff ** 2.0).mean())

    def bwd(g):
        dx = (g / n * 2.0) * diff
        _accum(pred, _broadcast_bwd(pred, dx))

    return _node(data, (pred,), bwd, "mse")


# ---------------------------------------------------------------------------
# structural ops


def reshape(x: Tensor, shape) -> Tensor:
    x = _wrap(x)
    shape = tuple(shape)
    data = x.data.reshape(shape)

    def bwd(g):
        _accum(x, g.reshape(x.shape))

    return _node(data, (x,), bwd, "reshape")


def split_heads(x: Tensor, n_heads: int, seq_len: int) -> Tensor:
    """(B*S, H*d) rows, sequence-major, -> a (B, H, S, d) head layout."""
    x = _wrap(x)
    if x.ndim != 2 or x.shape[0] % seq_len or x.shape[1] % n_heads:
        raise ShapeError(f"cannot split {x.shape} into {n_heads} heads of "
                         f"length-{seq_len} sequences")
    n, w = x.shape
    layout = (n // seq_len, seq_len, n_heads, w // n_heads)
    data = np.ascontiguousarray(x.data.reshape(layout).transpose(0, 2, 1, 3))

    def bwd(g):
        _accum(x, g.transpose(0, 2, 1, 3).reshape(n, w))

    return _node(data, (x,), bwd, "split_heads")


def merge_heads(x: Tensor) -> Tensor:
    """(B, H, S, d) -> (B*S, H*d) rows: the inverse of `split_heads`."""
    x = _wrap(x)
    if x.ndim != 4:
        raise ShapeError(f"merge_heads expects a (B, H, S, d) tensor, got {x.shape}")
    b, h, s, d = x.shape
    data = x.data.transpose(0, 2, 1, 3).reshape(b * s, h * d)

    def bwd(g):
        _accum(x, g.reshape(b, s, h, d).transpose(0, 2, 1, 3))

    return _node(data, (x,), bwd, "merge_heads")


# ---------------------------------------------------------------------------
# attention


def causal_attention(q: Tensor, k: Tensor, v: Tensor, scale: float,
                     sink: list | None = None) -> Tensor:
    """softmax(q k^T * scale + causal mask) v over (B, H, S, d) stacks.

    One node that keeps one (B, H, S, S) array, the attention weights; the
    ops and their order are those of the matmul, scale, mask-add, softmax,
    matmul chain, so values and gradients are bit for bit that chain's.
    A position attends to itself and the positions before it. When `sink`
    is given, the weights are appended to it (the op never writes them
    after returning).
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    if q.ndim != 4 or k.shape != q.shape or v.shape[:3] != q.shape[:3]:
        raise ShapeError(f"causal_attention shapes {q.shape}, {k.shape}, "
                         f"{v.shape} do not agree")
    s = q.shape[2]
    kt = np.ascontiguousarray(k.data.swapaxes(-1, -2))
    attn = np.matmul(q.data, kt)
    attn *= scale
    attn += np.triu(np.full((s, s), -1e30), k=1)
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    if sink is not None:
        sink.append(attn)

    def bwd(g):
        if v.requires_grad:
            _accum(v, np.matmul(attn.swapaxes(-1, -2), g))
        if q.requires_grad or k.requires_grad:
            ds = np.matmul(g, v.data.swapaxes(-1, -2))
            ds -= (ds * attn).sum(axis=-1, keepdims=True)
            ds *= attn
            ds *= scale
            if q.requires_grad:
                _accum(q, np.matmul(ds, kt.swapaxes(-1, -2)))
            if k.requires_grad:
                _accum(k, np.matmul(q.data.swapaxes(-1, -2), ds).swapaxes(-1, -2))

    return _node(np.matmul(attn, v.data), (q, k, v), bwd, "causal_attention")


# ---------------------------------------------------------------------------
# normalization / loss


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise layer normalization with per-feature gain and bias."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    if x.ndim != 2:
        raise ShapeError(f"layer_norm expects a 2-d tensor, got {x.shape}")
    d = x.shape[1]
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
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
