"""Dense float64 arithmetic for the adapters, the frozen decoder and the
loss, each op as two numpy halves: a forward half that returns its rows and
what its backward reads, and a backward half that forms gradient products
from them. Four ops: the SiLU-gated two-matrix map that is both an
adapter's whole delta and the frozen FFN (`mlp_forward`/`mlp_backward`),
multi-head causal attention over (B*S, H*d) projection rows with the head
split and merge inside it, layer norm, and the cross-entropy loss.

A model writes its reverse pass out explicitly: its forward keeps what
the backward halves read, only for a training pass, and its pullback calls
them in reverse order, writing each adapter's gradient products straight
into the optimizer's flat buffer. `backward` runs such a pullback, so every
training step's reverse pass is one call. Where a block of rows feeds
several consumers, `_accum` sums their gradients into one array, in the
consumers' forward order. Weights and adapter matrices are plain float64
arrays throughout.
"""

from __future__ import annotations

from typing import Callable

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
    """The holder `model.forward` returns its output in, as `data`. It
    stays only because the benchmark's eval probe reads
    `forward(...).data`; ROADMAP item 1 deletes it along with `forward`."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        self.data = data


def _accum(total: np.ndarray, g: np.ndarray) -> None:
    """Add one more consumer's gradient `g` into `total`, the gradient of a
    block of rows that several consumers read, in place: the bits of
    `total + g`. `total` is an array the caller owns; `g` is only read."""
    total += g


def backward(pullback: Callable[[], None]) -> None:
    """Run one reverse pass: call `pullback`, which writes the adapters'
    gradients where it was told to. A training step's reverse pass is this
    one call in both model modes, so its span is the step's backward
    phase (the benchmark's step phases read it)."""
    pullback()


# ---------------------------------------------------------------------------
# the two-matrix map

# the activations the two-matrix map applies between its matrices
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
    the sigmoid of a SiLU (None otherwise): the first step of
    `mlp_forward`, and on its own what capture reads."""
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
    """The forward half of the two-matrix map: the rows
    scale * (mask * act(x w_upᵀ)) w_downᵀ of x (n,k), w_up (r,k) and
    w_down (d,r), and what the backward half reads of this pass: the hidden
    rows, the sigmoid of a SiLU (None otherwise) and the kept activations,
    mask applied. It is an adapter's delta rows, and with no mask and unit
    scale the frozen FFN. `mask` is a dropout mask as
    `model._dropout_masks` draws it, or None; a scale of 1 is no multiply.

    The two halves run the linear, activation, mask, linear, scale chain op
    for op and form each of its gradient products as the chain does, so
    both are the chain's bit for bit."""
    lat, act, sig = mlp_hidden(x, w_up, activation)
    kept = act if mask is None else act * mask
    rows = kept @ w_down.T
    if scale != 1.0:
        rows *= scale
    return rows, (lat, sig, kept)


def mlp_backward(g: np.ndarray, x: np.ndarray | None, w_up: np.ndarray,
                 w_down: np.ndarray, activation: str, mask: np.ndarray | None,
                 scale: float, saved: tuple, grads: tuple) -> None:
    """The backward half of the two-matrix map. From the gradient g of the
    rows, it forms the gradient products of x, w_up and w_down, each
    written with matmul's `out` into its array of `grads` (dx, dw_up,
    dw_down); a None entry is neither formed nor written. `saved` is what
    `mlp_forward` returned beside the rows; its kept activations are read
    only for w_down's product, and x only for w_up's. g is only read."""
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


def _keys_t(k: np.ndarray, n_heads: int, seq_len: int) -> np.ndarray:
    """The key heads of k's rows, each transposed, contiguous."""
    return np.ascontiguousarray(_heads(k, n_heads, seq_len).swapaxes(-1, -2))


def _attention_scale(q: np.ndarray, n_heads: int) -> np.float64:
    """1 / sqrt(d), d being q's width over the heads."""
    return 1.0 / np.sqrt(q.shape[1] // n_heads)


def causal_attention_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                             n_heads: int, seq_len: int
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head causal attention over (B*S, H*d) projection rows, S =
    `seq_len`: each head's softmax(q kᵀ / sqrt(d) + causal mask) v, with the
    heads' (B*S, H*d_v) output rows side by side. d is q's width over the
    heads; v may be narrower. Returns the output rows and the (B, H, S, S)
    attention weights, the one array the backward half reads beside q, k
    and v. A position attends to itself and the positions before it.

    The heads are split off the rows and merged back inside, and the ops
    and their order are those of the split, matmul, scale, mask-add,
    softmax, matmul, merge chain, so values and gradients are bit for bit
    that chain's.
    """
    if (q.ndim != 2 or k.shape != q.shape or v.ndim != 2 or v.shape[0] != q.shape[0]
            or q.shape[0] % seq_len or q.shape[1] % n_heads or v.shape[1] % n_heads):
        raise ShapeError(f"causal_attention rows {q.shape}, {k.shape}, {v.shape} do "
                         f"not split into {n_heads} heads of length-{seq_len} sequences")
    attn = np.matmul(_heads(q, n_heads, seq_len), _keys_t(k, n_heads, seq_len))
    attn *= _attention_scale(q, n_heads)
    attn += np.triu(np.full((seq_len, seq_len), -1e30), k=1)
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    return _rows(np.matmul(attn, _heads(v, n_heads, seq_len))), attn


def causal_attention_backward(g: np.ndarray, q: np.ndarray, k: np.ndarray,
                              v: np.ndarray, attn: np.ndarray, n_heads: int,
                              seq_len: int, wanted: tuple[bool, bool, bool]
                              ) -> tuple[np.ndarray | None, ...]:
    """The backward half of `causal_attention_forward`: from the gradient g
    of the output rows, the gradients of q's, k's and v's rows, each formed
    only where `wanted` (q, k, v) asks for it and None otherwise. The heads
    are split off q, k and v again rather than kept from the forward.
    g is only read."""
    want_q, want_k, want_v = wanted
    n, d_v = v.shape[0], v.shape[1] // n_heads
    g = g.reshape(n // seq_len, seq_len, n_heads, d_v).transpose(0, 2, 1, 3)
    dq = dk = dv = None
    if want_v:
        dv = _rows(np.matmul(attn.swapaxes(-1, -2), g))
    if want_q or want_k:
        ds = np.matmul(g, _heads(v, n_heads, seq_len).swapaxes(-1, -2))
        ds -= (ds * attn).sum(axis=-1, keepdims=True)
        ds *= attn
        ds *= _attention_scale(q, n_heads)
        if want_q:
            dq = _rows(np.matmul(ds, _keys_t(k, n_heads, seq_len).swapaxes(-1, -2)))
        if want_k:
            qh = _heads(q, n_heads, seq_len)
            dk = _rows(np.matmul(qh.swapaxes(-1, -2), ds).swapaxes(-1, -2))
    return dq, dk, dv


# ---------------------------------------------------------------------------
# normalization / loss


def layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray
                       ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Row-wise layer normalization with per-feature gain and bias, and what
    the backward half reads: the centred rows and each row's
    1 / sqrt(var + eps)."""
    if x.ndim != 2:
        raise ShapeError(f"layer_norm expects a 2-d array, got {x.shape}")
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    data = xc * inv  # xhat, scaled and shifted in place
    data *= gain
    data += bias
    return data, (xc, inv)


def layer_norm_backward(g: np.ndarray, gain: np.ndarray,
                        saved: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The gradient of `layer_norm_forward`'s input rows from the gradient g
    of its output rows, as a new array. Gain and bias are frozen weights,
    so their products are never formed. g is only read."""
    xc, inv = saved
    d = xc.shape[1]
    # dxhat inv + dvar 2 xc / d + dmu / d, summed in that order
    dxhat = g * gain
    dvar = (dxhat * xc).sum(axis=1, keepdims=True) * (-0.5) * inv ** 3
    dx = dxhat * inv
    dmu = -dx.sum(axis=1, keepdims=True)
    centred = dvar * 2.0 * xc
    centred /= d
    dx += centred
    dx += dmu / d
    return dx


def cross_entropy_forward(logits: np.ndarray, targets
                          ) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Mean token-level cross-entropy (natural log) of 2-d logits, and what
    the backward half reads: the log-probabilities and the target ids."""
    t = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2 or t.ndim != 1 or t.shape[0] != logits.shape[0]:
        raise ShapeError(f"cross_entropy shapes {logits.shape} vs targets {t.shape}")
    if t.min() < 0 or t.max() >= logits.shape[1]:
        raise DomainError("target id outside the vocabulary")
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    return float(-logp[np.arange(t.shape[0]), t].mean()), (logp, t)


def cross_entropy_backward(saved: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The gradient of the loss with respect to the logits: (softmax - one
    hot) / n. The loss is the root of the reverse pass, so its own
    gradient is exactly one and no multiply is made."""
    logp, t = saved
    n = t.shape[0]
    p = np.exp(logp)
    p[np.arange(n), t] -= 1.0
    p /= n
    return p


# ---------------------------------------------------------------------------
# verification


def finite_difference_check(f: Callable[[np.ndarray], float], x: np.ndarray,
                            grad: np.ndarray, step: float = 1e-6) -> float:
    """Max relative error between the gradient `grad` of the scalar `f` at
    `x` and central differences of `f`.

    The error at each coordinate is |analytic - numeric| / max(1, |analytic|).
    `f` must be deterministic; it is called with a copy of x that has one
    entry moved by +-step, and may read that array only while it runs.
    """
    if step <= 0:
        raise DomainError(f"step must be positive, got {step}")
    if grad.shape != x.shape:
        raise ShapeError(f"gradient shape {grad.shape} != point shape {x.shape}")
    probe = np.array(x, dtype=np.float64)
    flat = probe.reshape(-1)
    analytic = grad.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(probe)
        flat[i] = orig - step
        lo = f(probe)
        flat[i] = orig
        numeric = (hi - lo) / (2.0 * step)
        err = abs(analytic[i] - numeric) / max(1.0, abs(analytic[i]))
        worst = max(worst, err)
    return worst
