"""Dense float64 arithmetic for the adapters, the frozen decoder and the
loss, each op as two numpy halves: a forward half that returns its rows and
what its backward reads, and a backward half that forms gradient products
from them. Four ops: the SiLU-gated two-matrix map that is both an
adapter's whole delta and the frozen FFN (`mlp_forward`/`mlp_backward`),
multi-head causal attention over (B*S, H*d) projection rows, layer norm,
and the cross-entropy loss. Attention takes its heads as strided views of
the rows, copying only the keys' transpose, which its backward half reads
in place of k, and, for k's gradient, q's heads; it runs its softmax over
the kept causal triangle only and writes the weights after each position
as exact zeros. For finite inputs it is bit for bit the masked op chain.

A model writes its reverse pass out explicitly: its forward keeps what
the backward halves read, only for a training pass, and its pullback calls
them in reverse order, writing each adapter's gradient products straight
into the optimizer's flat buffer. A backward half consumes what its
forward saved: `mlp_backward` builds a SiLU's slope in the saved sigmoid's
own buffer, so one forward feeds one backward. `backward` runs such a
pullback, so every training step's reverse pass is one call. Where a block
of rows feeds several consumers, `_accum` sums their gradients into one
array, in the consumers' forward order. Weights and adapter matrices are
plain float64 arrays throughout.

Every random number the package draws comes from `stream`, a numpy
Generator at a (seed, path) address; callers draw with its own methods.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, ShapeError

LAYER_NORM_EPS = 1e-5


def stream(seed: int, *path: int) -> np.random.Generator:
    """The deterministic random stream at address (seed, path): a PCG64
    generator keyed by numpy's SeedSequence with `path` as its spawn key.
    The same address replays the identical draws on every platform, and
    distinct paths never alias, a path and its extensions included: the
    stream at (s, 0, 2, 2) shares no draws with the one at (s, 0, 2)."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=path)))


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
    """Write g * sig * (1 + x (1 - sig)) over g, which the caller owns,
    building the slope in sig's own buffer: no more buffer, and sig is
    consumed."""
    g *= sig
    np.subtract(1.0, sig, out=sig)
    sig *= x
    sig += 1.0
    g *= sig


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
    only for w_down's product, and x only for w_up's. g, x, the hidden
    rows, the kept activations and the mask are only read; a SiLU's
    sigmoid is overwritten with its slope, so `saved` is consumed and the
    backward half runs once per forward."""
    dx, d_up, d_down = grads
    lat, sig, kept = saved
    if scale != 1.0:
        g = g * scale
    if d_down is not None:
        np.matmul(g.T, kept, out=d_down)
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
    """(B*S, H*d) rows, sequence-major, as a (B, H, S, d) stack. Of
    C-contiguous rows it is a strided view, not a copy, so writing through
    it writes the rows; a batched matmul hands each head's (S, d) block to
    BLAS with a leading dimension of H*d."""
    n, w = rows.shape
    return rows.reshape(n // seq_len, seq_len, n_heads, w // n_heads).transpose(0, 2, 1, 3)


def _rows(heads: np.ndarray) -> np.ndarray:
    """A (B, H, S, d) stack as (B*S, H*d) rows: the inverse of `_heads`."""
    b, h, s, d = heads.shape
    return heads.transpose(0, 2, 1, 3).reshape(b * s, h * d)


def _keys_t(k: np.ndarray, n_heads: int, seq_len: int) -> np.ndarray:
    """The key heads of k's rows, each transposed to (d, S), as one
    contiguous (B, H, d, S) copy: the forward's one copy of an operand,
    which the backward half reads in place of k. It keeps each product's
    BLAS transpose flags as they were; q's gradient over the untransposed
    key view moves in the last bits."""
    return np.ascontiguousarray(_heads(k, n_heads, seq_len).swapaxes(-1, -2))


def _attention_scale(keys_t: np.ndarray) -> np.float64:
    """1 / sqrt(d), d being the width of each head of the keys' copy."""
    return 1.0 / np.sqrt(keys_t.shape[-2])


@lru_cache(maxsize=8)
def _causal_masks(seq_len: int) -> tuple[np.ndarray, np.ndarray]:
    """The (S, S) causal mask of `seq_len` positions, a position's kept
    keys being itself and those before it, and its negation: read-only
    arrays built once per length."""
    kept = np.tri(seq_len, dtype=bool)
    after = ~kept
    kept.flags.writeable = after.flags.writeable = False
    return kept, after


def causal_attention_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                             n_heads: int, seq_len: int
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multi-head causal attention over (B*S, H*d) projection rows, S =
    `seq_len`: each head's softmax(q kᵀ / sqrt(d) + causal mask) v, with the
    heads' (B*S, H*d_v) output rows side by side. d is q's width over the
    heads; v may be narrower. Returns the output rows, the keys' (B, H, d,
    S) transposed copy and the (B, H, S, S) attention weights: the two
    arrays the backward half reads beside q and v. A position attends to
    itself and the positions before it.

    The softmax runs on the kept (lower) triangle of each head's scores
    only: the row max and the exp skip the positions after the query, and
    those weights are then set to exactly +0.0, which is what the exp of a
    -1e30 mask entry underflows to. The row sum and the division still run
    over the full row, zeros included, so they add in the same pairwise
    order. q's and v's heads are strided views of their rows and the
    output rows are written through such a view; only the keys' transpose
    is copied. For finite inputs the values and gradients are bit for bit
    those of the split, matmul, scale, mask-add, softmax, matmul, merge
    chain. A non-finite score after a query's position, which the chain's
    max would read, no longer reaches that query's row.
    """
    if (q.ndim != 2 or k.shape != q.shape or v.ndim != 2 or v.shape[0] != q.shape[0]
            or q.shape[0] % seq_len or q.shape[1] % n_heads or v.shape[1] % n_heads):
        raise ShapeError(f"causal_attention rows {q.shape}, {k.shape}, {v.shape} do "
                         f"not split into {n_heads} heads of length-{seq_len} sequences")
    kept, after = _causal_masks(seq_len)
    keys_t = _keys_t(k, n_heads, seq_len)
    attn = np.matmul(_heads(q, n_heads, seq_len), keys_t)
    attn *= _attention_scale(keys_t)
    attn -= attn.max(axis=-1, keepdims=True, initial=-np.inf, where=kept)
    np.exp(attn, out=attn, where=kept)
    np.copyto(attn, 0.0, where=after)
    attn /= attn.sum(axis=-1, keepdims=True)
    rows = np.empty((q.shape[0], v.shape[1]))
    np.matmul(attn, _heads(v, n_heads, seq_len), out=_heads(rows, n_heads, seq_len))
    return rows, keys_t, attn


def causal_attention_backward(g: np.ndarray, q: np.ndarray | None,
                              v: np.ndarray | None, keys_t: np.ndarray | None,
                              attn: np.ndarray, wanted: tuple[bool, bool, bool]
                              ) -> tuple[np.ndarray | None, ...]:
    """The backward half of `causal_attention_forward`: from the gradient g
    of the output rows, the gradients of q's, k's and v's rows, each formed
    only where `wanted` (q, k, v) asks for it and None otherwise. `keys_t`
    and `attn` are what the forward returned beside the rows; the heads
    and positions are read off the weights. Only the weights are read for
    v's gradient; v and the keys' copy also for q's and k's, and q only for
    k's, so an operand that is not read may be None. The heads of g and v
    are strided views of their rows, and q's heads in k's gradient a copy.
    Every operand is only read."""
    want_q, want_k, want_v = wanted
    _, n_heads, seq_len, _ = attn.shape
    g = _heads(g, n_heads, seq_len)
    dq = dk = dv = None
    if want_v:
        dv = _rows(np.matmul(attn.swapaxes(-1, -2), g))
    if want_q or want_k:
        ds = np.matmul(g, _heads(v, n_heads, seq_len).swapaxes(-1, -2))
        ds -= (ds * attn).sum(axis=-1, keepdims=True)
        ds *= attn
        ds *= _attention_scale(keys_t)
        if want_q:
            dq = _rows(np.matmul(ds, keys_t.swapaxes(-1, -2)))
        if want_k:
            qh = np.ascontiguousarray(_heads(q, n_heads, seq_len))
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
