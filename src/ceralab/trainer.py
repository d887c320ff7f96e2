"""Adapter-only training: AdamW with decoupled decay, cosine schedule,
loss/metric evaluation, and eval-mode throughput measurement.

Only the injected adapters' tensors are ever updated; the backbone stays
bit-identical (checksum-verifiable) across a run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .errors import (ConfigError, DictConfig, DomainError, NotMergeableError,
                     ShapeError, TrainingDiverged)
from .model import (FrozenBackbone, forward, lm_logits, merged_copy,
                    regressor_frozen, regressor_output)
from .tasks import Dataset
from .tensor import RngState, Tensor, backward, zero_grads

# a run draws its batch indices a block of steps at a time, as many steps as
# fit this many bytes of int64 indices and at least one; one (k, batch) draw
# is, bit for bit, k per-step draws of the same stream
BATCH_BLOCK_BYTES = 1 << 14


@dataclass
class TrainConfig(DictConfig):
    lr_max: float = 3e-3
    lr_min: float = 3e-5
    steps: int = 5000
    batch_size: int = 32
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    seed: int = 0
    grad_clip: float | None = 1.0

    def __post_init__(self):
        if not self.lr_max >= self.lr_min >= 0.0:
            raise ConfigError("need lr_max >= lr_min >= 0")
        if self.steps < 0 or self.batch_size < 1:
            raise ConfigError("steps must be >= 0 and batch_size >= 1")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("betas must lie in [0, 1)")
        # Adam divides by sqrt(v) + eps, and w_up's first gradient is exactly
        # zero (w_down starts at zero), so eps = 0 gives 0/0 at step 1
        if not self.eps > 0.0:
            raise ConfigError(f"eps must be > 0, got {self.eps}")
        if not self.weight_decay >= 0.0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.grad_clip is not None and not self.grad_clip > 0.0:
            raise ConfigError(f"grad_clip must be > 0 (null switches clipping off), "
                              f"got {self.grad_clip}")


@dataclass
class TrainReport:
    loss_curve: list[float]
    final_train_loss: float
    test_metric: float
    wallclock_seconds: float
    tokens_per_second: float


def cosine_lr(t: int, cfg: TrainConfig) -> float:
    """lr_min + 0.5 (lr_max - lr_min) (1 + cos(pi t / steps))."""
    if not 0 <= t <= cfg.steps:
        raise DomainError(f"step {t} outside [0, {cfg.steps}]")
    if cfg.steps == 0:
        return cfg.lr_max
    return cfg.lr_min + 0.5 * (cfg.lr_max - cfg.lr_min) * (
        1.0 + math.cos(math.pi * t / cfg.steps))


@dataclass
class AdamWState:
    """Every parameter's values, gradient and moments, each in one flat
    buffer, in parameter order; `adamw_state` makes each parameter's
    `.data` a view of `data`. `bounds` are the parameters' offsets in the
    buffers, and the two scratch buffers take each update's intermediates.
    """

    data: np.ndarray
    grad: np.ndarray
    m: np.ndarray
    v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]
    bounds: list[int]
    t: int = 0


def adamw_state(params: list[Tensor]) -> AdamWState:
    """Move the parameters into one flat buffer (their values are copied,
    and each `.data` becomes a shaped view of it) and allocate the rest."""
    data = np.concatenate([p.data for p in params], axis=None)
    bounds = np.cumsum([0] + [p.size for p in params]).tolist()
    for p, lo, hi in zip(params, bounds, bounds[1:]):
        p.data = data[lo:hi].reshape(p.shape)
    return AdamWState(data=data, grad=np.empty_like(data), m=np.zeros_like(data),
                      v=np.zeros_like(data),
                      scratch=(np.empty_like(data), np.empty_like(data)),
                      bounds=bounds)


def gather_grads(params: list[Tensor], state: AdamWState) -> None:
    """Copy every parameter's gradient into the state's flat gradient
    buffer, zero for a parameter that got none. The gradients are only
    read."""
    if len(params) != len(state.bounds) - 1:
        raise ShapeError("params and state must align")
    grads = []
    for p in params:
        if p.grad is None:
            grads.append(np.zeros(p.shape))
        elif p.grad.shape != p.shape:
            raise ShapeError(f"grad shape {p.grad.shape} != param shape {p.shape}")
        else:
            grads.append(p.grad)
    np.concatenate(grads, axis=None, out=state.grad)


def clip_global_norm(state: AdamWState, clip: float | None) -> float:
    """Scale the flat gradient to global norm `clip` when it exceeds it;
    returns the norm before clipping. The squares are summed parameter by
    parameter, in parameter order, and the buffer is scaled once."""
    sq = np.multiply(state.grad, state.grad, out=state.scratch[0])
    b = state.bounds
    norm = math.sqrt(sum(float(sq[lo:hi].sum()) for lo, hi in zip(b, b[1:])))
    if clip is not None and norm > clip:
        state.grad *= clip / norm
    return norm


def adamw_step(state: AdamWState, lr: float, cfg: TrainConfig) -> None:
    """One bias-corrected update of every parameter from the flat gradient;
    weight decay is decoupled (applied to the parameter before the moment
    step, scaled by lr alone).

    Computed in place over the flat buffers, in the left-to-right order of
    m += (1-b1) g, v += ((1-b2) g) g and
    p -= (lr (m/bc1)) / (sqrt(v/bc2) + eps); another grouping moves the
    last bits. Elementwise, so one call over all parameters gives each
    parameter the bits a call of its own would.
    """
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    p, g, m, v = state.data, state.grad, state.m, state.v
    a, b = state.scratch
    if cfg.weight_decay:
        p *= 1.0 - lr * cfg.weight_decay
    m *= cfg.beta1
    np.multiply(1.0 - cfg.beta1, g, out=a)
    m += a
    v *= cfg.beta2
    np.multiply(1.0 - cfg.beta2, g, out=a)
    a *= g
    v += a
    np.divide(m, bc1, out=a)
    np.multiply(lr, a, out=a)
    np.divide(v, bc2, out=b)
    np.sqrt(b, out=b)
    b += cfg.eps
    a /= b
    p -= a


def _batch_loss(backbone: FrozenBackbone, data: Dataset, idx: np.ndarray,
                rng: RngState | None, frozen: np.ndarray | None
                ) -> tuple[float, Callable[[], None]]:
    """Mean loss over the rows `idx` of `data`, with dropout drawn from `rng`
    if one is given, and a function that backpropagates it into the
    adapters; `frozen` is the regressor's frozen term of all of `data`
    (None for a language model).

    A regressor's loss is the MSE computed off the tape, in numpy, in the
    order d = out - target, then the sum of d ** 2.0 over its n entries
    divided by n (`mean`'s bits), and its gradient with respect to the
    output, ((1/n) 2.0) d, reaches each adapter's delta rows as one product
    with the matrix that carries them to the output.
    """
    if backbone.cfg.mode == "regressor":
        out, deltas = regressor_output(backbone, data.inputs[idx], rng=rng,
                                       frozen=frozen[idx])
        diff = out - data.targets[idx]

        def backprop():
            dout = (1.0 / diff.size) * 2.0 * diff
            for delta, to_output in deltas:
                backward(delta, dout @ to_output)

        return float((diff ** 2.0).sum()) / diff.size, backprop
    loss = T.cross_entropy_rows(lm_logits(backbone, data.inputs[idx], rng=rng),
                                data.targets[idx].reshape(-1))
    return loss.item(), lambda: backward(loss)


def evaluate(backbone: FrozenBackbone, test: Dataset) -> float:
    """The training loss over every row of `test`, without dropout: the test
    MSE of a regressor, and its exp, the perplexity, of a language model.
    No tape is recorded, so each intermediate is freed once consumed."""
    if len(test) == 0:
        raise DomainError("empty split")
    regressor = backbone.cfg.mode == "regressor"
    frozen = regressor_frozen(backbone, test.inputs) if regressor else None
    with T._no_tape():
        loss, _ = _batch_loss(backbone, test, np.arange(len(test)), None, frozen)
    return loss if regressor else float(np.exp(loss))


def _tokens_in_batch(backbone: FrozenBackbone, train: Dataset,
                     batch_size: int) -> int:
    if backbone.cfg.mode == "regressor":
        return batch_size
    return batch_size * train.inputs.shape[1]


def train_adapter(backbone: FrozenBackbone, train: Dataset, test: Dataset,
                  cfg: TrainConfig) -> TrainReport:
    """Train every adapter injected into `backbone`; deterministic given
    cfg.seed. Only the training steps draw dropout. A non-finite loss aborts
    with a diagnostic rather than silently continuing. A regressor's frozen
    term of the train split is computed once, before the first step.
    """
    params = backbone.adapter_params()
    if not params:
        raise ConfigError("no adapter parameters to train")
    opt = adamw_state(params)
    batch_rng = RngState(cfg.seed).child(1)
    drop_rng = RngState(cfg.seed).child(2)
    n_train = len(train)
    curve: list[float] = []
    started = time.perf_counter()
    frozen = (regressor_frozen(backbone, train.inputs)
              if backbone.cfg.mode == "regressor" else None)
    block = max(1, BATCH_BLOCK_BYTES // (8 * cfg.batch_size))
    for t in range(cfg.steps):
        if t % block == 0:
            batches = batch_rng.integers(0, n_train, (min(block, cfg.steps - t), cfg.batch_size))
        idx = batches[t % block]
        loss_value, backprop = _batch_loss(backbone, train, idx, drop_rng, frozen)
        if not math.isfinite(loss_value):
            raise TrainingDiverged(
                f"non-finite loss {loss_value} at step {t} (lr={cosine_lr(t, cfg):.3g})")
        zero_grads(params)
        backprop()
        gather_grads(params, opt)
        clip_global_norm(opt, cfg.grad_clip)
        adamw_step(opt, cosine_lr(t, cfg), cfg)
        curve.append(loss_value)
    wallclock = time.perf_counter() - started
    if curve:
        final_train = curve[-1]
    else:
        idx = np.arange(min(n_train, cfg.batch_size))
        with T._no_tape():
            final_train, _ = _batch_loss(backbone, train, idx, None, frozen)
    tokens = cfg.steps * _tokens_in_batch(backbone, train, cfg.batch_size)
    return TrainReport(
        loss_curve=curve,
        final_train_loss=final_train,
        test_metric=evaluate(backbone, test),
        wallclock_seconds=wallclock,
        tokens_per_second=tokens / wallclock if wallclock > 0 and tokens else 0.0,
    )


@dataclass
class ThroughputReport:
    tokens_per_second: float
    median_seconds: float
    relative_latency: float
    baseline: str


def _bare_copy(backbone: FrozenBackbone) -> FrozenBackbone:
    return FrozenBackbone(backbone.cfg, backbone.tok_emb, backbone.pos_emb,
                          backbone.layers, backbone.ln_f_g, backbone.ln_f_b,
                          backbone.head)


def _forward_seconds(backbone: FrozenBackbone, batch) -> float:
    start = time.perf_counter()
    forward(backbone, batch)
    return time.perf_counter() - start


def measure_throughput(backbone: FrozenBackbone, batch,
                       repetitions: int = 9) -> ThroughputReport:
    """Median eval-forward timing vs. a merged-linear baseline.

    Linear adapters are folded for the baseline; for non-mergeable kinds the
    baseline is the bare backbone, which costs the same as any merged model.
    Adapter and baseline repetitions alternate, so a drift in host speed
    falls on both medians alike. Numbers are hardware-dependent: they are
    reported, never asserted.
    """
    try:
        base = merged_copy(backbone)
        base_label = "merged"
    except NotMergeableError:
        base = _bare_copy(backbone)
        base_label = "bare-backbone (merged-equivalent cost)"
    times, base_times = [], []
    for _ in range(repetitions):
        times.append(_forward_seconds(backbone, batch))
        base_times.append(_forward_seconds(base, batch))
    median = float(np.median(times))
    base_median = float(np.median(base_times))
    if backbone.cfg.mode == "regressor":
        tokens = np.asarray(batch).shape[0]
    else:
        tokens = sum(len(seq) for seq in batch)
    return ThroughputReport(
        tokens_per_second=tokens / median if median > 0 else 0.0,
        median_seconds=median,
        relative_latency=median / base_median if base_median > 0 else 1.0,
        baseline=base_label,
    )
