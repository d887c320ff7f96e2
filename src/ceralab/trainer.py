"""Adapter-only training: AdamW with decoupled decay, cosine schedule,
loss/metric evaluation, and eval-mode throughput measurement.

Only the injected adapters' matrices are ever updated; the backbone stays
bit-identical (checksum-verifiable) across a run. In both model modes a
training step's loss comes with an explicit pullback, which writes every
adapter's gradient straight into its view of one flat AdamW buffer, and
the step runs it as one `tensor.backward` call.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import tensor as T
from .adapters import Adapter
from .errors import (ConfigError, DictConfig, DomainError, NotMergeableError,
                     TrainingDiverged)
from .model import (FrozenBackbone, forward, lm_logits, merged_copy,
                    regressor_frozen, regressor_output)
from .tasks import Dataset
from .tensor import backward, stream

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
    """Every adapter matrix's values, gradient and moments, each in one flat
    buffer, in injection order and w_up before w_down; `adamw_state` makes
    each adapter's two matrices views of `data`. `bounds` are the matrices'
    offsets in the buffers, `grads` maps each adapter to its (w_up, w_down)
    shaped views of `grad`, and the two scratch buffers take each update's
    intermediates.
    """

    data: np.ndarray
    grad: np.ndarray
    m: np.ndarray
    v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]
    bounds: list[int]
    grads: dict[Adapter, tuple[np.ndarray, np.ndarray]]
    t: int = 0


def adamw_state(adapters: list[Adapter]) -> AdamWState:
    """Move the adapters' matrices into one flat buffer (their values are
    copied, and each adapter's state is rebound to shaped views of it) and
    allocate the rest."""
    mats = [w for a in adapters for w in (a.state.w_up, a.state.w_down)]
    data = np.concatenate(mats, axis=None)
    grad = np.empty_like(data)
    bounds = np.cumsum([0] + [w.size for w in mats]).tolist()

    def view(buf: np.ndarray, i: int) -> np.ndarray:
        return buf[bounds[i]:bounds[i + 1]].reshape(mats[i].shape)

    grads = {}
    for i, a in enumerate(adapters):
        a.state.w_up, a.state.w_down = view(data, 2 * i), view(data, 2 * i + 1)
        grads[a] = (view(grad, 2 * i), view(grad, 2 * i + 1))
    return AdamWState(data=data, grad=grad, m=np.zeros_like(data),
                      v=np.zeros_like(data),
                      scratch=(np.empty_like(data), np.empty_like(data)),
                      bounds=bounds, grads=grads)


def clip_global_norm(state: AdamWState, clip: float | None) -> float:
    """Scale the flat gradient to global norm `clip` when it exceeds it;
    returns the norm before clipping. The squares are summed matrix by
    matrix, in buffer order, and the buffer is scaled once."""
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
    parameter the bits a call of its own would. Once bc1 is exactly 1.0
    (from t = 356 at beta1 0.9) m/bc1 is m, so the division is skipped.
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
    if bc1 == 1.0:
        np.multiply(lr, m, out=a)
    else:
        np.divide(m, bc1, out=a)
        np.multiply(lr, a, out=a)
    np.divide(v, bc2, out=b)
    np.sqrt(b, out=b)
    b += cfg.eps
    a /= b
    p -= a


def _batch_loss(backbone: FrozenBackbone, data: Dataset, idx: np.ndarray,
                rng: np.random.Generator | None, frozen: np.ndarray | None
                ) -> tuple[float, Callable | None]:
    """Mean loss over the rows `idx` of `data`, with dropout drawn from `rng`
    if one is given, and its pullback: a function of a map from each
    adapter to the two arrays its w_up's and w_down's gradients go in
    (`AdamWState.grads`, views of the optimizer's flat gradient buffer),
    into which it writes those gradients. `frozen` is the regressor's
    frozen term of all of `data` (None for a language model).

    Both modes take one shape: the model's rows and pullback
    (`model.regressor_output`, `model.lm_logits`), the loss of the rows,
    and its gradient, which the returned pullback hands to the model's;
    that pullback is None without a stream. A regressor's loss is the MSE,
    in the order d = out - target, then the sum of d ** 2.0 over its n
    entries divided by n (`mean`'s bits), with gradient ((1/n) 2.0) d; a
    language model's is the cross-entropy of its logits.
    """
    if backbone.cfg.mode == "regressor":
        rows, rows_pullback = regressor_output(backbone, data.inputs[idx], rng=rng,
                                               frozen=frozen[idx])
        diff = rows - data.targets[idx]
        loss = float((diff ** 2.0).sum()) / diff.size
        loss_grad = partial(np.multiply, (1.0 / diff.size) * 2.0, diff)
    else:
        rows, rows_pullback = lm_logits(backbone, data.inputs[idx], rng)
        loss, saved = T.cross_entropy_forward(rows, data.targets[idx].reshape(-1))
        loss_grad = partial(T.cross_entropy_backward, saved)
    if rows_pullback is None:
        return loss, None
    return loss, lambda grads: rows_pullback(loss_grad(), grads)


def evaluate(backbone: FrozenBackbone, test: Dataset) -> float:
    """The training loss over every row of `test`, without dropout: the test
    MSE of a regressor, and its exp, the perplexity, of a language model.
    Nothing is kept for a pullback, so each intermediate is freed once
    consumed."""
    if len(test) == 0:
        raise DomainError("empty split")
    regressor = backbone.cfg.mode == "regressor"
    frozen = regressor_frozen(backbone, test.inputs) if regressor else None
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
    cfg.seed. Only the training steps draw dropout. A non-finite loss or
    gradient norm, or a non-finite test metric at the end, raises
    TrainingDiverged with a diagnostic rather than passing for a result.
    A regressor's frozen term of the train split is computed once, before
    the first step.
    """
    if not backbone.adapters:
        raise ConfigError("no adapter parameters to train")
    opt = adamw_state(list(backbone.adapters.values()))
    batch_rng = stream(cfg.seed, 0, 1)
    drop_rng = stream(cfg.seed, 0, 2)
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
        loss_value, pullback = _batch_loss(backbone, train, idx, drop_rng, frozen)
        if not math.isfinite(loss_value):
            raise TrainingDiverged(
                f"non-finite loss {loss_value} at step {t} (lr={cosine_lr(t, cfg):.3g})")
        backward(partial(pullback, opt.grads))
        # an overflowing norm would scale every gradient entry by clip / inf = 0
        norm = clip_global_norm(opt, cfg.grad_clip)
        if not math.isfinite(norm):
            raise TrainingDiverged(
                f"non-finite gradient norm {norm} at step {t} (lr={cosine_lr(t, cfg):.3g})")
        adamw_step(opt, cosine_lr(t, cfg), cfg)
        curve.append(loss_value)
    wallclock = time.perf_counter() - started
    if curve:
        final_train = curve[-1]
    else:
        idx = np.arange(min(n_train, cfg.batch_size))
        final_train, _ = _batch_loss(backbone, train, idx, None, frozen)
    test_metric = evaluate(backbone, test)
    if not math.isfinite(test_metric):
        raise TrainingDiverged(f"non-finite test metric {test_metric} after "
                               f"{cfg.steps} steps")
    tokens = cfg.steps * _tokens_in_batch(backbone, train, cfg.batch_size)
    return TrainReport(
        loss_curve=curve,
        final_train_loss=final_train,
        test_metric=test_metric,
        wallclock_seconds=wallclock,
        tokens_per_second=tokens / wallclock if wallclock > 0 and tokens else 0.0,
    )


@dataclass
class ThroughputReport:
    tokens_per_second: float
    relative_latency: float
    baseline: str


def _bare_copy(backbone: FrozenBackbone) -> FrozenBackbone:
    """`backbone`'s frozen weights, shared, with no adapter injected."""
    bare = copy.copy(backbone)
    bare.adapters = {}
    return bare


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
        relative_latency=median / base_median if base_median > 0 else 1.0,
        baseline=base_label,
    )
