"""Adapter-only training: AdamW with decoupled decay, cosine schedule,
loss/metric evaluation, and eval-mode throughput measurement.

Only the injected adapters' tensors are ever updated; the backbone stays
bit-identical (checksum-verifiable) across a run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import (ConfigError, DictConfig, DomainError, NotMergeableError,
                     ShapeError, TrainingDiverged)
from .model import (FrozenBackbone, forward, lm_logits, merged_copy,
                    regressor_frozen, regressor_output)
from .tasks import Dataset
from .tensor import RngState, Tensor, backward, zero_grads


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
        1.0 + np.cos(np.pi * t / cfg.steps))


@dataclass
class AdamWState:
    """Moments of every parameter, the step count, and two scratch buffers
    per parameter that each update computes into."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    scratch: list[tuple[np.ndarray, np.ndarray]]
    t: int = 0


def adamw_state(params: list[Tensor]) -> AdamWState:
    return AdamWState(m=[np.zeros_like(p.data) for p in params],
                      v=[np.zeros_like(p.data) for p in params],
                      scratch=[(np.empty_like(p.data), np.empty_like(p.data))
                               for p in params])


def adamw_step(params: list[Tensor], grads: list[np.ndarray],
               state: AdamWState, lr: float, cfg: TrainConfig) -> None:
    """One bias-corrected update; weight decay is decoupled (applied to the
    parameter before the moment step, scaled by lr alone).

    Computed in place in the state's scratch buffers, in the left-to-right
    order of m += (1-b1) g, v += ((1-b2) g) g and
    p -= (lr (m/bc1)) / (sqrt(v/bc2) + eps); another grouping moves the
    last bits. The gradients are only read.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError("params, grads, and state must align")
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    for p, g, m, v, (a, b) in zip(params, grads, state.m, state.v, state.scratch):
        if p.data.shape != g.shape:
            raise ShapeError(f"grad shape {g.shape} != param shape {p.data.shape}")
        if cfg.weight_decay:
            p.data *= 1.0 - lr * cfg.weight_decay
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
        p.data -= a


def clip_global_norm(grads: list[np.ndarray], clip: float | None) -> float:
    """Scale the gradients to global norm `clip` when they exceed it; returns
    the norm before clipping. A clipped entry of `grads` is replaced by a new
    array, never scaled in place: two entries may be one shared array."""
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if clip is not None and norm > clip:
        scale = clip / norm
        grads[:] = [g * scale for g in grads]
    return norm


def _batch_loss(backbone: FrozenBackbone, data: Dataset, idx: np.ndarray,
                rng: RngState | None, frozen: np.ndarray | None) -> Tensor:
    """Mean loss over the rows `idx` of `data`, with dropout drawn from `rng`
    if one is given; `frozen` is the regressor's frozen term of all of
    `data` (None for a language model)."""
    if backbone.cfg.mode == "regressor":
        out = regressor_output(backbone, Tensor(data.inputs[idx]), rng=rng,
                               frozen=frozen[idx])
        return T.mse(out, data.targets[idx])
    logits = lm_logits(backbone, data.inputs[idx], rng=rng)
    return T.cross_entropy_rows(logits, data.targets[idx].reshape(-1))


def evaluate(backbone: FrozenBackbone, test: Dataset) -> float:
    """The training loss over every row of `test`, without dropout: the test
    MSE of a regressor, and its exp, the perplexity, of a language model."""
    if len(test) == 0:
        raise DomainError("empty split")
    regressor = backbone.cfg.mode == "regressor"
    frozen = regressor_frozen(backbone, test.inputs) if regressor else None
    loss = _batch_loss(backbone, test, np.arange(len(test)), None, frozen).item()
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
    for t in range(cfg.steps):
        idx = batch_rng.integers(0, n_train, cfg.batch_size)
        loss = _batch_loss(backbone, train, idx, drop_rng, frozen)
        loss_value = loss.item()
        if not np.isfinite(loss_value):
            raise TrainingDiverged(
                f"non-finite loss {loss_value} at step {t} (lr={cosine_lr(t, cfg):.3g})")
        zero_grads(params)
        backward(loss)
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data)
                 for p in params]
        clip_global_norm(grads, cfg.grad_clip)
        adamw_step(params, grads, opt, cosine_lr(t, cfg), cfg)
        curve.append(loss_value)
    wallclock = time.perf_counter() - started
    if curve:
        final_train = curve[-1]
    else:
        idx = np.arange(min(n_train, cfg.batch_size))
        final_train = _batch_loss(backbone, train, idx, None, frozen).item()
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
    coefficient_of_variation: float
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
    arr = np.asarray(times)
    median = float(np.median(arr))
    base_median = float(np.median(base_times))
    cv = float(arr.std() / arr.mean()) if arr.mean() > 0 else 0.0
    if backbone.cfg.mode == "regressor":
        tokens = np.asarray(batch).shape[0]
    else:
        tokens = sum(len(seq) for seq in batch)
    return ThroughputReport(
        tokens_per_second=tokens / median if median > 0 else 0.0,
        median_seconds=median,
        relative_latency=median / base_median if base_median > 0 else 1.0,
        coefficient_of_variation=cv,
        baseline=base_label,
    )
