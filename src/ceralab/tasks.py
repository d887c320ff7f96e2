"""Synthetic tasks for adapter experiments.

Two task families:

* logistic-map trajectories, rendered at 4 decimal places over a fixed
  digit vocabulary, for next-token training and the state-collapse probe;
* a nonlinear-teacher regression task whose target is the student's frozen
  map plus a small SiLU network residual. A linear weight-level adapter
  can only add a linear map of the input, so its reference level is the
  "linear floor": the test MSE of the linear map fitted to the training
  residuals by ridge least squares. It is a fitted estimate, not a bound
  on test MSE (a map fitted on the test residuals themselves scores about
  26% lower on the shipped task); a gated adapter can go below it.

`logistic_map` iterates the pure map in full precision; `logistic_map_table`
rounds each iterate to display precision before the next step, which is how
a worked 4-decimal example computes (the two diverge at the fourth step).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NumericsError
from .tensor import RngState

VOCAB = "0123456789.,"
VOCAB_SIZE = len(VOCAB)
_CHAR_TO_ID = {ch: i for i, ch in enumerate(VOCAB)}
DECIMALS = 4           # display precision of a trajectory
COLLAPSE_RUN = 3       # repeats of one displayed value that flag a collapse
R_RANGE = (2.8, 4.0)   # growth rates of the trajectory task
X0_RANGE = (0.05, 0.95)  # and its starting values
FLOOR_RIDGE = 1e-9     # stabilizes the linear floor's normal equations


def _check_logistic_args(r: float, x0: float, n: int) -> None:
    """DomainError unless r is in [0, 4], x0 in [0, 1] and n >= 0."""
    if not 0.0 <= r <= 4.0:
        raise DomainError(f"growth rate must be in [0, 4], got {r}")
    if not 0.0 <= x0 <= 1.0:
        raise DomainError(f"x0 must be in [0, 1], got {x0}")
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")


def logistic_map(r: float, x0: float, n: int) -> np.ndarray:
    """x0 followed by n iterates of x -> r x (1 - x)."""
    _check_logistic_args(r, x0, n)
    traj = np.empty(n + 1)
    traj[0] = x0
    for i in range(n):
        traj[i + 1] = r * traj[i] * (1.0 - traj[i])
    return traj


def logistic_map_table(r: float, x0: float, n: int) -> np.ndarray:
    """Trajectory as written out step by step at fixed display precision.

    Each iterate is rounded to `DECIMALS` places before feeding the next
    step, exactly as a worked example printed at 4 decimals computes it.
    This also makes the displayed next value a function of the displayed
    prefix, which is what the next-token task needs.
    """
    _check_logistic_args(r, x0, n)
    traj = np.empty(n + 1)
    traj[0] = round(x0, DECIMALS)
    for i in range(n):
        traj[i + 1] = round(r * traj[i] * (1.0 - traj[i]), DECIMALS)
    return traj


def render_trajectory(values) -> str:
    return ",".join(format(v, ".4f") for v in values)


def tokenize_trajectory(values) -> np.ndarray:
    return np.array([_CHAR_TO_ID[ch] for ch in render_trajectory(values)],
                    dtype=np.int64)


def detect_state_collapse(values) -> tuple[bool, float | None]:
    """Flag any value repeating `COLLAPSE_RUN`+ consecutive steps at display
    precision."""
    shown = [format(v, ".4f") for v in values]
    run = 1
    for prev, cur in zip(shown, shown[1:]):
        run = run + 1 if cur == prev else 1
        if run >= COLLAPSE_RUN:
            return True, float(cur)
    return False, None


@dataclass
class Dataset:
    """One split of a task; generation is pure in (task parameters, seed)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __len__(self) -> int:
        return len(self.inputs)


def trajectory_sequences(n_steps: int = 8, count: int = 64,
                         seed: int = 0) -> tuple[Dataset, Dataset]:
    """Tokenized logistic trajectories with next-token targets, 80/20 split;
    growth rates are drawn from `R_RANGE` and starting values from
    `X0_RANGE`."""
    rng = RngState(seed, 100)
    seqs = []
    for _ in range(count):
        r = rng.uniform(*R_RANGE, ())
        x0 = rng.uniform(*X0_RANGE, ())
        seqs.append(tokenize_trajectory(
            logistic_map_table(float(r), float(x0), n_steps)))
    seqs = np.stack(seqs)
    order = rng.permutation(count)
    n_test = max(1, count // 5)
    test_idx = np.sort(order[:n_test])
    train_idx = np.sort(order[n_test:])

    def split_of(idx):
        chunk = seqs[idx]
        return Dataset(inputs=chunk[:, :-1], targets=chunk[:, 1:])

    return split_of(train_idx), split_of(test_idx)


def _silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


@dataclass
class Teacher:
    """Fixed random one-hidden-layer SiLU network; T(0) = 0."""

    u: np.ndarray  # hidden x in_dim
    v: np.ndarray  # out_dim x hidden

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return _silu(np.asarray(x) @ self.u.T) @ self.v.T


def nonlinear_teacher(seed: int, in_dim: int, out_dim: int,
                      hidden: int = 32, preact_scale: float = 1.5) -> Teacher:
    """Teacher whose residual is provably non-affine (SiLU curvature).

    `preact_scale` sets the hidden pre-activation standard deviation for
    unit-variance inputs, keeping the network well inside SiLU's curved
    regime rather than its asymptotically linear tails.
    """
    if min(in_dim, out_dim, hidden) < 1:
        raise DomainError("teacher dims must be >= 1")
    rng = RngState(seed, 200)
    u = rng.normal((hidden, in_dim), scale=preact_scale / np.sqrt(in_dim))
    v = rng.normal((out_dim, hidden), scale=1.0 / np.sqrt(hidden))
    return Teacher(u=u, v=v)


@dataclass
class TeacherTask:
    """Regression datasets plus the residuals the floor oracle needs.

    Targets are frozen(X) + scale * teacher(X); the residual arrays hold
    exactly the scaled teacher part, so `linear_floor` can regress them on
    the raw inputs.
    """

    train: Dataset
    test: Dataset
    residual_train: np.ndarray
    residual_test: np.ndarray


def make_teacher_task(frozen_fn: Callable[[np.ndarray], np.ndarray],
                      teacher: Teacher, in_dim: int, n_train: int = 512,
                      n_test: int = 512, seed: int = 0,
                      residual_share: float = 0.25) -> TeacherTask:
    """Sample standard-normal inputs and blend the teacher residual in.

    The residual is rescaled so it carries `residual_share` of the total
    target variance, keeping both adapter families in a sensitive regime.
    """
    if not 0.0 < residual_share < 1.0:
        raise DomainError("residual share must be in (0, 1)")
    rng = RngState(seed, 300)
    x_all = rng.normal((n_train + n_test, in_dim))
    frozen = frozen_fn(x_all)
    raw_residual = teacher(x_all)
    var_frozen = float(frozen.var())
    var_res = float(raw_residual.var())
    if var_res == 0.0:
        scale = 0.0
    else:
        scale = float(np.sqrt(residual_share * var_frozen
                              / ((1.0 - residual_share) * var_res)))
    residual = scale * raw_residual
    targets = frozen + residual
    order = rng.permutation(n_train + n_test)
    tr, te = np.sort(order[:n_train]), np.sort(order[n_train:])
    return TeacherTask(
        train=Dataset(inputs=x_all[tr], targets=targets[tr]),
        test=Dataset(inputs=x_all[te], targets=targets[te]),
        residual_train=residual[tr], residual_test=residual[te])


def linear_floor_xr(x_train: np.ndarray, r_train: np.ndarray,
                    x_test: np.ndarray, r_test: np.ndarray) -> float:
    """Test MSE of the train-optimal linear map fitting residuals on inputs.

    Solves min_L ||R - X L^T||^2 on the training split by ridge-stabilized
    normal equations and scores L on the test split. This is the level a
    full-rank linear adapter trained to its optimum would reach, up to
    train/test sampling noise; it is not a lower bound on test MSE.
    """
    gram = x_train.T @ x_train + FLOOR_RIDGE * np.eye(x_train.shape[1])
    try:
        lt = np.linalg.solve(gram, x_train.T @ r_train)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"normal equations singular beyond ridge rescue: {exc}")
    return float(np.mean((r_test - x_test @ lt) ** 2))


def linear_floor(task: TeacherTask) -> float:
    return linear_floor_xr(task.train.inputs, task.residual_train,
                           task.test.inputs, task.residual_test)
