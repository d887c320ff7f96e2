"""The adapter zoo: linear LoRA, gated non-linear CeRA, and a module-level
parallel bottleneck, with shared init, parameter counting, and merge support.

All three share the two-matrix bottleneck state (w_up projects into the rank-r
latent, w_down projects back out) and differ in activation, dropout, scaling,
and insertion point. They share one delta path, `Adapter.delta_rows`: the
numpy halves of `tensor.mlp_forward`/`mlp_backward`, for both model modes.
lora is its case with the identity activation, no dropout and scale
alpha/r.
The down-projection starts at zero, so every freshly initialized adapter is
an exact no-op. The two matrices are plain float64 arrays; training rebinds
them to views of the optimizer's flat buffer (`trainer.adamw_state`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .errors import ConfigError, NotMergeableError
from .spectral import delta_w_linear
from .tensor import RngState

KINDS = ("lora", "cera", "parallel_module")


@dataclass
class AdapterConfig:
    """One adapter's settings. A `None` default is settled at construction,
    once, from the kind and rank, so every reader sees a concrete value."""

    kind: str
    r: int
    alpha: float | None = None          # None -> float(r) (unit linear scale)
    scale_s: float | None = None        # None -> alpha / r; lora takes None only
    activation: str | None = None       # None -> identity for lora, silu otherwise
    dropout_p: float | None = None      # None -> 0.0 for lora, 0.1 otherwise
    dropout_style: str = "elementwise"
    init_gain: float = 1.0              # w_up ~ gain * uniform(+-1/sqrt(fan_in))

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown adapter kind {self.kind!r}")
        if self.r < 1:
            raise ConfigError(f"rank must be >= 1, got {self.r}")
        for name in ("alpha", "scale_s", "init_gain"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        lora = self.kind == "lora"
        if lora and self.activation not in (None, "identity"):
            raise ConfigError("lora is linear; its activation must stay 'identity'")
        if lora and self.scale_s is not None:
            raise ConfigError("lora scales by alpha / r; set alpha, not scale_s")
        self.alpha = float(self.r if self.alpha is None else self.alpha)
        self.scale_s = float(self.alpha / self.r if self.scale_s is None else self.scale_s)
        if self.activation is None:
            self.activation = "identity" if lora else "silu"
        if self.dropout_p is None:
            self.dropout_p = 0.0 if lora else 0.1
        if self.activation not in T.ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.dropout_style not in ("elementwise", "channel"):
            raise ConfigError(f"unknown dropout style {self.dropout_style!r}")

    @property
    def is_linear(self) -> bool:
        """Whether the update is one input-independent matrix s * B A."""
        return self.kind != "parallel_module" and self.activation == "identity"


@dataclass
class AdapterState:
    """Trainable bottleneck matrices, plain float64 arrays: w_up (r x k),
    w_down (d x r)."""

    w_up: np.ndarray
    w_down: np.ndarray

    def to_bundle(self) -> dict:
        return {name: {"shape": list(w.shape), "data": w.reshape(-1).tolist()}
                for name, w in (("w_up", self.w_up), ("w_down", self.w_down))}

    @classmethod
    def from_bundle(cls, bundle: dict) -> "AdapterState":
        """The state `to_bundle` wrote; a missing entry, or one whose data
        does not fill its shape, raises ConfigError."""
        def load(key):
            try:
                entry = bundle[key]
                return np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"adapter bundle entry {key!r} is missing or "
                                  f"malformed: {exc}") from exc

        return cls(w_up=load("w_up"), w_down=load("w_down"))


def init_adapter(cfg: AdapterConfig, d: int, k: int, rng: RngState) -> AdapterState:
    """Fresh state: scaled-uniform w_up, zero w_down (exact no-op at step 0)."""
    if cfg.r > min(d, k):
        raise ConfigError(f"rank {cfg.r} exceeds min(d, k) = {min(d, k)}")
    bound = cfg.init_gain / np.sqrt(k)
    return AdapterState(
        w_up=rng.uniform(-bound, bound, (cfg.r, k)),
        w_down=np.zeros((d, cfg.r)),
    )


class Adapter:
    """One injected adapter: config plus trainable state."""

    def __init__(self, cfg: AdapterConfig, state: AdapterState):
        self.cfg = cfg
        self.state = state

    @classmethod
    def init(cls, cfg: AdapterConfig, d: int, k: int, rng: RngState) -> "Adapter":
        return cls(cfg, init_adapter(cfg, d, k, rng))

    def latent_rows(self, x: np.ndarray) -> np.ndarray:
        """The latent rows act(W_up x) of a batch of rows, before dropout:
        the rows of the H matrix whose spectrum `latent_H` reports."""
        return T.mlp_hidden(x, self.state.w_up, self.cfg.activation)[1]

    def delta_rows(self, x: np.ndarray, mask: np.ndarray | None
                   ) -> tuple[np.ndarray, Callable]:
        """Additive update s * W_down(dropout(act(W_up x))) for a batch of
        rows x, and its pullback.

        Every kind takes this path: lora is the identity activation with
        s = alpha / r. A weight-level adapter adds the rows to its
        projection's output, a module adapter to its block's output.
        Dropout applies exactly when a `mask` is given: the adapter's
        (rows, r) block of the batch's one draw in `model._dropout_masks`.
        The scale is the config's `scale_s`, settled at construction.

        The pullback takes the rows' gradient g, a map from each adapter
        to the two arrays its w_up's and w_down's gradients go in (an
        optimizer's views of its flat gradient buffer) and an array `dx`
        shaped like x, or None. It writes w_up's and w_down's gradient
        products into their arrays and, given `dx`, x's gradient into it.
        These are `tensor.mlp_forward` and `mlp_backward`, so values and
        products are the chain's bit for bit.
        """
        cfg, w_up, w_down = self.cfg, self.state.w_up, self.state.w_down
        rows, saved = T.mlp_forward(x, w_up, w_down, cfg.activation, mask, cfg.scale_s)

        def pullback(g: np.ndarray, grads: dict, dx: np.ndarray | None) -> None:
            T.mlp_backward(g, x, w_up, w_down, cfg.activation, mask, cfg.scale_s,
                           saved, (dx, *grads[self]))

        return rows, pullback


def param_count(cfg: AdapterConfig, geometry: list[tuple[int, int, int]]) -> int:
    """Trainable parameters over the targeted geometry.

    `geometry` lists (d, k, multiplicity) per targeted matrix; every kind
    costs multiplicity * r * (d + k), so lora and cera tie at equal rank.
    """
    return sum(int(mult) * cfg.r * (int(d) + int(k)) for d, k, mult in geometry)


def merge_linear(w0: np.ndarray, st: AdapterState, cfg: AdapterConfig) -> np.ndarray:
    """Fold a linear adapter into the frozen weight; non-linear kinds refuse.

    Only updates that are a fixed matrix regardless of input can merge:
    lora always, cera only with the identity activation. The error for gated
    kinds is deliberate, not a limitation to paper over.
    """
    if not cfg.is_linear:
        raise NotMergeableError(
            f"{cfg.kind} with activation {cfg.activation!r} has no "
            "input-independent update matrix to merge")
    return w0 + delta_w_linear(st.w_up, st.w_down, cfg.scale_s)
