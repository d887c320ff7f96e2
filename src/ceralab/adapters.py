"""The adapter zoo: linear LoRA, gated non-linear CeRA, and a module-level
parallel bottleneck, with shared init, parameter counting, and merge support.

All three share the two-matrix bottleneck state (w_up projects into the rank-r
latent, w_down projects back out) and differ in activation, dropout, scaling,
and insertion point. They share one delta path, `Adapter.delta_rows`:
lora is its case with the identity activation, no dropout and scale alpha/r.
The down-projection starts at zero, so every freshly initialized adapter is
an exact no-op.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, NotMergeableError
from .spectral import delta_w_linear
from .tensor import RngState, Tensor

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
    """Trainable bottleneck matrices: w_up (r x k), w_down (d x r)."""

    w_up: Tensor
    w_down: Tensor

    @property
    def params(self) -> list[Tensor]:
        return [self.w_up, self.w_down]

    def to_bundle(self) -> dict:
        return {
            "w_up": {"shape": list(self.w_up.shape),
                     "data": self.w_up.data.reshape(-1).tolist()},
            "w_down": {"shape": list(self.w_down.shape),
                       "data": self.w_down.data.reshape(-1).tolist()},
        }

    @classmethod
    def from_bundle(cls, bundle: dict) -> "AdapterState":
        def load(key):
            entry = bundle[key]
            arr = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
            return Tensor(arr, requires_grad=True)

        return cls(w_up=load("w_up"), w_down=load("w_down"))


def init_adapter(cfg: AdapterConfig, d: int, k: int, rng: RngState) -> AdapterState:
    """Fresh state: scaled-uniform w_up, zero w_down (exact no-op at step 0)."""
    if cfg.r > min(d, k):
        raise ConfigError(f"rank {cfg.r} exceeds min(d, k) = {min(d, k)}")
    bound = cfg.init_gain / np.sqrt(k)
    return AdapterState(
        w_up=Tensor(rng.uniform(-bound, bound, (cfg.r, k)), requires_grad=True),
        w_down=Tensor(np.zeros((d, cfg.r)), requires_grad=True),
    )


class Adapter:
    """One injected adapter: config plus trainable state."""

    def __init__(self, cfg: AdapterConfig, state: AdapterState):
        self.cfg = cfg
        self.state = state

    @classmethod
    def init(cls, cfg: AdapterConfig, d: int, k: int, rng: RngState) -> "Adapter":
        return cls(cfg, init_adapter(cfg, d, k, rng))

    @property
    def params(self) -> list[Tensor]:
        return self.state.params

    def latent_rows(self, x_rows: Tensor) -> Tensor:
        """The latent rows act(W_up x) of a batch of rows, before dropout:
        the rows of the H matrix whose spectrum `latent_H` reports. Off the
        tape: capture only reads the values."""
        return Tensor(T.mlp_hidden(x_rows.data, self.state.w_up.data,
                                   self.cfg.activation)[1])

    def delta_rows(self, x_rows: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Additive update s * W_down(dropout(act(W_up x))) for a batch of
        rows, as one `mlp` node.

        Every kind takes this path: lora is the identity activation with
        s = alpha / r. A weight-level adapter adds it to its projection's
        output, a module adapter to its block's output. Dropout applies
        exactly when a `mask` is given: the adapter's (rows, r) block of the
        batch's one draw in `model._dropout_masks`. The scale is the
        config's `scale_s`, settled at construction.
        """
        return T.mlp(x_rows, self.state.w_up, self.state.w_down,
                     self.cfg.activation, mask, self.cfg.scale_s)


def param_count(cfg: AdapterConfig, geometry: list[tuple[int, int, int]]) -> int:
    """Trainable parameters over the targeted geometry.

    `geometry` lists (d, k, multiplicity) per targeted matrix; every kind
    costs multiplicity * r * (d + k), so lora and cera tie at equal rank.
    """
    return sum(int(mult) * cfg.r * (int(d) + int(k)) for d, k, mult in geometry)


def merge_linear(w0: Tensor, st: AdapterState, cfg: AdapterConfig) -> Tensor:
    """Fold a linear adapter into the frozen weight; non-linear kinds refuse.

    Only updates that are a fixed matrix regardless of input can merge:
    lora always, cera only with the identity activation. The error for gated
    kinds is deliberate, not a limitation to paper over.
    """
    if not cfg.is_linear:
        raise NotMergeableError(
            f"{cfg.kind} with activation {cfg.activation!r} has no "
            "input-independent update matrix to merge")
    w0_m = w0.data if isinstance(w0, Tensor) else np.asarray(w0, dtype=np.float64)
    return Tensor(w0_m + delta_w_linear(st.w_up, st.w_down, cfg.scale_s))
