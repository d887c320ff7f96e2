"""The adapter zoo: linear LoRA, gated non-linear CeRA, and a module-level
parallel bottleneck, with shared init, parameter counting, and merge support.

All three share the two-matrix bottleneck state (w_up projects into the rank-r
latent, w_down projects back out) and differ in activation, dropout, scaling,
and insertion point. The down-projection starts at zero, so every freshly
initialized adapter is an exact no-op.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import tensor as T
from .errors import ConfigError, NotMergeableError, ShapeError
from .tensor import RngState, Tensor

KINDS = ("lora", "cera", "parallel_module")
WEIGHT_LEVEL_KINDS = ("lora", "cera")
TARGETS = ("Wq", "Wv")


@dataclass
class InitSpec:
    """Up-projection init: gain-scaled uniform(-1/sqrt(fan_in), 1/sqrt(fan_in))."""

    distribution: str = "uniform"
    gain: float = 1.0

    def __post_init__(self):
        if self.distribution not in ("uniform", "normal"):
            raise ConfigError(f"unknown init distribution {self.distribution!r}")


@dataclass
class AdapterConfig:
    kind: str
    r: int
    alpha: float | None = None          # None -> r (unit linear scale)
    scale_s: float | None = None        # None -> alpha / r
    activation: str | None = None       # None -> identity for lora, silu otherwise
    dropout_p: float | None = None      # None -> 0.0 for lora, 0.1 otherwise
    dropout_style: str = "elementwise"
    targets: tuple[str, ...] = ("Wq", "Wv")
    init_spec: InitSpec = field(default_factory=InitSpec)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown adapter kind {self.kind!r}")
        if self.r < 1:
            raise ConfigError(f"rank must be >= 1, got {self.r}")
        if isinstance(self.init_spec, dict):
            self.init_spec = InitSpec(**self.init_spec)
        self.targets = tuple(self.targets)
        if self.kind in WEIGHT_LEVEL_KINDS:
            if not self.targets:
                raise ConfigError("weight-level adapters need at least one target")
            unknown = set(self.targets) - set(TARGETS)
            if unknown:
                raise ConfigError(f"unknown targets {sorted(unknown)}")
        if self.kind == "lora" and self.activation not in (None, "identity"):
            raise ConfigError("lora is linear; its activation must stay 'identity'")
        if self.resolved_activation not in T.ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.resolved_activation!r}")
        if not 0.0 <= self.resolved_dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.resolved_dropout_p}")
        if self.dropout_style not in ("elementwise", "channel"):
            raise ConfigError(f"unknown dropout style {self.dropout_style!r}")

    @property
    def resolved_alpha(self) -> float:
        return float(self.r if self.alpha is None else self.alpha)

    @property
    def resolved_scale(self) -> float:
        if self.scale_s is not None:
            return float(self.scale_s)
        return self.resolved_alpha / self.r

    @property
    def resolved_activation(self) -> str:
        if self.activation is not None:
            return self.activation
        return "identity" if self.kind == "lora" else "silu"

    @property
    def resolved_dropout_p(self) -> float:
        if self.dropout_p is not None:
            return float(self.dropout_p)
        return 0.0 if self.kind == "lora" else 0.1

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["targets"] = list(self.targets)
        d["init_spec"] = {"distribution": self.init_spec.distribution,
                          "gain": self.init_spec.gain}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "AdapterConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown adapter config keys {sorted(unknown)}")
        return cls(**d)


@dataclass
class AdapterState:
    """Trainable bottleneck matrices: w_up (r x k), w_down (d x r)."""

    w_up: Tensor
    w_down: Tensor

    @property
    def params(self) -> list[Tensor]:
        return [self.w_up, self.w_down]

    def n_params(self) -> int:
        return self.w_up.size + self.w_down.size

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
    bound = cfg.init_spec.gain / np.sqrt(k)
    if cfg.init_spec.distribution == "uniform":
        w_up = rng.uniform(-bound, bound, (cfg.r, k))
    else:
        w_up = rng.normal((cfg.r, k), scale=bound)
    return AdapterState(
        w_up=Tensor(w_up, requires_grad=True),
        w_down=Tensor(np.zeros((d, cfg.r)), requires_grad=True),
    )


def _as_rows(x: Tensor) -> tuple[Tensor, bool]:
    if x.ndim == 1:
        return T.reshape(x, (1, x.shape[0])), True
    if x.ndim == 2:
        return x, False
    raise ShapeError(f"expected a vector or row matrix, got shape {x.shape}")


def _maybe_flatten(out: Tensor, was_vector: bool) -> Tensor:
    return T.reshape(out, (out.shape[1],)) if was_vector else out


def lora_delta_rows(x_rows: Tensor, st: AdapterState, cfg: AdapterConfig,
                    mode: str = "eval", rng: RngState | None = None,
                    mask: np.ndarray | None = None) -> Tensor:
    """Additive LoRA update (alpha/r) * B (A x) for a batch of row vectors;
    `mask` is a pre-drawn dropout mask (see `tensor.dropout`)."""
    lat = T.linear(x_rows, st.w_up)
    p = cfg.resolved_dropout_p
    if p > 0.0:
        lat = T.dropout(lat, p, mode, cfg.dropout_style, rng, mask)
    return cfg.resolved_alpha / cfg.r * T.linear(lat, st.w_down)


def lora_forward(x: Tensor, w0: Tensor, st: AdapterState, cfg: AdapterConfig,
                 mode: str = "eval", rng: RngState | None = None) -> Tensor:
    """h = W0 x + (alpha/r) * B (A x)."""
    if cfg.kind != "lora":
        raise ConfigError(f"lora_forward called with kind {cfg.kind!r}")
    x_rows, was_vector = _as_rows(x)
    out = T.linear(x_rows, w0) + lora_delta_rows(x_rows, st, cfg, mode, rng)
    return _maybe_flatten(out, was_vector)


def cera_delta_rows(x_rows: Tensor, st: AdapterState, cfg: AdapterConfig,
                    mode: str = "eval", rng: RngState | None = None,
                    latent_sink: list | None = None,
                    mask: np.ndarray | None = None) -> Tensor:
    """Additive gated update s * W_down(dropout(act(W_up x))) for rows.

    When `latent_sink` is given, the post-activation pre-dropout latent rows
    are appended to it as a plain array (the H matrix rows). `mask` is a
    pre-drawn dropout mask (see `tensor.dropout`).
    """
    lat = T.ACTIVATIONS[cfg.resolved_activation](T.linear(x_rows, st.w_up))
    if latent_sink is not None:
        latent_sink.append(lat.data.copy())
    p = cfg.resolved_dropout_p
    if p > 0.0:
        lat = T.dropout(lat, p, mode, cfg.dropout_style, rng, mask)
    return cfg.resolved_scale * T.linear(lat, st.w_down)


def cera_forward(x: Tensor, w0: Tensor, st: AdapterState, cfg: AdapterConfig,
                 mode: str = "eval", rng: RngState | None = None,
                 latent_sink: list | None = None) -> Tensor:
    """h = W0 x + s * W_down(dropout(act(W_up x)))."""
    if cfg.kind != "cera":
        raise ConfigError(f"cera_forward called with kind {cfg.kind!r}")
    x_rows, was_vector = _as_rows(x)
    delta = cera_delta_rows(x_rows, st, cfg, mode, rng, latent_sink)
    out = T.linear(x_rows, w0) + delta
    return _maybe_flatten(out, was_vector)


def parallel_module_forward(block_input: Tensor, block_output: Tensor,
                            st: AdapterState, cfg: AdapterConfig,
                            mode: str = "eval", rng: RngState | None = None,
                            latent_sink: list | None = None) -> Tensor:
    """Coarse variant: the same bottleneck reads the whole block's input and
    corrects its output, instead of acting inside a single projection."""
    if cfg.kind != "parallel_module":
        raise ConfigError(f"parallel_module_forward called with kind {cfg.kind!r}")
    in_rows, was_vector = _as_rows(block_input)
    out_rows, _ = _as_rows(block_output)
    delta = cera_delta_rows(in_rows, st, cfg, mode, rng, latent_sink)
    return _maybe_flatten(out_rows + delta, was_vector)


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

    def delta_rows(self, x_rows: Tensor, mode: str = "eval",
                   rng: RngState | None = None,
                   latent_sink: list | None = None,
                   mask: np.ndarray | None = None) -> Tensor:
        if self.cfg.kind == "lora":
            delta = lora_delta_rows(x_rows, self.state, self.cfg, mode, rng, mask)
            if latent_sink is not None:
                # the linear latent is A x itself (identity activation)
                latent_sink.append((x_rows.data @ self.state.w_up.data.T))
            return delta
        return cera_delta_rows(x_rows, self.state, self.cfg, mode, rng, latent_sink,
                               mask)

    def forward_rows(self, x_rows: Tensor, w0: Tensor, mode: str = "eval",
                     rng: RngState | None = None,
                     latent_sink: list | None = None) -> Tensor:
        return T.linear(x_rows, w0) + self.delta_rows(x_rows, mode, rng, latent_sink)


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
    w0_m = w0.data if isinstance(w0, Tensor) else np.asarray(w0, dtype=np.float64)
    if cfg.kind == "lora":
        merged = w0_m + (cfg.resolved_alpha / cfg.r) * (st.w_down.data @ st.w_up.data)
        return Tensor(merged)
    if cfg.kind == "cera" and cfg.resolved_activation == "identity":
        return Tensor(w0_m + cfg.resolved_scale * (st.w_down.data @ st.w_up.data))
    raise NotMergeableError(
        f"{cfg.kind} with activation {cfg.resolved_activation!r} has no "
        "input-independent update matrix to merge")
