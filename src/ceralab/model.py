"""Tiny frozen decoder with weight-level adapter injection.

Two operating modes share one weight set:

* ``language_model``: standard causally-masked pre-norm blocks over a fixed
  numeric vocabulary, run over a whole batch at once: every projection,
  adapter, layer norm and FFN acts on the (batch*seq, d) token rows, and
  attention runs once per layer in a (batch, heads, seq, d_head) layout.
  `lm_logits` returns the logits as (batch*seq, vocab) rows, and `forward`
  reshapes them to (batch, seq, vocab).
* ``regressor``: one block applied to plain feature vectors, with the
  attention and FFN branches reading the raw input in parallel and no layer
  norm. Every adapter then contributes additively through purely linear
  downstream maps, so a linear adapter's whole effect is a linear map of
  the input (which the teacher task's linear floor fits by least squares),
  and the output can be computed as a frozen term (constant per input row)
  plus one product per adapter. A single
  position attends only to itself, so the softmax is identically one and
  the query path drops out; regression experiments therefore target Wv.

The value projection is allowed to be rectangular (v_out_dim < d_model),
mirroring grouped-query-style asymmetry, and Wo folds it back.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .adapters import Adapter, merge_linear
from .errors import ConfigError, DomainError, NotMergeableError, ShapeError
from .tensor import RngState, Tensor

INJECTION_TARGETS = ("Wq", "Wv", "attn_block")


@dataclass
class ModelConfig:
    d_model: int = 64
    n_heads: int = 4
    d_head: int = 16
    n_layers: int = 2
    vocab_size: int = 32        # regression output width in regressor mode
    max_seq_len: int = 64
    v_out_dim: int = 32
    mode: str = "language_model"

    def __post_init__(self):
        dims = (self.d_model, self.n_heads, self.d_head, self.n_layers,
                self.vocab_size, self.max_seq_len, self.v_out_dim)
        if any(d < 1 for d in dims):
            raise ConfigError("all model dimensions must be >= 1")
        if self.mode not in ("language_model", "regressor"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.v_out_dim % self.n_heads != 0:
            raise ConfigError("v_out_dim must be divisible by n_heads")
        if self.mode == "regressor" and self.n_layers != 1:
            raise ConfigError("regressor mode uses exactly one block")

    @property
    def qk_dim(self) -> int:
        return self.n_heads * self.d_head

    @property
    def d_ff(self) -> int:
        return 4 * self.d_model

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown model config keys {sorted(unknown)}")
        return cls(**d)


_LAYER_TENSORS = ("Wq", "Wk", "Wv", "Wo", "W1", "W2",
                  "ln1_g", "ln1_b", "ln2_g", "ln2_b")


class FrozenBackbone:
    """Frozen weights plus the registry of injected adapters."""

    def __init__(self, cfg: ModelConfig, tok_emb, pos_emb, layers,
                 ln_f_g, ln_f_b, head):
        self.cfg = cfg
        self.tok_emb = tok_emb
        self.pos_emb = pos_emb
        self.layers = layers
        self.ln_f_g = ln_f_g
        self.ln_f_b = ln_f_b
        self.head = head
        self.adapters: dict[tuple[int, str], Adapter] = {}
        # regressor mode: head·Wo carries a Wv adapter's delta to the output;
        # the frozen weights are never written, so it is computed once here
        self.carry = (Tensor(head.data @ layers[0]["Wo"].data)
                      if cfg.mode == "regressor" else None)

    def frozen_tensors(self) -> list[tuple[str, Tensor]]:
        named = [("tok_emb", self.tok_emb), ("pos_emb", self.pos_emb)]
        for i, layer in enumerate(self.layers):
            named.extend((f"layer{i}.{k}", layer[k]) for k in _LAYER_TENSORS)
        named.extend([("ln_f_g", self.ln_f_g), ("ln_f_b", self.ln_f_b),
                      ("head", self.head)])
        return named

    def checksum(self) -> str:
        h = hashlib.sha256()
        for name, t in self.frozen_tensors():
            h.update(name.encode())
            h.update(t.data.tobytes())
        return h.hexdigest()

    def adapter_params(self) -> list[Tensor]:
        out = []
        for key in sorted(self.adapters):
            out.extend(self.adapters[key].params)
        return out

    def trainable_param_count(self) -> int:
        return sum(p.size for p in self.adapter_params())


def _uniform_matrix(rng: RngState, d: int, k: int) -> Tensor:
    bound = 1.0 / np.sqrt(k)
    return Tensor(rng.uniform(-bound, bound, (d, k)))


def build_model(cfg: ModelConfig, seed: int) -> FrozenBackbone:
    """Deterministic scaled-uniform init; every tensor stays frozen."""
    rng = RngState(seed, 0)
    tok_emb = _uniform_matrix(rng, cfg.vocab_size, cfg.d_model)
    pos_emb = _uniform_matrix(rng, cfg.max_seq_len, cfg.d_model)
    layers = []
    for _ in range(cfg.n_layers):
        layers.append({
            "Wq": _uniform_matrix(rng, cfg.qk_dim, cfg.d_model),
            "Wk": _uniform_matrix(rng, cfg.qk_dim, cfg.d_model),
            "Wv": _uniform_matrix(rng, cfg.v_out_dim, cfg.d_model),
            "Wo": _uniform_matrix(rng, cfg.d_model, cfg.v_out_dim),
            "W1": _uniform_matrix(rng, cfg.d_ff, cfg.d_model),
            "W2": _uniform_matrix(rng, cfg.d_model, cfg.d_ff),
            "ln1_g": Tensor(np.ones(cfg.d_model)),
            "ln1_b": Tensor(np.zeros(cfg.d_model)),
            "ln2_g": Tensor(np.ones(cfg.d_model)),
            "ln2_b": Tensor(np.zeros(cfg.d_model)),
        })
    ln_f_g = Tensor(np.ones(cfg.d_model))
    ln_f_b = Tensor(np.zeros(cfg.d_model))
    head = _uniform_matrix(rng, cfg.vocab_size, cfg.d_model)
    return FrozenBackbone(cfg, tok_emb, pos_emb, layers, ln_f_g, ln_f_b, head)


def adapter_shape(cfg: ModelConfig, target: str) -> tuple[int, int]:
    """(d, k) of the matrix an adapter at `target` wraps."""
    if target == "Wq":
        return cfg.qk_dim, cfg.d_model
    if target == "Wv":
        return cfg.v_out_dim, cfg.d_model
    if target == "attn_block":
        return cfg.d_model, cfg.d_model
    raise ConfigError(f"unknown injection target {target!r}")


def inject(backbone: FrozenBackbone, layer_index: int, target: str,
           adapter: Adapter) -> None:
    """Route one projection (or the whole attention block) through `adapter`."""
    if not 0 <= layer_index < backbone.cfg.n_layers:
        raise ConfigError(f"layer index {layer_index} out of range")
    if target not in INJECTION_TARGETS:
        raise ConfigError(f"unknown injection target {target!r}")
    if (layer_index, target) in backbone.adapters:
        raise ConfigError(f"adapter already injected at layer {layer_index}, {target}")
    weight_level = target in ("Wq", "Wv")
    if weight_level != (adapter.cfg.kind in ("lora", "cera")):
        raise ConfigError(
            f"kind {adapter.cfg.kind!r} cannot be injected at target {target!r}")
    d, k = adapter_shape(backbone.cfg, target)
    if adapter.state.w_up.shape != (adapter.cfg.r, k) or \
            adapter.state.w_down.shape != (d, adapter.cfg.r):
        raise ConfigError(
            f"adapter state shaped {adapter.state.w_up.shape}/{adapter.state.w_down.shape} "
            f"does not fit target {target!r} needing ({adapter.cfg.r},{k})/({d},{adapter.cfg.r})")
    backbone.adapters[(layer_index, target)] = adapter


def _proj(backbone: FrozenBackbone, layer: int, target: str, x_rows: Tensor,
          mode: str, masks: dict, trace: dict | None) -> Tensor:
    w0 = backbone.layers[layer][target]
    adapter = backbone.adapters.get((layer, target))
    base = T.linear(x_rows, w0)
    if adapter is None:
        return base
    key = (layer, target)
    return base + _adapter_delta(adapter, key, x_rows, mode, trace,
                                 mask=masks.get(key))


def _adapter_delta(adapter: Adapter, key, x_rows: Tensor, mode: str,
                   trace: dict | None, rng: RngState | None = None,
                   mask: np.ndarray | None = None) -> Tensor:
    """An adapter's delta rows; the trace, if given, keeps its latent and
    delta rows under `key`."""
    if trace is None:
        return adapter.delta_rows(x_rows, mode, rng, mask=mask)
    latent_sink = trace.setdefault("latents", {}).setdefault(key, [])
    delta = adapter.delta_rows(x_rows, mode, rng, latent_sink, mask)
    trace.setdefault("deltas", {}).setdefault(key, []).append(delta.data.copy())
    return delta


def _dropout_masks(backbone: FrozenBackbone, n_seq: int, seq_len: int,
                   mode: str, rng: RngState | None) -> dict:
    """Every adapter's dropout mask for a batch, as (n_seq*seq_len, r) rows.

    Masks are drawn sequence by sequence, then layer by layer, then in
    injection-target order, so each sequence gets, bit for bit, the masks
    it would draw if run on its own. `channel` style draws one mask per
    sequence, shared by its positions. Outside train mode nothing is drawn.
    """
    if mode != "train":
        return {}
    keys = [(layer, target) for layer in range(backbone.cfg.n_layers)
            for target in INJECTION_TARGETS
            if (layer, target) in backbone.adapters
            and backbone.adapters[(layer, target)].cfg.resolved_dropout_p > 0.0]
    drawn: dict = {key: [] for key in keys}
    for _ in range(n_seq):
        for key in keys:
            cfg = backbone.adapters[key].cfg
            rows = seq_len if cfg.dropout_style == "elementwise" else 1
            drawn[key].append(np.broadcast_to(
                T.dropout_mask((rows, cfg.r), cfg.resolved_dropout_p, rng),
                (seq_len, cfg.r)))
    return {key: np.concatenate(parts) for key, parts in drawn.items()}


def _lm_block(backbone: FrozenBackbone, layer: int, x: Tensor, seq_len: int,
              mode: str, masks: dict, trace: dict | None) -> Tensor:
    """One pre-norm block over the (batch*seq, d) rows of a batch."""
    cfg = backbone.cfg
    ws = backbone.layers[layer]
    xn = T.layer_norm(x, ws["ln1_g"], ws["ln1_b"])
    q = T.split_heads(_proj(backbone, layer, "Wq", xn, mode, masks, trace),
                      cfg.n_heads, seq_len)
    k = T.split_heads(T.linear(xn, ws["Wk"]), cfg.n_heads, seq_len)
    v = T.split_heads(_proj(backbone, layer, "Wv", xn, mode, masks, trace),
                      cfg.n_heads, seq_len)
    sink = None if trace is None else trace.setdefault("attention", [])
    heads = T.causal_attention(q, k, v, 1.0 / np.sqrt(cfg.d_head), sink)
    attn_out = T.linear(T.merge_heads(heads), ws["Wo"])
    module = backbone.adapters.get((layer, "attn_block"))
    if module is not None:
        key = (layer, "attn_block")
        attn_out = attn_out + _adapter_delta(module, key, xn, mode, trace,
                                             mask=masks.get(key))
    x = x + attn_out
    xn2 = T.layer_norm(x, ws["ln2_g"], ws["ln2_b"])
    ff = T.linear(T.silu(T.linear(xn2, ws["W1"])), ws["W2"])
    return x + ff


def lm_logits(backbone: FrozenBackbone, tokens, mode: str = "eval",
              rng: RngState | None = None, trace: dict | None = None) -> Tensor:
    """Logits (batch*seq x vocab) of a (batch, seq) token array, one row per
    token, sequence by sequence; a 1-d sequence is a batch of one.

    The trace, if given, collects each layer's (batch, heads, seq, seq)
    attention weights and each adapter's latent and delta rows.
    """
    cfg = backbone.cfg
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.ndim == 1:
        ids = ids[None, :]
    if ids.ndim != 2 or ids.shape[1] == 0:
        raise ShapeError(f"expected a (batch, seq) token array, got shape {ids.shape}")
    n_seq, seq_len = ids.shape
    if seq_len > cfg.max_seq_len:
        raise DomainError(f"sequence length {seq_len} exceeds max {cfg.max_seq_len}")
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise DomainError("token id outside the vocabulary")
    masks = _dropout_masks(backbone, n_seq, seq_len, mode, rng)
    x = Tensor((backbone.tok_emb.data[ids] + backbone.pos_emb.data[:seq_len])
               .reshape(n_seq * seq_len, cfg.d_model))
    for layer in range(cfg.n_layers):
        x = _lm_block(backbone, layer, x, seq_len, mode, masks, trace)
    xf = T.layer_norm(x, backbone.ln_f_g, backbone.ln_f_b)
    return T.linear(xf, backbone.head)


def regressor_frozen(backbone: FrozenBackbone, features) -> np.ndarray:
    """Adapter-free regressor output head(x + Wo Wv x + FFN(x)) in plain numpy.

    The ops and their order are those of the tape, so the result is bit for
    bit what the frozen model computes. It depends on the rows alone, so a
    caller that revisits the same rows computes it once.
    """
    ws = backbone.layers[0]
    x = np.ascontiguousarray(features, dtype=np.float64)
    attn_out = (x @ ws["Wv"].data.T) @ ws["Wo"].data.T
    pre = x @ ws["W1"].data.T
    ff = (pre * (1.0 / (1.0 + np.exp(-pre)))) @ ws["W2"].data.T
    return (x + attn_out + ff) @ backbone.head.data.T


def regressor_output(backbone: FrozenBackbone, features, mode: str = "eval",
                     rng: RngState | None = None, trace: dict | None = None,
                     frozen: np.ndarray | None = None) -> Tensor:
    """Regression head over parallel attention/FFN branches (see module doc).

    Everything downstream of an adapter is linear, so the output is the
    frozen term plus each adapter's delta carried to the output in one
    product: a Wv adapter's through head·Wo (the backbone's `carry`,
    computed once per backbone), a module adapter's through head. `frozen`
    is `regressor_frozen` of these rows when the caller already holds it;
    otherwise it is computed here.
    """
    cfg = backbone.cfg
    x = features if isinstance(features, Tensor) else Tensor(features)
    if x.ndim != 2 or x.shape[1] != cfg.d_model:
        raise ShapeError(f"features must be (n, {cfg.d_model}), got {x.shape}")
    out = Tensor(regressor_frozen(backbone, x.data) if frozen is None else frozen)
    for target in ("Wv", "attn_block"):
        adapter = backbone.adapters.get((0, target))
        if adapter is None:
            continue
        delta = _adapter_delta(adapter, (0, target), x, mode, trace, rng=rng)
        to_output = backbone.carry if target == "Wv" else backbone.head
        out = out + T.linear(delta, to_output)
    return out


def forward(backbone: FrozenBackbone, inputs, mode: str = "eval",
            rng: RngState | None = None, trace: dict | None = None) -> Tensor:
    """Dispatch on the configured mode.

    Language model: `inputs` is a batch of equal-length token sequences;
    returns the (batch*seq, vocab) rows of `lm_logits` reshaped to a
    (batch, seq, vocab) tensor. Regressor: `inputs` is a feature
    matrix; returns (n, vocab_size) outputs.
    """
    if backbone.cfg.mode == "regressor":
        return regressor_output(backbone, inputs, mode, rng, trace)
    if len(inputs) == 0:
        return Tensor(np.zeros((0, 0, backbone.cfg.vocab_size)))
    try:
        ids = np.asarray(inputs, dtype=np.int64)
    except ValueError as exc:
        raise ShapeError("batched sequences must share one length") from exc
    if ids.ndim != 2:
        raise ShapeError(f"expected a batch of token sequences, got shape {ids.shape}")
    logits = lm_logits(backbone, ids, mode, rng, trace)
    return T.reshape(logits, (*ids.shape, backbone.cfg.vocab_size))


def collect_latents(backbone: FrozenBackbone, inputs, which: str = "latent_H"):
    """Stack per-token adapter latents (H) or output contributions (D).

    Runs in eval mode (dropout off). Rows from every injected adapter are
    concatenated; mixed output widths are rejected for D.
    """
    if which not in ("latent_H", "output_delta_D"):
        raise ConfigError(f"unknown collection {which!r}")
    if not backbone.adapters:
        raise ConfigError("no adapter injected; nothing to collect")
    trace: dict = {}
    forward(backbone, inputs, mode="eval", rng=None, trace=trace)
    source = trace.get("latents" if which == "latent_H" else "deltas", {})
    blocks = []
    for key in sorted(source):
        blocks.extend(source[key])
    if not blocks:
        raise ConfigError("forward pass produced no adapter activations")
    widths = {b.shape[1] for b in blocks}
    if len(widths) != 1:
        raise ShapeError(f"cannot stack contributions of mixed widths {sorted(widths)}")
    return Tensor(np.concatenate(blocks, axis=0))


def merged_copy(backbone: FrozenBackbone) -> FrozenBackbone:
    """New backbone with every linear adapter folded into its weight.

    Raises NotMergeableError if any injected adapter is non-linear.
    """
    if any(target == "attn_block" for _, target in backbone.adapters):
        raise NotMergeableError("module-level adapters cannot fold into one matrix")
    layers = []
    for i, layer in enumerate(backbone.layers):
        copied = dict(layer)
        for target in ("Wq", "Wv"):
            adapter = backbone.adapters.get((i, target))
            if adapter is not None:
                copied[target] = merge_linear(layer[target], adapter.state, adapter.cfg)
        layers.append(copied)
    return FrozenBackbone(backbone.cfg, backbone.tok_emb, backbone.pos_emb, layers,
                          backbone.ln_f_g, backbone.ln_f_b, backbone.head)
