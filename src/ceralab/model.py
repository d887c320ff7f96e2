"""Tiny frozen decoder with weight-level adapter injection.

Two operating modes share one weight set:

* ``language_model``: standard causally-masked pre-norm blocks over a fixed
  numeric vocabulary, run over a whole batch at once: every projection,
  adapter, layer norm, attention and FFN acts on the (batch*seq, d) token
  rows. Attention is one tape node per layer, with its head split and
  merge inside; the FFN is one `mlp` node, the SiLU-gated two-matrix map
  an adapter's delta is, with no mask and unit scale. `lm_logits` returns
  the logits as (batch*seq, vocab) rows, and `forward` reshapes them to
  (batch, seq, vocab) off the tape.
* ``regressor``: one block applied to plain feature vectors, with the
  attention and FFN branches reading the raw input in parallel and no layer
  norm. Every adapter then contributes additively through purely linear
  downstream maps, so a linear adapter's whole effect is a linear map of
  the input (which the teacher task's linear floor fits by least squares),
  and the output can be computed as a frozen term (constant per input row)
  plus one product per adapter. Only the adapters run on the tape: the
  output rows and the loss are plain numpy, and training seeds each
  adapter's delta rows with its gradient. A single position attends only
  to itself, so the softmax is identically one and the query path drops
  out; `inject` therefore refuses a regressor a Wq adapter.

The value projection is allowed to be rectangular (v_out_dim < d_model),
mirroring grouped-query-style asymmetry, and Wo folds it back.

Adapter dropout runs exactly when a caller passes a random stream; only
training does. `forward` and `collect_latents` run without a tape (see
`tensor._no_tape`): nothing backpropagates through them. `lm_logits` and
`regressor_output` record one whenever an adapter requires grad, with a
stream or without.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .adapters import Adapter, merge_linear
from .errors import (ConfigError, DictConfig, DomainError, NotMergeableError,
                     ShapeError)
from .tensor import RngState, Tensor

INJECTION_TARGETS = ("Wq", "Wv", "attn_block")
# the only adapters a regressor accepts: its query path drops out (module doc)
REGRESSOR_TARGETS = ("Wv", "attn_block")


@dataclass
class ModelConfig(DictConfig):
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
        self.carry = (head.data @ layers[0]["Wo"].data
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
        """Every adapter's parameters, in injection order."""
        return [p for adapter in self.adapters.values() for p in adapter.params]

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
    if backbone.cfg.mode == "regressor" and target not in REGRESSOR_TARGETS:
        raise ConfigError(f"the regressor never reads a {target!r} adapter")
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
          masks: dict) -> Tensor:
    base = T.linear(x_rows, backbone.layers[layer][target])
    adapter = backbone.adapters.get((layer, target))
    if adapter is None:
        return base
    return T.add(base, adapter.delta_rows(x_rows, masks.get((layer, target))))


def _dropout_masks(backbone: FrozenBackbone, n_seq: int, seq_len: int,
                   rng: RngState | None) -> dict:
    """Every adapter's dropout mask for a batch, as (n_seq*seq_len, r) rows,
    drawn from `rng`; without a stream there is no dropout and no mask.

    The one place dropout is drawn, for both model modes; the regressor
    counts its n rows as one sequence. One call draws the batch as an
    (n_seq, total) uniform array in which each adapter with p > 0, in
    (layer, target) order, owns rows*r columns: rows is seq_len for
    `elementwise` style, 1 for `channel` style, whose one row the
    sequence's positions share. Row-major, that is the per-sequence draw
    order (sequence, adapter, row), so each sequence gets, bit for bit, the
    masks it would draw if run on its own. An entry is kept, as 1/keep,
    where its draw is below keep = 1 - p.
    """
    if rng is None:
        return {}
    blocks = []
    for key, adapter in sorted(backbone.adapters.items()):
        cfg = adapter.cfg
        if cfg.dropout_p > 0.0:
            rows = seq_len if cfg.dropout_style == "elementwise" else 1
            blocks.append((key, rows, cfg.r, 1.0 - cfg.dropout_p))
    draws = rng.random((n_seq, sum(rows * r for _, rows, r, _ in blocks)))
    masks, start = {}, 0
    for key, rows, r, keep in blocks:
        block = draws[:, start:start + rows * r]
        start += rows * r
        mask = ((block < keep) / keep).reshape(n_seq * rows, r)
        masks[key] = mask if rows == seq_len else np.repeat(mask, seq_len, axis=0)
    return masks


def _lm_block(backbone: FrozenBackbone, layer: int, x: Tensor, seq_len: int,
              masks: dict) -> tuple[Tensor, Tensor]:
    """One pre-norm block over the (batch*seq, d) rows of a batch: its output
    rows and its first layer norm's rows, which every adapter of the block
    reads."""
    ws = backbone.layers[layer]
    xn = T.layer_norm(x, ws["ln1_g"], ws["ln1_b"])
    attn = T.causal_attention(_proj(backbone, layer, "Wq", xn, masks),
                              T.linear(xn, ws["Wk"]),
                              _proj(backbone, layer, "Wv", xn, masks),
                              backbone.cfg.n_heads, seq_len)
    attn_out = T.linear(attn, ws["Wo"])
    module = backbone.adapters.get((layer, "attn_block"))
    if module is not None:
        attn_out = T.add(attn_out, module.delta_rows(xn, masks.get((layer, "attn_block"))))
    x = T.add(x, attn_out)
    xn2 = T.layer_norm(x, ws["ln2_g"], ws["ln2_b"])
    ff = T.mlp(xn2, ws["W1"], ws["W2"], "silu", None, 1.0)
    return T.add(x, ff), xn


def _lm_rows(backbone: FrozenBackbone, tokens,
             rng: RngState | None) -> tuple[Tensor, list[Tensor]]:
    """The last block's output rows (batch*seq x d) of a (batch, seq) token
    array, a 1-d sequence being a batch of one, and each layer's adapter
    input rows: that layer's first layer norm."""
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
    masks = _dropout_masks(backbone, n_seq, seq_len, rng)
    x = Tensor((backbone.tok_emb.data[ids] + backbone.pos_emb.data[:seq_len])
               .reshape(n_seq * seq_len, cfg.d_model))
    adapter_inputs = []
    for layer in range(cfg.n_layers):
        x, xn = _lm_block(backbone, layer, x, seq_len, masks)
        adapter_inputs.append(xn)
    return x, adapter_inputs


def lm_logits(backbone: FrozenBackbone, tokens,
              rng: RngState | None = None) -> Tensor:
    """Logits (batch*seq x vocab) of a (batch, seq) token array, one row per
    token, sequence by sequence; a 1-d sequence is a batch of one. Dropout
    runs exactly when a stream `rng` is given."""
    x, _ = _lm_rows(backbone, tokens, rng)
    return T.linear(T.layer_norm(x, backbone.ln_f_g, backbone.ln_f_b), backbone.head)


def regressor_frozen(backbone: FrozenBackbone, features) -> np.ndarray:
    """Adapter-free regressor output head(x + Wo Wv x + FFN(x)) in plain numpy.

    The ops and their order are those of the tape, so the result is bit for
    bit what the frozen model computes. It depends on the rows alone, so a
    caller that revisits the same rows computes it once.
    """
    ws = backbone.layers[0]
    x = np.ascontiguousarray(features, dtype=np.float64)
    attn_out = (x @ ws["Wv"].data.T) @ ws["Wo"].data.T
    ff = T.mlp_hidden(x, ws["W1"].data, "silu")[1] @ ws["W2"].data.T
    return (x + attn_out + ff) @ backbone.head.data.T


def _features(backbone: FrozenBackbone, features) -> Tensor:
    """A regressor's (n, d_model) feature rows as a tensor."""
    x = features if isinstance(features, Tensor) else Tensor(features)
    if x.ndim != 2 or x.shape[1] != backbone.cfg.d_model:
        raise ShapeError(f"features must be (n, {backbone.cfg.d_model}), got {x.shape}")
    return x


def regressor_output(backbone: FrozenBackbone, features,
                     rng: RngState | None = None,
                     frozen: np.ndarray | None = None
                     ) -> tuple[np.ndarray, list[tuple[Tensor, np.ndarray]]]:
    """Regression head over parallel attention/FFN branches (see module doc).

    Everything downstream of an adapter is frozen and linear, so the output
    is the frozen term plus each adapter's delta rows D carried to the
    output in one product D Cᵀ: a Wv adapter's through C = head·Wo (the
    backbone's `carry`, computed once per backbone), a module adapter's
    through C = head. Only the adapters run on the tape; the output rows
    are plain numpy, summed in (layer, target) order, the order in which
    `_dropout_masks` draws and `collect_latents` stacks. Returns the
    (n, vocab_size) output rows and each adapter's (D, C): a loss gradient
    G with respect to the output reaches D as G C.

    `frozen` is `regressor_frozen` of these rows when the caller already
    holds it; otherwise it is computed here. Dropout runs exactly when a
    stream `rng` is given.
    """
    x = _features(backbone, features)
    masks = _dropout_masks(backbone, 1, x.shape[0], rng)
    out = regressor_frozen(backbone, x.data) if frozen is None else frozen
    deltas = []
    for key, adapter in sorted(backbone.adapters.items()):
        delta = adapter.delta_rows(x, masks.get(key))
        to_output = backbone.carry if key[1] == "Wv" else backbone.head.data
        out = out + delta.data @ to_output.T
        deltas.append((delta, to_output))
    return out, deltas


def forward(backbone: FrozenBackbone, inputs, mode: str = "eval") -> Tensor:
    """The output without dropout (`mode` must be "eval"), by model mode.

    Language model: `inputs` is a batch of equal-length token sequences;
    returns the (batch*seq, vocab) rows of `lm_logits` reshaped to a
    (batch, seq, vocab) tensor. Regressor: `inputs` is a feature
    matrix; returns (n, vocab_size) outputs.
    """
    if mode != "eval":
        raise DomainError(f"forward runs in eval mode only, got {mode!r}")
    if backbone.cfg.mode == "regressor":
        with T._no_tape():
            return Tensor(regressor_output(backbone, inputs)[0])
    if len(inputs) == 0:
        return Tensor(np.zeros((0, 0, backbone.cfg.vocab_size)))
    try:
        ids = np.asarray(inputs, dtype=np.int64)
    except ValueError as exc:
        raise ShapeError("batched sequences must share one length") from exc
    if ids.ndim != 2:
        raise ShapeError(f"expected a batch of token sequences, got shape {ids.shape}")
    with T._no_tape():
        logits = lm_logits(backbone, ids).data
    return Tensor(logits.reshape(*ids.shape, backbone.cfg.vocab_size))


def collect_latents(backbone: FrozenBackbone, inputs, which: str = "latent_H"):
    """Stack every adapter's latent rows (H) or delta rows (D) over `inputs`.

    Each adapter is applied, without dropout, to the rows it reads: a
    regressor's adapters read the features, and a language model's adapters
    of layer l read that layer's first layer norm. The blocks stack in
    (layer, target) order, and all of them must have one width.
    """
    if which not in ("latent_H", "output_delta_D"):
        raise ConfigError(f"unknown collection {which!r}")
    if not backbone.adapters:
        raise ConfigError("no adapter injected; nothing to collect")
    blocks = []
    with T._no_tape():
        if backbone.cfg.mode == "regressor":
            reads = [_features(backbone, inputs)]
        else:
            _, reads = _lm_rows(backbone, inputs, None)
        for (layer, _), adapter in sorted(backbone.adapters.items()):
            rows = (adapter.latent_rows(reads[layer]) if which == "latent_H"
                    else adapter.delta_rows(reads[layer]))
            blocks.append(rows.data)
    widths = sorted({b.shape[1] for b in blocks})
    if len(widths) != 1:
        raise ConfigError(f"cannot stack {which} rows of mixed widths {widths}")
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
