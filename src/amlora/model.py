"""Desk-scale classifier backbones with named adapter attachment points.

Two backbones share one interface: a tiny transformer encoder over integer
token ids and an MLP over dense feature vectors. Every projection, the
classifier too, is an ``AdaptedLinear``; those named in ``adapter_sites``
are sites that can host an adapter stack and a selector, and without a
stack a linear is a plain frozen one. Init is Gaussian(0, 0.02) for
weights and zeros for biases, fully determined by (config, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .adapters import AdapterStack
from .autodiff import Tensor
from .errors import ConfigError, DimensionError
from .selector import AttentionalSelector, apply_gated

BACKBONES = ("transformer", "mlp")
ADAPTER_SITES = ("query", "key", "value", "output", "ffn")
# ModelConfig's positive-int fields, in checkpoint record order
CONFIG_INTS = ("vocab_size", "embed_dim", "num_layers", "num_heads",
               "seq_len", "num_classes", "ffn_multiplier")


def check_sites(sites) -> None:
    """The one rule for adapter site names: one or more known names."""
    if not sites or not set(sites) <= set(ADAPTER_SITES):
        raise ConfigError(f"sites must be one or more of {ADAPTER_SITES}, "
                          f"got {tuple(sites)}")


@dataclass
class ModelConfig:
    backbone: str = "transformer"
    vocab_size: int = 128
    embed_dim: int = 32
    num_layers: int = 2
    num_heads: int = 4
    seq_len: int = 16
    num_classes: int = 4
    dropout_rate: float = 0.1
    adapter_sites: tuple[str, ...] = ("query", "value")
    ffn_multiplier: int = 4

    def validate(self):
        if self.backbone not in BACKBONES:
            raise ConfigError(f"unknown backbone {self.backbone!r}")
        for name in CONFIG_INTS:
            v = getattr(self, name)
            if v < 1:
                raise ConfigError(f"{name} must be positive, got {v}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.embed_dim % self.num_heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}")
        check_sites(self.adapter_sites)
        if self.backbone == "mlp" and set(self.adapter_sites) != {"ffn"}:
            raise ConfigError("mlp backbone only supports adapter_sites={'ffn'}")


class AdaptedLinear:
    """A frozen base projection plus an optional adapter stack and selector.

    ``name`` prefixes its parameter names (``{name}.w``, ``{name}.b``) and
    keys it in ``Backbone.sites``. What is attached picks the forward: no
    stack runs the plain base (one ``linear`` node); a stack adds its task
    adapters to the base through ``apply_gated`` (one ``adapter_bank``
    node), gate-weighted when a selector is attached and unweighted when not.
    A gated forward given a ``gates`` dict stores its gates under ``name``.
    """

    def __init__(self, name: str, w0: Tensor, bias: Tensor):
        self.name = name
        self.w0 = w0
        self.bias = bias
        self.stack: AdapterStack | None = None
        self.selector: AttentionalSelector | None = None

    @property
    def d_out(self) -> int:
        return self.w0.data.shape[0]

    @property
    def d_in(self) -> int:
        return self.w0.data.shape[1]

    def forward(self, x: Tensor, gates: dict | None = None) -> Tensor:
        base = ad.linear(x, self.w0, self.bias)
        if self.stack is None:
            return base
        out, g = apply_gated(base, self.stack, self.selector, x)
        if gates is not None and g is not None:
            gates[self.name] = g
        return out


@dataclass
class Backbone:
    config: ModelConfig
    embedding: Tensor | None
    layers: list[dict[str, AdaptedLinear]]
    classifier: AdaptedLinear
    sites: dict[str, AdaptedLinear]

    def base_parameters(self) -> list[tuple[str, Tensor]]:
        params: list[tuple[str, Tensor]] = []
        if self.embedding is not None:
            params.append(("embedding", self.embedding))
        lins = [lin for layer in self.layers for lin in layer.values()]
        for lin in lins + [self.classifier]:
            params.append((f"{lin.name}.w", lin.w0))
            params.append((f"{lin.name}.b", lin.bias))
        return params

    def set_base_trainable(self, flag: bool):
        for _, p in self.base_parameters():
            p.requires_grad = flag
            p.grad = None

    def forward(self, batch, mode: str = "eval",
                rng: np.random.Generator | None = None) -> Tensor:
        return self.classifier.forward(self.features(batch, mode, rng))

    def features(self, batch, mode: str = "eval",
                 rng: np.random.Generator | None = None,
                 gates: dict | None = None) -> Tensor:
        """What the classifier reads: the transformer's mean-pooled ``(b, d)``
        or the mlp's last hidden layer. Every transformer op here works on
        each example alone, so the features of a slice of the batch are the
        bytes of the same rows of the whole batch's features. Layer 0's
        query, key and value see only the token at each position (there is
        no positional embedding), so when no tape records and no dropout
        runs they run once per distinct (position, token) and are gathered
        back, with the same bytes. Given a ``gates`` dict, each gated site
        stores its ``(..., n + 1)`` gates there under its name, one row per
        example on either path."""
        if mode not in ("train", "eval"):
            raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
        train = mode == "train"
        drop = self.config.dropout_rate if train else 0.0
        if train and drop > 0.0 and rng is None:
            raise ConfigError("train-mode forward with dropout needs an rng")
        if self.config.backbone == "transformer":
            return self._token_features(batch, drop, rng, gates)
        return self._dense_features(batch, drop, rng, gates)

    def _token_features(self, batch, drop, rng, gates) -> Tensor:
        ids = np.asarray(batch)
        if ids.ndim != 2:
            raise DimensionError(f"token batch must be 2-d, got shape {ids.shape}")
        if ids.min() < 0 or ids.max() >= self.config.vocab_size:
            raise ValueError(
                f"token id out of vocabulary [0, {self.config.vocab_size})")
        x = ad.dropout(ad.embedding(self.embedding, ids), drop, rng)
        for i, layer in enumerate(self.layers):
            lins = [layer[key] for key in ("query", "key", "value")]
            table = i == 0 and drop == 0.0 and not ad._recording()
            # nested calls, not names: each temporary is freed once the op
            # that reads it returns, not when the next layer rebinds a name
            x = ad.add(x, ad.dropout(layer["output"].forward(ad.attention(
                *(self._per_distinct_token(ids, lins, gates) if table
                  else [lin.forward(x, gates) for lin in lins]),
                self.config.num_heads), gates), drop, rng))
            # the FFN hidden is this loop's own: relu writes into it
            h = layer["ffn"].forward(x, gates)
            x = ad.add(x, ad.dropout(layer["ffn2"].forward(
                ad.relu(h, out=h.data)), drop, rng))
            del h
        return ad.mean_axis(x, axis=1)

    def _per_distinct_token(self, ids, lins, gates) -> list[Tensor]:
        """Each of ``lins`` on the embeddings of ``ids``, run once per
        distinct (position, token). Column p of a ``(U, L)`` table holds the
        tokens present at p, ranked by a ``(vocab, L)`` mask's column cumsum,
        and token 0 in unused cells; a token keeps row p of its L-row GEMM.
        Their gates in ``gates`` are gathered back like their outputs."""
        cols = np.arange(ids.shape[1])
        mask = np.zeros((self.config.vocab_size, cols.size), bool)
        mask[ids, cols] = True
        rows = (mask.cumsum(axis=0) - 1)[ids, cols]
        table = np.zeros((rows.max() + 1, cols.size), ids.dtype)
        table[rows, cols] = ids
        emb = ad.embedding(self.embedding, table)
        outs = [Tensor(lin.forward(emb, gates).data[rows, cols]) for lin in lins]
        if gates:
            for lin in lins:
                if lin.name in gates:
                    gates[lin.name] = gates[lin.name][rows, cols]
        return outs

    def _dense_features(self, batch, drop, rng, gates) -> Tensor:
        x = batch if isinstance(batch, Tensor) else Tensor(np.asarray(batch))
        if x.data.ndim != 2 or x.data.shape[1] != self.config.embed_dim:
            raise DimensionError(
                f"feature batch must be b x {self.config.embed_dim}, "
                f"got {x.data.shape}")
        for layer in self.layers:
            h = layer["ffn"].forward(x, gates)
            x = ad.add(x, ad.dropout(ad.relu(h, out=h.data), drop, rng))
            del h
        return x


def build_model(config: ModelConfig, seed: int) -> Backbone:
    """Deterministically initialized backbone with empty adapter slots."""
    config.validate()
    rng = np.random.default_rng(seed)
    d = config.embed_dim

    def linear(name, dout, din):
        w = Tensor(rng.normal(0.0, 0.02, size=(dout, din)))
        return AdaptedLinear(name, w, Tensor(np.zeros(dout)))

    layers: list[dict] = []
    embedding = None
    if config.backbone == "transformer":
        embedding = Tensor(rng.normal(0.0, 0.02, size=(config.vocab_size, d)))
        hidden = d * config.ffn_multiplier
        for i in range(config.num_layers):
            layers.append({
                "query": linear(f"layers.{i}.query", d, d),
                "key": linear(f"layers.{i}.key", d, d),
                "value": linear(f"layers.{i}.value", d, d),
                "output": linear(f"layers.{i}.output", d, d),
                "ffn": linear(f"layers.{i}.ffn", hidden, d),
                "ffn2": linear(f"layers.{i}.ffn2", d, hidden),
            })
    else:
        for i in range(config.num_layers):
            layers.append({"ffn": linear(f"layers.{i}.ffn", d, d)})
    classifier = linear("classifier", config.num_classes, d)
    sites = {lin.name: lin for layer in layers for key, lin in layer.items()
             if key in config.adapter_sites}
    return Backbone(config, embedding, layers, classifier, sites)

