"""Flat key=value experiment configs: parsing, overrides, digests, bridges.

A config is a plain dict with a fixed key set; unknown keys are rejected by
name so typos fail loudly. ``_SCHEMA`` is the one place a key, its parser
and its default are defined; a parser checks type, finiteness, choice and
the seed's sign. Every other range rule lives with the object that reads
the value, and ``check_config`` builds those objects once. ``lambda``
accepts a single float or a comma-separated per-task schedule of at most
``tasks`` entries, the last repeated for later tasks. The digest
is a sha256 over the canonical serialization, so two runs with the same
digest ran the same configuration.
"""

from __future__ import annotations

import hashlib
import math
import re

from .autodiff import OPTIMIZERS
from .baselines import METHODS, MethodSpec, check_lambda
from .errors import ConfigError
from .harness import TrainConfig
from .model import BACKBONES, ModelConfig, check_sites
from .selector import VARIANTS
from .tasks import GENERATORS, ORDERS, TaskStream, build_stream


def _number(kind, what, least=None):
    def conv(key, v):
        try:
            x = kind(v)
        except ValueError:
            raise ConfigError(f"{key} expects {what}, got {v!r}")
        if not math.isfinite(x):
            raise ConfigError(f"{key} expects a finite number, got {v!r}")
        if least is not None and x < least:
            raise ConfigError(f"{key} must be >= {least}, got {v!r}")
        return x
    return conv


_int, _float = _number(int, "an integer"), _number(float, "a number")


def _choice(*options):
    def conv(key, v):
        if v not in options:
            raise ConfigError(f"{key} must be one of {sorted(options)}, got {v!r}")
        return v
    return conv


def _lambda(key, v):
    try:
        parts = [float(p) for p in str(v).split(",")]
    except ValueError:
        raise ConfigError(f"lambda expects a number or comma list, got {v!r}")
    check_lambda(parts, v)
    return parts[0] if len(parts) == 1 else parts


def _sites(key, v):
    parts = tuple(p.strip() for p in str(v).split(",") if p.strip())
    check_sites(parts)
    return parts


# key -> (parser, default); the TrainConfig, ModelConfig, MethodSpec and
# build_stream defaults equal these values.
_SCHEMA = {
    "backbone": (_choice(*BACKBONES), "transformer"),
    "d": (_int, 32),
    "layers": (_int, 2),
    "heads": (_int, 4),
    "seq_len": (_int, 16),
    "vocab": (_int, 128),
    "tasks": (_int, 4),
    "classes": (_int, 4),
    "train_per_task": (_int, 1000),
    "eval_per_task": (_int, 400),
    "epochs": (_int, 1),
    "lr": (_float, 2e-2),
    "batch": (_int, 8),
    "r": (_int, 8),
    "alpha": (_float, 32.0),
    "lambda": (_lambda, 1e-5),
    "variant": (_choice(*VARIANTS), "AR"),
    "sites": (_sites, ("query", "value")),
    "order": (_choice(*ORDERS), "order1"),
    "seed": (_number(int, "an integer", least=0), 0),
    "method": (_choice(*METHODS), "amlora"),
    "generator": (_choice(*GENERATORS), "token_signature"),
    "dropout": (_float, 0.1),
    "p_sig": (_float, 0.4),
    "sig_tokens": (_int, 6),
    "optimizer": (_choice(*OPTIMIZERS), "adam"),
    "pretrain_epochs": (_int, 3),
    "pretrain_lr": (_float, 1e-3),
}


def default_config() -> dict:
    return {key: default for key, (_, default) in _SCHEMA.items()}


def parse_value(key: str, value: str, name: str | None = None):
    """``value`` parsed as config ``key``; errors name ``name``, else key."""
    if key not in _SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    return _SCHEMA[key][0](name or key, value)


def set_key(cfg: dict, key: str, value: str):
    """Parse and set one key, rejecting unknown names."""
    cfg[key] = parse_value(key, value)


def parse_config(text: str) -> dict:
    """key=value lines over the defaults; '#' starts a comment."""
    cfg = default_config()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            set_key(cfg, key, value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return cfg


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """KEY=VALUE strings, applied in order; later wins."""
    out = dict(cfg)
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override {ov!r} is not KEY=VALUE")
        key, value = (s.strip() for s in ov.split("=", 1))
        set_key(out, key, value)
    return out


def format_config(cfg: dict) -> str:
    """Canonical one-key-per-line text; parsing it back gives an equal dict."""
    lines = []
    for key in sorted(cfg):
        v = cfg[key]
        if isinstance(v, (tuple, list)):
            v = ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{key}={v}")
    return "\n".join(lines) + "\n"


def config_digest(cfg: dict) -> str:
    return hashlib.sha256(format_config(cfg).encode("utf-8")).hexdigest()


def to_model_config(cfg: dict) -> ModelConfig:
    return ModelConfig(
        backbone=cfg["backbone"], vocab_size=cfg["vocab"],
        embed_dim=cfg["d"], num_layers=cfg["layers"], num_heads=cfg["heads"],
        seq_len=cfg["seq_len"], num_classes=cfg["classes"],
        dropout_rate=cfg["dropout"], adapter_sites=tuple(cfg["sites"]))


def to_train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(epochs=cfg["epochs"], lr=cfg["lr"],
                       batch_size=cfg["batch"], optimizer=cfg["optimizer"],
                       pretrain_epochs=cfg["pretrain_epochs"],
                       pretrain_lr=cfg["pretrain_lr"])


def to_method_spec(cfg: dict) -> MethodSpec:
    return MethodSpec(name=cfg["method"], rank=cfg["r"],
                      alpha=cfg["alpha"], variant=cfg["variant"],
                      lam=cfg["lambda"])


def to_stream(cfg: dict, seed: int | None = None) -> TaskStream:
    return build_stream(
        num_tasks=cfg["tasks"], num_classes=cfg["classes"],
        train_per_task=cfg["train_per_task"],
        eval_per_task=cfg["eval_per_task"], generator=cfg["generator"],
        vocab=cfg["vocab"], seq_len=cfg["seq_len"], dim=cfg["d"],
        seed=cfg["seed"] if seed is None else seed, order=cfg["order"],
        p_sig=cfg["p_sig"], sig_tokens_per_class=cfg["sig_tokens"])


# owner argument name -> config key, for the messages of check_config
_KEY_OF = {"embed_dim": "d", "num_heads": "heads", "num_layers": "layers",
           "vocab_size": "vocab", "num_classes": "classes", "num_tasks": "tasks",
           "dropout_rate": "dropout", "adapter_sites": "sites", "dim": "d",
           "sig_tokens_per_class": "sig_tokens"}
_OWNER_NAME = re.compile(r"\b(" + "|".join(_KEY_OF) + r")\b")


def check_config(cfg: dict) -> dict:
    """``cfg``, once every object a grid cell builds from it accepts it (task
    specs, no data); else a ``ConfigError`` that names config keys."""
    try:
        to_model_config(cfg).validate()
        to_train_config(cfg).validate()
        to_method_spec(cfg)
        to_stream(cfg)
        if isinstance(cfg["lambda"], list) and len(cfg["lambda"]) > cfg["tasks"]:
            raise ConfigError(f"lambda schedule has {len(cfg['lambda'])} "
                              f"entries, more than tasks={cfg['tasks']}")
    except ConfigError as exc:
        raise ConfigError(_OWNER_NAME.sub(lambda m: _KEY_OF[m.group()],
                                          str(exc))) from None
    return cfg
