"""Flat key=value experiment configs: parsing, overrides, digests, bridges.

A config is a plain dict with a fixed key set; unknown keys are rejected by
name so typos fail loudly. ``_SCHEMA`` is the one place a key, its parser
and the owner fields it sets are defined; no default is written here, each
key takes its first owner's keyword default. A parser checks type,
finiteness, choice and the seed's sign. Every other range rule lives with
the object that reads the value, and ``check_config`` builds those objects
once. ``lambda`` accepts a single float or a comma-separated per-task
schedule of at most ``tasks`` entries, the last repeated for later tasks.
The digest is a sha256 over the canonical serialization, so two runs with
the same digest ran the same configuration.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import re

from .autodiff import OPTIMIZERS
from .baselines import METHODS, MethodSpec, check_lambda
from .errors import ConfigError
from .harness import TrainConfig
from .model import BACKBONES, ModelConfig, check_sites
from .selector import VARIANTS
from .tasks import GENERATORS, ORDERS, TaskStream, build_stream, check_backbone


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


# key -> (parser, owner fields it sets); the defaults, the to_* bridges and
# check_config's key names all come from these rows
_SCHEMA = {
    "backbone": (_choice(*BACKBONES), (ModelConfig, "backbone")),
    "d": (_int, (ModelConfig, "embed_dim"), (build_stream, "dim")),
    "layers": (_int, (ModelConfig, "num_layers")),
    "heads": (_int, (ModelConfig, "num_heads")),
    "seq_len": (_int, (ModelConfig, "seq_len"), (build_stream, "seq_len")),
    "vocab": (_int, (ModelConfig, "vocab_size"), (build_stream, "vocab")),
    "tasks": (_int, (build_stream, "num_tasks")),
    "classes": (_int, (ModelConfig, "num_classes"), (build_stream, "num_classes")),
    "train_per_task": (_int, (build_stream, "train_per_task")),
    "eval_per_task": (_int, (build_stream, "eval_per_task")),
    "epochs": (_int, (TrainConfig, "epochs")),
    "lr": (_float, (TrainConfig, "lr")),
    "batch": (_int, (TrainConfig, "batch_size")),
    "r": (_int, (MethodSpec, "rank")),
    "alpha": (_float, (MethodSpec, "alpha")),
    "lambda": (_lambda, (MethodSpec, "lam")),
    "variant": (_choice(*VARIANTS), (MethodSpec, "variant")),
    "sites": (_sites, (ModelConfig, "adapter_sites")),
    "order": (_choice(*ORDERS), (build_stream, "order")),
    "seed": (_number(int, "an integer", least=0), (build_stream, "seed")),
    "method": (_choice(*METHODS), (MethodSpec, "name")),
    "generator": (_choice(*GENERATORS), (build_stream, "generator")),
    "dropout": (_float, (ModelConfig, "dropout_rate")),
    "p_sig": (_float, (build_stream, "p_sig")),
    "sig_tokens": (_int, (build_stream, "sig_tokens_per_class")),
    "optimizer": (_choice(*OPTIMIZERS), (TrainConfig, "optimizer")),
    "pretrain_epochs": (_int, (TrainConfig, "pretrain_epochs")),
    "pretrain_lr": (_float, (TrainConfig, "pretrain_lr")),
}
_DEFAULTS = {key: inspect.signature(owner).parameters[name].default
             for key, (_, (owner, name), *_) in _SCHEMA.items()}


def default_config() -> dict:
    return dict(_DEFAULTS)


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
    try:
        with open(path, "r", encoding="utf-8") as f:
            return parse_config(f.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None


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


def _build(owner, cfg: dict):
    """``owner`` called with every field that a config key sets on it."""
    return owner(**{name: cfg[key] for key, (_, *sets) in _SCHEMA.items()
                    for o, name in sets if o is owner})


def to_model_config(cfg: dict) -> ModelConfig:
    return _build(ModelConfig, cfg)


def to_train_config(cfg: dict) -> TrainConfig:
    return _build(TrainConfig, cfg)


def to_method_spec(cfg: dict) -> MethodSpec:
    return _build(MethodSpec, cfg)


def to_stream(cfg: dict, seed: int | None = None) -> TaskStream:
    return _build(build_stream, cfg if seed is None else dict(cfg, seed=seed))


# owner field -> config key where the names differ, for check_config's messages
_KEY_OF = {name: key for key, (_, *sets) in _SCHEMA.items()
           for _, name in sets if name != key}
_OWNER_NAME = re.compile(r"\b(" + "|".join(_KEY_OF) + r")\b")


def check_config(cfg: dict) -> dict:
    """``cfg``, once every object a grid cell builds from it accepts it (task
    specs, no data); else a ``ConfigError`` that names config keys."""
    try:
        to_model_config(cfg).validate()
        to_train_config(cfg).validate()
        to_method_spec(cfg)
        check_backbone(to_stream(cfg), cfg["backbone"])
        if isinstance(cfg["lambda"], list) and len(cfg["lambda"]) > cfg["tasks"]:
            raise ConfigError(f"lambda schedule has {len(cfg['lambda'])} "
                              f"entries, more than tasks={cfg['tasks']}")
    except ConfigError as exc:
        raise ConfigError(_OWNER_NAME.sub(lambda m: _KEY_OF[m.group()],
                                          str(exc))) from None
    return cfg
