"""Binary model checkpoints: versioned, named-tensor-record format.

Layout: a magic line ``AMLORA-CKPT 1`` followed by length-prefixed records,
each ``u32 name_len | name utf-8 | u32 rank | u32 dims[rank] | f64-LE data``.
The config records come first: rank-0 ``config.*`` scalars and
``config.sites_mask``. A flag (``config.backbone_is_mlp``,
``config.variant_is_ar`` and each ``config.sites_mask`` entry) must read
exactly 0.0 or 1.0. The tensor records follow, named and ordered for both
save and load by one list, ``_tensors``: ``base.<param>``, then per site in
sorted order ``site.<site>.adapter<k>.A``/``.B`` (the k-th task adapter of
the site's stack, by position, from 1) and ``site.<site>.head<j>``. No
forward rule is stored, since a loaded site runs what these attach; the
rule-index record of older files is ignored. Before building anything, the
loader matches each config int that sizes a tensor to the extent of the base
record it sizes; then it checks each record against the rebuilt model: rank 0
for a config scalar, ``(rank, d_in)`` for ``A``, ``(d_out, rank)`` for ``B``
and ``(d_out, 1)`` for a head. Each mismatch raises ``CheckpointFormatError``
naming the record; a config the model rejects raises it with the model's
message, which names the field (record ``config.<field>``). Floats are stored
exactly, so load(save(model)) reproduces eval logits bit-for-bit. Optimizer
state is not persisted.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .adapters import AdapterStack
from .atomic import atomic_write
from .autodiff import Tensor
from .errors import CheckpointFormatError, ConfigError
from .model import ADAPTER_SITES, CONFIG_INTS, Backbone, ModelConfig, build_model
from .selector import AttentionalSelector

MAGIC_PREFIX = b"AMLORA-CKPT "
VERSION = 1


def _tensors(model: Backbone) -> list[tuple[str, Tensor]]:
    """Every tensor record of ``model`` by name, in file order."""
    out = [(f"base.{name}", t) for name, t in model.base_parameters()]
    for site_name in sorted(model.sites):
        site, prefix = model.sites[site_name], f"site.{site_name}"
        if site.stack is not None:
            for k, a in enumerate(site.stack.task_adapters, start=1):
                out += [(f"{prefix}.adapter{k}.A", a.A),
                        (f"{prefix}.adapter{k}.B", a.B)]
        if site.selector is not None:
            out += [(f"{prefix}.head{j}", h)
                    for j, h in enumerate(site.selector.heads)]
    return out


def _records_from_model(model: Backbone) -> list[tuple[str, np.ndarray]]:
    cfg = model.config
    recs: list[tuple[str, np.ndarray]] = []

    def scalar(name, value):
        recs.append((name, np.asarray(float(value))))

    scalar("config.backbone_is_mlp", cfg.backbone == "mlp")
    for key in CONFIG_INTS:
        scalar(f"config.{key}", getattr(cfg, key))
    scalar("config.dropout_rate", cfg.dropout_rate)
    recs.append(("config.sites_mask", np.asarray(
        [1.0 if s in cfg.adapter_sites else 0.0 for s in ADAPTER_SITES])))

    any_stack = next((s.stack for s in model.sites.values()
                      if s.stack is not None), None)
    if any_stack is not None:
        scalar("config.adapter_rank", any_stack.rank)
        scalar("config.adapter_alpha", any_stack.alpha)
    any_sel = next((s.selector for s in model.sites.values()
                    if s.selector is not None), None)
    scalar("config.variant_is_ar",
           any_sel is None or any_sel.variant == "AR")
    return recs + [(name, t.data) for name, t in _tensors(model)]


def save_checkpoint(model: Backbone, path: str):
    """Atomically write the model (config, base weights, adapters, heads)."""
    blob = bytearray()
    blob += MAGIC_PREFIX + str(VERSION).encode() + b"\n"
    for name, arr in _records_from_model(model):
        # ascontiguousarray would promote rank-0 records to rank 1
        data = np.asarray(arr, dtype="<f8")
        if data.ndim:
            data = np.ascontiguousarray(data)
        nb = name.encode("utf-8")
        blob += struct.pack("<I", len(nb)) + nb
        blob += struct.pack("<I", data.ndim)
        blob += struct.pack(f"<{data.ndim}I", *data.shape)
        blob += data.tobytes()
    atomic_write(path, blob)


def _read_exact(f, n: int) -> bytes:
    b = f.read(n)
    if len(b) != n:
        raise CheckpointFormatError(
            f"truncated checkpoint: wanted {n} bytes, got {len(b)}")
    return b


def _read_records(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        header = f.readline(64)
        if not header.startswith(MAGIC_PREFIX) or not header.endswith(b"\n"):
            raise CheckpointFormatError("corrupt header: not a checkpoint file")
        try:
            version = int(header[len(MAGIC_PREFIX):].strip())
        except ValueError:
            raise CheckpointFormatError("corrupt header: bad version field")
        if version != VERSION:
            raise CheckpointFormatError(
                f"checkpoint version {version} is not supported "
                f"(this build reads version {VERSION})")
        records: dict[str, np.ndarray] = {}
        while True:
            head = f.read(4)
            if not head:
                break
            if len(head) != 4:
                raise CheckpointFormatError("truncated checkpoint record")
            (name_len,) = struct.unpack("<I", head)
            if name_len > 4096:
                raise CheckpointFormatError("corrupt record: name too long")
            try:
                name = _read_exact(f, name_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointFormatError(
                    f"corrupt record name {exc.object!r}: not UTF-8")
            (rank,) = struct.unpack("<I", _read_exact(f, 4))
            if rank > 8:
                raise CheckpointFormatError(f"corrupt record {name}: rank {rank}")
            dims = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank))
            # a zero extent must not hide the others from the size cap
            if math.prod(max(dim, 1) for dim in dims) > 100_000_000:
                raise CheckpointFormatError(f"corrupt record {name}: too large")
            data = np.frombuffer(_read_exact(f, 8 * math.prod(dims)), dtype="<f8")
            records[name] = data.reshape(dims).copy()
    return records


def _require(records: dict, name: str) -> np.ndarray:
    if name not in records:
        raise CheckpointFormatError(f"missing tensor record {name!r}")
    return records[name]


def _require_shape(records: dict, name: str,
                   shape: tuple[int, ...]) -> np.ndarray:
    arr = _require(records, name)
    if arr.shape != shape:
        raise CheckpointFormatError(
            f"record {name!r} has shape {arr.shape}, expected {shape}")
    return arr


def _require_scalar(records: dict, name: str) -> float:
    return float(_require_shape(records, name, ()))


def _require_int(records: dict, name: str) -> int:
    value = _require_scalar(records, name)
    if not np.isfinite(value) or value != np.trunc(value):
        raise CheckpointFormatError(
            f"record {name!r} is {value}, not an integer")
    return int(value)


def _require_flags(records: dict, name: str, shape=()) -> np.ndarray:
    """Record ``name`` as bools; an entry other than 0.0 or 1.0 is corrupt."""
    arr = _require_shape(records, name, shape)
    if not np.isin(arr, (0.0, 1.0)).all():
        raise CheckpointFormatError(f"record {name!r} is {arr}, not 0 or 1")
    return arr == 1.0


def _check_sizes(records: dict, cfg: ModelConfig):
    """Match each config int that sizes a tensor to the base record it sizes.

    A record's extents are bounded by the file's length, so a corrupt int
    fails here rather than as a huge allocation in ``build_model``.
    """
    layers = sum(k.startswith("base.layers.") and k.endswith(".ffn.w")
                 for k in records)
    if cfg.num_layers != layers:
        raise CheckpointFormatError(
            f"record 'config.num_layers' is {cfg.num_layers}, but {layers} "
            f"layers have base records")
    # (config key, base record, axis, record extent per unit of the key)
    sized = [("num_classes", "base.classifier.w", 0, 1),
             ("embed_dim", "base.classifier.w", 1, 1)]
    if cfg.backbone == "transformer":
        sized += [("vocab_size", "base.embedding", 0, 1),
                  ("ffn_multiplier", "base.layers.0.ffn.w", 0, cfg.embed_dim)]
    for key, name, axis, unit in sized:
        arr = _require(records, name)
        if arr.ndim != 2 or getattr(cfg, key) * unit != arr.shape[axis]:
            raise CheckpointFormatError(
                f"record 'config.{key}' is {getattr(cfg, key)}, but record "
                f"{name!r} has shape {arr.shape}")


def load_checkpoint(path: str) -> Backbone:
    """Rebuild a frozen, eval-ready model; no state kept on failure."""
    records = _read_records(path)
    try:
        return _model_from_records(records)
    except ConfigError as exc:  # the records decode but describe no model
        raise CheckpointFormatError(
            f"config records describe an invalid model: {exc}") from None


def _model_from_records(records: dict) -> Backbone:
    kwargs = {key: _require_int(records, f"config.{key}")
              for key in CONFIG_INTS}
    mask = _require_flags(records, "config.sites_mask", (len(ADAPTER_SITES),))
    cfg = ModelConfig(
        backbone="mlp" if _require_flags(records, "config.backbone_is_mlp")
        else "transformer",
        dropout_rate=_require_scalar(records, "config.dropout_rate"),
        adapter_sites=tuple(s for s, m in zip(ADAPTER_SITES, mask) if m),
        **kwargs)
    _check_sizes(records, cfg)
    model = build_model(cfg, seed=0)
    variant = "AR" if _require_flags(records, "config.variant_is_ar") else "NR"
    for site_name in sorted(model.sites):
        site, prefix = model.sites[site_name], f"site.{site_name}"
        n = sum(k.startswith(f"{prefix}.adapter") and k.endswith(".A")
                for k in records)
        heads = sum(k.startswith(f"{prefix}.head") for k in records)
        if n:
            site.stack = AdapterStack(
                site.d_out, site.d_in,
                _require_int(records, "config.adapter_rank"),
                _require_scalar(records, "config.adapter_alpha"))
            for _ in range(n):
                site.stack.begin_task(seed=0)
        if heads:
            if heads != n + 1:
                raise CheckpointFormatError(
                    f"site {site_name}: {n} adapters but {heads} heads")
            site.selector = AttentionalSelector(n + 1, site.d_out, variant)
    for name, t in _tensors(model):
        t.data = _require_shape(records, name, t.data.shape)
        t.requires_grad = False
    return model
