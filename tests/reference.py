"""The per-op reference path that the tests check the package against.

The package's hot path records one fused tape node where a chain of ops
recorded many: ``selector.apply_gated`` runs every adapter's low-rank output,
the gate and the weighted sum as one ``adapter_bank`` node, and ``l1_sum``
runs a site's L1 term as one node. The chains below are those ops written
out one by one, plus the dense views of an adapter that the oracle tests
compare against. None of them runs in a training step or an evaluation, so
they live here, next to the tests that read them.

The task generators' per-row loops are here too: ``tasks`` builds a class's
rows at once, and ``tests/test_task_replay.py`` checks it against these
loops byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from amlora import autodiff as ad
from amlora.adapters import AdapterStack, LoraAdapter
from amlora.autodiff import Tensor, _accum, _make
from amlora.errors import DimensionError
from amlora.tasks import (TaskSpec, _background_count, _token_row,
                          signature_tokens)

# ---------------------------------------------------------------------------
# autodiff ops


def item(t: Tensor) -> float:
    return float(t.data)


def reshape(t: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = t.data.shape
    data = t.data.reshape(shape)

    def bw(g):
        _accum(t, g.reshape(old))

    return _make("reshape", (t,), data, bw)


def sum_all(t: Tensor) -> Tensor:
    data = np.asarray(t.data.sum())

    def bw(g):
        _accum(t, np.broadcast_to(g, t.data.shape).copy())

    return _make("sum", (t,), data, bw)


def index_last(t: Tensor, i: int) -> Tensor:
    """Slice ``t[..., i:i+1]`` keeping the last axis."""
    data = t.data[..., i:i + 1]

    def bw(g):
        full = np.zeros_like(t.data)
        full[..., i:i + 1] = g
        _accum(t, full)

    return _make("index", (t,), data, bw)


def l1_norm(t: Tensor) -> Tensor:
    """Sum of absolute values; subgradient at exactly 0 is 0."""
    data = np.asarray(np.abs(t.data).sum())

    def bw(g):
        _accum(t, np.sign(t.data) * float(g))

    return _make("l1", (t,), data, bw)


# ---------------------------------------------------------------------------
# adapters


def frozen(adapter: LoraAdapter) -> bool:
    return not adapter.A.requires_grad


def materialized(adapter: LoraAdapter) -> np.ndarray:
    """Dense (alpha/r) * B @ A."""
    return adapter.scale * (adapter.B.data @ adapter.A.data)


def adapter_apply(adapter: LoraAdapter, x: Tensor) -> Tensor:
    """Low-rank-first forward: (alpha/r) * ((x A^T) B^T), rows = examples."""
    if x.data.shape[-1] != adapter.A.data.shape[1]:
        raise DimensionError(
            f"adapter input dim {x.data.shape[-1]} != d_in {adapter.A.data.shape[1]}")
    low = ad.matmul(x, ad.transpose(adapter.A, (1, 0)))
    out = ad.matmul(low, ad.transpose(adapter.B, (1, 0)))
    return ad.mul(out, adapter.scale)


def stack_outputs(stack: AdapterStack, x: Tensor) -> list[Tensor]:
    """Per-route contributions [0, dw_1 x, ..., dw_n x]."""
    zero = Tensor(np.zeros(x.data.shape[:-1] + (stack.d_out,)))
    return [zero] + [adapter_apply(a, x) for a in stack.task_adapters]


def merged_weight(stack: AdapterStack, w0: Tensor) -> np.ndarray:
    """W0 + sum of materialized updates (the merged view of incremental LoRA)."""
    if w0.data.shape != (stack.d_out, stack.d_in):
        raise DimensionError(
            f"base weight {w0.data.shape} does not match stack "
            f"({stack.d_out}, {stack.d_in})")
    w = w0.data.copy()
    for a in stack.task_adapters:
        w += materialized(a)
    return w


# ---------------------------------------------------------------------------
# task generators


def token_rows(spec: TaskSpec, per_class: int, rng: np.random.Generator):
    """A token split drawn row by row, each row through ``_token_row``."""
    p = spec.params
    L = p["seq_len"]
    bg = _background_count(p)
    n = per_class * spec.num_classes
    x = np.empty((n, L), dtype=np.int64)
    y = np.empty(n, dtype=np.int64)
    row = 0
    for cls in range(spec.num_classes):
        sig = signature_tokens(p, spec.task_id, cls)
        for _ in range(per_class):
            x[row] = _token_row(p, sig, bg, rng)
            y[row] = cls
            row += 1
    return x, y


def gaussian_rows(spec: TaskSpec, per_class: int, rng: np.random.Generator):
    """A rotated-gaussian split with each row's class mean added row by row."""
    p = spec.params
    dim = p["dim"]
    radius = p["radius"]
    noise = p["noise_std"]
    rotation = p["rotation"]
    n = per_class * spec.num_classes
    x = rng.normal(0.0, noise, size=(n, dim))
    y = np.empty(n, dtype=np.int64)
    row = 0
    for cls in range(spec.num_classes):
        angle = 2.0 * math.pi * cls / spec.num_classes + rotation
        for _ in range(per_class):
            x[row, 0] += radius * math.cos(angle)
            x[row, 1] += radius * math.sin(angle)
            y[row] = cls
            row += 1
    return x, y
