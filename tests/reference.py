"""The per-op reference path that the tests check the package against.

The package's hot path records one fused tape node where a chain of ops
recorded many: ``selector.apply_gated`` runs every adapter's low-rank output,
the gate and the weighted sum as one ``adapter_bank`` node, ``linear`` and
``attention`` run a projection and an attention block as one node each, and
``l1_sum`` runs the L1 term as one node. The chains below are those ops
written out one by one: the tape ops ``matmul``, ``transpose``,
``concat_last``, ``softmax``, ``reshape``, ``sum_all``, ``index_last`` and
``l1_norm``; the gating chain ``gate`` and ``mixed_forward``; and the dense
views of an adapter that the oracle tests compare against. None of them runs
in a training step or an evaluation, so they live here, next to the tests
that read them. They reuse the package's gradient helpers (``_weight_grad``,
``_softmax_rows``, ``_softmax_grad``) rather than copies, so a bit-identity
test compares the same expressions on both sides.

The task generators' per-row loops are here too: ``tasks`` builds a class's
rows at once, and ``tests/test_task_replay.py`` checks it against these
loops byte for byte.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from amlora import autodiff as ad
from amlora.adapters import AdapterStack, LoraAdapter
from amlora.autodiff import (Tensor, _accum, _as_tensor, _make,
                             _softmax_grad, _softmax_rows, _weight_grad)
from amlora.errors import DimensionError
from amlora.selector import AttentionalSelector, _require_fresh, apply_gated
from amlora.tasks import (TaskSpec, _background_count, _token_row,
                          signature_tokens)

# ---------------------------------------------------------------------------
# autodiff ops


def item(t: Tensor) -> float:
    return float(t.data)


def transpose(t: Tensor, axes: tuple[int, ...]) -> Tensor:
    data = np.transpose(t.data, axes)
    inv = tuple(np.argsort(axes))

    def bw(g):
        _accum(t, np.transpose(g, inv))

    return _make("transpose", (t,), data, bw)


def concat_last(parts: Iterable[Tensor]) -> Tensor:
    parts = list(parts)
    widths = [p.data.shape[-1] for p in parts]
    data = np.concatenate([p.data for p in parts], axis=-1)

    def bw(g):
        off = 0
        for p, w in zip(parts, widths):
            _accum(p, g[..., off:off + w])
            off += w

    return _make("concat", tuple(parts), data, bw)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(
            f"matmul needs >=2-d operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")
    if b.data.ndim > 2 and a.data.shape[:-2] != b.data.shape[:-2]:
        raise DimensionError(
            f"matmul batch dimensions disagree: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            if b.data.ndim == 2:
                _accum(b, _weight_grad(a.data, g))
            else:
                _accum(b, np.swapaxes(a.data, -1, -2) @ g)

    return _make("matmul", (a, b), data, bw)


def softmax(t: Tensor) -> Tensor:
    """Numerically stable softmax along the last axis."""
    if t.data.ndim == 0 or t.data.shape[-1] == 0:
        raise DimensionError("softmax needs a non-empty last axis")
    y = _softmax_rows(t.data)

    def bw(g):
        _accum(t, _softmax_grad(g, y))

    return _make("softmax", (t,), y, bw)


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
    low = matmul(x, transpose(adapter.A, (1, 0)))
    out = matmul(low, transpose(adapter.B, (1, 0)))
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
# gating


def gate(selector: AttentionalSelector, adapter_outputs: list[Tensor]) -> Tensor:
    """Softmax across routes of per-output head scores; shape (..., n+1)."""
    _require_fresh(selector, len(adapter_outputs))
    logits = [matmul(out, head) for out, head in
              zip(adapter_outputs, selector.heads)]
    return softmax(concat_last(logits))


def mixed_forward(w0: Tensor, stack: AdapterStack,
                  selector: AttentionalSelector, x: Tensor) -> Tensor:
    """Gated forward h = x W0^T + sum_i g_i * (dw_i x), gates per example."""
    base = matmul(x, transpose(w0, (1, 0)))
    return apply_gated(base, stack, selector, x)[0]


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
