"""Task-specific low-rank adapter pairs and their per-task lifecycle.

Each adapter holds a pair (B: d_out x r, A: r x d_in) whose effective update
is (alpha/r) * B @ A. A stack keeps one adapter per task; the gate's route 0,
the base model alone, needs none. Only the newest adapter is ever trainable.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError, StateError

DEFAULT_RANK = 8
DEFAULT_ALPHA = 32.0


class LoraAdapter:
    """One task's low-rank pair; its task is its position in the stack."""

    def __init__(self, A: Tensor, B: Tensor, rank: int, alpha: float):
        self.A = A
        self.B = B
        self.rank = rank
        self.alpha = float(alpha)

    @property
    def frozen(self) -> bool:
        return not self.A.requires_grad

    def freeze(self):
        self.A.requires_grad = False
        self.B.requires_grad = False
        self.A.grad = None
        self.B.grad = None

    @property
    def scale(self) -> float:
        return self.alpha / self.rank

    def param_count(self) -> int:
        return self.A.size + self.B.size

    def materialized(self) -> np.ndarray:
        """Dense (alpha/r) * B @ A; for export and oracle tests, not the hot path."""
        return self.scale * (self.B.data @ self.A.data)


def new_adapter(d_out: int, d_in: int, rank: int = DEFAULT_RANK,
                alpha: float = DEFAULT_ALPHA, seed: int = 0) -> LoraAdapter:
    """A ~ Gaussian(0, 0.02), B = 0, so the update starts exactly at zero."""
    if rank < 1:
        raise ConfigError("adapter rank must be >= 1")
    if rank > min(d_in, d_out) // 2:
        raise ConfigError(
            f"rank {rank} too large for {d_out}x{d_in} (must be <= min/2)")
    rng = np.random.default_rng(seed)
    A = Tensor(rng.normal(0.0, 0.02, size=(rank, d_in)), requires_grad=True)
    B = Tensor(np.zeros((d_out, rank)), requires_grad=True)
    return LoraAdapter(A, B, rank, alpha)


def adapter_apply(adapter: LoraAdapter, x: Tensor) -> Tensor:
    """Low-rank-first forward: (alpha/r) * ((x A^T) B^T), rows = examples.

    The reference path; ``selector.apply_gated`` computes the same values
    for a whole stack in one fused tape node.
    """
    if x.data.shape[-1] != adapter.A.data.shape[1]:
        raise DimensionError(
            f"adapter input dim {x.data.shape[-1]} != d_in {adapter.A.data.shape[1]}")
    low = ad.matmul(x, ad.transpose(adapter.A, (1, 0)))
    out = ad.matmul(low, ad.transpose(adapter.B, (1, 0)))
    return ad.mul(out, adapter.scale)


class AdapterStack:
    """Task adapters [task_1, ..., task_n] for one site: routes 1..n of the
    gate, whose route 0 is the base model alone (a constant-zero update)."""

    def __init__(self, d_out: int, d_in: int, rank: int = DEFAULT_RANK,
                 alpha: float = DEFAULT_ALPHA):
        self.d_out = d_out
        self.d_in = d_in
        self.rank = rank
        self.alpha = float(alpha)
        self.task_adapters: list[LoraAdapter] = []
        self.training_active = False

    def __len__(self) -> int:
        """Number of routes, the zero route included."""
        return len(self.task_adapters) + 1

    def begin_task(self, seed: int) -> LoraAdapter:
        """Freeze all previous adapters and append a fresh trainable one."""
        if self.training_active:
            raise StateError("begin_task called while a task is mid-training")
        for a in self.task_adapters:
            a.freeze()
        adapter = new_adapter(self.d_out, self.d_in, self.rank, self.alpha,
                              seed=seed)
        self.task_adapters.append(adapter)
        return adapter

    def outputs(self, x: Tensor) -> list[Tensor]:
        """Per-route contributions [0, dw_1 x, ..., dw_n x]."""
        zero = Tensor(np.zeros(x.data.shape[:-1] + (self.d_out,)))
        return [zero] + [adapter_apply(a, x) for a in self.task_adapters]

    def param_count(self) -> int:
        return sum(a.param_count() for a in self.task_adapters)


def merged_weight(stack: AdapterStack, w0: Tensor) -> np.ndarray:
    """W0 + sum of materialized updates (the merged view of incremental LoRA)."""
    if w0.data.shape != (stack.d_out, stack.d_in):
        raise DimensionError(
            f"base weight {w0.data.shape} does not match stack "
            f"({stack.d_out}, {stack.d_in})")
    w = w0.data.copy()
    for a in stack.task_adapters:
        w += a.materialized()
    return w
