"""Task-specific low-rank adapter pairs and their per-task lifecycle.

Each adapter holds a pair (B: d_out x r, A: r x d_in) whose effective update
is (alpha/r) * B @ A. A stack keeps one adapter per task; the gate's route 0,
the base model alone, needs none. A stack only grows; drivers pick what trains.
``selector.apply_gated`` runs a stack's adapters in one fused tape node; the
per-adapter chain and the dense update that the tests check it against live
in ``tests/reference.py``.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError

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
    def scale(self) -> float:
        return self.alpha / self.rank

    def param_count(self) -> int:
        return self.A.size + self.B.size


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

    def __len__(self) -> int:
        """Number of routes, the zero route included."""
        return len(self.task_adapters) + 1

    def begin_task(self, seed: int) -> LoraAdapter:
        """Append a fresh adapter for the next task."""
        adapter = new_adapter(self.d_out, self.d_in, self.rank, self.alpha,
                              seed=seed)
        self.task_adapters.append(adapter)
        return adapter

    def param_count(self) -> int:
        return sum(a.param_count() for a in self.task_adapters)
