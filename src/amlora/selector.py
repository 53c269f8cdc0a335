"""Attention-based gating over a stack of task adapters.

One score head (a d_out vector) per adapter, the zero adapter included.
Per example (and per position, in sequence models) each adapter output is
scored by its head, the scores are softmaxed across adapters, and the gated
sum is added to the base projection. Heads start at zero, so gates start
exactly uniform. An L1 penalty on the heads makes the gate vector sparse.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .adapters import AdapterStack
from .autodiff import Tensor
from .errors import ConfigError, StateError

VARIANTS = ("NR", "AR")


class AttentionalSelector:
    """Ordered score heads [w_0, w_1, ..., w_n], one per stacked adapter."""

    def __init__(self, stack_len: int, d_out: int, variant: str = "AR",
                 lam: float = 0.0):
        if stack_len < 1:
            raise ConfigError("selector needs at least one head")
        if variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {variant!r}")
        if lam < 0:
            raise ConfigError("sparsity weight lambda must be >= 0")
        self.d_out = d_out
        self.variant = variant
        self.lam = float(lam)
        self.heads: list[Tensor] = [
            Tensor(np.zeros((d_out, 1)), requires_grad=True)
            for _ in range(stack_len)]

    def __len__(self) -> int:
        return len(self.heads)

    def extend_for_task(self, stack: AdapterStack):
        """Append one zero-initialized head after the stack grew by one."""
        if len(self.heads) == len(stack):
            raise StateError("selector already matches the stack length")
        if len(self.heads) + 1 != len(stack):
            raise StateError(
                f"selector length {len(self.heads)} cannot extend to stack "
                f"length {len(stack)}")
        self.heads.append(Tensor(np.zeros((self.d_out, 1)), requires_grad=True))

    def param_count(self) -> int:
        return sum(h.size for h in self.heads)


def selector_init(stack_len: int, d_out: int, variant: str = "AR",
                  lam: float = 0.0) -> AttentionalSelector:
    return AttentionalSelector(stack_len, d_out, variant, lam)


def gate(selector: AttentionalSelector, adapter_outputs: list[Tensor]) -> Tensor:
    """Softmax across adapters of per-output head scores; shape (..., n+1)."""
    if len(adapter_outputs) != len(selector.heads):
        raise StateError(
            f"stale selector: {len(selector.heads)} heads for "
            f"{len(adapter_outputs)} adapter outputs")
    logits = [ad.matmul(out, head) for out, head in
              zip(adapter_outputs, selector.heads)]
    return ad.softmax(ad.concat_last(logits))


def apply_gated(base_out: Tensor, stack: AdapterStack,
                selector: AttentionalSelector, x: Tensor,
                capture: dict | None = None) -> Tensor:
    """Add gate-weighted adapter outputs to an already-computed base projection.

    When ``capture`` is a dict, the raw gate values are stored under
    ``"gates"`` for inspection; gradients are unaffected.
    """
    outputs = stack.outputs(x)
    gates = gate(selector, outputs)
    if capture is not None:
        capture["gates"] = gates.data
    h = base_out
    for i, out in enumerate(outputs):
        if stack.adapters[i].is_zero:
            continue  # exact zero contribution, skip the multiply
        h = ad.add(h, ad.mul(ad.index_last(gates, i), out))
    return h


def mixed_forward(w0: Tensor, stack: AdapterStack,
                  selector: AttentionalSelector, x: Tensor) -> Tensor:
    """Gated forward h = x W0^T + sum_i g_i * (dw_i x), gates per example."""
    base = ad.matmul(x, ad.transpose(w0, (1, 0)))
    return apply_gated(base, stack, selector, x)


def sparsity_loss(selector: AttentionalSelector) -> Tensor:
    """lambda * sum of L1 norms of all heads (zero adapter's head included)."""
    if selector.lam == 0.0:
        return Tensor(np.asarray(0.0))
    total = ad.l1_norm(selector.heads[0])
    for h in selector.heads[1:]:
        total = ad.add(total, ad.l1_norm(h))
    return ad.mul(total, selector.lam)


def trainable_set(selector: AttentionalSelector, stack: AdapterStack,
                  variant: str | None = None) -> list[Tensor]:
    """Parameters that train for the active task: new adapter pair plus heads.

    AR trains every head; NR trains only the newest head. This is the only
    encoding of that rule; drivers set ``requires_grad`` from membership.
    The zero adapter has no parameters and can never appear here.
    """
    if not stack.training_active:
        raise StateError("trainable_set requires an active task")
    variant = variant or selector.variant
    if variant not in VARIANTS:
        raise ConfigError(f"variant must be one of {VARIANTS}, got {variant!r}")
    current = stack.adapters[-1]
    params = [current.A, current.B]
    if variant == "AR":
        params.extend(selector.heads)
    else:
        params.append(selector.heads[-1])
    return params
