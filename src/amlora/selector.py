"""Attention-based gating over a stack of task adapters.

One score head (a d_out vector) per route: head 0 scores the constant-zero
route (the base model alone), head i task adapter i. Per example and position
each route's output is scored by its head, the scores are softmaxed, and the
gated sum is added to the base projection. Heads start at zero, so gates start
exactly uniform. An L1 penalty shrinks the heads toward 0, which moves every
logit toward the zero route's 0 and so the gates toward uniform; acceptance
criterion 8 counts the near-zero head entries it makes, not sparse gates.
``AmLoraDriver.extra_loss`` owns it, one ``l1_sum`` over every site's heads.
``apply_gated`` is the one gating path, one fused tape node per site, and it
hands back each call's gates; no selector keeps them. The per-op chain it is
tested against, ``gate`` and ``mixed_forward``, lives in ``tests/reference.py``.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .adapters import AdapterStack
from .autodiff import Tensor
from .errors import ConfigError, DimensionError, StateError

VARIANTS = ("NR", "AR")


class AttentionalSelector:
    """Ordered score heads [w_0, ..., w_n], one per route; ``variant``
    picks the heads that train. ``AmLoraDriver.extra_loss`` penalizes them."""

    def __init__(self, stack_len: int, d_out: int, variant: str = "AR"):
        if stack_len < 1:
            raise ConfigError("selector needs at least one head")
        if variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {variant!r}")
        self.d_out = d_out
        self.variant = variant
        self.heads: list[Tensor] = [
            Tensor(np.zeros((d_out, 1)), requires_grad=True)
            for _ in range(stack_len)]

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


def _require_fresh(selector: AttentionalSelector, n_outputs: int):
    if len(selector.heads) != n_outputs:
        raise StateError(
            f"stale selector: {len(selector.heads)} heads for "
            f"{n_outputs} adapter outputs")


def apply_gated(base_out: Tensor, stack: AdapterStack,
                selector: AttentionalSelector | None,
                x: Tensor) -> tuple[Tensor, np.ndarray | None]:
    """Add the stack's task-adapter outputs to a computed base projection.

    With a selector each output is weighted by its gate, the softmax across
    routes of the output times its head (the zero route scores 0 and
    adds nothing); without one every weight is 1, the unweighted sum of
    sinlora and inclora. Records one ``adapter_bank`` tape node, whose values
    and gradients equal bit for bit those of the reference chain in
    ``tests/reference.py``: ``stack_outputs``, ``gate``, then an
    ``index_last``/``mul``/``add`` mix. Returns ``(out, gates)``: the gates
    are the ``(..., n + 1)`` softmax weights, ``None`` without a selector.
    """
    adapters = stack.task_adapters
    for a in adapters:
        if x.data.shape[-1] != a.A.data.shape[1]:
            raise DimensionError(
                f"adapter input dim {x.data.shape[-1]} != d_in "
                f"{a.A.data.shape[1]}")
    if selector is not None:
        _require_fresh(selector, len(stack))
    return ad.adapter_bank(
        base_out, x, [(a.A, a.B, a.scale) for a in adapters],
        None if selector is None else selector.heads)


def trainable_set(selector: AttentionalSelector, stack: AdapterStack) -> list[Tensor]:
    """Parameters that train for the active task: new adapter pair plus heads.

    ``selector.variant`` AR trains every head, NR only the newest. This is the
    only encoding of that rule; drivers set ``requires_grad`` from membership.
    The zero route has no adapter; only its head can appear here.
    """
    if not stack.training_active:
        raise StateError("trainable_set requires an active task")
    current = stack.task_adapters[-1]
    params = [current.A, current.B]
    if selector.variant == "AR":
        params.extend(selector.heads)
    else:
        params.append(selector.heads[-1])
    return params
