"""Gating over adapter stacks: softmax scores, sparsity, trainable sets."""

import numpy as np
import pytest

from amlora import autodiff as ad
from amlora.adapters import AdapterStack
from amlora.autodiff import Tensor, finite_diff_check
from amlora.errors import ConfigError, StateError
from amlora.selector import (AttentionalSelector, apply_gated, gate,
                             mixed_forward, trainable_set)
from reference import materialized, stack_outputs


def make_stack(n_tasks, d_out=6, d_in=4, rank=2, alpha=4.0, spread=0.5):
    """Stack with n_tasks adapters whose B matrices are randomized."""
    rng = np.random.default_rng(100 + n_tasks)
    stack = AdapterStack(d_out, d_in, rank=rank, alpha=alpha)
    for t in range(n_tasks):
        a = stack.begin_task(seed=t)
        a.B.data = rng.normal(0.0, spread, size=a.B.data.shape)
    return stack


def test_selector_validation():
    with pytest.raises(ConfigError):
        AttentionalSelector(0, 4)
    with pytest.raises(ConfigError):
        AttentionalSelector(2, 4, variant="XY")


def test_param_count_per_site():
    sel = AttentionalSelector(5, 32)
    assert sel.param_count() == 5 * 32


def test_fresh_gates_are_uniform():
    for n in (1, 2, 4):
        stack = make_stack(n)
        sel = AttentionalSelector(len(stack), stack.d_out)
        x = Tensor(np.random.default_rng(n).normal(size=(7, 4)))
        gates = gate(sel, stack_outputs(stack, x))
        assert gates.data.shape == (7, n + 1)
        assert np.max(np.abs(gates.data - 1.0 / (n + 1))) <= 1e-12


def test_gate_rows_sum_to_one_fuzzed():
    rng = np.random.default_rng(0)
    stack = make_stack(3)
    sel = AttentionalSelector(len(stack), stack.d_out)
    for trial in range(50):
        for h in sel.heads:
            h.data = rng.normal(0.0, 2.0, size=h.data.shape)
        x = Tensor(rng.normal(size=(5, 4)))
        gates = gate(sel, stack_outputs(stack, x))
        assert np.max(np.abs(gates.data.sum(axis=-1) - 1.0)) <= 1e-10


def test_gate_3d_shapes():
    stack = make_stack(2)
    sel = AttentionalSelector(len(stack), stack.d_out)
    x = Tensor(np.random.default_rng(5).normal(size=(3, 9, 4)))
    gates = gate(sel, stack_outputs(stack, x))
    assert gates.data.shape == (3, 9, 3)


def test_stale_selector_raises():
    stack = make_stack(2)
    sel = AttentionalSelector(2, stack.d_out)  # one head short
    x = Tensor(np.zeros((2, 4)))
    with pytest.raises(StateError, match="stale"):
        gate(sel, stack_outputs(stack, x))


def test_extend_for_task():
    stack = make_stack(1)
    sel = AttentionalSelector(2, stack.d_out)
    with pytest.raises(StateError):
        sel.extend_for_task(stack)  # already matches
    stack.begin_task(seed=9)
    sel.extend_for_task(stack)
    assert len(sel.heads) == 3
    assert np.all(sel.heads[-1].data == 0.0)
    stack.begin_task(seed=10)
    stack.begin_task(seed=11)
    with pytest.raises(StateError):
        sel.extend_for_task(stack)  # would need to grow by two


def test_uniform_gate_reduction():
    # Zero heads: output must equal base + (1/(n+1)) * sum of task updates.
    rng = np.random.default_rng(2)
    for n in (1, 2, 4):
        stack = make_stack(n)
        sel = AttentionalSelector(len(stack), stack.d_out)
        x = Tensor(rng.normal(size=(8, 4)))
        w0 = Tensor(rng.normal(size=(stack.d_out, 4)))
        got = mixed_forward(w0, stack, sel, x).data
        expect = x.data @ w0.data.T
        for a in stack.task_adapters:
            expect = expect + (x.data @ materialized(a).T) / (n + 1)
        assert np.max(np.abs(got - expect)) <= 1e-10


def test_mixed_forward_matches_numpy_oracle():
    rng = np.random.default_rng(3)
    stack = make_stack(3)
    sel = AttentionalSelector(len(stack), stack.d_out)
    for h in sel.heads:
        h.data = rng.normal(0.0, 1.0, size=h.data.shape)
    x = Tensor(rng.normal(size=(5, 4)))
    w0 = Tensor(rng.normal(size=(stack.d_out, 4)))
    got = mixed_forward(w0, stack, sel, x).data

    outs = [np.zeros((5, stack.d_out))]
    outs += [x.data @ materialized(a).T for a in stack.task_adapters]
    logits = np.stack([o @ h.data[:, 0] for o, h in zip(outs, sel.heads)],
                      axis=-1)
    z = np.exp(logits - logits.max(axis=-1, keepdims=True))
    g = z / z.sum(axis=-1, keepdims=True)
    expect = x.data @ w0.data.T
    for i in range(1, 4):
        expect = expect + g[:, i:i + 1] * outs[i]
    assert np.max(np.abs(got - expect)) <= 1e-10


def test_apply_gated_returns_its_gates():
    stack = make_stack(2)
    x = Tensor(np.random.default_rng(7).normal(size=(4, 5, 4)))
    base = Tensor(np.zeros((4, 5, stack.d_out)))
    sel = AttentionalSelector(len(stack), stack.d_out)
    for h in sel.heads:
        h.data = np.random.default_rng(8).normal(0.0, 0.5, h.data.shape)
    out, gates = apply_gated(base, stack, sel, x)
    assert out.data.shape == (4, 5, stack.d_out)
    assert gates.shape == (4, 5, 3)
    assert np.allclose(gates.sum(axis=-1), 1.0)
    assert np.array_equal(gates, gate(sel, stack_outputs(stack, x)).data)
    out, gates = apply_gated(base, stack, None, x)
    assert gates is None and out.data.shape == (4, 5, stack.d_out)


def test_sparsity_loss_exact_value():
    sel = AttentionalSelector(2, 3)
    sel.heads[0].data = np.array([[1.0], [-2.0], [0.0]])
    sel.heads[1].data = np.array([[0.5], [0.0], [4.0]])
    assert ad.l1_sum(sel.heads, 0.5).data == 0.5 * (3.0 + 4.5)


def test_sparsity_subgradient_zero_at_zero():
    sel = AttentionalSelector(2, 3)
    loss = ad.l1_sum(sel.heads, 0.7)
    ad.backward(loss)
    for h in sel.heads:
        assert np.all(h.grad == 0.0)


def test_sparsity_gradient_is_scaled_sign():
    sel = AttentionalSelector(1, 3)
    sel.heads[0].data = np.array([[2.0], [-3.0], [0.0]])
    ad.backward(ad.l1_sum(sel.heads, 0.25))
    assert np.array_equal(sel.heads[0].grad, 0.25 * np.array([[1.0], [-1.0], [0.0]]))


def test_trainable_set_variants():
    stack = make_stack(3)
    sel = AttentionalSelector(len(stack), stack.d_out)
    with pytest.raises(StateError):
        trainable_set(sel, stack)
    stack.training_active = True
    current = stack.task_adapters[-1]

    sel.variant = "NR"
    nr = trainable_set(sel, stack)
    assert nr == [current.A, current.B, sel.heads[-1]]

    sel.variant = "AR"
    ar = trainable_set(sel, stack)
    assert ar == [current.A, current.B] + sel.heads


def test_gated_forward_grads_match_finite_difference():
    rng = np.random.default_rng(11)
    stack = make_stack(2, spread=0.2)
    sel = AttentionalSelector(len(stack), stack.d_out)
    for h in sel.heads:
        h.data = rng.normal(0.0, 0.3, size=h.data.shape)
    x = Tensor(rng.normal(size=(4, 4)))
    w0 = Tensor(rng.normal(0.0, 0.2, size=(stack.d_out, 4)))
    y = np.array([0, 1, 2, 0])
    stack.training_active = True
    params = trainable_set(sel, stack)

    def loss_fn(_params):
        logits = mixed_forward(w0, stack, sel, x)
        return ad.cross_entropy(logits, y)

    assert finite_diff_check(loss_fn, params) < 1e-6
