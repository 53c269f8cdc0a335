"""Low-rank adapter pairs: init, application, stacking, freezing."""

import numpy as np
import pytest

from amlora import autodiff as ad
from amlora.adapters import AdapterStack, new_adapter
from amlora.autodiff import Tensor, finite_diff_check
from amlora.errors import ConfigError, DimensionError, StateError
from reference import (adapter_apply, frozen, materialized, merged_weight,
                       stack_outputs, sum_all)


def test_new_adapter_shapes_and_init():
    a = new_adapter(12, 10, rank=3, alpha=6.0, seed=7)
    assert a.A.data.shape == (3, 10)
    assert a.B.data.shape == (12, 3)
    assert np.all(a.B.data == 0.0)
    assert a.A.requires_grad and a.B.requires_grad
    assert a.scale == 2.0
    # Gaussian(0, 0.02) draw: loose moment check on a bigger sample.
    big = new_adapter(64, 64, rank=16, seed=0)
    assert abs(big.A.data.std() - 0.02) < 0.005
    assert abs(big.A.data.mean()) < 0.005


def test_new_adapter_seed_determinism():
    a = new_adapter(8, 8, rank=2, seed=11)
    b = new_adapter(8, 8, rank=2, seed=11)
    c = new_adapter(8, 8, rank=2, seed=12)
    assert a.A.data.tobytes() == b.A.data.tobytes()
    assert a.A.data.tobytes() != c.A.data.tobytes()


def test_rank_validation():
    with pytest.raises(ConfigError):
        new_adapter(8, 8, rank=0)
    with pytest.raises(ConfigError):
        new_adapter(8, 8, rank=5)  # min(8,8)//2 == 4
    new_adapter(8, 8, rank=4)  # boundary is allowed


def test_zero_init_update_is_exactly_zero():
    a = new_adapter(16, 8, rank=4, seed=3)
    x = Tensor(np.random.default_rng(0).normal(size=(5, 8)))
    out = adapter_apply(a, x)
    assert out.data.shape == (5, 16)
    assert np.all(out.data == 0.0)


def test_lowrank_route_matches_dense_route():
    # Same update computed two ways: factored (alpha/r)((xA^T)B^T) versus
    # x @ ((alpha/r) B A)^T. Must agree to float noise.
    rng = np.random.default_rng(42)
    a = new_adapter(9, 7, rank=3, alpha=12.0, seed=5)
    a.B.data = rng.normal(0.0, 0.3, size=a.B.data.shape)
    x = Tensor(rng.normal(size=(6, 7)))
    fast = adapter_apply(a, x).data
    dense = x.data @ materialized(a).T
    assert np.allclose(fast, dense, atol=1e-12)


def test_adapter_apply_3d_input():
    rng = np.random.default_rng(1)
    a = new_adapter(10, 6, rank=2, seed=9)
    a.B.data = rng.normal(size=a.B.data.shape)
    x = Tensor(rng.normal(size=(4, 5, 6)))
    out = adapter_apply(a, x)
    assert out.data.shape == (4, 5, 10)
    dense = x.data @ materialized(a).T
    assert np.allclose(out.data, dense, atol=1e-12)


def test_adapter_apply_dim_mismatch():
    a = new_adapter(10, 6, rank=2)
    with pytest.raises(DimensionError):
        adapter_apply(a, Tensor(np.zeros((4, 7))))


def test_adapter_grads_match_finite_difference():
    rng = np.random.default_rng(8)
    a = new_adapter(6, 5, rank=2, alpha=4.0, seed=2)
    a.B.data = rng.normal(0.0, 0.1, size=a.B.data.shape)
    x = Tensor(rng.normal(size=(3, 5)))
    weights = Tensor(rng.normal(size=(3, 6)))

    def loss_fn(_params):
        return sum_all(ad.mul(adapter_apply(a, x), weights))

    assert finite_diff_check(loss_fn, [a.A, a.B]) < 1e-6


def test_freeze_clears_grad_and_flags():
    a = new_adapter(8, 8, rank=2, seed=0)
    a.A.grad = np.ones_like(a.A.data)
    assert not frozen(a)
    a.freeze()
    assert frozen(a)
    assert not a.A.requires_grad and not a.B.requires_grad
    assert a.A.grad is None and a.B.grad is None


def test_stack_lifecycle():
    stack = AdapterStack(8, 8, rank=2)
    assert len(stack) == 1
    assert stack.task_adapters == []
    first = stack.begin_task(seed=1)
    assert len(stack) == 2 and stack.task_adapters[0] is first
    assert not frozen(first)
    stack.training_active = True
    with pytest.raises(StateError):
        stack.begin_task(seed=2)
    stack.training_active = False
    second = stack.begin_task(seed=2)
    assert frozen(first) and not frozen(second)
    assert stack.task_adapters[1] is second


def test_stack_outputs_layout():
    stack = AdapterStack(6, 4, rank=2)
    stack.begin_task(seed=0)
    stack.begin_task(seed=1)
    x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
    outs = stack_outputs(stack, x)
    assert len(outs) == 3
    assert np.all(outs[0].data == 0.0)
    for o in outs:
        assert o.data.shape == (3, 6)


def test_frozen_adapter_bytes_survive_training_new_one():
    rng = np.random.default_rng(4)
    stack = AdapterStack(6, 6, rank=2, alpha=4.0)
    old = stack.begin_task(seed=0)
    old.B.data = rng.normal(0.0, 0.1, size=old.B.data.shape)
    snap_a, snap_b = old.A.data.tobytes(), old.B.data.tobytes()
    new = stack.begin_task(seed=1)
    opt = ad.Optimizer([new.A, new.B], lr=0.05)
    x = Tensor(rng.normal(size=(4, 6)))
    target = Tensor(rng.normal(size=(4, 6)))
    for _ in range(3):
        loss = sum_all(ad.mul(adapter_apply(new, x), target))
        ad.backward(loss)
        opt.step()
    assert old.A.data.tobytes() == snap_a
    assert old.B.data.tobytes() == snap_b
    assert new.B.data.tobytes() != np.zeros_like(new.B.data).tobytes()


def test_param_count():
    stack = AdapterStack(10, 6, rank=2)
    assert stack.param_count() == 0
    stack.begin_task(seed=0)
    assert stack.param_count() == 2 * (10 + 6)
    stack.begin_task(seed=1)
    assert stack.param_count() == 2 * 2 * (10 + 6)


def test_merged_weight_oracle():
    rng = np.random.default_rng(6)
    stack = AdapterStack(5, 4, rank=2, alpha=2.0)
    for s in range(2):
        a = stack.begin_task(seed=s)
        a.B.data = rng.normal(size=a.B.data.shape)
    w0 = Tensor(rng.normal(size=(5, 4)))
    merged = merged_weight(stack, w0)
    expect = w0.data + sum(materialized(a) for a in stack.task_adapters)
    assert np.allclose(merged, expect, atol=1e-12)
    with pytest.raises(DimensionError):
        merged_weight(stack, Tensor(np.zeros((4, 4))))
