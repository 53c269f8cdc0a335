"""Fused tape ops: gradients, bit identity with the op chains they replace,
and the per-step node budget of the hot path."""

import math
from collections import Counter

import numpy as np
import pytest

from amlora import autodiff as ad
from amlora.adapters import AdapterStack
from amlora.autodiff import Tensor, finite_diff_check
from amlora.baselines import make_driver
from amlora.configfile import default_config, to_method_spec, to_model_config
from amlora.model import build_model
from amlora.selector import AttentionalSelector, apply_gated
from reference import (adapter_apply, frozen, gate, index_last, l1_norm,
                       matmul, reshape, softmax, stack_outputs, sum_all,
                       transpose)


def _leaf(rng, shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


# ---------------------------------------------------------------------------
# finite differences


@pytest.mark.parametrize("shape", [(5, 4), (3, 4, 4)])
def test_linear_grads_match_finite_difference(shape):
    rng = np.random.default_rng(0)
    x, w, b = _leaf(rng, shape), _leaf(rng, (6, 4)), _leaf(rng, (6,))
    weights = Tensor(rng.normal(size=shape[:-1] + (6,)))

    def loss(_):
        return sum_all(ad.mul(ad.relu(ad.linear(x, w, b)), weights))

    assert finite_diff_check(loss, [x, w, b]) < 1e-6


@pytest.mark.parametrize("frozen", ["", "q", "k", "qk", "v"])
def test_attention_grads_match_finite_difference(frozen):
    rng = np.random.default_rng(1)
    q, k, v = (_leaf(rng, (2, 3, 4)) for _ in range(3))
    for name, t in zip("qkv", (q, k, v)):
        t.requires_grad = name not in frozen
    weights = Tensor(rng.normal(size=(2, 3, 4)))

    def loss(_):
        return sum_all(ad.mul(ad.attention(q, k, v, 2), weights))

    assert finite_diff_check(loss, [q, k, v]) < 1e-6


def _stack(n, rng, d_out=6, d_in=4):
    """n adapters, all off zero, all but the newest frozen."""
    stack = AdapterStack(d_out, d_in, rank=2, alpha=4.0)
    for t in range(n):
        a = stack.begin_task(seed=t)
        a.A.data = rng.normal(0.0, 0.5, size=a.A.data.shape)
        a.B.data = rng.normal(0.0, 0.5, size=a.B.data.shape)
    for a in stack.task_adapters[:-1]:
        a.A.requires_grad = a.B.requires_grad = False
    return stack


def _selector(n, rng, variant, d_out=6):
    sel = AttentionalSelector(n + 1, d_out, variant)
    for j, h in enumerate(sel.heads):
        h.data = rng.normal(0.0, 0.5, size=h.data.shape)
        h.requires_grad = variant == "AR" or j == n
    return sel


@pytest.mark.parametrize("shape", [(5,), (2, 3)])
@pytest.mark.parametrize("variant", ["AR", "NR", None])
def test_adapter_bank_grads_match_finite_difference(shape, variant):
    rng = np.random.default_rng(2)
    n = 3
    stack = _stack(n, rng)
    sel = None if variant is None else _selector(n, rng, variant)
    x = _leaf(rng, shape + (4,))
    base = _leaf(rng, shape + (6,))
    weights = Tensor(rng.normal(size=shape + (6,)))
    current = stack.task_adapters[-1]
    heads = [] if sel is None else [h for h in sel.heads if h.requires_grad]
    assert all(frozen(a) for a in stack.task_adapters[:-1])

    def loss(_):
        out, _ = apply_gated(base, stack, sel, x)
        total = sum_all(ad.mul(out, weights))
        if sel is None:
            return total
        return ad.add(total, ad.l1_sum(sel.heads, 0.01))

    assert finite_diff_check(loss, [x, base, current.A, current.B] + heads) \
        < 1e-6


# ---------------------------------------------------------------------------
# bit identity with the op chains each fused op replaces


def _reference_gated(base, stack, selector, x):
    """The per-op path: adapter outputs, the gate, then index/mul/add."""
    if selector is None:
        h = base
        for adapter in stack.task_adapters:
            h = ad.add(h, adapter_apply(adapter, x))
        return h
    outputs = stack_outputs(stack, x)
    gates = gate(selector, outputs)
    h = base
    for i, out in enumerate(outputs):
        if i:
            h = ad.add(h, ad.mul(index_last(gates, i), out))
    return h


def _reference_sparsity(selector, lam):
    total = l1_norm(selector.heads[0])
    for h in selector.heads[1:]:
        total = ad.add(total, l1_norm(h))
    return ad.mul(total, lam)


def _run(fused: bool, n, gated, variant, shape, seed):
    """Forward bytes and every leaf's grad bytes of one gated site step."""
    rng = np.random.default_rng(seed)
    stack = _stack(n, rng)
    sel = _selector(n, rng, variant) if gated else None
    x = _leaf(rng, shape + (4,))
    w, b = _leaf(rng, (6, 4)), _leaf(rng, (6,))
    weights = Tensor(rng.normal(size=shape + (6,)))
    if fused:
        base = ad.linear(x, w, b)
        out, _ = apply_gated(base, stack, sel, x)
    else:
        base = ad.add(matmul(x, transpose(w, (1, 0))), b)
        out = _reference_gated(base, stack, sel, x)
    # x feeds a second consumer, so the order of its contributions counts
    loss = ad.add(sum_all(ad.mul(out, weights)),
                  sum_all(ad.mul(ad.relu(x), weights.data[..., :4])))
    if gated:
        loss = ad.add(loss, ad.l1_sum(sel.heads, 1e-3) if fused
                      else _reference_sparsity(sel, 1e-3))
    ad.backward(loss)
    leaves = [x, w, b] + [t for a in stack.task_adapters for t in (a.A, a.B)]
    leaves += sel.heads if gated else []
    grads = [None if t.grad is None else t.grad.tobytes() for t in leaves]
    return out.data.tobytes(), loss.data.tobytes(), grads


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("gated,variant", [(True, "AR"), (True, "NR"),
                                           (False, None)])
@pytest.mark.parametrize("shape", [(7,), (3, 5)])
def test_apply_gated_is_bit_identical_to_the_op_chain(n, gated, variant,
                                                      shape):
    for seed in range(3):
        fused = _run(True, n, gated, variant, shape, seed)
        chain = _run(False, n, gated, variant, shape, seed)
        assert fused == chain


def test_zero_adapter_products_are_positive_zero():
    # the bank writes the zero route's gate logit and its head's gradient
    # as +0.0; the products of the op chain give +0.0 too, for head and
    # gradient values of either sign, as the equality above relies on
    rng = np.random.default_rng(5)
    zero = np.zeros((3, 5, 6))
    for sign in (1.0, -1.0):
        head = sign * np.abs(rng.normal(size=(6, 1)))
        grad = sign * np.abs(rng.normal(size=(3, 5, 1)))
        for product in (zero @ head, ad._weight_grad(zero, grad)):
            assert not product.any() and not np.signbit(product).any()


def test_attention_is_bit_identical_to_the_op_chain():
    rng = np.random.default_rng(4)
    b, L, d, nh = 3, 5, 8, 2
    dh = d // nh

    def split(t):
        return transpose(reshape(t, (b, L, nh, dh)), (0, 2, 1, 3))

    def run(fused):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in raw]
        q, k, v = (ad.mul(t, 1.0) for t in leaves)  # non-leaf inputs
        if fused:
            ctx = ad.attention(q, k, v, nh)
        else:
            sq, sk, sv = split(q), split(k), split(v)
            scores = ad.mul(matmul(sq, transpose(sk, (0, 1, 3, 2))),
                            1.0 / math.sqrt(dh))
            ctx = reshape(transpose(
                matmul(softmax(scores), sv), (0, 2, 1, 3)), (b, L, d))
        ad.backward(sum_all(ad.mul(ctx, weights)))
        return ctx.data.tobytes(), [t.grad.tobytes() for t in leaves]

    raw = [rng.normal(size=(b, L, d)) for _ in range(3)]
    weights = Tensor(rng.normal(size=(b, L, d)))
    assert run(True) == run(False)


# ---------------------------------------------------------------------------
# node budget


def _default_model():
    cfg = default_config()
    model = build_model(to_model_config(cfg), seed=0)
    batch = np.random.default_rng(0).integers(
        0, cfg["vocab"], size=(cfg["batch"], cfg["seq_len"]))
    labels = np.arange(cfg["batch"]) % cfg["classes"]
    return cfg, model, batch, labels


def _step_tags(model, batch, labels, driver=None) -> Counter:
    """Tape tags of one training step, the driver's extra loss recorded after
    the forward as ``train_task`` records it."""
    ad.reset_tape()
    loss = ad.cross_entropy(model.forward(batch, mode="train",
                                          rng=np.random.default_rng(1)),
                            labels)
    extra = None if driver is None else driver.extra_loss(model)
    if extra is not None:
        loss = ad.add(loss, extra)
    tags = Counter(n.tag for n in ad._state().tape)
    ad.reset_tape()
    return tags


def _step_nodes(model, batch, labels, driver=None) -> int:
    return sum(_step_tags(model, batch, labels, driver).values())


def test_pretraining_step_node_budget():
    # all base weights train, as in pretrain_base and seqft; 79 nodes when
    # every linear and attention block was a chain of ops
    _, model, batch, labels = _default_model()
    model.train_only([t for _, t in model.base_parameters()])
    assert _step_nodes(model, batch, labels) <= 30


def test_amlora_step_node_budget_at_four_adapters():
    # default config, fourth task: 213 nodes when each adapter, gate logit
    # and L1 term was its own chain of ops
    cfg, model, batch, labels = _default_model()
    driver = make_driver(to_method_spec(cfg))
    driver.attach(model, seed=0)
    for stage in range(4):
        driver.start_stage(model, stage, seed=stage)
    assert all(len(s.stack.task_adapters) == 4 for s in model.sites.values())
    assert _step_nodes(model, batch, labels, driver) <= 40


@pytest.mark.parametrize("lam", [1e-5, 0.0])
def test_amlora_stage_step_tape_histogram(lam):
    # default config, first stage: one l1 node over every site's heads; 36
    # nodes when each site recorded its own l1 term and an add joined them
    cfg, model, batch, labels = _default_model()
    cfg["lambda"] = lam
    driver = make_driver(to_method_spec(cfg))
    driver.attach(model, seed=0)
    driver.start_stage(model, 0, seed=0)
    want = Counter(adapter_bank=4, add=5, attention=2, cross_entropy=1, l1=1,
                   linear=10, mean=1, mul=4, relu=2)
    if lam == 0.0:  # no penalty, so neither its node nor the add joining it
        want.subtract(l1=1, add=1)
    tags = _step_tags(model, batch, labels, driver)
    assert +tags == +want
    assert sum(tags.values()) == (30 if lam else 28)
