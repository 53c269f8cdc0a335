"""Method drivers: trainable sets, freezing, per-stage lifecycle."""

import numpy as np
import pytest

from amlora import autodiff as ad
from amlora.autodiff import Optimizer
from amlora.baselines import (METHODS, AmLoraDriver, IncLoraDriver,
                              MethodSpec, MTLDriver, PerTaskFTDriver,
                              SeqFTDriver, SinLoraDriver, _site_seeds,
                              make_driver)
from amlora.errors import ConfigError
from amlora.model import ModelConfig, build_model
from reference import frozen

CFG = ModelConfig(vocab_size=32, embed_dim=8, num_layers=1, num_heads=2,
                  seq_len=6, num_classes=3, dropout_rate=0.0,
                  adapter_sites=("query", "value"))


def fresh_model(seed=0):
    return build_model(CFG, seed)


def batch(seed=0, b=8):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 32, size=(b, 6)), rng.integers(0, 3, size=b)


def train_steps(model, driver, params, n=4, seed=0, lr=0.05):
    opt = Optimizer(params, lr=lr)
    x, y = batch(seed)
    for _ in range(n):
        loss = ad.cross_entropy(model.forward(x, mode="train"), y)
        extra = driver.extra_loss(model)
        if extra is not None:
            loss = ad.add(loss, extra)
        ad.backward(loss)
        opt.step()


def snapshot(tensors):
    return [t.data.tobytes() for t in tensors]


def test_method_spec_validation():
    with pytest.raises(ConfigError, match="unknown method"):
        MethodSpec("dreamft")
    for name in METHODS:
        MethodSpec(name)


def test_lam_schedule():
    assert MethodSpec("amlora", lam=1e-3).lam_at(5) == 1e-3
    sched = MethodSpec("amlora", lam=[0.0, 1e-4, 1e-2])
    assert sched.lam_at(0) == 0.0
    assert sched.lam_at(1) == 1e-4
    assert sched.lam_at(7) == 1e-2  # clamps to the last entry
    assert MethodSpec("amlora", lam=[]).lam_at(0) == 0.0


@pytest.mark.parametrize("lam", [-1.0, [0.0, -1e-3], float("nan"),
                                 float("inf")])
def test_method_spec_rejects_negative_or_non_finite_lambda(lam):
    # A negative weight would reward dense gates, the opposite of the L1
    # term's purpose; the spec is the one owner of lambda's range.
    with pytest.raises(ConfigError, match="lambda"):
        MethodSpec("amlora", lam=lam)


@pytest.mark.parametrize("lam", [0.0, 1e-3])
def test_amlora_extra_loss_is_the_stage_lambda_times_every_site_l1(lam):
    model = fresh_model()
    driver = make_driver(MethodSpec("amlora", rank=2, alpha=4.0, lam=lam))
    driver.attach(model, seed=0)
    assert driver.extra_loss(model) is None  # before the first stage
    driver.start_stage(model, 0, seed=1)
    rng = np.random.default_rng(3)
    for site in model.sites.values():
        for h in site.selector.heads:
            h.data = rng.normal(size=h.data.shape)
    extra = driver.extra_loss(model)
    if lam == 0.0:
        assert extra is None and ad._state().tape == []
        return
    # one l1 node over every site's heads, the zero route's included
    assert [n.tag for n in ad._state().tape] == ["l1"]
    heads = [h for site in model.sites.values() for h in site.selector.heads]
    total = np.abs(heads[0].data).sum()
    for h in heads[1:]:
        total = total + np.abs(h.data).sum()
    assert extra.data.tobytes() == np.asarray(total * lam).tobytes()
    ad.backward(extra)
    for h in heads:
        assert np.array_equal(h.grad, np.sign(h.data) * lam)


def test_make_driver_dispatch():
    classes = dict(seqft=SeqFTDriver, sinlora=SinLoraDriver,
                   inclora=IncLoraDriver, amlora=AmLoraDriver,
                   pertaskft=PerTaskFTDriver, mtl=MTLDriver)
    for name, cls in classes.items():
        assert type(make_driver(MethodSpec(name))) is cls


def test_stage_flags():
    assert PerTaskFTDriver(MethodSpec("pertaskft")).fresh_model_per_stage
    assert MTLDriver(MethodSpec("mtl")).union_training
    assert not SeqFTDriver(MethodSpec("seqft")).fresh_model_per_stage
    assert not SeqFTDriver(MethodSpec("seqft")).union_training


def test_site_seeds_deterministic_and_distinct():
    names = ["layers.0.query", "layers.0.value"]
    a = _site_seeds(7, names)
    b = _site_seeds(7, list(reversed(names)))  # order of names must not matter
    assert a == b
    assert a["layers.0.query"] != a["layers.0.value"]
    assert _site_seeds(8, names) != a


def test_seqft_trains_everything():
    model = fresh_model()
    driver = make_driver(MethodSpec("seqft"))
    driver.attach(model, seed=0)
    assert all(s.stack is None for s in model.sites.values())
    params = driver.start_stage(model, 0, seed=1)
    base = [t for _, t in model.base_parameters()]
    assert params == base
    assert all(p.requires_grad for p in params)


def test_sinlora_single_persistent_adapter():
    model = fresh_model()
    driver = make_driver(MethodSpec("sinlora", rank=2, alpha=4.0))
    driver.attach(model, seed=0)
    assert all(s.stack is not None and s.selector is None
               for s in model.sites.values())
    p0 = driver.start_stage(model, 0, seed=1)
    train_steps(model, driver, p0, seed=1)
    driver.end_stage(model, 0)
    p1 = driver.start_stage(model, 1, seed=2)
    # same tensors stay trainable across stages; nothing is ever frozen
    assert [id(t) for t in p0] == [id(t) for t in p1]
    for site in model.sites.values():
        assert len(site.stack.task_adapters) == 1
        assert not frozen(site.stack.task_adapters[0])


def test_inclora_freezes_previous_stages():
    model = fresh_model()
    driver = make_driver(MethodSpec("inclora", rank=2, alpha=4.0))
    driver.attach(model, seed=0)
    assert all(s.stack is not None and s.selector is None
               for s in model.sites.values())
    base_snap = snapshot([t for _, t in model.base_parameters()])

    p0 = driver.start_stage(model, 0, seed=1)
    assert len(p0) == 2 * len(model.sites)
    train_steps(model, driver, p0, seed=1)
    driver.end_stage(model, 0)
    first = [site.stack.task_adapters[0] for site in model.sites.values()]
    first_snap = snapshot([t for a in first for t in (a.A, a.B)])

    p1 = driver.start_stage(model, 1, seed=2)
    assert set(map(id, p0)).isdisjoint(map(id, p1))
    train_steps(model, driver, p1, seed=2)
    driver.end_stage(model, 1)

    assert all(frozen(a) for a in first)
    assert snapshot([t for a in first for t in (a.A, a.B)]) == first_snap
    assert snapshot([t for _, t in model.base_parameters()]) == base_snap
    # the stage-1 adapters actually moved
    for site in model.sites.values():
        assert not np.all(site.stack.task_adapters[1].B.data == 0.0)


def test_amlora_selector_growth_and_variants():
    for variant in ("AR", "NR"):
        model = fresh_model()
        driver = make_driver(MethodSpec("amlora", rank=2, alpha=4.0,
                                        variant=variant, lam=1e-4))
        driver.attach(model, seed=0)
        assert all(s.stack is not None and s.selector is not None
                   for s in model.sites.values())
        for site in model.sites.values():
            assert len(site.selector.heads) == 1

        p0 = driver.start_stage(model, 0, seed=1)
        train_steps(model, driver, p0, seed=1)
        driver.end_stage(model, 0)
        p1 = driver.start_stage(model, 1, seed=2)
        for site in model.sites.values():
            heads = site.selector.heads
            assert len(heads) == 3
            if variant == "NR":
                assert [h.requires_grad for h in heads] == [False, False, True]
            else:
                assert all(h.requires_grad for h in heads)
        # per-site params: A, B, plus one head (NR) or all heads (AR)
        per_site = 2 + (3 if variant == "AR" else 1)
        assert len(p1) == per_site * len(model.sites)
        train_steps(model, driver, p1, seed=2)
        driver.end_stage(model, 1)


def test_amlora_old_adapters_freeze_but_ar_heads_move():
    model = fresh_model()
    driver = make_driver(MethodSpec("amlora", rank=2, alpha=4.0, variant="AR"))
    driver.attach(model, seed=0)
    p0 = driver.start_stage(model, 0, seed=1)
    train_steps(model, driver, p0, seed=1)
    driver.end_stage(model, 0)
    first = [site.stack.task_adapters[0] for site in model.sites.values()]
    adapter_snap = snapshot([t for a in first for t in (a.A, a.B)])
    head_snap = snapshot([site.selector.heads[1]
                          for site in model.sites.values()])
    p1 = driver.start_stage(model, 1, seed=2)
    train_steps(model, driver, p1, seed=2, n=8)
    assert snapshot([t for a in first for t in (a.A, a.B)]) == adapter_snap
    moved = snapshot([site.selector.heads[1] for site in model.sites.values()])
    assert moved != head_snap  # AR re-tunes earlier heads


def test_amlora_lambda_schedule_applies_per_stage():
    model = fresh_model()
    driver = make_driver(MethodSpec("amlora", rank=2, lam=[0.0, 1e-3]))
    driver.attach(model, seed=0)
    driver.start_stage(model, 0, seed=1)
    assert driver.lam == 0.0
    assert driver.extra_loss(model) is None
    driver.end_stage(model, 0)
    driver.start_stage(model, 1, seed=2)
    assert driver.lam == 1e-3
    extra = driver.extra_loss(model)
    assert extra is not None and extra.data.shape == ()


def test_amlora_zero_head_gets_zero_grad():
    # Head 0 scores the constant-zero route (the base model alone), so it
    # receives an exactly-zero (but present) gradient.
    model = fresh_model()
    driver = make_driver(MethodSpec("amlora", rank=2, alpha=4.0))
    driver.attach(model, seed=0)
    params = driver.start_stage(model, 0, seed=1)
    x, y = batch()
    loss = ad.cross_entropy(model.forward(x, mode="train"), y)
    ad.backward(loss)
    for site in model.sites.values():
        g = site.selector.heads[0].grad
        assert g is not None and np.all(g == 0.0)
    for p in params:
        p.grad = None
