"""Training-method drivers for sequential task streams.

Each driver tells the harness what to attach to the model, which parameters
train during a given stage, and what extra loss terms apply. Methods:

* ``seqft``     -- full fine-tuning of all base weights, task after task.
* ``sinlora``   -- one low-rank adapter per site, trained continually and
                   never frozen.
* ``inclora``   -- a new adapter per task; prior adapters freeze and their
                   outputs are summed without any weighting.
* ``amlora``    -- a new adapter per task plus a gating selector that mixes
                   all adapter outputs with input-dependent softmax weights.
* ``pertaskft`` -- an independent fully fine-tuned model per task.
* ``mtl``       -- one model trained on the shuffled union of all tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .adapters import DEFAULT_ALPHA, DEFAULT_RANK, AdapterStack
from .errors import ConfigError
from .selector import AttentionalSelector, trainable_set

METHODS = ("seqft", "sinlora", "inclora", "amlora", "pertaskft", "mtl")


def check_lambda(values, shown) -> None:
    """The one range rule for the L1 weight: every value finite and >= 0."""
    if not all(math.isfinite(x) and x >= 0 for x in values):
        raise ConfigError(f"lambda must be finite and >= 0, got {shown!r}")


@dataclass
class MethodSpec:
    name: str = "amlora"
    rank: int = DEFAULT_RANK
    alpha: float = DEFAULT_ALPHA
    variant: str = "AR"
    # scalar, or one value per task stage (last value repeats if short)
    lam: object = 1e-5

    def __post_init__(self):
        if self.name not in METHODS:
            raise ConfigError(f"unknown method {self.name!r} "
                              f"(choose from {METHODS})")
        check_lambda(np.asarray(self.lam, dtype=float).ravel(), self.lam)

    def lam_at(self, stage: int) -> float:
        lams = np.asarray(self.lam, dtype=float).ravel()
        return float(lams[min(stage, len(lams) - 1)]) if len(lams) else 0.0


def _site_seeds(seed: int, site_names) -> dict:
    children = np.random.SeedSequence(seed).spawn(len(site_names))
    return {name: int(ss.generate_state(1)[0])
            for name, ss in zip(sorted(site_names), children)}


def _attach_stacks(model, spec: MethodSpec):
    model.set_base_trainable(False)
    for site in model.sites.values():
        site.stack = AdapterStack(site.d_out, site.d_in, spec.rank, spec.alpha)


class Driver:
    """Base driver: no adapters, nothing trains."""

    fresh_model_per_stage = False
    union_training = False

    def __init__(self, spec: MethodSpec):
        self.spec = spec

    def attach(self, model, seed: int):
        pass

    def start_stage(self, model, stage: int, seed: int) -> list:
        return []

    def extra_loss(self, model):
        return None

    def end_stage(self, model, stage: int):
        pass


class SeqFTDriver(Driver):
    def attach(self, model, seed):
        model.set_base_trainable(True)

    def start_stage(self, model, stage, seed):
        return [t for _, t in model.base_parameters()]


class PerTaskFTDriver(SeqFTDriver):
    fresh_model_per_stage = True


class MTLDriver(SeqFTDriver):
    union_training = True


class SinLoraDriver(Driver):
    def attach(self, model, seed):
        _attach_stacks(model, self.spec)
        seeds = _site_seeds(seed, model.sites)
        for name, site in model.sites.items():
            site.stack.begin_task(seeds[name])
            site.stack.training_active = True

    def start_stage(self, model, stage, seed):
        params = []
        for site in model.sites.values():
            a = site.stack.task_adapters[0]
            params.extend([a.A, a.B])
        return params


class IncLoraDriver(Driver):
    def attach(self, model, seed):
        _attach_stacks(model, self.spec)

    def start_stage(self, model, stage, seed):
        seeds = _site_seeds(seed, model.sites)
        params = []
        for name, site in model.sites.items():
            site.stack.begin_task(seeds[name])
            site.stack.training_active = True
            a = site.stack.task_adapters[-1]
            params.extend([a.A, a.B])
        return params

    def end_stage(self, model, stage):
        for site in model.sites.values():
            site.stack.training_active = False


class AmLoraDriver(IncLoraDriver):
    lam = 0.0  # the current stage's L1 weight, spec.lam_at(stage)

    def attach(self, model, seed):
        _attach_stacks(model, self.spec)
        for site in model.sites.values():
            site.selector = AttentionalSelector(1, site.d_out, self.spec.variant)

    def start_stage(self, model, stage, seed):
        super().start_stage(model, stage, seed)
        self.lam = self.spec.lam_at(stage)
        params = []
        for site in model.sites.values():
            site.selector.extend_for_task(site.stack)
            trainable = trainable_set(site.selector, site.stack)
            for head in site.selector.heads:
                head.requires_grad = head in trainable
            params.extend(trainable)
        return params

    def extra_loss(self, model):
        """lam times the L1 norms of every site's heads, the zero route's
        included, as one ``l1`` tape node; ``None`` when the stage's lam is 0."""
        if self.lam == 0.0:
            return None
        return ad.l1_sum([h for site in model.sites.values()
                          for h in site.selector.heads], self.lam)


_DRIVERS = {
    "seqft": SeqFTDriver,
    "sinlora": SinLoraDriver,
    "inclora": IncLoraDriver,
    "amlora": AmLoraDriver,
    "pertaskft": PerTaskFTDriver,
    "mtl": MTLDriver,
}


def make_driver(spec: MethodSpec) -> Driver:
    return _DRIVERS[spec.name](spec)
