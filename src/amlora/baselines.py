"""Training-method drivers for sequential task streams.

Each driver tells the harness what to attach to the model, which tensors
train during a given stage (``stage_params``; ``Driver.start_stage`` lets
exactly those train), and what extra loss terms apply. Methods, and what
each stage trains:

* ``seqft``     -- every base weight, task after task.
* ``sinlora``   -- one low-rank adapter pair per site, the same in each stage.
* ``inclora``   -- a new adapter pair per site; earlier pairs stay fixed and
                   all outputs are summed without any weighting.
* ``amlora``    -- a new adapter pair per site plus all gate heads (AR) or the
                   newest (NR); the gate mixes the outputs by softmax weights.
* ``pertaskft`` -- every base weight of a fresh model per task.
* ``mtl``       -- every base weight, on the shuffled union of all tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .adapters import DEFAULT_ALPHA, DEFAULT_RANK, AdapterStack
from .errors import ConfigError
from .selector import AttentionalSelector

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
        """The tensors that train in ``stage``; every other tensor of the
        model is frozen. The one place a method's choice is applied."""
        params = self.stage_params(model, stage, seed)
        model.train_only(params)
        return params

    def stage_params(self, model, stage: int, seed: int) -> list:
        return []

    def extra_loss(self, model):
        return None


class SeqFTDriver(Driver):
    def stage_params(self, model, stage, seed):
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

    def stage_params(self, model, stage, seed):
        params = []
        for site in model.sites.values():
            a = site.stack.task_adapters[0]
            params.extend([a.A, a.B])
        return params


class IncLoraDriver(Driver):
    def attach(self, model, seed):
        _attach_stacks(model, self.spec)

    def stage_params(self, model, stage, seed):
        seeds = _site_seeds(seed, model.sites)
        params = []
        for name, site in model.sites.items():
            a = site.stack.begin_task(seeds[name])
            params.extend([a.A, a.B])
        return params


class AmLoraDriver(IncLoraDriver):
    lam = 0.0  # the current stage's L1 weight, spec.lam_at(stage)

    def attach(self, model, seed):
        _attach_stacks(model, self.spec)
        for site in model.sites.values():
            site.selector = AttentionalSelector(1, site.d_out, self.spec.variant)

    def stage_params(self, model, stage, seed):
        """Per site the new adapter pair, then all heads (AR) or the newest."""
        self.lam = self.spec.lam_at(stage)
        seeds = _site_seeds(seed, model.sites)
        params = []
        for name, site in model.sites.items():
            a = site.stack.begin_task(seeds[name])
            site.selector.extend_for_task(site.stack)
            heads = site.selector.heads
            params += [a.A, a.B] + (heads if site.selector.variant == "AR"
                                    else heads[-1:])
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
