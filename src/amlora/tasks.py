"""Seeded synthetic classification tasks for sequential-learning experiments.

Two generators:

* ``token_signature`` -- each class owns a small disjoint set of signature
  tokens; sequences mix signature tokens (probability ``p_sig``) with
  background tokens drawn from a vocabulary shared across tasks. The shared
  background is what makes tasks interfere.
* ``rotated_gaussian`` -- class means on a circle in the first two feature
  dimensions, rotated by a per-task angle, with isotropic noise.

Generation is a pure function of the spec: train and eval splits use
disjoint sub-seeds and, for token tasks, eval rows colliding with train rows
are resampled so the splits are disjoint by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# generator -> the backbone that reads its examples (token ids or features)
GENERATORS = {"token_signature": "transformer", "rotated_gaussian": "mlp"}


@dataclass
class TaskSpec:
    task_id: int
    num_classes: int
    train_per_class: int
    eval_per_class: int
    generator: str
    params: dict
    seed: int


@dataclass
class TaskData:
    spec: TaskSpec
    train_x: np.ndarray
    train_y: np.ndarray
    eval_x: np.ndarray
    eval_y: np.ndarray


@dataclass
class TaskStream:
    tasks: list[TaskSpec]
    order_id: str = "order1"
    # Held-out pretext task used to pretrain the base model before any
    # sequential training; it owns its own signature-token region.
    pretrain: TaskSpec | None = None

    def __post_init__(self):
        if not self.tasks:
            raise ConfigError("a task stream needs at least one task")
        ids = [t.task_id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate task ids in stream: {ids}")

    def __len__(self):
        return len(self.tasks)


def signature_tokens(params: dict, task_id: int, cls: int) -> np.ndarray:
    """The token ids owned by (task, class); disjoint across both."""
    vocab = params["vocab"]
    per_class = params["sig_tokens_per_class"]
    num_tasks = params["num_tasks"]
    num_classes = params["num_classes"]
    bg = vocab - num_tasks * num_classes * per_class
    start = bg + (task_id * num_classes + cls) * per_class
    return np.arange(start, start + per_class)


def _background_count(params: dict) -> int:
    vocab = params["vocab"]
    per_class = params["sig_tokens_per_class"]
    reserved = params["num_tasks"] * params["num_classes"] * per_class
    if reserved > vocab:
        raise ConfigError(
            f"{params['num_tasks']} tasks x {params['num_classes']} classes x "
            f"{per_class} signature tokens exceed vocabulary {vocab}")
    bg = vocab - reserved
    if bg < 1 and params["p_sig"] < 1.0:
        raise ConfigError("no background tokens left but p_sig < 1")
    return bg


def _token_row(p: dict, sig: np.ndarray, bg: int, rng: np.random.Generator):
    """Background tokens with a signature token at each p_sig position."""
    L = p["seq_len"]
    use_sig = rng.random(L) < p["p_sig"]
    toks = rng.integers(0, max(bg, 1), size=L)
    toks[use_sig] = sig[rng.integers(0, len(sig), size=int(use_sig.sum()))]
    return toks


def _token_rows(spec: TaskSpec, per_class: int, rng: np.random.Generator):
    p = spec.params
    L = p["seq_len"]
    bg = _background_count(p)
    n = per_class * spec.num_classes
    x = np.empty((n, L), dtype=np.int64)
    y = np.empty(n, dtype=np.int64)
    row = 0
    for cls in range(spec.num_classes):
        sig = signature_tokens(p, spec.task_id, cls)
        for _ in range(per_class):
            x[row] = _token_row(p, sig, bg, rng)
            y[row] = cls
            row += 1
    return x, y


def _gaussian_rows(spec: TaskSpec, per_class: int, rng: np.random.Generator):
    p = spec.params
    dim = p["dim"]
    radius = p["radius"]
    noise = p["noise_std"]
    rotation = p["rotation"]
    n = per_class * spec.num_classes
    x = rng.normal(0.0, noise, size=(n, dim))
    y = np.empty(n, dtype=np.int64)
    row = 0
    for cls in range(spec.num_classes):
        angle = 2.0 * math.pi * cls / spec.num_classes + rotation
        for _ in range(per_class):
            x[row, 0] += radius * math.cos(angle)
            x[row, 1] += radius * math.sin(angle)
            y[row] = cls
            row += 1
    return x, y


def generate_task(spec: TaskSpec) -> TaskData:
    """Materialize the train/eval splits for one task spec."""
    if spec.generator not in GENERATORS:
        raise ConfigError(f"unknown generator {spec.generator!r}")
    train_ss, eval_ss = np.random.SeedSequence(
        [spec.seed, spec.task_id]).spawn(2)
    train_rng = np.random.default_rng(train_ss)
    eval_rng = np.random.default_rng(eval_ss)
    if spec.generator == "token_signature":
        train_x, train_y = _token_rows(spec, spec.train_per_class, train_rng)
        eval_x, eval_y = _token_rows(spec, spec.eval_per_class, eval_rng)
        seen = {r.tobytes() for r in train_x}
        p = spec.params
        bg = _background_count(p)
        for i in range(eval_x.shape[0]):
            tries = 0
            while eval_x[i].tobytes() in seen:
                sig = signature_tokens(p, spec.task_id, int(eval_y[i]))
                eval_x[i] = _token_row(p, sig, bg, eval_rng)
                tries += 1
                if tries > 100:
                    raise ConfigError(
                        "cannot produce a train-disjoint eval split; "
                        "task space too small")
    else:
        train_x, train_y = _gaussian_rows(spec, spec.train_per_class, train_rng)
        eval_x, eval_y = _gaussian_rows(spec, spec.eval_per_class, eval_rng)
    return TaskData(spec, train_x, train_y, eval_x, eval_y)


# Built-in orders over the same 4 task specs (positions into the spec list).
ORDERS = {
    "order1": (0, 1, 2, 3),
    "order2": (0, 1, 3, 2),
    "order3": (2, 1, 3, 0),
}


def build_stream(num_tasks: int = 4, num_classes: int = 4,
                 train_per_task: int = 1000, eval_per_task: int = 400,
                 generator: str = "token_signature", vocab: int = 128,
                 seq_len: int = 16, dim: int = 32, seed: int = 0,
                 order: str = "order1", p_sig: float = 0.4,
                 sig_tokens_per_class: int = 6) -> TaskStream:
    """Stream of per-task specs, permuted by one of the built-in orders."""
    for name, n, least in (("num_tasks", num_tasks, 1),
                           ("num_classes", num_classes, 2),
                           ("train_per_task", train_per_task, 1),
                           ("eval_per_task", eval_per_task, 1),
                           ("sig_tokens_per_class", sig_tokens_per_class, 1)):
        if n < least:
            raise ConfigError(f"{name} must be >= {least}, got {n}")
    if train_per_task % num_classes or eval_per_task % num_classes:
        raise ConfigError(
            f"train_per_task {train_per_task} and eval_per_task "
            f"{eval_per_task} must divide by num_classes {num_classes}")
    if not 0.0 <= p_sig <= 1.0:
        raise ConfigError(f"p_sig must be in [0, 1], got {p_sig}")
    if generator == "rotated_gaussian" and dim < 2:  # means on a circle
        raise ConfigError(f"rotated_gaussian needs dim >= 2, got {dim}")
    if order not in ORDERS:
        raise ConfigError(f"unknown order {order!r} (choose from {sorted(ORDERS)})")
    if num_tasks > len(ORDERS[order]):
        raise ConfigError(
            f"{order} is defined for {len(ORDERS[order])} tasks, got {num_tasks}")
    perm = tuple(i for i in ORDERS[order] if i < num_tasks)
    task_seeds = [int(ss.generate_state(1)[0])
                  for ss in np.random.SeedSequence(seed).spawn(num_tasks + 1)]
    specs = []
    # One extra signature region (task_id == num_tasks) is reserved for the
    # pretext task that pretrains the base model.
    for tid in range(num_tasks + 1):
        if generator == "token_signature":
            params = {"vocab": vocab, "seq_len": seq_len, "p_sig": p_sig,
                      "sig_tokens_per_class": sig_tokens_per_class,
                      "num_tasks": num_tasks + 1, "num_classes": num_classes}
        else:
            params = {"dim": dim, "radius": 2.0, "noise_std": 0.5,
                      "rotation": (tid if tid < num_tasks else -1)
                      * math.pi / (2.0 * num_tasks)}
        specs.append(TaskSpec(
            task_id=tid, num_classes=num_classes,
            train_per_class=train_per_task // num_classes,
            eval_per_class=eval_per_task // num_classes,
            generator=generator, params=params, seed=task_seeds[tid]))
    return TaskStream([specs[i] for i in perm], order_id=order,
                      pretrain=specs[num_tasks])
