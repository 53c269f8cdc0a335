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

``_token_row`` defines a token row's draws. ``_replay_rows`` builds a class's
rows at once from the generator's raw 64-bit words, with the same bytes and
the generator left in the same state, and a class falls back to row-by-row
draws in the rare case where numpy would reject a bounded draw.
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


def check_backbone(stream: TaskStream, backbone: str):
    """Raise ``ConfigError`` unless every task's examples suit ``backbone``."""
    for spec in stream.tasks:  # an unknown generator fails in generate_task
        want = GENERATORS.get(spec.generator, backbone)
        if backbone != want:
            raise ConfigError(f"generator {spec.generator!r} needs backbone "
                              f"{want!r}, got backbone {backbone!r}")


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
    """Background tokens with a signature token at each p_sig position.

    This defines a row's draws. ``_replay_rows`` builds a class's rows at
    once; eval resampling, and a class the replay declines, draw here.
    """
    L = p["seq_len"]
    use_sig = rng.random(L) < p["p_sig"]
    toks = rng.integers(0, max(bg, 1), size=L)
    toks[use_sig] = sig[rng.integers(0, len(sig), size=int(use_sig.sum()))]
    return toks


def _replay_rows(p: dict, sig: np.ndarray, bg: int, out: np.ndarray,
                 rng: np.random.Generator) -> bool:
    """Fill ``out`` with the rows ``_token_row`` draws for the signature
    tokens ``sig``, built in bulk; False if it cannot.

    ``random`` takes one 64-bit word per value; ``integers`` takes 32-bit
    values, each word giving its low half and keeping its high half for the
    next 32-bit draw, and a range of 1 draws nothing. So only a row's
    signature count moves where the next row's words start: one walk places
    every row, and numpy builds the tokens. Returns False with ``rng``
    untouched when numpy would reject a draw (Lemire's method; never for a
    power-of-two range) or ``rng`` is not a PCG64; else ``rng`` ends where
    the rows leave it.
    """
    n, L = out.shape
    m_bg, m_sig = max(bg, 1), p["sig_tokens_per_class"]
    bitgen = rng.bit_generator
    saved = bitgen.state
    if saved["bit_generator"] != "PCG64" or max(m_bg, m_sig) > 2**32:
        return False
    kept = saved["has_uint32"]  # 1: an earlier word's high half is waiting
    per_bg = L if m_bg > 1 else 0  # 32-bit draws for a row's background
    per_sig = 1 if m_sig > 1 else 0  # 32-bit draws per signature token
    words = bitgen.random_raw(n * (2 * L + 1))  # enough if none is rejected
    is_sig = (words >> 11) * 2.0**-53 < p["p_sig"]  # each word as random()
    marks = np.zeros(len(words) + 1, dtype=np.int64)
    np.cumsum(is_sig, out=marks[1:])
    cum = memoryview(marks)
    starts = np.empty(n, dtype=np.int64)
    drawn = kept  # 32-bit halves so far, the waiting one as a 2nd half
    for r in range(n):
        w = r * L + (drawn + 1) // 2 - kept
        starts[r] = w
        drawn += per_bg + per_sig * (cum[w + L] - cum[w])
    cols = starts[:, None] + np.arange(L)
    use_sig = is_sig[cols]
    k = use_sig.sum(axis=1)
    used = n * L + (drawn + 1) // 2 - kept
    paired = np.ones(used, dtype=bool)
    paired[cols] = False
    pair_words = words[:used][paired]
    if kept:
        waiting = np.array([saved["uinteger"] << 32], dtype=np.uint64)
        pair_words = np.concatenate((waiting, pair_words))
    halves = pair_words.astype("<u8", copy=False).view("<u4")
    counts = per_bg + per_sig * k
    bg_draws = (np.cumsum(counts) - counts)[:, None] + np.arange(per_bg)
    is_pick = np.ones(drawn - kept, dtype=bool)
    is_pick[bg_draws] = False
    m = np.where(is_pick, np.uint64(m_sig), np.uint64(m_bg))
    prod = halves[kept:drawn].astype(np.uint64) * m
    bitgen.state = saved
    if ((prod & 0xFFFFFFFF) < (2**32 - m) % m).any():
        return False
    draws = (prod >> 32).astype(np.int64)
    out[...] = draws[bg_draws] if per_bg else 0
    out[use_sig] = sig[draws[is_pick]] if per_sig else sig[:1]
    bitgen.advance(used)  # this drops the waiting half, so set it again
    if drawn % 2:
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = 1, int(halves[drawn])
        bitgen.state = state
    return True


def _token_rows(spec: TaskSpec, per_class: int, rng: np.random.Generator):
    p = spec.params
    bg = _background_count(p)
    x = np.empty((per_class * spec.num_classes, p["seq_len"]), dtype=np.int64)
    for cls in range(spec.num_classes):  # a class at a time keeps temps small
        sig = signature_tokens(p, spec.task_id, cls)
        rows = x[cls * per_class:(cls + 1) * per_class]
        if not _replay_rows(p, sig, bg, rows, rng):
            for row in rows:
                row[:] = _token_row(p, sig, bg, rng)
    return x, np.repeat(np.arange(spec.num_classes, dtype=np.int64), per_class)


def _gaussian_rows(spec: TaskSpec, per_class: int, rng: np.random.Generator):
    p = spec.params
    radius = p["radius"]
    x = rng.normal(0.0, p["noise_std"], size=(per_class * spec.num_classes,
                                              p["dim"]))
    for cls in range(spec.num_classes):
        angle = 2.0 * math.pi * cls / spec.num_classes + p["rotation"]
        block = slice(cls * per_class, (cls + 1) * per_class)
        x[block, 0] += radius * math.cos(angle)
        x[block, 1] += radius * math.sin(angle)
    y = np.repeat(np.arange(spec.num_classes, dtype=np.int64), per_class)
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
