"""Numerical check that weight orthogonality does not preserve outputs.

Constructs pairs of exactly orthogonal weight matrices (A, B) and shows that
f(Ax) and f((A+B)x) still differ, via three fixed constructions (1-d sine,
2-d linear, n-d linear) plus a randomized study where A is rank-deficient
and B is drawn from the orthogonal complement of A's column space. Outputs
are reported as raw deviations (L2 norm of the difference) and, for the
random study, argmax label-flip rates.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write, write_csv
from .errors import ConfigError

NONLINEARITIES = ("sin", "relu", "mlp")


@dataclass
class CounterexampleResult:
    name: str
    n: int
    residual: float
    out_a: np.ndarray
    out_ab: np.ndarray
    deviation: float


@dataclass
class TrialResult:
    trial: int
    n: int
    nonlinearity: str
    residual: float
    deviation: float
    label_flip: bool


@dataclass
class StudySummary:
    n: int
    trials: int
    nonlinearity: str
    max_residual: float
    min_deviation: float
    mean_deviation: float
    max_deviation: float
    label_flip_rate: float


def counterexample_1d() -> CounterexampleResult:
    """sin((1,0)x) = 1 vs sin(((1,0)+(0,-1))x) = -1 at x = (pi/2, pi)."""
    A = np.array([[1.0, 0.0]])
    B = np.array([[0.0, -1.0]])
    x = np.array([math.pi / 2.0, math.pi])
    residual = float(np.abs(A @ B.T).max())  # row-vector orthogonality
    out_a = np.sin(A @ x)
    out_ab = np.sin((A + B) @ x)
    return CounterexampleResult("1d-sin", 1, residual, out_a, out_ab,
                                float(np.linalg.norm(out_a - out_ab)))


def counterexample_nd(n: int) -> CounterexampleResult:
    """A = e1 e1^T, B = en en^T, x = e1 - en, linear f; outputs e1 vs en."""
    if n < 2:
        raise ConfigError(f"n-dimensional construction needs n >= 2, got {n}")
    e1, en = np.eye(n)[0], np.eye(n)[-1]
    A, B, x = np.outer(e1, e1), np.outer(en, en), e1 - en
    f = np.zeros((n, n))
    f[0, 0] = 1.0
    f[0, n - 1] = 1.0
    f[n - 1, n - 1] = -1.0
    residual = float(np.abs(A.T @ B).max())
    out_a = f @ (A @ x)
    out_ab = f @ ((A + B) @ x)
    return CounterexampleResult(f"{n}d-linear", n, residual, out_a, out_ab,
                                float(np.linalg.norm(out_a - out_ab)))


def counterexample_2d() -> CounterexampleResult:
    return counterexample_nd(2)


def _apply(nonlinearity: str, z: np.ndarray, mats) -> np.ndarray:
    if nonlinearity == "sin":
        return np.sin(z)
    if nonlinearity == "relu":
        return np.maximum(z, 0.0)
    U, V = mats
    return V @ np.maximum(U @ z, 0.0)


def random_orthogonality_study(n: int, trials: int, nonlinearity: str,
                               seed: int = 0):
    """Rank-deficient A, B from col(A)'s orthogonal complement, random x.

    Returns (trial list, summary). Every trial keeps max|A^T B| below 1e-10;
    the deviation column shows how far f((A+B)x) drifts from f(Ax) anyway.
    """
    if n < 2:
        raise ConfigError(f"study needs n >= 2, got {n}")
    if trials < 1:
        raise ConfigError(f"study needs at least 1 trial, got {trials}")
    if nonlinearity not in NONLINEARITIES:
        raise ConfigError(f"nonlinearity must be one of {NONLINEARITIES}, "
                          f"got {nonlinearity!r}")
    k = max(1, n // 2)
    results = []
    for trial, ss in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        rng = np.random.default_rng(ss)
        left = rng.normal(size=(n, k))
        A = left @ rng.normal(size=(k, n))
        # col(A) == col(left) a.s.; reduced QR of the tall factor gives an
        # orthonormal basis of exactly that k-dimensional subspace. (QR of
        # the square A would span all of R^n and leave no complement.)
        q, _ = np.linalg.qr(left)
        perp = np.eye(n) - q @ q.T
        B = perp @ rng.normal(size=(n, n))
        residual = float(np.abs(A.T @ B).max())
        x = rng.normal(size=n)
        mats = None
        if nonlinearity == "mlp":
            mats = (rng.normal(size=(n, n)) / math.sqrt(n),
                    rng.normal(size=(n, n)) / math.sqrt(n))
        out_a = _apply(nonlinearity, A @ x, mats)
        out_ab = _apply(nonlinearity, (A + B) @ x, mats)
        deviation = float(np.linalg.norm(out_a - out_ab))
        flip = int(np.argmax(out_a)) != int(np.argmax(out_ab))
        results.append(TrialResult(trial, n, nonlinearity, residual,
                                   deviation, flip))
    summary = StudySummary(
        n=n, trials=trials, nonlinearity=nonlinearity,
        max_residual=max(r.residual for r in results),
        min_deviation=min(r.deviation for r in results),
        mean_deviation=float(np.mean([r.deviation for r in results])),
        max_deviation=max(r.deviation for r in results),
        label_flip_rate=float(np.mean([r.label_flip for r in results])))
    return results, summary


def format_summary(cases: list[CounterexampleResult],
                   summaries: list[StudySummary]) -> str:
    lines = ["orthogonal-update output check",
             "constructed cases (residual = max |A^T B| entry):"]
    for c in cases:
        lines.append(
            f"  {c.name:>10}: residual={c.residual:.1e}  "
            f"f(Ax)={np.array2string(c.out_a, precision=3)}  "
            f"f((A+B)x)={np.array2string(c.out_ab, precision=3)}  "
            f"deviation={c.deviation:.6f}")
    if summaries:
        lines.append("random study (rank n//2 A, B in col(A) complement):")
        for s in summaries:
            lines.append(
                f"  n={s.n:<3} trials={s.trials} f={s.nonlinearity:<4} "
                f"max_residual={s.max_residual:.2e} "
                f"deviation[min/mean/max]={s.min_deviation:.3f}/"
                f"{s.mean_deviation:.3f}/{s.max_deviation:.3f} "
                f"label_flip_rate={s.label_flip_rate:.3f}")
    lines.append("conclusion: orthogonality of the added weights does not "
                 "keep outputs unchanged.")
    return "\n".join(lines) + "\n"


def write_ortho_report(trials: list[TrialResult], text_summary: str,
                       out_dir: str):
    """ortho_report.csv (trial rows) plus a human-readable summary file."""
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "ortho_report.csv"),
              ["trial", "n", "nonlinearity", "residual", "deviation",
               "label_flip"],
              [[t.trial, t.n, t.nonlinearity, repr(t.residual),
                repr(t.deviation), int(t.label_flip)] for t in trials])
    atomic_write(os.path.join(out_dir, "ortho_summary.txt"), text_summary)
