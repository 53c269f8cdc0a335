"""The ten end-to-end properties this package must hold.

One test per criterion, each printing a single PASS/FAIL line (visible
under ``pytest -s``). The full-size training grid behind criteria 6-8 is
computed once in a module fixture and shared; everything is seeded, so
reruns reproduce the same numbers.
"""

import math
import os
import time

import numpy as np
import pytest

from amlora import autodiff as ad
from amlora import ortho
from amlora.adapters import AdapterStack
from amlora.autodiff import Optimizer, Tensor
from amlora.baselines import MethodSpec, make_driver
from amlora.checkpoint import load_checkpoint, save_checkpoint
from amlora.cli import gradcheck_toy
from amlora.configfile import (default_config, to_method_spec,
                               to_model_config, to_stream, to_train_config)
from amlora.harness import TrainConfig, emit_report, run_stream, train_task
from amlora.model import ModelConfig, build_model
from amlora.selector import AttentionalSelector
from amlora.tasks import build_stream, generate_task
from reference import gate, mixed_forward

SEEDS = (0, 1, 2, 3, 4)
SPARSITY_SEEDS = (0, 1, 2)
LAMBDAS = (0.0, 1e-5, 1e-3, 1e-1)

SMALL = ModelConfig(vocab_size=64, embed_dim=16, num_layers=1, num_heads=2,
                    seq_len=8, num_classes=4, dropout_rate=0.0,
                    adapter_sites=("query", "value"))


def _crit(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _run_cell(cfg: dict, seed: int, ckpt=None):
    # fixed benchmark stream (config seed); the run seed varies training
    cell = dict(cfg)
    cell["seed"] = seed
    return run_stream(to_stream(cell, seed=cfg["seed"]), to_method_spec(cell),
                      to_model_config(cell), to_train_config(cell), seed,
                      checkpoint_path=ckpt)


def _near_zero_head_fraction(model) -> float:
    vals = np.concatenate([h.data.ravel()
                           for site in model.sites.values()
                           for h in site.selector.heads])
    return float(np.mean(np.abs(vals) < 1e-3))


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    """All full-size runs needed by criteria 6, 7, and 8, keyed by tag."""
    root = tmp_path_factory.mktemp("grid")
    base = default_config()
    variants = {
        "seqft": dict(method="seqft"),
        "inclora": dict(method="inclora"),
        # the default config: amlora, AR heads, lambda = 1e-5
        "amlora": dict(method="amlora"),
        "ar0": {"method": "amlora", "variant": "AR", "lambda": 0.0},
        "nr0": {"method": "amlora", "variant": "NR", "lambda": 0.0},
        "ar_l3": {"method": "amlora", "variant": "AR", "lambda": 1e-3},
        "ar_l1": {"method": "amlora", "variant": "AR", "lambda": 1e-1},
    }
    reports, fractions = {}, {}
    core_seconds = 0.0
    for tag, over in variants.items():
        cfg = dict(base)
        cfg.update(over)
        seeds = SPARSITY_SEEDS if tag in ("ar_l3", "ar_l1") else SEEDS
        for seed in seeds:
            want_heads = (tag in ("amlora", "ar0", "ar_l3", "ar_l1")
                          and seed in SPARSITY_SEEDS)
            ckpt = str(root / f"{tag}_{seed}.bin") if want_heads else None
            t0 = time.perf_counter()
            reports[(tag, seed)] = _run_cell(cfg, seed, ckpt)
            if tag in ("seqft", "inclora", "amlora"):
                core_seconds += time.perf_counter() - t0
            if want_heads:
                fractions[(tag, seed)] = \
                    _near_zero_head_fraction(load_checkpoint(ckpt))
    return {"reports": reports, "fractions": fractions,
            "core_seconds": core_seconds}


def _mean_final(grid, tag) -> float:
    return float(np.mean([grid["reports"][(tag, s)].final_average_accuracy()
                          for s in SEEDS]))


def test_criterion_01_gradient_oracle():
    t0 = time.perf_counter()
    err = gradcheck_toy(seed=0)
    dt = time.perf_counter() - t0
    _crit(1, err < 1e-4 and dt < 10.0,
          f"full gated-loss finite-diff max rel err {err:.2e} (< 1e-4) "
          f"in {dt:.1f}s (< 10s)")


def test_criterion_02_gate_rows_normalized():
    rng = np.random.default_rng(7)
    worst = 0.0
    with ad.no_grad():
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            d_out = int(rng.integers(1, 13))
            rows = int(rng.integers(1, 7))
            sel = AttentionalSelector(n + 1, d_out)
            for h in sel.heads:
                h.data = rng.normal(0.0, rng.choice([0.0, 0.02, 1.0, 10.0]),
                                    h.data.shape)
            shape = (rows, 3, d_out) if rng.random() < 0.3 else (rows, d_out)
            outs = [Tensor(rng.normal(0.0, rng.choice([0.02, 1.0, 25.0]),
                                      shape))
                    for _ in range(n + 1)]
            g = gate(sel, outs).data
            worst = max(worst, float(np.abs(g.sum(axis=-1) - 1.0).max()))
    _crit(2, worst <= 1e-10,
          f"1000 fuzzed (selector, batch) pairs, worst |row sum - 1| = "
          f"{worst:.2e} (<= 1e-10)")


def _run_three_task_stream(method: str):
    """Train a 3-task stream by stages; snapshot adapters 1-2 before task 3."""
    stream = build_stream(num_tasks=3, train_per_task=96, eval_per_task=16,
                          vocab=64, seq_len=8, seed=3,
                          sig_tokens_per_class=2)
    model = build_model(SMALL, seed=3)
    driver = make_driver(MethodSpec(method, rank=4, alpha=16.0, lam=1e-5))
    driver.attach(model, seed=4)
    cfg = TrainConfig(epochs=1, lr=5e-3, batch_size=8, pretrain_epochs=0)

    def stage(t):
        data = generate_task(stream.tasks[t])
        params = driver.start_stage(model, t, seed=5 + t)
        train_task(model, Optimizer(params, kind="adam", lr=cfg.lr),
                   data.train_x, data.train_y, cfg,
                   np.random.default_rng(20 + t))

    stage(0)
    stage(1)
    snap = {}
    for name, site in model.sites.items():
        for k, a in enumerate(site.stack.task_adapters):
            snap[(name, k)] = (a.A.data.tobytes(), a.B.data.tobytes())
    stage(2)
    after = {}
    for name, site in model.sites.items():
        for k, a in enumerate(site.stack.task_adapters[:2]):
            after[(name, k)] = (a.A.data.tobytes(), a.B.data.tobytes())
        # the stream actually trained: the task-3 pair moved off zero
        assert np.any(site.stack.task_adapters[2].B.data != 0.0)
    return snap, after


def test_criterion_03_frozen_adapters_byte_stable():
    ok = True
    for method in ("inclora", "amlora"):
        snap, after = _run_three_task_stream(method)
        ok &= snap == after
    _crit(3, ok, "task-1/task-2 adapter bytes before task 3 identical to "
          "post-task-3 buffers for inclora and amlora")


def test_criterion_04_uniform_gate_reduction():
    rng = np.random.default_rng(11)
    worst = 0.0
    with ad.no_grad():
        for n in (1, 2, 4):
            d_out, d_in = 6, 4
            stack = AdapterStack(d_out, d_in, rank=2, alpha=4.0)
            for t in range(n):
                a = stack.begin_task(seed=t)
                a.B.data = rng.normal(0.0, 0.5, a.B.data.shape)
            sel = AttentionalSelector(n + 1, d_out)  # zero heads
            w0 = rng.normal(0.0, 1.0, (d_out, d_in))
            x = rng.normal(0.0, 1.0, (5, d_in))
            got = mixed_forward(Tensor(w0), stack, sel, Tensor(x)).data
            # independent mix: base + uniform weight over n+1 contributions
            total = x @ w0.T
            for a in stack.task_adapters:
                dw = (a.alpha / a.rank) * (a.B.data @ a.A.data)
                total = total + (x @ dw.T) / (n + 1)
            worst = max(worst, float(np.abs(got - total).max()))
    _crit(4, worst <= 1e-10,
          f"zeroed heads mix to base + mean adapter output, worst diff "
          f"{worst:.2e} (<= 1e-10) for n in (1, 2, 4)")


def test_criterion_05_orthogonality_counterexamples():
    t0 = time.perf_counter()
    c1 = ortho.counterexample_1d()
    ok = (c1.residual == 0.0 and c1.out_a.tolist() == [1.0]
          and c1.out_ab.tolist() == [-1.0])
    c2 = ortho.counterexample_2d()
    ok &= (c2.residual == 0.0 and c2.out_a.tolist() == [1.0, 0.0]
           and c2.out_ab.tolist() == [0.0, 1.0])
    for n in (2, 3, 4, 8, 16):
        c = ortho.counterexample_nd(n)
        e1, en = np.zeros(n), np.zeros(n)
        e1[0], en[-1] = 1.0, 1.0
        ok &= (c.residual == 0.0 and np.array_equal(c.out_a, e1)
               and np.array_equal(c.out_ab, en)
               and c.deviation == math.sqrt(2.0))
    dt = time.perf_counter() - t0
    ok &= dt < 1.0
    _crit(5, ok, f"1d (1, -1), 2d (1,0)/(0,1), nd e1/en with deviation "
          f"sqrt(2), residuals exactly 0, in {dt * 1e3:.0f}ms (< 1s)")


def test_criterion_06_forgetting_ordering(grid):
    am, inc, seq = (_mean_final(grid, t)
                    for t in ("amlora", "inclora", "seqft"))
    drops = [grid["reports"][("seqft", s)].acc[0][0]
             - grid["reports"][("seqft", s)].acc[-1][0] for s in SEEDS]
    secs = grid["core_seconds"]
    ok = (am > inc > seq and float(np.mean(drops)) >= 0.10
          and secs < 600.0)
    _crit(6, ok,
          f"mean final avg acc amlora {am:.4f} > inclora {inc:.4f} > "
          f"seqft {seq:.4f}; seqft task-1 drop mean {np.mean(drops):.3f} "
          f"min {min(drops):.3f} (>= 0.10); grid took {secs:.0f}s (< 600s)")


def test_criterion_07_ablation_direction(grid):
    ar, nr, ar_l1 = (_mean_final(grid, t) for t in ("ar0", "nr0", "amlora"))
    # AR+L1 is reported alongside, no strict inequality required of it
    _crit(7, ar >= nr,
          f"AR {ar:.4f} >= NR {nr:.4f} (both lambda=0); AR+L1(1e-5) "
          f"{ar_l1:.4f} for comparison")


def test_criterion_08_sparsity_monotone(grid):
    tags = ("ar0", "amlora", "ar_l3", "ar_l1")
    fracs = [float(np.mean([grid["fractions"][(tag, s)]
                            for s in SPARSITY_SEEDS])) for tag in tags]
    ok = all(a <= b + 1e-12 for a, b in zip(fracs, fracs[1:]))
    _crit(8, ok,
          "fraction of |head entry| < 1e-3 over lambda (0, 1e-5, 1e-3, "
          "1e-1): " + " ".join(f"{f:.4f}" for f in fracs)
          + " (non-decreasing, 3 seeds)")


def test_criterion_09_selector_overhead(grid):
    rep = grid["reports"][("amlora", 0)]
    cfg = default_config()
    expected = (cfg["tasks"] + 1) * cfg["d"]
    selector_params = next(iter(rep.site_params.values()))[1]  # first site's
    share = 100.0 * selector_params / rep.base_params
    ok = selector_params == expected and share < 1.0
    _crit(9, ok,
          f"selector params per site {selector_params} == "
          f"(n+1)*d_out = {expected}; {share:.2f}% of {rep.base_params} "
          f"base params (< 1%)")


def test_criterion_10_determinism_and_persistence(grid, tmp_path):
    # identical (config, seed) -> byte-identical metrics.csv
    rerun = _run_cell(default_config(), 0)
    dirs = (str(tmp_path / "a"), str(tmp_path / "b"))
    emit_report([grid["reports"][("amlora", 0)]], dirs[0])
    emit_report([rerun], dirs[1])
    same = all(
        open(os.path.join(dirs[0], f), "rb").read()
        == open(os.path.join(dirs[1], f), "rb").read()
        for f in ("metrics.csv", "summary.csv", "trajectory.csv"))

    # checkpoint round-trip preserves eval logits bit-exactly
    stream = build_stream(num_tasks=2, train_per_task=64, eval_per_task=32,
                          vocab=64, seq_len=8, seed=9,
                          sig_tokens_per_class=2)
    model = build_model(SMALL, seed=9)
    driver = make_driver(MethodSpec("amlora", rank=4, alpha=16.0, lam=1e-5))
    driver.attach(model, seed=10)
    cfg = TrainConfig(epochs=1, lr=5e-3, batch_size=8, pretrain_epochs=0)
    for t in range(2):
        data = generate_task(stream.tasks[t])
        params = driver.start_stage(model, t, seed=11 + t)
        train_task(model, Optimizer(params, kind="adam", lr=cfg.lr),
                   data.train_x, data.train_y, cfg,
                   np.random.default_rng(30 + t))
    eval_x = generate_task(stream.tasks[0]).eval_x
    with ad.no_grad():
        live = model.forward(eval_x, mode="eval").data
    path = str(tmp_path / "round_trip.bin")
    save_checkpoint(model, path)
    with ad.no_grad():
        loaded = load_checkpoint(path).forward(eval_x, mode="eval").data
    bit_exact = live.tobytes() == loaded.tobytes()

    _crit(10, same and bit_exact,
          f"rerun metrics/summary/trajectory byte-identical: {same}; "
          f"checkpoint round-trip logits bit-exact: {bit_exact}")
