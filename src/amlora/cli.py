"""Command-line entry point: experiment grids, verifiers, and reports.

Verbs:

* ``run``           -- (method x order x seed) grid of stream runs, CSV out.
* ``verify-ortho``  -- fixed orthogonality counterexamples plus random study.
* ``grad-check``    -- finite-difference check of the full gated loss on a
                       fixed small end-to-end model, seeded by ``--seed``.
* ``inspect-gates`` -- train once, then dump mean gate distributions per
                       site and eval task, over each task's first 200 eval
                       rows.
* ``report``        -- aggregate an out-dir's metrics.csv into a text table.

Exit codes: 0 success, 1 configuration/usage error (message names the
offending key), 2 runtime or verification failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import tempfile

import numpy as np

from . import autodiff as ad
from . import ortho
from .atomic import atomic_write
from .baselines import MethodSpec, make_driver
from .checkpoint import load_checkpoint
from .configfile import (apply_overrides, check_config, config_digest,
                         default_config, format_config, load_config,
                         parse_value, to_method_spec, to_model_config,
                         to_stream, to_train_config)
from .errors import ConfigError
from .harness import MetricsReport, run_stream
from .model import ModelConfig, build_model
from .tasks import generate_task

ND_SIZES = (2, 3, 4, 8, 16)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="amlora",
        description="Sequential low-rank adapter experiments with gated mixing.")
    sub = p.add_subparsers(dest="verb", required=True)

    def verb(name, help_text, config=False, seeds=False, out_dir=True):
        """A subcommand with only the flags it reads."""
        sp = sub.add_parser(name, help=help_text, description=help_text)
        if out_dir:
            sp.add_argument("--out-dir", metavar="PATH", help="output "
                            "directory (env AMLORA_OUT, else amlora_out)")
        if config:
            sp.add_argument("--config", metavar="PATH",
                            help="key=value config file (defaults apply if omitted)")
            sp.add_argument("--override", action="append", default=[],
                            metavar="K=V", help="config override, repeatable")
        if seeds:
            sp.add_argument("--seeds", metavar="CSV",
                            help="comma-separated run seeds (default: config seed)")
        return sp

    runp = verb("run", "run an experiment grid", config=True, seeds=True)
    runp.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="run grid cells in N worker processes; 1 runs them "
                           "in this process (default 1); output bytes do not "
                           "depend on N")
    runp.add_argument("--methods", metavar="CSV",
                      help="comma-separated methods (default: config method)")
    runp.add_argument("--orders", metavar="CSV",
                      help="comma-separated task orders (default: config order)")
    runp.add_argument("--save-checkpoints", action="store_true",
                      help="write a final model checkpoint per grid cell")

    orthop = verb("verify-ortho", "check the orthogonality counterexamples")
    orthop.add_argument("--trials", type=int, default=100,
                        help="random-study trials per nonlinearity")

    gradp = verb("grad-check", "finite-difference check on a fixed d=8 toy "
                 "gated model", out_dir=False)
    gradp.add_argument("--seed", default="0", metavar="N",
                       help="seed of the toy model and its data (default 0)")
    verb("inspect-gates", "dump mean gate distributions after training, "
         "over the first 200 eval rows of each task", config=True, seeds=True)
    verb("report", "aggregate metrics.csv in the out dir")
    return p


def _out_dir(args) -> str:
    return args.out_dir or os.environ.get("AMLORA_OUT") or "amlora_out"


def _parse_csv_list(text: str | None, key: str, flag: str, cfg: dict) -> list:
    """Items parsed as config ``key``, none twice, or the config's value."""
    if text is None:
        return [cfg[key]]
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ConfigError(f"{key} list is empty")
    values = [parse_value(key, s, flag) for s in items]
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError(f"{flag} lists {v!r} twice")
    return values


def _effective_config(args) -> dict:
    cfg = load_config(args.config) if args.config else default_config()
    return check_config(apply_overrides(cfg, args.override))


def _run_cell(cfg: dict, method: str, order: str, seed: int,
              ckpt: str | None = None):
    cell = dict(cfg, method=method, order=order)
    # The stream is a fixed benchmark keyed by the config's own seed; the
    # run seed only varies training (init, batching, dropout, pretraining).
    return run_stream(to_stream(cell), to_method_spec(cell),
                      to_model_config(cell), to_train_config(cell), seed,
                      checkpoint_path=ckpt)


def _try_cell(cell):
    """One grid cell, ``(cfg, method, order, seed, ckpt)``, as
    ``(report, None)`` or ``(None, "<Type>: <message>")``.

    Module-level so that worker processes can unpickle it by name.
    """
    try:
        return _run_cell(*cell), None
    except Exception as exc:  # keep the grid going; reported by the caller
        return None, f"{type(exc).__name__}: {exc}"


def _overhead_text(reports) -> str:
    lines = []
    for rep in reports:
        counts = rep.site_params
        if not any(a or sel for a, sel in counts.values()):
            lines.append(f"{rep.method}: base parameters {rep.base_params}, "
                         "no adapters attached")
            continue
        shares = {name: f"{a} adapter + {sel} selector params; selector share "
                        f"per site {100.0 * sel / rep.base_params:.4f}% of base"
                  for name, (a, sel) in counts.items()}
        # one figure when every site has one shape, else one per site
        per = (next(iter(shares.values())) if len(set(shares.values())) == 1
               else " | ".join(f"{name}: {s}" for name, s in shares.items()))
        total = 100.0 * sum(sel for _, sel in counts.values()) / rep.base_params
        lines.append(f"{rep.method}: base parameters {rep.base_params}; per "
                     f"adapted site: {per}, total across {len(counts)} sites "
                     f"{total:.4f}%")
    return "\n".join(lines) + "\n"


def _cmd_run(args) -> int:
    cfg = _effective_config(args)
    out_dir = _out_dir(args)
    seeds = _parse_csv_list(args.seeds, "seed", "--seeds", cfg)
    methods = _parse_csv_list(args.methods, "method", "--methods", cfg)
    orders = _parse_csv_list(args.orders, "order", "--orders", cfg)
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    grid = [(m, o, s) for m in methods for o in orders for s in seeds]
    cells = [(cfg, m, o, s,
              os.path.join(out_dir, f"ckpt_{m}_{o}_seed{s}.bin")
              if args.save_checkpoints else None) for m, o, s in grid]

    os.makedirs(out_dir, exist_ok=True)
    if args.jobs == 1 or len(grid) == 1:
        outcomes = list(map(_try_cell, cells))
    else:
        from concurrent.futures import ProcessPoolExecutor
        # a fork pool starts all its workers up front: one per cell at most
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(grid))) as pool:
            outcomes = list(pool.map(_try_cell, cells))

    for (m, o, s), (rep, error) in zip(grid, outcomes):
        if error is not None:
            print(f"{m:>10} {o} seed={s}: FAILED  {error}")
        else:
            print(f"{m:>10} {o} seed={s}: final_avg_acc="
                  f"{rep.final_average_accuracy():.4f} "
                  f"mean_forgetting={rep.mean_forgetting():.4f}")
    reports = [rep for rep, _ in outcomes if rep is not None]
    if not reports:
        print(f"no run succeeded (0/{len(grid)} runs); no CSV written")
        return 2
    from .harness import emit_report
    emit_report(reports, out_dir)
    atomic_write(os.path.join(out_dir, "config_digest.txt"),
                 f"digest={config_digest(cfg)}\n{format_config(cfg)}")
    seen = set()
    first_per_method = [r for r in reports
                        if not (r.method in seen or seen.add(r.method))]
    atomic_write(os.path.join(out_dir, "overhead.txt"),
                 _overhead_text(first_per_method))
    print(f"wrote {out_dir}/metrics.csv, summary.csv, trajectory.csv "
          f"({len(reports)}/{len(grid)} runs)")
    return 2 if len(reports) < len(grid) else 0


def _check(label: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    return ok


def _exact(case, out_a, out_ab) -> bool:
    """Whether a construction has zero residual and exactly these outputs."""
    return (case.residual == 0.0 and np.array_equal(case.out_a, out_a)
            and np.array_equal(case.out_ab, out_ab))


def _cmd_verify_ortho(args) -> int:
    out_dir = _out_dir(args)
    c1, c2 = ortho.counterexample_1d(), ortho.counterexample_2d()
    nd = [ortho.counterexample_nd(n) for n in ND_SIZES]
    studies = [ortho.random_orthogonality_study(8, args.trials, nl, seed=0)
               for nl in ortho.NONLINEARITIES]
    summaries = [s for _, s in studies]
    ok = _check("1d", _exact(c1, [1.0], [-1.0]),
                f"sin outputs {c1.out_a[0]:+.0f} vs {c1.out_ab[0]:+.0f}, "
                f"residual {c1.residual}")
    ok &= _check("2d", _exact(c2, [1.0, 0.0], [0.0, 1.0]),
                 f"outputs {c2.out_a.tolist()} vs {c2.out_ab.tolist()}, "
                 f"residual {c2.residual}")
    ok &= _check("nd", all(_exact(c, np.eye(c.n)[0], np.eye(c.n)[-1])
                           and abs(c.deviation - math.sqrt(2.0)) < 1e-12
                           for c in nd),
                 f"e1 vs en with deviation sqrt(2) for n in {ND_SIZES}")
    ok &= _check("study", all(s.max_residual < 1e-10 and s.mean_deviation > 1e-6
                              for s in summaries),
                 f"{args.trials} trials per nonlinearity at n=8, "
                 f"max residual {max(s.max_residual for s in summaries):.2e}")
    text = ortho.format_summary([c1] + nd, summaries)
    print(text, end="")
    ortho.write_ortho_report([t for trials, _ in studies for t in trials],
                             text, out_dir)
    print(f"wrote {out_dir}/ortho_report.csv and ortho_summary.txt")
    return 0 if ok else 2


def gradcheck_toy(seed: int = 0) -> float:
    """Max relative gradient error of the full gated loss on a tiny model.

    One transformer layer at d=8 with rank-2 adapters for two tasks; the
    loss is cross-entropy plus the L1 term on the gate heads, and the check
    covers the second task's trainable set (new adapter pair + all heads).
    """
    cfg = ModelConfig(vocab_size=16, embed_dim=8, num_layers=1, num_heads=2,
                      seq_len=4, num_classes=2, dropout_rate=0.0,
                      adapter_sites=("query", "value"))
    model = build_model(cfg, seed)
    driver = make_driver(MethodSpec("amlora", rank=2, alpha=4.0,
                                    variant="AR", lam=1e-3))
    driver.attach(model, seed + 1)
    driver.start_stage(model, 0, seed + 2)
    driver.end_stage(model, 0)
    params = driver.start_stage(model, 1, seed + 3)
    # Nudge everything off its zero init so the gradients are generic.
    rng = np.random.default_rng(seed + 4)
    for site in model.sites.values():
        for a in site.stack.task_adapters:
            a.A.data = rng.normal(0.0, 0.05, a.A.data.shape)
            a.B.data = rng.normal(0.0, 0.05, a.B.data.shape)
        for h in site.selector.heads:
            h.data = rng.normal(0.0, 0.05, h.data.shape)
    x = rng.integers(0, cfg.vocab_size, size=(6, cfg.seq_len))
    y = rng.integers(0, cfg.num_classes, size=6)

    def loss_fn(_params):
        loss = ad.cross_entropy(model.forward(x, mode="eval"), y)
        extra = driver.extra_loss(model)
        return ad.add(loss, extra) if extra is not None else loss

    return ad.finite_diff_check(loss_fn, params)


def _cmd_grad_check(args) -> int:
    err = gradcheck_toy(parse_value("seed", args.seed, "--seed"))
    ok = err < 1e-4
    print(f"{'PASS' if ok else 'FAIL'} grad-check: max relative error "
          f"{err:.3e} (threshold 1e-4)")
    return 0 if ok else 2


def _cmd_inspect_gates(args) -> int:
    cfg = _effective_config(args)
    out_dir = _out_dir(args)
    seeds = _parse_csv_list(args.seeds, "seed", "--seeds", cfg)
    if len(seeds) != 1:
        raise ConfigError(f"--seeds takes one seed for inspect-gates "
                          f"(gates.csv has no seed column), got {args.seeds!r}")
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "model.bin")
        _run_cell(cfg, "amlora", cfg["order"], seeds[0], ckpt)
        model = load_checkpoint(ckpt)
    stream = to_stream(cfg)
    rows = []
    for i, spec in enumerate(stream.tasks):
        data = generate_task(spec)
        gates = {}
        with ad.no_grad():
            model.features(data.eval_x[:200], gates=gates)
        for name in sorted(model.sites):
            g = gates[name]
            mean = g.reshape(-1, g.shape[-1]).mean(axis=0)
            rows.append((name, i, mean))
    print("mean gate weight per adapter (column 0 is the zero adapter):")
    lines = ["site,eval_task,adapter_index,mean_gate"]
    for name, i, mean in rows:
        vals = " ".join(f"{v:.3f}" for v in mean)
        print(f"  {name:<18} eval_task={i}  [{vals}]")
        lines += [f"{name},{i},{j},{float(v)!r}" for j, v in enumerate(mean)]
    os.makedirs(out_dir, exist_ok=True)
    atomic_write(os.path.join(out_dir, "gates.csv"), "\n".join(lines) + "\n")
    print(f"wrote {out_dir}/gates.csv")
    return 0


def _cmd_report(args) -> int:
    out_dir = _out_dir(args)
    path = os.path.join(out_dir, "metrics.csv")
    if not os.path.exists(path):
        raise ConfigError(f"no metrics.csv under {out_dir!r}; run `run` first")
    acc = {}
    with open(path, newline="", encoding="utf-8") as f:
        rows = csv.DictReader(f)
        for row in rows:
            try:
                key = (row["method"], int(row["seed"]), row["order_id"])
                t, i = int(row["after_task"]), int(row["eval_task"])
                value = float(row["accuracy"])
            except KeyError as exc:
                raise ConfigError(f"{path} has no {exc} column") from None
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path} line {rows.line_num}: {exc}") from None
            cells = acc.setdefault(key, {})
            for bad, why in (
                ((t, i) in cells, f"repeats the row {key + (t, i)}"),
                (not 0 <= i <= t, f"eval_task {i} not in [0, after_task {t}]"),
                (not 0 <= value <= 1, f"accuracy {value} not in [0, 1]"),
            ):
                if bad:
                    raise ConfigError(f"{path} line {rows.line_num}: {why}")
            cells[(t, i)] = value
    if not acc:
        raise ConfigError(f"{path} has no rows")
    per_method = {}
    for key, cells in acc.items():
        n = max(t for t, _ in cells) + 1
        try:
            rep = MetricsReport(*key, acc=[[cells[(t, i)] for i in range(t + 1)]
                                           for t in range(n)])
        except KeyError as exc:
            raise ConfigError(f"{path} has no row for (after_task, eval_task)="
                              f"{exc} of (method, seed, order_id)={key}") from None
        per_method.setdefault(key[0], []).append(
            (rep.final_average_accuracy(), rep.mean_forgetting()))
    print(f"{'method':>10} {'runs':>4} {'avg_acc':>16} {'mean_forgetting':>16}")
    for method in sorted(per_method):
        accs, forgets = map(np.array, zip(*per_method[method]))
        print(f"{method:>10} {len(accs):>4} "
              f"{accs.mean():>8.4f}+-{accs.std():<6.4f} "
              f"{forgets.mean():>8.4f}+-{forgets.std():<6.4f}")
    over = os.path.join(out_dir, "overhead.txt")
    if os.path.exists(over):
        with open(over, encoding="utf-8") as f:
            print(f.read(), end="")
    return 0


def parse_and_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    handlers = {
        "run": _cmd_run,
        "verify-ortho": _cmd_verify_ortho,
        "grad-check": _cmd_grad_check,
        "inspect-gates": _cmd_inspect_gates,
        "report": _cmd_report,
    }
    try:
        return handlers[args.verb](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
