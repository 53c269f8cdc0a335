"""amlora benchmark: three workloads, end to end untraced or layer by layer traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory, nothing is installed. Every measured run is a fresh
process with BLAS pinned to one thread and a fresh out-dir. The seed feeds
both the config ``seed`` (the task stream) and the run seed.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` alternates
untraced and traced runs and prints the per-layer metrics. Both check the
program's outputs. Human-readable lines come first; the last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

GRID_METHODS = ("seqft", "sinlora", "inclora", "amlora", "pertaskft", "mtl")
# The six-method grid at the default size takes about 50 s serially, longer
# than one measured run may last. It keeps every default but the per-task
# split sizes, cut 12.5x in the same 1000:400 ratio; the call pattern (9
# pretrain_base calls, 33 generate_task calls) does not depend on size.
GRID_OVERRIDES = ("train_per_task=80", "eval_per_task=32")
# Only the checkpoint's training is cut; its eval splits keep the default
# 4 x 400 examples that the eval-ckpt workload scores.
CKPT_OVERRIDES = ("train_per_task=400", "pretrain_epochs=1")
# Serial on purpose. At --jobs 2 on a 2-vCPU sandbox the thread pool's
# interpreter-lock handoffs and host steal time moved the median of a run
# from 6.2 s to 11.0 s across ten runs, too wide to bound.
GRID_JOBS = 1
WORKLOADS = ("stream-amlora", "grid-methods", "eval-ckpt")

SETUP_PROBES = 5       # extra setup-only processes per untraced run
MIN_RUNS = 3           # measured runs per untraced invocation, at least
DEADLINE_S = 170.0     # the whole invocation must end within 180 s

TAPE_TAGS = ("add", "concat", "cross_entropy", "embedding", "index", "l1",
             "matmul", "mean", "mul", "relu", "reshape", "softmax", "sum",
             "transpose")


class BenchError(Exception):
    """The benchmark could not produce a result (not an output mismatch)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("AMLORA_OUT", None)
    return env


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.t_begin = time.perf_counter()
        self.env = _child_env()
        self.nproc = len(os.sched_getaffinity(0))
        self.work = os.path.join(
            OUT_ROOT, f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}")
        self.n_child = 0
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.reference = None   # first run's output, for cross-run checks
        self.trace_reference = None  # first traced run's exact counters
        self.grid_work = None   # steps and examples one grid run implies

    # -- processes ----------------------------------------------------------

    def spawn(self, cmd: list[str]) -> dict:
        """Run one child to completion; wall seconds, peak RSS and stdout."""
        self.n_child += 1
        log = os.path.join(self.work, f"child{self.n_child}")
        remaining = DEADLINE_S - (time.perf_counter() - self.t_begin)
        if remaining <= 0:
            raise BenchError("out of time before starting a measured run")
        with open(log + ".out", "w") as out, open(log + ".err", "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                    env=self.env)
            try:
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.perf_counter() - t0 > remaining:
                        raise BenchError(f"{cmd[1:3]} timed out")
                    time.sleep(0.005)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(log + ".out") as f:
            text = f.read()
        return {"code": proc.returncode, "wall_s": wall, "stdout": text,
                "rss_mb": usage.ru_maxrss / 1024.0, "log": log}

    def worker(self, job: dict) -> dict:
        job = dict(job, seed=self.seed)
        run = self.spawn([sys.executable, WORKER, json.dumps(job)])
        if run["code"] != 0:
            with open(run["log"] + ".err") as f:
                tail = f.read()[-2000:]
            raise BenchError(f"worker {job['mode']} exited {run['code']}:\n"
                             f"{tail}")
        res = json.loads(run["stdout"].strip().splitlines()[-1])
        res["proc_wall_s"], res["rss_mb"] = run["wall_s"], run["rss_mb"]
        return res

    # -- workloads ------------------------------------------------------------

    def prepare(self):
        """Untimed input generation and one unmeasured warm-up process."""
        os.makedirs(self.work, exist_ok=True)
        self.overrides = []
        if self.workload == "grid-methods":
            self.overrides = list(GRID_OVERRIDES)
        if self.workload == "eval-ckpt":
            self.overrides = list(CKPT_OVERRIDES)
            self.ckpt = os.path.join(self.work, "amlora.ckpt")
            made = self.worker({"mode": "make-ckpt",
                                "overrides": self.overrides,
                                "write_ckpt": self.ckpt})
            self.ckpt_final_row = made["acc"][-1]
        # Warm-up: byte-compiles the sources, fills the file cache.
        warm = self.worker(self.setup_job())
        if self.workload == "grid-methods":
            self.grid_work = {k: warm[k] for k in ("pretrains", "steps",
                                                   "train_examples",
                                                   "eval_examples")}

    def setup_job(self) -> dict:
        job = {"mode": "setup", "overrides": self.overrides}
        if self.workload == "eval-ckpt":
            job["ckpt"] = self.ckpt
        if self.workload == "grid-methods":
            job["grid_methods"] = list(GRID_METHODS)
        return job

    def grid_argv(self, out_dir: str) -> list[str]:
        argv = ["run", "--methods", ",".join(GRID_METHODS),
                "--seeds", str(self.seed), "--jobs", str(GRID_JOBS),
                "--out-dir", out_dir, "--override", f"seed={self.seed}"]
        for ov in self.overrides:
            argv += ["--override", ov]
        return argv

    def measure_once(self, traced: bool) -> dict:
        """One measured run in a fresh process and a fresh out-dir."""
        n = self.n_child + 1
        out_dir = os.path.join(self.work, f"run{n}")
        os.makedirs(out_dir)
        job = {"overrides": self.overrides, "run_id":
               f"{self.workload}/seed{self.seed}/run{n}"}
        if traced:
            job["trace"] = os.path.join(self.work, f"spans-run{n}.jsonl")
        if self.workload == "stream-amlora":
            res = self.worker(dict(job, mode="stream"))
        elif self.workload == "eval-ckpt":
            res = self.worker(dict(job, mode="eval", ckpt=self.ckpt))
        elif traced:
            res = self.worker(dict(job, mode="grid",
                                   argv=self.grid_argv(out_dir)))
            res["wall_s"] = res["proc_wall_s"]
        else:
            cmd = [sys.executable, "-m", "amlora.cli"] + self.grid_argv(out_dir)
            run = self.spawn(cmd)
            res = {"wall_s": run["wall_s"], "rss_mb": run["rss_mb"],
                   "code": run["code"]}
        if self.workload == "grid-methods":
            res.update(self.read_grid(out_dir))
            res.update(self.grid_work)
        res["traced"] = traced
        self.check(res)
        if traced:
            self.check_counts(res)
        shutil.rmtree(out_dir)
        return res

    def read_grid(self, out_dir: str) -> dict:
        rows, summary, digest = {}, [], None
        path = os.path.join(out_dir, "metrics.csv")
        if os.path.exists(path):
            with open(path, "rb") as f:
                raw = f.read()
            digest = hashlib.sha256(raw).hexdigest()
            for row in csv.DictReader(io.StringIO(raw.decode("utf-8"))):
                rows.setdefault(row["method"], []).append(tuple(row.values()))
        spath = os.path.join(out_dir, "summary.csv")
        if os.path.exists(spath):
            with open(spath, newline="") as f:
                summary = list(csv.DictReader(f))
        acc = [float(r["avg_accuracy"]) for r in summary]
        forget = [float(r["mean_forgetting"]) for r in summary]
        return {"cells": rows, "metrics_sha256": digest,
                "summary_rows": len(summary),
                "final_avg_acc": statistics.fmean(acc) if acc else None,
                "mean_forgetting": statistics.fmean(forget) if forget else None}

    # -- output checks --------------------------------------------------------

    def problem(self, text: str):
        if text not in self.problems:
            self.problems.append(text)

    def check(self, res: dict):
        """Count operations and failed ones; compare to the first run."""
        first = self.reference is None
        if first:
            self.reference = res
        ref = self.reference
        if self.workload == "stream-amlora":
            self.attempted += 1
            ok = (res["acc"] == ref["acc"] and
                  all(len(row) == i + 1 for i, row in enumerate(res["acc"])))
            if not ok:
                self.failed += 1
                self.problem("stream accuracy matrix differs between runs")
        elif self.workload == "eval-ckpt":
            want = self.ckpt_final_row
            got = res["acc_by_task"]
            self.attempted += len(want)
            bad = sum(1 for i, a in enumerate(want)
                      if i >= len(got) or got[i] != a)
            if bad:
                self.failed += bad
                self.problem("loaded checkpoint does not reproduce the final "
                             "accuracy row of the run that wrote it")
        else:
            self.attempted += len(GRID_METHODS)
            bad = [m for m in GRID_METHODS
                   if not res["cells"].get(m)
                   or res["cells"][m] != ref["cells"].get(m)]
            if res["code"] != 0 or res["summary_rows"] != len(GRID_METHODS):
                self.problem(f"grid exited {res['code']} with "
                             f"{res['summary_rows']}/{len(GRID_METHODS)} "
                             "cells reported")
                bad = list(GRID_METHODS)
            if res["metrics_sha256"] != ref["metrics_sha256"]:
                self.problem("metrics.csv bytes differ between runs")
            self.failed += len(bad)

    # -- phases ---------------------------------------------------------------

    def loop(self, plan, min_rounds: int) -> list[dict]:
        """Rounds of ``plan`` for ``--seconds``, but at least ``min_rounds``.

        A round starts only if it is expected to end within the budget.
        """
        results = []
        t0 = time.perf_counter()
        rounds = 0
        while True:
            for traced in plan:
                results.append(self.measure_once(traced))
            rounds += 1
            spent = time.perf_counter() - t0
            if rounds >= min_rounds and spent * (rounds + 1) / rounds \
                    > self.seconds:
                break
        return results

    def check_counts(self, res: dict):
        """Exact counts the traced run must show, derived from the config,
        and the same on every traced run."""
        counts = exact_counts(res["trace"])
        if self.trace_reference is None:
            self.trace_reference = counts
        elif counts != self.trace_reference:
            self.problem("exact trace counters differ between runs")
        sp = res["trace"]["spans"]
        calls = {name: e["calls"] for name, e in sp.items()}
        nodes = sum(res["trace"]["tape_tags"].values())
        if calls.get("autodiff.backward", 0) != res["steps"]:
            self.problem(f"traced backward calls "
                         f"{calls.get('autodiff.backward', 0)} != "
                         f"{res['steps']} optimizer steps")
        if res["trace"]["counts"].get("evaluate.examples", 0) != \
                res["eval_examples"]:
            self.problem("traced evaluate examples differ from the config")
        if self.workload == "eval-ckpt" and nodes:
            self.problem(f"{nodes} tape nodes recorded under no_grad eval")
        if self.workload == "grid-methods":
            if calls.get("harness.pretrain_base", 0) != res["pretrains"]:
                self.problem("traced pretrain_base calls differ from the "
                             "grid's methods")
            if calls.get("cli.run_stream", 0) != len(GRID_METHODS):
                self.problem("traced grid did not run one stream per cell")

    def run(self) -> dict:
        self.prepare()
        if self.trace:
            return {"results": self.loop((False, True), 1)}
        setup = [self.worker(self.setup_job())["setup_s"]
                 for _ in range(SETUP_PROBES)]
        results = self.loop((False,), MIN_RUNS)
        setup += [r["setup_s"] for r in results if "setup_s" in r]
        return {"results": results, "setup": setup}


def exact_counts(tr: dict) -> dict:
    return {"calls": {n: e["calls"] for n, e in sorted(tr["spans"].items())},
            "counts": tr["counts"], "tape_tags": tr["tape_tags"],
            "distinct": tr["distinct"]}


# -- metrics ------------------------------------------------------------------


def tail(values: list[float]) -> str:
    """Median, plus the highest percentile with at least 10 runs beyond it."""
    vals = sorted(values)
    n = len(vals)
    text = f"median {statistics.median(vals):.4f} n={n}"
    if n >= 11:
        pct = 100.0 * (n - 10) / n
        text += f", p{pct:.0f} {vals[n - 11]:.4f}"
    else:
        text += (f", no percentile has 10 runs beyond it at this n "
                 f"(max {vals[-1]:.4f})")
    return text


def end_to_end(b: Bench, out: dict) -> dict:
    runs = [r for r in out["results"] if not r["traced"]]
    wall = [r["wall_s"] for r in runs]
    examples = runs[0]["train_examples"] + runs[0]["eval_examples"]
    med = statistics.median(wall)
    acc = runs[0].get("final_avg_acc")
    forget = runs[0].get("mean_forgetting")
    if b.workload == "eval-ckpt":
        acc = statistics.fmean(runs[0]["acc_by_task"])
    scope = " (mean over the grid's cells)" if b.grid_work else ""
    print(f"wall_s: {tail(wall)} s")
    print(f"setup_s: {tail(out['setup'])} s")
    print(f"examples per run: {examples} ({runs[0]['train_examples']} "
          f"trained, {runs[0]['eval_examples']} evaluated)")
    print(f"final_avg_acc: {acc!r} fraction{scope}")
    print(f"mean_forgetting: {forget!r} fraction{scope}"
          if forget is not None else
          "mean_forgetting: none (an eval pass has no stream to forget over)")
    print(f"failed_frac: {b.failed / b.attempted!r} fraction "
          f"({b.failed}/{b.attempted} operations)")
    if b.workload == "grid-methods":
        print(f"metrics.csv sha256: {runs[0]['metrics_sha256']}")
    return {
        "wall_s": {"value": med, "unit": "s"},
        "examples_per_s": {"value": examples / med, "unit": "1/s"},
        "setup_s": {"value": statistics.median(out["setup"]), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for r in runs),
                        "unit": "MB"},
    }


def per_layer(b: Bench, out: dict) -> dict:
    traced = [r for r in out["results"] if r["traced"]]
    plain = [r for r in out["results"] if not r["traced"]]
    first = traced[0]["trace"]

    def med(name, key):
        return statistics.median(r["trace"]["spans"].get(name, {}).get(key, 0)
                                 for r in traced)

    def calls(name):
        return first["spans"].get(name, {}).get("calls", 0)

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    bw = calls("autodiff.backward")
    nodes = sum(first["tape_tags"].values())
    put("autodiff.backward.calls", bw, "count")
    put("autodiff.backward.self_s", med("autodiff.backward", "self_s"), "s")
    put("autodiff.tape_nodes_per_step", nodes / bw if bw else 0.0,
        "nodes/step")
    for tag in TAPE_TAGS:
        put(f"autodiff.tape_nodes.{tag}", first["tape_tags"].get(tag, 0),
            "count")
    put("autodiff.Optimizer.step.calls", calls("autodiff.Optimizer.step"),
        "count")
    put("autodiff.Optimizer.step.self_s",
        med("autodiff.Optimizer.step", "self_s"), "s")
    put("autodiff.Optimizer.step.tensors",
        first["counts"].get("optimizer.tensors", 0), "count")
    for mode in ("train", "eval"):
        name = f"model.Backbone.forward.{mode}"
        put(name + ".calls", calls(name), "count")
        put(name + ".self_s", med(name, "self_s"), "s")
    for n in range(1, 5):
        name = f"selector.apply_gated.n{n}"
        put(name + ".calls", calls(name), "count")
        put(name + ".self_s", med(name, "self_s"), "s")
    put("baselines.extra_loss.calls", calls("baselines.extra_loss"), "count")
    put("baselines.extra_loss.self_s", med("baselines.extra_loss", "self_s"),
        "s")
    for name in ("harness.pretrain_base", "tasks.generate_task"):
        c, d = calls(name), first["distinct"].get(name, 0)
        put(name + ".calls", c, "count")
        put(name + ".distinct_inputs", d, "count")
        put(name + ".useful_ratio", d / c if c else 0.0, "ratio")
        put(name + ".total_s", med(name, "total_s"), "s")
    put("harness.train_task.total_s", med("harness.train_task", "total_s"),
        "s")
    put("harness.train_task.steps", first["counts"].get("train_task.steps", 0),
        "count")
    put("harness.evaluate.total_s", med("harness.evaluate", "total_s"), "s")
    put("harness.evaluate.examples",
        first["counts"].get("evaluate.examples", 0), "count")
    put("harness.emit_report.total_s", med("harness.emit_report", "total_s"),
        "s")
    put("checkpoint.load_checkpoint.total_s",
        med("checkpoint.load_checkpoint", "total_s"), "s")
    busy = [r["trace"]["spans"].get("cli.run_stream", {}).get("total_s", 0.0)
            for r in traced]
    disp = [r["trace"]["spans"].get("cli.parse_and_dispatch", {})
            .get("total_s", 0.0) for r in traced]
    put("cli.grid.cells", calls("cli.run_stream"), "count")
    put("cli.grid.busy_s", statistics.median(busy), "s")
    put("cli.grid.concurrency",
        statistics.median(b_ / d_ if d_ else 0.0 for b_, d_ in zip(busy, disp)),
        "ratio")
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    put("trace.overhead_frac", traced_wall / plain_wall - 1.0, "ratio")
    child_cpu = max(r["untraced_child_cpu_s"] for r in traced)
    print(f"trace: {len(traced)} traced and {len(plain)} untraced runs; "
          f"traced wall_s {traced_wall:.4f} s, untraced {plain_wall:.4f} s")
    print("trace: spans cover the traced worker process only; work in its "
          f"child processes is not traced ({child_cpu:.3f} CPU s of it here)")
    print(f"trace: spans written to {os.path.relpath(b.work, ROOT)}/"
          "spans-run*.jsonl")
    return m


def machine_record(b: Bench) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "amlora")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": 1, "nproc": b.nproc, "commit": commit,
            "src_sha256": h.hexdigest(), "workload": b.workload,
            "seed": b.seed, "seconds": b.seconds, "trace": int(b.trace)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "amlora", "__init__.py")):
        print(f"error: no amlora sources under {SRC}", file=sys.stderr)
        return 2
    b = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        out = b.run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("record: " + json.dumps(machine_record(b)))
    metrics = per_layer(b, out) if b.trace else end_to_end(b, out)
    for name, mv in metrics.items():
        print(f"metric {name} = {mv['value']!r} {mv['unit']}")
    for text in b.problems:
        print(f"CHECK FAILED: {text}")
    print(json.dumps({"correct": not b.problems and b.failed == 0,
                      "attempted": b.attempted, "failed": b.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
