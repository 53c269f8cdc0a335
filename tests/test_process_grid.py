"""`run --jobs N` runs grid cells in worker processes; output bytes do not
depend on N. Also pins what `mtl` trains on."""

import concurrent.futures
import csv
import multiprocessing
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import amlora
from amlora import cli, harness
from amlora.cli import parse_and_dispatch
from amlora.configfile import (apply_overrides, default_config,
                               to_method_spec, to_model_config, to_stream,
                               to_train_config)
from amlora.harness import MetricsReport
from amlora.tasks import generate_task

SRC = os.path.dirname(amlora.__file__)

TINY = ["d=16", "heads=2", "layers=1", "seq_len=6", "vocab=64", "tasks=2",
        "classes=2", "train_per_task=24", "eval_per_task=8", "r=2",
        "alpha=4", "pretrain_epochs=0", "sig_tokens=2"]


def _ov(extra=()):
    return [a for kv in TINY + list(extra) for a in ("--override", kv)]


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _grid(out, jobs, extra=()):
    return (["run", "--out-dir", out, "--methods", "seqft,sinlora",
             "--seeds", "0,1", "--jobs", str(jobs)] + list(extra) + _ov())


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only fork carries the patched run_stream into "
                           "the workers")
def test_jobs_2_runs_cells_outside_this_process(tmp_path, monkeypatch):
    def fake_run_stream(stream, method, model_cfg, train_cfg, seed,
                        checkpoint_path=None):
        return MetricsReport(method=method.name, seed=seed,
                             order_id=str(os.getpid()), acc=[[0.5]])

    monkeypatch.setattr(cli, "run_stream", fake_run_stream)
    pids = {}
    for jobs in (1, 2):
        out = str(tmp_path / f"j{jobs}")
        assert parse_and_dispatch(_grid(out, jobs)) == 0
        rows = _read_rows(os.path.join(out, "metrics.csv"))
        assert len(rows) == 4
        pids[jobs] = {r["order_id"] for r in rows}
    parent = str(os.getpid())
    assert pids[1] == {parent}
    assert parent not in pids[2]


def test_jobs_starts_at_most_one_worker_per_cell(tmp_path, monkeypatch):
    # a fork pool starts all max_workers processes up front; the fake starts
    # none and maps the cells in this process
    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    for jobs, workers in ((64, 4), (3, 3)):
        out = str(tmp_path / f"j{jobs}")
        assert parse_and_dispatch(_grid(out, jobs)) == 0
        assert len(_read_rows(os.path.join(out, "summary.csv"))) == 4
        assert asked.pop() == workers and not asked


def test_output_bytes_do_not_depend_on_jobs(tmp_path, capsys):
    files, stdout = {}, {}
    for jobs in (1, 2):
        out = str(tmp_path / f"j{jobs}")
        assert parse_and_dispatch(
            _grid(out, jobs, ["--save-checkpoints"])) == 0
        stdout[jobs] = capsys.readouterr().out.replace(out, "OUT")
        files[jobs] = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as f:
                files[jobs][name] = f.read()
    assert sum(name.startswith("ckpt_") for name in files[1]) == 4
    assert files[1] == files[2]
    assert stdout[1] == stdout[2]


def test_partly_failing_grid_at_jobs_2(tmp_path, capsys):
    # sinlora attaches a rank-9 adapter to a 16x16 projection and fails;
    # seqft attaches no adapters and trains.
    out = str(tmp_path / "o")
    rc = parse_and_dispatch(["run", "--out-dir", out, "--methods",
                             "seqft,sinlora", "--jobs", "2"]
                            + _ov(["r=9"]))
    assert rc == 2
    text = capsys.readouterr().out
    assert text.count("FAILED") == 1
    assert "sinlora order1 seed=0: FAILED  ConfigError: rank 9" in text
    rows = _read_rows(os.path.join(out, "metrics.csv"))
    assert rows and {r["method"] for r in rows} == {"seqft"}


def test_mtl_trains_on_every_task_at_every_stage(monkeypatch):
    cfg = apply_overrides(default_config(), TINY + ["tasks=3"])
    stream = to_stream(cfg)
    union_x = np.concatenate([generate_task(s).train_x for s in stream.tasks])
    seen = []
    real = harness.train_task

    def spy(model, optimizer, x, y, *args, **kwargs):
        seen.append(np.array(x))
        return real(model, optimizer, x, y, *args, **kwargs)

    monkeypatch.setattr(harness, "train_task", spy)
    cfg["method"] = "mtl"
    harness.run_stream(stream, to_method_spec(cfg), to_model_config(cfg),
                       to_train_config(cfg), seed=0)
    assert len(seen) == 3  # pretrain_epochs=0: stage calls only
    for x in seen:
        assert x.shape[0] == 3 * cfg["train_per_task"]
        assert np.array_equal(x, union_x)


def test_no_thread_pool_in_package():
    # Grid cells are small numpy ops that hold the interpreter lock, so a
    # thread pool ran slower than serial.
    offenders = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as f:
            if re.search(r"\bThreadPoolExecutor\b", f.read()):
                offenders.append(name)
    assert offenders == []


def test_jobs_1_does_not_import_the_process_pool(tmp_path):
    code = ("import sys\n"
            "from amlora.cli import parse_and_dispatch\n"
            f"rc = parse_and_dispatch({_grid(str(tmp_path / 'o'), 1)!r})\n"
            "print(rc, 'concurrent.futures.process' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.stdout.splitlines()[-1] == "0 False", res.stderr
