"""The names and counts the benchmark relies on, checked at unit-test time.

``perfbench/tracer.py`` wraps package callables by name and
``perfbench/worker.py`` derives the work a grid must do from its config.
This test loads both files as they are, traces a six-method grid in this
process, and asserts the counts ``perfbench/run.py`` checks on a traced
``grid-methods`` run. A renamed wrapped name, or a change that skips
``pretrain_base`` calls, fails here rather than at benchmark time.
"""

import importlib.util
import os

from amlora.cli import parse_and_dispatch
from amlora.configfile import apply_overrides, default_config

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
METHODS = ("seqft", "sinlora", "inclora", "amlora", "pertaskft", "mtl")
OVERRIDES = ["d=16", "heads=2", "layers=1", "seq_len=6", "vocab=64",
             "tasks=2", "classes=2", "train_per_task=24", "eval_per_task=8",
             "r=2", "alpha=4", "pretrain_epochs=1", "sig_tokens=2"]


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_grid_matches_expected_work(tmp_path):
    expected_work = _load("worker").expected_work
    tracer = _load("tracer").Tracer("unit-test")
    argv = ["run", "--out-dir", str(tmp_path), "--methods", ",".join(METHODS),
            "--seeds", "0", "--jobs", "1"]
    for kv in OVERRIDES:
        argv += ["--override", kv]
    tracer.install()
    try:
        rc = parse_and_dispatch(argv)
    finally:
        tracer.uninstall()
    assert rc == 0

    cfg = apply_overrides(default_config(), OVERRIDES)
    work = [expected_work(cfg, m) for m in METHODS]
    summary = tracer.summary()
    calls = {name: e["calls"] for name, e in summary["spans"].items()}
    assert calls["autodiff.backward"] == sum(w["steps"] for w in work)
    assert calls["harness.pretrain_base"] == sum(w["pretrains"] for w in work)
    assert calls["cli.run_stream"] == len(METHODS)
    assert calls["harness.emit_report"] == 1
    assert summary["counts"]["evaluate.examples"] == \
        sum(w["eval_examples"] for w in work)
