"""``evaluate`` splits each transformer eval chunk across threads, one part
per usable CPU, and still gets the bytes of one serial ``forward``.

Comparisons are on int64 views, so the last bit counts. ``_split`` forces
the thread count, and parts down to one row, where a test needs a split
that does not depend on the machine or the batch size.
"""

import json
import os
import platform
import re
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from amlora import autodiff as ad
from amlora import harness
from amlora.baselines import MethodSpec, make_driver
from amlora.configfile import default_config, to_stream
from amlora.harness import evaluate
from amlora.model import ModelConfig, build_model
from amlora.tasks import TaskData, generate_task

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _model(method):
    """The default transformer; with ``method``, a 4-adapter stack at each
    site whose adapters and gate heads are random, so every term counts."""
    model = build_model(ModelConfig(), 0)
    if method is None:
        return model
    driver = make_driver(MethodSpec(method))
    driver.attach(model, 1)
    for stage in range(4):
        driver.start_stage(model, stage, 10 + stage)
    rng = np.random.default_rng(2)
    for site in model.sites.values():
        tensors = [t for a in site.stack.task_adapters for t in (a.A, a.B)]
        tensors += site.selector.heads if site.selector is not None else []
        for t in tensors:
            t.data[...] = rng.normal(0.0, 0.3, t.data.shape)
    return model


@pytest.fixture(scope="module")
def data():
    return generate_task(to_stream(default_config()).tasks[0])  # 400 rows


def _serial(model, data, batch):
    """The evaluate loop as it was before the split: one forward per chunk."""
    x, y = data.eval_x, data.eval_y
    correct, logits = 0, []
    with ad.no_grad():
        for s in range(0, x.shape[0], batch):
            out = model.forward(x[s:s + batch], mode="eval").data
            logits.append(out)
            correct += int((np.argmax(out, axis=1) == y[s:s + batch]).sum())
    return correct / x.shape[0], np.concatenate(logits)


def _split(monkeypatch, cpus):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(harness, "_MIN_PART_ROWS", 1)


def _split_logits(model, data, batch):
    x = data.eval_x
    chunks = [x[s:s + batch] for s in range(0, x.shape[0], batch)]
    with ad.no_grad():
        return np.concatenate([out.data for out in
                               harness._eval_logits(model, chunks)])


@pytest.mark.parametrize("method", ["amlora", "inclora", None])
def test_features_of_any_window_equal_the_rows_of_the_whole_batch(method,
                                                                   data):
    model = _model(method)
    x = data.eval_x[:200]
    with ad.no_grad():
        whole = model.features(x).data
        windows = [(s, w) for w in range(1, 10) for s in (0, 37, 191)]
        windows += [(0, 100), (100, 100)]
        for s, w in windows:
            part = model.features(x[s:s + w]).data
            assert np.array_equal(_bits(part), _bits(whole[s:s + w])), (s, w)
        logits = model.forward(x).data
        again = ad.linear(ad.Tensor(whole), model.classifier.w0,
                          model.classifier.bias).data
    assert np.array_equal(_bits(logits), _bits(again))


@pytest.mark.parametrize("cpus", [2, 3, 5])
@pytest.mark.parametrize("batch", [200, 7, 3, 2, 1])
def test_evaluate_equals_the_serial_loop(batch, cpus, data, monkeypatch):
    model = _model("amlora")
    acc, logits = _serial(model, data, batch)
    _split(monkeypatch, cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: parts interleave
    try:
        got = _split_logits(model, data, batch)
        got_acc = evaluate(model, data, batch)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(_bits(got), _bits(logits))
    assert got_acc == acc


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity call on this platform")
def test_evaluate_pinned_to_one_cpu_equals_the_serial_loop(data):
    model = _model("amlora")
    acc, logits = _serial(model, data, 200)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        assert harness._usable_cpus() == 1
        got = _split_logits(model, data, 200)
        pinned_acc = evaluate(model, data, 200)
    finally:
        os.sched_setaffinity(0, cpus)
    assert np.array_equal(_bits(got), _bits(logits))
    assert pinned_acc == acc


def test_mlp_backbone_gives_the_serial_result(monkeypatch):
    cfg = ModelConfig(backbone="mlp", embed_dim=8, num_layers=2, num_heads=1,
                      adapter_sites=("ffn",))
    model = build_model(cfg, 3)
    rng = np.random.default_rng(4)
    data = TaskData(spec=None, train_x=np.zeros((0, 8)),
                    train_y=np.zeros(0, dtype=np.int64),
                    eval_x=rng.normal(size=(90, 8)),
                    eval_y=rng.integers(0, cfg.num_classes, size=90))
    _split(monkeypatch, 4)
    for batch in (200, 7, 1):
        acc, logits = _serial(model, data, batch)
        assert np.array_equal(_bits(_split_logits(model, data, batch)),
                              _bits(logits))
        assert evaluate(model, data, batch) == acc


def test_chunks_too_small_to_split_run_serially(data, monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    model = _model("amlora")
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness.threading, "Thread", no_thread)
    small = 2 * harness._MIN_PART_ROWS - 1
    assert evaluate(model, data, small) == _serial(model, data, small)[0]
    with pytest.raises(AssertionError, match="a thread was started"):
        evaluate(model, data, small + 1)


# ---------------------------------------------------------------------------
# failures


def test_bad_id_in_the_last_part_raises_the_serial_error(data, monkeypatch):
    model = _model("amlora")
    bad = replace(data, eval_x=data.eval_x[:200].copy(),
                  eval_y=data.eval_y[:200])
    bad.eval_x[-1, 3] = model.config.vocab_size
    with pytest.raises(ValueError) as serial:
        model.forward(bad.eval_x, mode="eval")
    _split(monkeypatch, 3)
    threads = threading.active_count()
    with pytest.raises(ValueError) as split:
        evaluate(model, bad, 200)
    assert str(split.value) == str(serial.value)
    assert threading.active_count() == threads
    assert ad._state().tape == [] and ad._recording()


def test_the_lowest_failing_part_raises(data, monkeypatch):
    model = _model(None)
    features = model.features
    row_bytes = data.eval_x.strides[0]

    def failing(batch, mode="eval", rng=None):
        # every part is a view of eval_x; each from row 50 on fails, and
        # the first of them in chunk, then part, order starts at row 50
        first = (batch.ctypes.data - data.eval_x.ctypes.data) // row_bytes
        if first >= 50:
            raise RuntimeError(f"part at row {first}")
        return features(batch, mode, rng)

    monkeypatch.setattr(model, "features", failing)
    _split(monkeypatch, 4)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="part at row 50$"):
        evaluate(model, data, 200)
    assert threading.active_count() == threads
    assert ad._state().tape == [] and ad._recording()


# ---------------------------------------------------------------------------
# memory

# Four evaluations of a 4-adapter model on 800 rows, as many as the
# eval-ckpt benchmark makes, on one CPU when the argument is "1"; prints
# ru_maxrss in KiB, and glibc's per-arena statistics to stderr.
RSS_PROBE = """
import ctypes, json, os, resource, sys
from dataclasses import replace
import numpy as np
from amlora.baselines import MethodSpec, make_driver
from amlora.configfile import default_config, to_stream
from amlora.harness import evaluate
from amlora.model import ModelConfig, build_model
from amlora.tasks import generate_task

if sys.argv[1] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
spec = replace(to_stream(default_config()).tasks[0], eval_per_class=200)
data = generate_task(spec)
model = build_model(ModelConfig(), 0)
driver = make_driver(MethodSpec("amlora"))
driver.attach(model, 1)
for stage in range(4):
    driver.start_stage(model, stage, stage)
accs = [evaluate(model, data) for _ in range(4)]
print(json.dumps({"cpus": len(os.sched_getaffinity(0)), "acc": accs,
                  "rows": int(data.eval_x.shape[0]),
                  "maxrss_kb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss}))
ctypes.CDLL(None).malloc_stats()
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc"
                    or not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs glibc Linux with at least 2 usable CPUs")
def test_threaded_eval_keeps_one_arena_per_thread_at_the_serial_peak():
    # A helper thread's malloc arena goes back to glibc only after join()
    # has returned. A helper started before that gets a fresh arena and
    # fills it with a second copy of a part's working set; evaluate waits
    # for each helper's OS thread to be gone, so a run uses one arena per
    # thread at most. Without the wait, 2 of 12 runs of this probe used 3
    # arenas and 63 MB against 54 MB on one CPU.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    res = {}
    for arg in ("1", "all"):
        proc = subprocess.run([sys.executable, "-c", RSS_PROBE, arg], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        res[arg] = json.loads(proc.stdout.strip().splitlines()[-1])
        res[arg]["arenas"] = len(re.findall(r"^Arena \d+:", proc.stderr,
                                            re.M))
    serial, threaded = res["1"], res["all"]
    assert threaded["arenas"] <= threaded["cpus"], res
    assert serial["cpus"] == 1 and threaded["cpus"] >= 2
    assert serial["rows"] == 800 and threaded["acc"] == serial["acc"]
    assert threaded["maxrss_kb"] <= serial["maxrss_kb"] + 4096, res
