"""Training loop, evaluation, report shapes, CSV emission."""

import csv
import math
import os

import numpy as np
import pytest

from amlora import autodiff as ad
from amlora.autodiff import Optimizer
from amlora.baselines import MethodSpec
from amlora.errors import ConfigError, StateError
from amlora.harness import (MetricsReport, TrainConfig, emit_report, evaluate,
                            pretrain_base, run_stream, train_task)
from amlora.model import ModelConfig, build_model
from amlora.tasks import build_stream, generate_task

MODEL = ModelConfig(vocab_size=64, embed_dim=8, num_layers=1, num_heads=2,
                    seq_len=6, num_classes=4, dropout_rate=0.0,
                    adapter_sites=("query", "value"))
TRAIN = TrainConfig(epochs=1, lr=1e-2, batch_size=8, pretrain_epochs=1,
                    pretrain_lr=1e-3)


def small_stream(num_tasks=3, seed=0):
    return build_stream(num_tasks=num_tasks, train_per_task=32,
                        eval_per_task=16, vocab=64, seq_len=6, seed=seed,
                        sig_tokens_per_class=2)


def small_method(name="amlora"):
    return MethodSpec(name, rank=2, alpha=4.0, lam=1e-4)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0).validate()
    with pytest.raises(ConfigError, match="^lr must be >= 0"):
        TrainConfig(lr=-1e-3).validate()
    with pytest.raises(ConfigError, match="^pretrain_lr must be >= 0"):
        TrainConfig(pretrain_lr=-1e-3).validate()
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(pretrain_epochs=-1).validate()
    TrainConfig(lr=0.0).validate()  # zero is a legal no-op rate


@pytest.mark.parametrize("name", ["lr", "pretrain_lr"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_train_config_rejects_a_non_finite_rate(name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be finite, got "):
        TrainConfig(**{name: value}).validate()


def test_report_forgetting_oracle():
    r = MetricsReport(method="x", seed=0, order_id="order1",
                      acc=[[0.9], [0.5, 0.8], [0.4, 0.7, 0.95]])
    assert r.num_tasks() == 3
    assert r.final_average_accuracy() == pytest.approx((0.4 + 0.7 + 0.95) / 3)
    assert r.forgetting() == pytest.approx([0.5, 0.1, 0.0])
    assert r.mean_forgetting() == pytest.approx(0.2)
    with pytest.raises(StateError):
        MetricsReport(method="x", seed=0, order_id="order1") \
            .final_average_accuracy()


def test_train_task_step_count_and_zero_lr():
    model = build_model(MODEL, seed=0)
    params = [p for _, p in model.base_parameters()]
    model.train_only(params)
    data = generate_task(small_stream().tasks[0])
    before = [p.data.tobytes() for p in params]
    cfg = TrainConfig(epochs=2, lr=0.0, batch_size=8)
    steps = train_task(model, Optimizer(params, lr=0.0), data.train_x,
                       data.train_y, cfg, np.random.default_rng(0))
    assert steps == 2 * math.ceil(32 / 8)
    assert [p.data.tobytes() for p in params] == before


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0 in matmul
def test_train_task_rejects_non_finite_loss():
    model = build_model(MODEL, seed=0)
    params = [p for _, p in model.base_parameters()]
    model.train_only(params)
    model.classifier.w0.data[:] = np.inf
    data = generate_task(small_stream().tasks[0])
    with pytest.raises(StateError, match="non-finite"):
        train_task(model, Optimizer(params, lr=1e-2), data.train_x,
                   data.train_y, TrainConfig(), np.random.default_rng(0))
    # The tape was reset, so a clean forward/backward still works.
    model.classifier.w0.data[:] = 0.0
    loss = ad.cross_entropy(model.forward(data.train_x[:4], mode="train"),
                            data.train_y[:4])
    ad.backward(loss)
    for p in params:
        p.grad = None


def test_fresh_model_initial_loss_near_log_c():
    # Gaussian(0, 0.02) init gives near-zero logits, so the first loss sits
    # at ln(num_classes) for a balanced batch.
    model = build_model(MODEL, seed=1)
    data = generate_task(small_stream().tasks[0])
    loss = ad.cross_entropy(model.forward(data.train_x, mode="eval"),
                            data.train_y)
    assert abs(loss.data - math.log(4)) < 0.1
    ad.reset_tape()


def test_fresh_model_accuracy_near_chance():
    # Needs the full-size model: at d=8 a random init is visibly class-biased
    # and lands outside any binomial band around chance.
    from amlora.configfile import default_config, to_model_config, to_stream
    cfg = default_config()
    data = generate_task(to_stream(cfg, seed=0).tasks[0])
    accs = [evaluate(build_model(to_model_config(cfg), seed=s), data)
            for s in range(4)]
    # 4 classes: chance 0.25 within a generous binomial band.
    assert all(0.15 <= a <= 0.35 for a in accs)


def test_evaluate_breaks_ties_toward_lowest_class():
    model = build_model(MODEL, seed=0)
    model.classifier.w0.data[:] = 0.0
    model.classifier.bias.data[:] = 0.0
    data = generate_task(small_stream().tasks[0])
    # all logits identical -> every prediction is class 0 -> exactly 1/4
    assert evaluate(model, data) == 0.25


def test_evaluate_batching_invariance():
    model = build_model(MODEL, seed=2)
    data = generate_task(small_stream().tasks[0])
    assert evaluate(model, data, batch=3) == evaluate(model, data, batch=200)


@pytest.mark.parametrize("batch", [0, -5])
def test_evaluate_rejects_a_batch_below_1(batch, monkeypatch):
    model = build_model(MODEL, seed=2)
    data = generate_task(small_stream().tasks[0])
    monkeypatch.setattr(model, "features", None)  # no chunk may run
    with pytest.raises(ConfigError, match=f"^batch must be >= 1, got {batch}$"):
        evaluate(model, data, batch=batch)


def test_pretrain_base_deterministic():
    stream = small_stream()
    a = pretrain_base(MODEL, 5, stream, TRAIN, pretrain_seed=9)
    b = pretrain_base(MODEL, 5, stream, TRAIN, pretrain_seed=9)
    for (na, pa), (_, pb) in zip(a.base_parameters(), b.base_parameters()):
        assert pa.data.tobytes() == pb.data.tobytes(), na
    assert all(not p.requires_grad for _, p in a.base_parameters())
    # pretraining must actually move the weights
    raw = build_model(MODEL, 5)
    assert a.embedding.data.tobytes() != raw.embedding.data.tobytes()
    off = TrainConfig(pretrain_epochs=0)
    c = pretrain_base(MODEL, 5, stream, off, pretrain_seed=9)
    assert c.embedding.data.tobytes() == raw.embedding.data.tobytes()


def test_run_stream_shapes_and_counts():
    stream = small_stream()
    rep = run_stream(stream, small_method(), MODEL, TRAIN, seed=0)
    assert rep.method == "amlora" and rep.order_id == "order1"
    assert [len(row) for row in rep.acc] == [1, 2, 3]
    assert len(rep.trainable_per_task) == 3
    assert all(0.0 <= a <= 1.0 for row in rep.acc for a in row)
    # per site: one rank-2 adapter pair plus (t+2) heads of size d_out;
    # one layer with (query, value) adapted gives two sites
    n_sites = 2
    d_out, d_in, r = 8, 8, 2
    assert rep.trainable_per_task[0] == n_sites * (r * (d_in + d_out) + 2 * d_out)
    adapter_params, selector_params = next(iter(rep.site_params.values()))
    assert adapter_params == 3 * r * (d_in + d_out)
    assert selector_params == 4 * d_out
    assert len(rep.site_params) == n_sites
    assert rep.base_params == sum(
        p.size for _, p in build_model(MODEL, 0).base_parameters())


def test_run_stream_pertaskft_never_forgets():
    rep = run_stream(small_stream(), MethodSpec("pertaskft"), MODEL, TRAIN,
                     seed=0)
    assert rep.forgetting() == [0.0, 0.0, 0.0]
    for t in range(1, 3):
        assert rep.acc[t][:t] == rep.acc[t - 1]


def test_run_stream_seqft_trains_base():
    rep = run_stream(small_stream(), MethodSpec("seqft"), MODEL, TRAIN, seed=0)
    base = sum(p.size for _, p in build_model(MODEL, 0).base_parameters())
    assert rep.trainable_per_task == [base] * 3


def test_emit_report_files_and_reaggregation(tmp_path):
    out = str(tmp_path / "report")
    stream = small_stream()
    rep = run_stream(stream, small_method("inclora"), MODEL, TRAIN, seed=3)
    emit_report([rep], out)
    with open(os.path.join(out, "metrics.csv")) as f:
        rows = list(csv.DictReader(f))
    assert set(rows[0]) == {"method", "seed", "order_id", "after_task",
                            "eval_task", "accuracy"}
    assert len(rows) == 6  # triangular: 1 + 2 + 3
    final = [float(r["accuracy"]) for r in rows if r["after_task"] == "2"]
    with open(os.path.join(out, "summary.csv")) as f:
        srow = next(csv.DictReader(f))
    # repr round-trip: the summary value is exactly the recomputed mean
    assert float(srow["avg_accuracy"]) == np.mean(final)
    assert srow["method"] == "inclora" and srow["seed"] == "3"
    with open(os.path.join(out, "trajectory.csv")) as f:
        trows = list(csv.DictReader(f))
    assert len(trows) == 6
    # trajectory rows are grouped by eval_task, each group ordered by stage
    keys = [(r["eval_task"], r["after_task"]) for r in trows]
    assert keys == [("0", "0"), ("0", "1"), ("0", "2"),
                    ("1", "1"), ("1", "2"), ("2", "2")]


def test_emit_report_rejects_non_triangular(tmp_path):
    r = MetricsReport(method="x", seed=0, order_id="order1",
                      acc=[[0.5], [0.5]])
    with pytest.raises(StateError, match="triangular"):
        emit_report([r], str(tmp_path / "bad_report"))


def test_run_stream_byte_identical_metrics(tmp_path):
    out1, out2 = str(tmp_path / "det1"), str(tmp_path / "det2")
    for out in (out1, out2):
        emit_report([run_stream(small_stream(), small_method(), MODEL, TRAIN,
                                seed=7)], out)
    with open(os.path.join(out1, "metrics.csv"), "rb") as f:
        b1 = f.read()
    with open(os.path.join(out2, "metrics.csv"), "rb") as f:
        b2 = f.read()
    assert b1 == b2

