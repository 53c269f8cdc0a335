"""Sequential-stream training loop, metrics, and CSV report emission.

``run_stream`` trains one method over an ordered task stream, evaluating on
every task seen so far after each stage, and returns a ``MetricsReport``
holding the triangular accuracy matrix plus derived summary numbers. CSV
outputs use fixed column sets so external tooling can diff and plot them:

* metrics.csv    -- method, seed, order_id, after_task, eval_task, accuracy
* summary.csv    -- method, seed, avg_accuracy, mean_forgetting, trainable_params
* trajectory.csv -- per-task accuracy curves keyed the same way, rows grouped
  by eval_task so one task's curve is contiguous.

All files are written through ``atomic.write_csv``.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .atomic import write_csv
from .autodiff import Optimizer, Tensor
from .baselines import Driver, MethodSpec, make_driver
from .errors import ConfigError, StateError
from .model import Backbone, ModelConfig, build_model
from .tasks import TaskData, TaskStream, check_backbone, generate_task


@dataclass
class TrainConfig:
    epochs: int = 1
    lr: float = 2e-2
    batch_size: int = 8
    optimizer: str = "adam"
    # Base-model pretraining on the stream's pretext task, before any
    # sequential stage; 0 epochs disables it.
    pretrain_epochs: int = 3
    pretrain_lr: float = 1e-3

    def validate(self):
        for name, least in (("epochs", 1), ("batch_size", 1),
                            ("pretrain_epochs", 0)):
            v = getattr(self, name)
            if v < least:
                raise ConfigError(f"{name} must be >= {least}, got {v}")
        ad.check_lr("lr", self.lr)
        ad.check_lr("pretrain_lr", self.pretrain_lr)


@dataclass
class MetricsReport:
    method: str
    seed: int
    order_id: str
    acc: list[list[float]] = field(default_factory=list)
    trainable_per_task: list[int] = field(default_factory=list)
    base_params: int = 0
    # site name -> (adapter, selector) parameter counts, in site order
    site_params: dict = field(default_factory=dict)

    @property
    def num_sites(self) -> int:
        return len(self.site_params)

    @property
    def adapter_params_per_site(self) -> int:  # the first site's
        return next(iter(self.site_params.values()), (0, 0))[0]

    @property
    def selector_params_per_site(self) -> int:  # the first site's
        return next(iter(self.site_params.values()), (0, 0))[1]

    def num_tasks(self) -> int:
        return len(self.acc)

    def final_average_accuracy(self) -> float:
        if not self.acc:
            raise StateError("empty report has no final accuracy")
        return float(np.mean(self.acc[-1]))

    def forgetting(self) -> list[float]:
        """Per task: best accuracy ever seen minus accuracy at the end."""
        n = self.num_tasks()
        out = []
        for i in range(n):
            best = max(self.acc[t][i] for t in range(i, n))
            out.append(best - self.acc[-1][i])
        return out

    def mean_forgetting(self) -> float:
        f = self.forgetting()
        return float(np.mean(f)) if f else 0.0


def train_task(model: Backbone, optimizer: Optimizer, x: np.ndarray,
               y: np.ndarray, cfg: TrainConfig, rng: np.random.Generator,
               extra_loss_fn=None) -> int:
    """Epochs of shuffled minibatch steps; returns the step count."""
    cfg.validate()
    n = x.shape[0]
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for s in range(0, n, cfg.batch_size):
            idx = order[s:s + cfg.batch_size]
            logits = model.forward(x[idx], mode="train", rng=rng)
            loss = ad.cross_entropy(logits, y[idx])
            if extra_loss_fn is not None:
                extra = extra_loss_fn()
                if extra is not None:
                    loss = ad.add(loss, extra)
            if not np.isfinite(loss.data):
                ad.reset_tape()
                raise StateError(f"non-finite loss at step {step}")
            ad.backward(loss)
            optimizer.step()
            step += 1
    return step


def evaluate(model: Backbone, data: TaskData, batch: int = 200) -> float:
    """Argmax accuracy on the eval split, in [0, 1]; ties go to the lowest class.

    On the transformer each chunk of ``batch`` rows is split into one
    contiguous part per usable CPU, but into no part of fewer than
    ``_MIN_PART_ROWS`` rows. Helper thread j runs part j of every chunk and
    the calling thread part 0, all through ``Backbone.features``; the
    classifier then runs once over each whole chunk. Every op before the
    classifier works on each example alone, so the logits are the bytes of
    one serial ``forward`` per chunk. The classifier stays one call because
    BLAS picks its kernel by row count; the mlp's layers are such 2-d GEMMs
    too, so it keeps one part per chunk, and one part starts no thread.
    """
    if batch < 1:
        raise ConfigError(f"batch must be >= 1, got {batch}")
    x, y = data.eval_x, data.eval_y
    if x.shape[0] == 0:
        raise StateError("eval split is empty")
    starts = range(0, x.shape[0], batch)
    with ad.no_grad():
        logits = _eval_logits(model, [x[s:s + batch] for s in starts])
    correct = sum(int((np.argmax(out.data, axis=1) == y[s:s + batch]).sum())
                  for s, out in zip(starts, logits))
    return correct / x.shape[0]


# Rows each eval part gets at least. On a 2-vCPU host two threads lost on
# 16-row parts (3.1 against 3.6 ms per 32-row chunk), won and lost on
# 32-row parts, and won on every run from 48-row parts up (14.6 against
# 10.9 ms per 96-row chunk): a thread's start and the handoffs of the
# interpreter lock cost more than a small part saves.
_MIN_PART_ROWS = 48


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _eval_logits(model: Backbone, chunks: list) -> list:
    cpus = _usable_cpus() if model.config.backbone == "transformer" else 1
    parts = [np.array_split(c, max(1, min(cpus, c.shape[0] // _MIN_PART_ROWS)))
             for c in chunks]
    k = max(len(p) for p in parts)
    feats = [[None] * len(p) for p in parts]
    failed: list = [None] * k  # each thread's first failure: (chunk, error)

    def work(j):
        with ad.no_grad():  # the no-grad depth is per thread
            for c, p in enumerate(parts):
                if j < len(p):
                    try:
                        feats[c][j] = model.features(p[j], "eval").data
                    except BaseException as e:  # re-raised below
                        failed[j] = (c, e)
                        return

    threads = [threading.Thread(target=work, args=(j,)) for j in range(1, k)]
    for t in threads:
        t.start()
    work(0)
    for t in threads:
        t.join()
        # join returns before the OS thread is gone, and until then glibc
        # keeps its malloc arena: a helper started meanwhile would get a
        # fresh arena and fill it with a second copy of a part's working set
        while os.path.exists(f"/proc/self/task/{t.native_id}"):
            time.sleep(0)
    first = min(((f[0], j) for j, f in enumerate(failed) if f), default=None)
    if first is not None:  # the error a serial loop would have met first
        raise failed[first[1]][1]
    return [model.classifier.forward(Tensor(np.concatenate(f))) for f in feats]


def _overhead_counts(model: Backbone, report: MetricsReport):
    report.base_params = sum(p.size for _, p in model.base_parameters())
    report.site_params = {
        name: (0 if site.stack is None else site.stack.param_count(),
               0 if site.selector is None else site.selector.param_count())
        for name, site in model.sites.items()}


def pretrain_base(model_cfg: ModelConfig, model_seed: int, stream: TaskStream,
                  train_cfg: TrainConfig, pretrain_seed: int) -> Backbone:
    """Fresh base model, pretrained on the stream's pretext task and left inert.

    Deterministic in its arguments, so rebuilding yields byte-identical
    weights; every method starts from this same base.
    """
    model = build_model(model_cfg, model_seed)
    if stream.pretrain is not None and train_cfg.pretrain_epochs > 0:
        pdata = generate_task(stream.pretrain)
        model.set_base_trainable(True)
        pcfg = replace(train_cfg, epochs=train_cfg.pretrain_epochs,
                       lr=train_cfg.pretrain_lr, pretrain_epochs=0)
        opt = Optimizer([t for _, t in model.base_parameters()],
                        kind=train_cfg.optimizer, lr=train_cfg.pretrain_lr)
        train_task(model, opt, pdata.train_x, pdata.train_y, pcfg,
                   np.random.default_rng(pretrain_seed))
        model.set_base_trainable(False)
    return model


def run_stream(stream: TaskStream, method: MethodSpec, model_cfg: ModelConfig,
               train_cfg: TrainConfig, seed: int,
               checkpoint_path: str | None = None) -> MetricsReport:
    """Train one method over the stream; write only the optional checkpoint."""
    check_backbone(stream, model_cfg.backbone)
    model_ss, stage_root = np.random.SeedSequence(seed).spawn(2)
    aux = stage_root.spawn(len(stream) + 2)
    stage_seeds = [int(ss.generate_state(1)[0]) for ss in aux]
    attach_seed, pretrain_seed = stage_seeds[-2], stage_seeds[-1]
    model_seed = int(model_ss.generate_state(1)[0])
    model = pretrain_base(model_cfg, model_seed, stream, train_cfg,
                          pretrain_seed)
    driver = make_driver(method)
    driver.attach(model, attach_seed)

    data = [generate_task(spec) for spec in stream.tasks]
    report = MetricsReport(method=method.name, seed=seed,
                           order_id=stream.order_id)
    union_x = union_y = None
    if driver.union_training:
        union_x = np.concatenate([d.train_x for d in data])
        union_y = np.concatenate([d.train_y for d in data])

    own_acc: list[float] = []  # per-task accuracy of that task's own model
    for stage, tdata in enumerate(data):
        rng = np.random.default_rng(stage_seeds[stage])
        if driver.fresh_model_per_stage and stage > 0:
            model = pretrain_base(model_cfg, model_seed, stream,
                                  train_cfg, pretrain_seed)
            driver.attach(model, attach_seed)
        params = driver.start_stage(model, stage, stage_seeds[stage])
        opt = Optimizer(params, kind=train_cfg.optimizer, lr=train_cfg.lr)
        if driver.union_training:
            tx, ty = union_x, union_y
        else:
            tx, ty = tdata.train_x, tdata.train_y
        train_task(model, opt, tx, ty, train_cfg, rng,
                   extra_loss_fn=lambda: driver.extra_loss(model))
        driver.end_stage(model, stage)

        if driver.fresh_model_per_stage:
            own_acc.append(evaluate(model, tdata))
            row = list(own_acc)
        else:
            row = [evaluate(model, data[i]) for i in range(stage + 1)]
        report.acc.append(row)
        report.trainable_per_task.append(sum(p.size for p in params))
    _overhead_counts(model, report)
    if checkpoint_path is not None:
        from .checkpoint import save_checkpoint
        save_checkpoint(model, checkpoint_path)
    return report


def emit_report(reports: list[MetricsReport], out_dir: str):
    """Write metrics.csv, summary.csv, and trajectory.csv for a batch of runs."""
    os.makedirs(out_dir, exist_ok=True)
    metrics_rows = []
    summary_rows = []
    traj_rows = []
    for r in reports:
        rows = []
        for t, acc_row in enumerate(r.acc):
            if len(acc_row) != t + 1:
                raise StateError(
                    f"accuracy matrix is not triangular at row {t}")
            rows.extend([r.method, r.seed, r.order_id, t, i, repr(float(a))]
                        for i, a in enumerate(acc_row))
        metrics_rows.extend(rows)
        # trajectory.csv: the same rows, one eval task's curve contiguous.
        traj_rows.extend(sorted(rows, key=lambda row: (row[4], row[3])))
        trainable = r.trainable_per_task[-1] if r.trainable_per_task else 0
        summary_rows.append([r.method, r.seed,
                             repr(r.final_average_accuracy()),
                             repr(r.mean_forgetting()), trainable])
    write_csv(
        os.path.join(out_dir, "metrics.csv"),
        ["method", "seed", "order_id", "after_task", "eval_task", "accuracy"],
        metrics_rows)
    write_csv(
        os.path.join(out_dir, "summary.csv"),
        ["method", "seed", "avg_accuracy", "mean_forgetting", "trainable_params"],
        summary_rows)
    write_csv(
        os.path.join(out_dir, "trajectory.csv"),
        ["method", "seed", "order_id", "after_task", "eval_task", "accuracy"],
        traj_rows)
