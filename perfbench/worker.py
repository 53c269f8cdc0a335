"""One measured benchmark process: set up, run one workload pass, report.

Started by ``run.py`` as a fresh process per measured run, with the
checkout's ``src`` first on the path and BLAS pinned to one thread. The job
is one JSON argument; the result is one JSON object on the last stdout line.

Modes:

* ``setup``     -- import, config, ``build_stream`` and ``generate_task``
                   (plus ``load_checkpoint`` when a checkpoint is given).
* ``stream``    -- setup, then one ``run_stream`` call, timed.
* ``make-ckpt`` -- untimed input generation: one ``run_stream`` that writes
                   a checkpoint and the accuracy rows it reached.
* ``eval``      -- setup with ``load_checkpoint``, then ``evaluate`` on every
                   eval split, timed.
* ``grid``      -- the ``amlora run`` CLI in this process (traced runs only;
                   untraced grids run the real CLI as its own process).

With ``"trace": PATH`` the tracer wraps the package before setup, writes
its spans to PATH at the end and adds its summary to the result.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def expected_work(cfg: dict, method: str) -> dict:
    """Optimizer steps and examples one stream of ``method`` processes."""
    n, tasks, ep, batch = (cfg["train_per_task"], cfg["tasks"], cfg["epochs"],
                           cfg["batch"])
    pretrains = tasks if method == "pertaskft" else 1
    pre_n = n * cfg["pretrain_epochs"] * pretrains
    pre_steps = cfg["pretrain_epochs"] * math.ceil(n / batch) * pretrains
    stage_n = n * tasks if method == "mtl" else n
    evals = tasks if method == "pertaskft" else tasks * (tasks + 1) // 2
    return {"pretrains": pretrains,
            "steps": pre_steps + tasks * ep * math.ceil(stage_n / batch),
            "train_examples": pre_n + tasks * ep * stage_n,
            "eval_examples": evals * cfg["eval_per_task"]}


def _config(job):
    from amlora import configfile
    cfg = configfile.apply_overrides(configfile.default_config(),
                                     job["overrides"])
    cfg["seed"] = job["seed"]
    return cfg


def _setup(job):
    from amlora import checkpoint, configfile, tasks
    cfg = _config(job)
    stream = configfile.to_stream(cfg)
    data = [tasks.generate_task(spec) for spec in stream.tasks]
    model = (checkpoint.load_checkpoint(job["ckpt"])
             if job.get("ckpt") else None)
    return cfg, stream, data, model


def _run_stream(job, cfg, stream, ckpt=None):
    from amlora import configfile, harness
    return harness.run_stream(
        stream, configfile.to_method_spec(cfg),
        configfile.to_model_config(cfg), configfile.to_train_config(cfg),
        job["seed"], checkpoint_path=ckpt)


def run(job) -> dict:
    if not os.path.isfile(os.path.join(SRC, "amlora", "__init__.py")):
        raise SystemExit(f"no amlora package under {SRC}")
    sys.path.insert(0, SRC)
    import amlora
    if os.path.dirname(os.path.abspath(amlora.__file__)) != \
            os.path.join(SRC, "amlora"):
        raise SystemExit(f"imported amlora from {amlora.__file__}, "
                         f"not from {SRC}")
    tracer = None
    if job.get("trace"):
        sys.path.insert(0, HERE)
        from tracer import Tracer
        tracer = Tracer(job["run_id"])
        tracer.install()
    mode = job["mode"]
    res = {"mode": mode}
    if mode == "grid":
        from amlora import cli
        t0 = time.perf_counter()
        with tracer.span("cli.parse_and_dispatch"):
            res["code"] = cli.parse_and_dispatch(job["argv"])
        res["wall_s"] = time.perf_counter() - t0
    else:
        cfg, stream, data, model = _setup(job)
        res["setup_s"] = time.perf_counter() - T_START
        if mode == "stream":
            t0 = time.perf_counter()
            rep = _run_stream(job, cfg, stream)
            res["wall_s"] = time.perf_counter() - t0
            res["acc"] = rep.acc
            res["final_avg_acc"] = rep.final_average_accuracy()
            res["mean_forgetting"] = rep.mean_forgetting()
            res.update(expected_work(cfg, cfg["method"]))
        elif mode == "make-ckpt":
            rep = _run_stream(job, cfg, stream, ckpt=job["write_ckpt"])
            res["acc"] = rep.acc
        elif mode == "eval":
            from amlora import harness
            t0 = time.perf_counter()
            res["acc_by_task"] = [harness.evaluate(model, d, 200)
                                  for d in data]
            res["wall_s"] = time.perf_counter() - t0
            res["eval_examples"] = sum(int(d.eval_x.shape[0]) for d in data)
            res["train_examples"] = res["steps"] = 0
        elif mode == "setup" and job.get("grid_methods"):
            work = [expected_work(cfg, m) for m in job["grid_methods"]]
            for key in ("pretrains", "steps", "train_examples",
                        "eval_examples"):
                res[key] = sum(w[key] for w in work)
    if tracer is not None:
        tracer.uninstall()
        res["trace"] = tracer.summary()
        tracer.write_spans(job["trace"])
    # CPU spent in child processes of this one, which the tracer cannot see.
    res["untraced_child_cpu_s"] = sum(
        getattr(resource.getrusage(resource.RUSAGE_CHILDREN), f)
        for f in ("ru_utime", "ru_stime"))
    return res


def main():
    job = json.loads(sys.argv[1])
    res = run(job)
    sys.stdout.flush()
    print(json.dumps(res))


if __name__ == "__main__":
    main()
