"""Steady memory traffic: a warm training step or eval pass faults in no
fresh pages, because importing the engine keeps freed memory mapped."""

import json
import os
import platform
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# 20 warm-up and 20 measured steps at batch 8 with the default model's base
# trainable, then two evaluations on 800 rows; prints the minor page faults
# of the measured steps and of the second evaluation.
PROBE = """
import json, resource
from dataclasses import replace
import numpy as np
from amlora.autodiff import Optimizer
from amlora.configfile import default_config, to_stream
from amlora.harness import TrainConfig, evaluate, train_task
from amlora.model import ModelConfig, build_model
from amlora.tasks import generate_task

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

spec = replace(to_stream(default_config()).tasks[0], eval_per_class=200)
data = generate_task(spec)
model = build_model(ModelConfig(), 0)
model.set_base_trainable(True)
opt = Optimizer([t for _, t in model.base_parameters()], lr=1e-3)
cfg = TrainConfig(batch_size=8)
rng = np.random.default_rng(0)
x, y = data.train_x, data.train_y
train_task(model, opt, x[:160], y[:160], cfg, rng)
before = faults()
steps = train_task(model, opt, x[160:320], y[160:320], cfg, rng)
per_step = (faults() - before) / steps
evaluate(model, data)
before = faults()
evaluate(model, data)
print(json.dumps({"rows": int(data.eval_x.shape[0]), "steps": steps,
                  "per_step": per_step, "second_eval": faults() - before}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is set through glibc's mallopt")
def test_warm_steps_and_evals_fault_in_no_fresh_pages():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["rows"] == 800 and res["steps"] == 20
    assert res["per_step"] <= 5, res
    assert res["second_eval"] <= 100, res
