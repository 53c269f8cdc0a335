"""How much memory a training step and an eval bank keep alive at once.

Under the heap policy a process's peak RSS is the highest point its heap
ever reached, so these pin peaks of a training step, measured with
``tracemalloc``: the backward frees each tape node once its backward has
run, and Adam works in one scratch array.
"""

import tracemalloc

import numpy as np
import pytest

from amlora import autodiff as ad
from amlora.autodiff import Optimizer
from amlora.configfile import default_config, to_stream
from amlora.harness import TrainConfig, train_task
from amlora.model import ModelConfig, build_model
from amlora.tasks import generate_task


@pytest.fixture(scope="module")
def pretrain_step():
    """The default model with its base trainable, Adam over the base, one
    warm batch-8 step taken, and the next batch's rows."""
    data = generate_task(to_stream(default_config()).pretrain)
    model = build_model(ModelConfig(), 0)
    model.set_base_trainable(True)
    params = [t for _, t in model.base_parameters()]
    opt = Optimizer(params, lr=1e-3)
    rng = np.random.default_rng(0)
    x, y = data.train_x, data.train_y
    train_task(model, opt, x[:8], y[:8], TrainConfig(batch_size=8), rng)
    return model, opt, rng, x[8:16], y[8:16]


def _traced_step(model, opt, rng, x, y):
    """Bytes the forward holds, the backward's peak, and the step's entry
    and peak, all counted from just before the forward."""
    tracemalloc.start()
    try:
        loss = ad.cross_entropy(model.forward(x, mode="train", rng=rng), y)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ad.backward(loss)
        backward_peak = tracemalloc.get_traced_memory()[1]
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        opt.step()
        step_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return held, backward_peak, entry, step_peak


def test_a_pretrain_step_backward_peaks_near_what_the_forward_holds(
        pretrain_step):
    # 1.24x; 2.27x while every node's grad and closure lived until the end
    held, peak, _, _ = _traced_step(*pretrain_step)
    assert peak <= 1.4 * held, peak / held


def test_an_adam_step_needs_at_most_two_flat_arrays_more(pretrain_step):
    # the gathered grads and one scratch array: 2.0; about six temporaries
    # of that size before
    opt = pretrain_step[1]
    _, _, entry, peak = _traced_step(*pretrain_step)
    flat = sum(p.size for p in opt.params) * 8
    assert peak - entry <= 2.5 * flat, (peak - entry) / flat

