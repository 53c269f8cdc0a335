"""Bulk task generation against the per-row loops in ``tests/reference.py``.

``tasks`` rebuilds each token split from the generator's raw 64-bit words and
then leaves the generator where the per-row draws leave it, because eval
resampling goes on drawing from it. Each check compares the bytes of the
split and the generator's next ``random()`` and ``integers(0, 6)``; the state
dict may differ in a buffered half that is never read.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amlora import tasks
from amlora.configfile import default_config, to_stream
from amlora.errors import ConfigError
from amlora.tasks import TaskSpec, generate_task

from reference import gaussian_rows, token_rows

# 2**32 % m is large for this range, so about a quarter of numpy's bounded
# draws from it are rejected and drawn again.
REJECTING_VOCAB = 3 * 2**30
# 2**32 - 1 background tokens: every bit of a 32-bit value shows in its
# token, and a draw is rejected only once in 2**32.
WIDE_VOCAB = 2**32 - 1 + 5 * 4 * 6


def token_spec(vocab=128, seq_len=16, p_sig=0.4, sig=6, classes=4,
               num_tasks=5, task_id=1):
    params = {"vocab": vocab, "seq_len": seq_len, "p_sig": p_sig,
              "sig_tokens_per_class": sig, "num_tasks": num_tasks,
              "num_classes": classes}
    return TaskSpec(task_id=task_id, num_classes=classes, train_per_class=0,
                    eval_per_class=0, generator="token_signature",
                    params=params, seed=0)


def assert_split_matches(spec, per_class, seed=0, waiting=False):
    """The bulk split equals the row-by-row one and leaves the same stream;
    ``waiting``: a 32-bit draw first leaves a high half for the split."""
    bulk_rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
    if waiting:
        for rng in (bulk_rng, ref_rng):
            rng.integers(0, 6)
            assert rng.bit_generator.state["has_uint32"] == 1
    x, y = tasks._token_rows(spec, per_class, bulk_rng)
    ref_x, ref_y = token_rows(spec, per_class, ref_rng)
    assert x.dtype == ref_x.dtype and y.dtype == ref_y.dtype
    assert x.shape == ref_x.shape and y.shape == ref_y.shape
    assert x.tobytes() == ref_x.tobytes() and y.tobytes() == ref_y.tobytes()
    assert bulk_rng.random() == ref_rng.random()
    assert bulk_rng.integers(0, 6) == ref_rng.integers(0, 6)


def default_specs(seed=0):
    stream = to_stream(default_config(), seed=seed)
    return [*stream.tasks, stream.pretrain]


@pytest.mark.parametrize("seed", range(5))
def test_default_tasks_equal_the_per_row_loop(seed, monkeypatch):
    specs = default_specs(seed)
    bulk = [generate_task(s) for s in specs]
    monkeypatch.setattr(tasks, "_token_rows", token_rows)
    for spec, got in zip(specs, bulk):
        ref = generate_task(spec)
        for name in ("train_x", "train_y", "eval_x", "eval_y"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()


@pytest.mark.parametrize("kwargs, per_class", [
    ({"seq_len": 1}, 7),
    ({"p_sig": 0.0}, 9),
    ({"p_sig": 1.0}, 9),
    ({"sig": 1}, 9),
    ({"sig": 0, "p_sig": 0.0}, 4),  # no signature token
    ({"vocab": 5 * 4 * 6, "p_sig": 1.0}, 5),  # no background token
    ({"vocab": 5 * 4 * 6 + 1}, 5),  # one background token: no draw
    ({"vocab": 5 * 4 * 6 + 1, "sig": 1, "p_sig": 0.5}, 5),  # no 32-bit draw
    ({"classes": 2}, 11),
    ({"vocab": 5 * 4 * 6 + 100}, 12),  # a range that is no power of two
    ({"vocab": WIDE_VOCAB}, 10),
    ({"vocab": REJECTING_VOCAB}, 10),
    ({"vocab": REJECTING_VOCAB, "p_sig": 1.0}, 10),  # signature draws only
    ({"seq_len": 1, "classes": 2}, 0),  # an empty split
])
def test_edge_splits_equal_the_per_row_loop(kwargs, per_class):
    assert_split_matches(token_spec(**kwargs), per_class)


def test_an_odd_draw_count_leaves_the_high_half_waiting():
    # p_sig 0 and 3 rows of 3 tokens: 9 background draws, an odd count, so
    # the last word's high half must still be waiting for the next draw.
    spec = token_spec(seq_len=3, p_sig=0.0, classes=3)
    ref_rng = np.random.default_rng(0)
    token_rows(spec, 1, ref_rng)
    assert ref_rng.bit_generator.state["has_uint32"] == 1
    assert_split_matches(spec, 1)


def test_a_rejected_draw_falls_back_to_the_per_row_loop():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    p = token_spec(vocab=REJECTING_VOCAB).params
    bg = tasks._background_count(p)
    rows = np.zeros((10, p["seq_len"]), dtype=np.int64)
    sig = tasks.signature_tokens(p, 1, 0)
    assert not tasks._replay_rows(p, sig, bg, rows, rng)
    assert rng.bit_generator.state == state
    assert not rows.any()


@pytest.mark.parametrize("kwargs", [{}, {"seq_len": 3, "p_sig": 0.0},
                                    {"sig": 1, "vocab": 5 * 4 + 1},
                                    {"vocab": WIDE_VOCAB}])
def test_a_half_left_waiting_before_the_split_is_drawn_first(kwargs):
    assert_split_matches(token_spec(**kwargs), 3, seed=5, waiting=True)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(0, 40), st.integers(1, 20),
       st.sampled_from([0.0, 1.0, 0.4, 1e-9, 1 - 2**-53]) | st.floats(0, 1),
       st.integers(1, 9), st.integers(2, 5), st.integers(0, 12),
       st.integers(0, 2**32 - 1),
       st.sampled_from([0, 0, 0, REJECTING_VOCAB, 2**32 - 40]), st.booleans())
def test_fuzzed_token_splits_equal_the_per_row_loop(
        bg, seq_len, p_sig, sig, classes, per_class, seed, wide, waiting):
    spec = token_spec(vocab=bg + wide + 5 * classes * sig, seq_len=seq_len,
                      p_sig=p_sig, sig=sig, classes=classes, task_id=2)
    try:
        tasks._background_count(spec.params)
    except ConfigError:
        return  # no background token and p_sig < 1: both sides refuse
    assert_split_matches(spec, per_class, seed, waiting)


@pytest.mark.parametrize("classes, per_class, dim, rotation", [
    (2, 1, 2, 0.0), (4, 25, 32, 0.3), (5, 7, 3, -1.1), (3, 0, 4, 0.0)])
def test_gaussian_rows_equal_the_per_row_loop(classes, per_class, dim,
                                              rotation):
    spec = TaskSpec(task_id=0, num_classes=classes, train_per_class=per_class,
                    eval_per_class=per_class, generator="rotated_gaussian",
                    params={"dim": dim, "radius": 2.0, "noise_std": 0.5,
                            "rotation": rotation}, seed=0)
    x, y = tasks._gaussian_rows(spec, per_class, np.random.default_rng(4))
    ref_x, ref_y = gaussian_rows(spec, per_class, np.random.default_rng(4))
    assert x.shape == ref_x.shape
    assert np.array_equal(x.view(np.int64), ref_x.view(np.int64))
    assert y.dtype == ref_y.dtype and np.array_equal(y, ref_y)


# sha256 of the default config's train/eval arrays, tasks then pretext task.
DEFAULT_STREAM_SHA256 = (
    "259c0fc1f29c00240cad91ef2ad96e3de679d755980b5b15bc78fbea084ba0e2")


def test_default_stream_data_is_pinned():
    digest = hashlib.sha256()
    for data in map(generate_task, default_specs()):
        for a in (data.train_x, data.train_y, data.eval_x, data.eval_y):
            digest.update(a.tobytes())
    assert digest.hexdigest() == DEFAULT_STREAM_SHA256, (
        f"the default stream's task data changed (numpy {np.__version__}): "
        "a change in numpy's random draws moves every acceptance criterion")
