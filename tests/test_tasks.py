"""Synthetic task generators: determinism, disjointness, stream building."""

import numpy as np
import pytest

from amlora.errors import ConfigError
from amlora.tasks import (ORDERS, TaskSpec, TaskStream, build_stream,
                          generate_task, signature_tokens)

TOKEN_PARAMS = {"vocab": 128, "seq_len": 16, "p_sig": 0.4,
                "sig_tokens_per_class": 4, "num_tasks": 5, "num_classes": 4}


def token_spec(task_id=0, seed=0, train=250, ev=100, **overrides):
    params = {**TOKEN_PARAMS, **overrides}
    return TaskSpec(task_id=task_id, num_classes=4, train_per_class=train,
                    eval_per_class=ev, generator="token_signature",
                    params=params, seed=seed)


def test_signature_regions_disjoint():
    seen = set()
    for task in range(5):
        for cls in range(4):
            toks = signature_tokens(TOKEN_PARAMS, task, cls)
            assert len(toks) == 4
            assert set(toks).isdisjoint(seen)
            seen.update(toks)
    bg = 128 - 5 * 4 * 4
    assert min(seen) == bg and max(seen) == 127


def test_generation_is_deterministic():
    a = generate_task(token_spec(seed=5))
    b = generate_task(token_spec(seed=5))
    c = generate_task(token_spec(seed=6))
    d = generate_task(token_spec(task_id=1, seed=5))
    assert a.train_x.tobytes() == b.train_x.tobytes()
    assert a.eval_x.tobytes() == b.eval_x.tobytes()
    assert a.train_x.tobytes() != c.train_x.tobytes()
    assert a.train_x.tobytes() != d.train_x.tobytes()


def test_shapes_and_label_layout():
    data = generate_task(token_spec())
    assert data.train_x.shape == (1000, 16) and data.train_x.dtype == np.int64
    assert data.eval_x.shape == (400, 16)
    for cls in range(4):
        assert int((data.train_y == cls).sum()) == 250
        assert int((data.eval_y == cls).sum()) == 100


def test_rows_mix_own_signature_and_background_only():
    # Every token is either a background token or one of the row's own
    # class signature tokens; other tasks' regions never leak in.
    data = generate_task(token_spec(task_id=2))
    bg = 128 - 5 * 4 * 4
    sig_frac = []
    for row, cls in zip(data.train_x, data.train_y):
        own = set(signature_tokens(TOKEN_PARAMS, 2, int(cls)))
        in_own = np.fromiter((t in own for t in row), dtype=bool)
        assert np.all(in_own | (row < bg))
        sig_frac.append(in_own.mean())
    assert abs(np.mean(sig_frac) - 0.4) < 0.03


def test_train_eval_splits_disjoint():
    data = generate_task(token_spec())
    train = {r.tobytes() for r in data.train_x}
    assert not any(r.tobytes() in train for r in data.eval_x)


def test_degenerate_space_cannot_split():
    # One signature token, length-1 rows, p_sig=1: every row of a class is
    # identical, so a train-disjoint eval split is impossible.
    spec = token_spec(train=4, ev=2, seq_len=1, p_sig=1.0,
                      sig_tokens_per_class=1)
    with pytest.raises(ConfigError, match="task space too small"):
        generate_task(spec)


def test_vocab_capacity_validation():
    with pytest.raises(ConfigError, match="exceed vocabulary"):
        generate_task(token_spec(vocab=64, sig_tokens_per_class=4))  # 80 > 64
    with pytest.raises(ConfigError, match="background"):
        generate_task(token_spec(vocab=80, sig_tokens_per_class=4))  # bg == 0
    # bg == 0 is fine when no background tokens are ever drawn
    generate_task(token_spec(vocab=80, sig_tokens_per_class=4, p_sig=1.0))


def test_linear_probe_separates_pure_signature_tasks():
    # With p_sig=1 every position carries class identity, so a centroid
    # classifier over bag-of-token counts must be perfect.
    data = generate_task(token_spec(p_sig=1.0))
    def bag(x):
        return np.stack([np.bincount(r, minlength=128) for r in x]).astype(float)
    train_b, eval_b = bag(data.train_x), bag(data.eval_x)
    centroids = np.stack([train_b[data.train_y == c].mean(axis=0)
                          for c in range(4)])
    pred = np.argmin(((eval_b[:, None, :] - centroids[None]) ** 2).sum(-1),
                     axis=1)
    assert np.mean(pred == data.eval_y) == 1.0


def test_rotated_gaussian_means():
    params = {"dim": 8, "radius": 2.0, "noise_std": 0.1, "rotation": 0.0}
    spec = TaskSpec(task_id=0, num_classes=4, train_per_class=500,
                    eval_per_class=100, generator="rotated_gaussian",
                    params=params, seed=0)
    data = generate_task(spec)
    mean0 = data.train_x[data.train_y == 0].mean(axis=0)
    assert abs(mean0[0] - 2.0) < 0.05 and abs(mean0[1]) < 0.05
    mean1 = data.train_x[data.train_y == 1].mean(axis=0)
    assert abs(mean1[0]) < 0.05 and abs(mean1[1] - 2.0) < 0.05
    assert np.all(np.abs(data.train_x[:, 2:].mean(axis=0)) < 0.05)


def test_unknown_generator():
    spec = token_spec()
    spec.generator = "words"
    with pytest.raises(ConfigError, match="generator"):
        generate_task(spec)


def test_stream_validation():
    with pytest.raises(ConfigError):
        TaskStream([])
    s = token_spec()
    with pytest.raises(ConfigError, match="duplicate"):
        TaskStream([s, token_spec(task_id=0, seed=1)])


def test_build_stream_orders():
    for order, perm in ORDERS.items():
        stream = build_stream(order=order, seed=3)
        assert stream.order_id == order
        assert tuple(t.task_id for t in stream.tasks) == perm
    with pytest.raises(ConfigError, match="unknown order"):
        build_stream(order="order9")


def test_build_stream_reserves_pretext_region():
    stream = build_stream(seed=0)
    assert len(stream) == 4
    assert stream.pretrain is not None
    assert stream.pretrain.task_id == 4
    # The pretext task counts toward the signature-region budget.
    assert stream.tasks[0].params["num_tasks"] == 5
    in_stream = {t.task_id for t in stream.tasks}
    assert stream.pretrain.task_id not in in_stream


def test_build_stream_seed_independence():
    a = build_stream(seed=0)
    b = build_stream(seed=1)
    assert [t.seed for t in a.tasks] != [t.seed for t in b.tasks]
    # Same stream seed must give identical per-task seeds.
    c = build_stream(seed=0)
    assert [t.seed for t in a.tasks] == [t.seed for t in c.tasks]


def test_build_stream_count_validation():
    with pytest.raises(ConfigError, match="train_per_task 1001 and "
                                          "eval_per_task 400 must divide"):
        build_stream(train_per_task=1001)
    for kwargs, name in [({"num_tasks": 0}, "num_tasks"),
                         ({"num_tasks": -1}, "num_tasks"),
                         ({"num_tasks": -2}, "num_tasks"),
                         ({"num_classes": 0}, "num_classes"),
                         ({"num_classes": 1}, "num_classes"),
                         ({"p_sig": 1.5}, "p_sig"), ({"p_sig": -0.1}, "p_sig"),
                         ({"train_per_task": 0}, "train_per_task"),
                         ({"eval_per_task": 0}, "eval_per_task"),
                         ({"sig_tokens_per_class": 0}, "sig_tokens_per_class"),
                         ({"generator": "rotated_gaussian", "dim": 1}, "dim")]:
        with pytest.raises(ConfigError, match=name):
            build_stream(**kwargs)
    assert len(build_stream(p_sig=1.0, num_classes=2)) == 4
    assert len(build_stream(generator="rotated_gaussian", dim=2)) == 4
    with pytest.raises(ConfigError):
        build_stream(num_tasks=6)  # built-in orders cover four tasks
    short = build_stream(num_tasks=2)
    assert tuple(t.task_id for t in short.tasks) == (0, 1)
