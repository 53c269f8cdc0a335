"""Tensor engine: forward oracles, gradient checks, tape semantics."""

import threading

import numpy as np
import pytest

from amlora import autodiff as ad
from amlora.autodiff import Optimizer, Tensor
from amlora.errors import ConfigError, DimensionError, GradientError
from reference import (concat_last, index_last, item, l1_norm, matmul,
                       softmax, sum_all, transpose)


def test_matmul_forward_oracle():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0], [6.0]])
    out = matmul(a, b)
    assert out.data.tolist() == [[17.0], [39.0]]


def test_matmul_shape_error_names_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 5)))
    with pytest.raises(DimensionError) as e:
        matmul(a, b)
    assert "(2, 3)" in str(e.value) and "(4, 5)" in str(e.value)


def test_softmax_oracle_and_row_sums():
    t = Tensor([[0.0, np.log(3.0)]])
    y = softmax(t)
    np.testing.assert_allclose(y.data, [[0.25, 0.75]], atol=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = softmax(Tensor(rng.normal(size=(5, 7)) * 10.0))
        np.testing.assert_allclose(z.data.sum(axis=-1), np.ones(5), atol=1e-12)


def test_cross_entropy_oracle():
    # true-class probability 0.75 -> loss = -ln(0.75)
    logits = Tensor([[np.log(3.0), 0.0]], requires_grad=True)
    loss = ad.cross_entropy(logits, np.array([0]))
    assert abs(item(loss) - 0.28768207245178085) < 1e-15


def test_cross_entropy_label_out_of_range():
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="label out of range"):
        ad.cross_entropy(logits, np.array([0, 3]))


def test_cross_entropy_uniform_logits_is_log_c():
    logits = Tensor(np.zeros((8, 4)))
    loss = ad.cross_entropy(logits, np.zeros(8, dtype=np.int64))
    assert abs(item(loss) - np.log(4.0)) < 1e-12


def test_l1_norm_oracle_and_zero_subgradient():
    t = Tensor([[1.0, -2.0], [3.0, -2.0]], requires_grad=True)
    out = l1_norm(t)
    assert item(out) == 8.0
    z = Tensor([0.0, -1.0, 2.0], requires_grad=True)
    ad.backward(l1_norm(z))
    assert z.grad.tolist() == [0.0, -1.0, 1.0]


def test_grad_accumulates_across_reuse():
    x = Tensor([3.0], requires_grad=True)
    y = sum_all(ad.mul(x, x))
    ad.backward(y)
    assert x.grad.tolist() == [6.0]


def test_broadcast_bias_grad_sums_over_batch():
    b = Tensor(np.zeros(3), requires_grad=True)
    x = Tensor(np.ones((4, 3)))
    ad.backward(sum_all(ad.add(x, b)))
    assert b.grad.tolist() == [4.0, 4.0, 4.0]


def test_embedding_backward_scatter_adds_duplicates():
    table = Tensor(np.zeros((5, 2)), requires_grad=True)
    ids = np.array([[1, 1, 4]])
    ad.backward(sum_all(ad.embedding(table, ids)))
    assert table.grad[1].tolist() == [2.0, 2.0]
    assert table.grad[4].tolist() == [1.0, 1.0]
    assert table.grad[0].tolist() == [0.0, 0.0]


def test_fuzzed_gradients_against_finite_differences():
    rng = np.random.default_rng(11)
    for trial in range(10):
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        h = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        x = rng.normal(size=(5, 3))
        y = rng.integers(0, 2, size=5)

        def loss_fn(_params):
            hidden = ad.relu(ad.add(matmul(Tensor(x), transpose(w, (1, 0))), b))
            logits = matmul(hidden, transpose(h, (1, 0)))
            return ad.cross_entropy(ad.mul(logits, 1.7), y)

        err = ad.finite_diff_check(loss_fn, [w, b, h])
        assert err < 1e-6, f"trial {trial}: max relative error {err}"


def test_fuzzed_softmax_mean_concat_grads():
    rng = np.random.default_rng(12)
    for _ in range(10):
        a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        c = Tensor(rng.normal(size=(3, 2)), requires_grad=True)

        def loss_fn(_params):
            gates = softmax(concat_last([a, c]))
            picked = ad.mul(index_last(gates, 1), 3.0)
            return sum_all(ad.mean_axis(picked, axis=0))

        assert ad.finite_diff_check(loss_fn, [a, c]) < 1e-7


def test_no_grad_suppresses_recording():
    x = Tensor([1.0], requires_grad=True)
    with ad.no_grad():
        y = ad.mul(x, 2.0)
    assert not y.requires_grad
    with pytest.raises(GradientError, match="not on the active tape"):
        ad.backward(sum_all(y))
    ad.reset_tape()


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = ad.mul(x, 2.0)
    with pytest.raises(GradientError, match="scalar"):
        ad.backward(y)
    ad.reset_tape()


def test_backward_consumes_tape():
    x = Tensor([2.0], requires_grad=True)
    loss = sum_all(ad.mul(x, x))
    ad.backward(loss)
    with pytest.raises(GradientError):
        ad.backward(loss)


def test_a_raising_backward_leaves_an_empty_tape_and_no_output_grads():
    x = Tensor([2.0, -1.0], requires_grad=True)
    a = ad.mul(x, 3.0)

    def boom(g):
        raise FloatingPointError("backward failed")

    b = ad._make("boom", (a,), a.data.copy(), boom)
    c = ad.mul(b, b)
    loss = sum_all(c)
    with pytest.raises(FloatingPointError, match="backward failed"):
        ad.backward(loss)
    assert ad._state().tape == []
    assert [t.grad for t in (a, b, c, loss)] == [None] * 4
    loss = sum_all(ad.mul(x, x))  # the next backward works
    ad.backward(loss)
    assert x.grad.tolist() == [4.0, -2.0] and loss.grad is None


def test_forward_is_deterministic_bitwise():
    rng = np.random.default_rng(5)
    w = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
    x = rng.normal(size=(4, 6))
    vals = []
    for _ in range(2):
        loss = ad.cross_entropy(matmul(Tensor(x), w), np.array([0, 1, 2, 3]))
        vals.append(loss.data.tobytes())
        ad.reset_tape()
    assert vals[0] == vals[1]


def test_optimizer_rejects_frozen_tensor():
    p = Tensor([1.0], requires_grad=False)
    with pytest.raises(GradientError, match="frozen"):
        Optimizer([p])


def test_optimizer_bad_kind_or_lr_is_a_config_error():
    p = Tensor([1.0], requires_grad=True)
    with pytest.raises(ConfigError, match=r"^optimizer must be one of .*'rmsprop'"):
        Optimizer([p], kind="rmsprop")
    with pytest.raises(ConfigError, match=r"^lr must be >= 0, got -0.5$"):
        Optimizer([p], lr=-0.5)
    assert issubclass(ConfigError, ValueError)  # callers catching ValueError


@pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf])
def test_optimizer_rejects_a_non_finite_lr(lr):
    p = Tensor([1.0], requires_grad=True)
    with pytest.raises(ConfigError, match=r"^lr must be finite, got "):
        Optimizer([p], lr=lr)


def test_optimizer_step_without_grad_fails():
    p = Tensor([1.0], requires_grad=True)
    opt = Optimizer([p])
    with pytest.raises(GradientError, match="no grad"):
        opt.step()


def test_sgd_step_exact():
    p = Tensor([1.0, 2.0], requires_grad=True)
    opt = Optimizer([p], kind="sgd", lr=0.5)
    p.grad = np.array([2.0, -4.0])
    opt.step()
    assert p.data.tolist() == [0.0, 4.0]
    assert p.grad is None


def test_adam_first_step_moves_by_lr():
    # With bias correction, step 1 is lr * g / (|g| + eps) (approximately sign(g) * lr).
    p = Tensor([1.0, 1.0], requires_grad=True)
    opt = Optimizer([p], kind="adam", lr=1e-2)
    p.grad = np.array([2.0, -0.003])
    opt.step()
    np.testing.assert_allclose(p.data, [1.0 - 1e-2, 1.0 + 1e-2], atol=1e-7)


def test_zero_learning_rate_changes_nothing():
    p = Tensor([1.0], requires_grad=True)
    opt = Optimizer([p], kind="adam", lr=0.0)
    p.grad = np.array([3.0])
    opt.step()
    assert p.data.tolist() == [1.0]


def test_dropout_eval_mode_and_inverted_scaling():
    t = Tensor(np.ones((1000,)), requires_grad=True)
    assert ad.dropout(t, 0.0, None) is t
    out = ad.dropout(t, 0.5, np.random.default_rng(0))
    kept = out.data[out.data != 0.0]
    assert np.allclose(kept, 2.0)
    assert 400 < kept.size < 600
    ad.reset_tape()


def test_threads_have_isolated_tapes():
    results = {}

    def worker(key, scale):
        x = Tensor([float(scale)], requires_grad=True)
        loss = sum_all(ad.mul(x, x))
        ad.backward(loss)
        results[key] = float(x.grad[0])

    threads = [threading.Thread(target=worker, args=(i, i + 1))
               for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == {0: 2.0, 1: 4.0, 2: 6.0, 3: 8.0}


def test_finite_diff_reports_nonfinite_probe():
    w = Tensor([1.0], requires_grad=True)

    def loss_fn(_params):
        # log of a tensor that goes negative under probing
        return sum_all(ad.mul(w, float("nan")))

    with pytest.raises(GradientError, match="non-finite"):
        ad.finite_diff_check(loss_fn, [w])
