"""The engine's in-place forms and its flat optimizer update give the same
bits as the plain expressions they replace.

Every comparison is on int64 views, so a NaN payload or the sign of a zero
counts. Only the adapter bank calls BLAS, and its tests compare runs of the
same products, so the equalities hold on any BLAS build.
"""

import numpy as np
import pytest

from amlora import autodiff as ad
from amlora.autodiff import Optimizer, Tensor
from amlora.errors import GradientError


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


SPECIAL = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324,
                    -5e-324, 2.2e-308, -2.2e-308, 1.0, -1.0, 1e308, -1e308])


@pytest.mark.parametrize("x", [
    SPECIAL,
    np.tile(SPECIAL, 9),
    np.random.default_rng(0).normal(size=(7, 5, 3)),
    np.random.default_rng(1).normal(scale=1e-310, size=(64,)),
])
def test_relu_matches_where(x):
    assert np.array_equal(_bits(ad.relu(Tensor(x)).data),
                          _bits(np.where(x > 0, x, 0.0)))
    own = x.copy()  # the out= form, written over its own input
    assert ad.relu(Tensor(own), out=own).data is own
    assert np.array_equal(_bits(own), _bits(np.where(x > 0, x, 0.0)))


def test_relu_of_negative_zero_is_positive_zero_at_every_length():
    # np.fmax's SIMD body and its scalar tail may return either zero
    for n in range(1, 66):
        assert not np.signbit(ad.relu(Tensor(np.full(n, -0.0))).data).any()


@pytest.mark.parametrize("seed,shape,scale", [
    (0, (4, 5), 1.0), (1, (2, 3, 6, 6), 3.0), (2, (3, 1), 50.0),
    (3, (8, 16, 16), 1e3)])
def test_softmax_rows_matches_the_three_line_expression(seed, shape, scale):
    x = np.random.default_rng(seed).normal(scale=scale, size=shape)
    if shape[-1] > 1:
        x.flat[0] = -np.inf
    keep = x.copy()
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    want = e / e.sum(axis=-1, keepdims=True)
    assert np.array_equal(_bits(ad._softmax_rows(x)), _bits(want))
    assert np.array_equal(_bits(x), _bits(keep))  # the input is not written


def _three_line_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("n", range(1, 34))
def test_softmax_rows_matches_the_three_line_expression_on_special_rows(n):
    # NaN of either sign, +-0, +-inf, subnormals and huge values at random
    # places, one all -inf row and one row of zeros of both signs; numpy's
    # row max picks a NaN by its position, so NaN rows test that choice
    rng = np.random.default_rng(100 + n)
    x = rng.normal(scale=30.0, size=(6, 40, n))
    mask = rng.random(x.shape) < rng.choice([0.05, 0.3, 0.9], size=(6, 1, 1))
    x[mask] = rng.choice(SPECIAL, size=int(mask.sum()))
    x[0, 0] = -np.inf
    x[0, 1] = np.where(np.arange(n) % 2, 0.0, -0.0)
    for rows in (slice(None), slice(None, None, 3)):  # contiguous, strided
        view = x[:, rows]
        keep = view.copy()
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = ad._softmax_rows(view), _three_line_softmax(view)
        assert np.array_equal(_bits(got), _bits(want))
        assert np.array_equal(_bits(view), _bits(keep))
        own = x.copy()[:, rows]  # the out= form, written over its own input
        with np.errstate(invalid="ignore", over="ignore"):
            assert ad._softmax_rows(own, out=own) is own
        assert np.array_equal(_bits(own), _bits(want))


@pytest.mark.parametrize("rate", [0.1, 0.3, 1 / 3, 0.5, 0.7, 0.999])
def test_dropout_mask_matches_bool_division(rate):
    shape = (50, 40)
    got = ad.dropout(Tensor(np.ones(shape)), rate, np.random.default_rng(4))
    r = np.random.default_rng(4).random(shape)
    assert np.array_equal(_bits(got.data), _bits((r >= rate) / (1 - rate)))


def test_adapter_bank_leaves_base_unwritten():
    rng = np.random.default_rng(5)
    base = Tensor(rng.normal(size=(2, 3, 4)))
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    pairs = [(Tensor(rng.normal(size=(2, 4))), Tensor(rng.normal(size=(4, 2))),
              0.5) for _ in range(3)]
    keep = base.data.copy()
    for heads in (None, [Tensor(rng.normal(size=(4, 1))) for _ in range(4)]):
        out, _ = ad.adapter_bank(base, x, pairs, heads)
        ad.reset_tape()
        assert out.data is not base.data
        assert np.array_equal(_bits(base.data), _bits(keep))


def _bank_inputs(n, gated, grad):
    rng = np.random.default_rng(7 + n)
    base = Tensor(rng.normal(size=(3, 5, 6)))
    x = Tensor(rng.normal(size=(3, 5, 4)), requires_grad=grad)
    pairs = [(Tensor(rng.normal(size=(2, 4))), Tensor(rng.normal(size=(6, 2))),
              0.5 + i) for i in range(n)]
    heads = ([Tensor(rng.normal(size=(6, 1))) for _ in range(n + 1)]
             if gated else None)
    return base, x, pairs, heads


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("gated", [True, False])
def test_adapter_bank_gives_the_same_bits_with_and_without_a_node(n, gated):
    # a recorded node gates into fresh arrays; without one (no_grad, or no
    # input needs a grad) the bank gates each adapter's output in place
    runs = []
    for mode in ("recorded", "no_grad", "no_grad_inputs"):
        base, x, pairs, heads = _bank_inputs(n, gated, mode != "no_grad_inputs")
        leaves = [base, x, *(t for A, B, _ in pairs for t in (A, B)),
                  *(heads or ())]
        keep = [t.data.copy() for t in leaves]
        ad.reset_tape()
        if mode == "no_grad":
            with ad.no_grad():
                out, gates = ad.adapter_bank(base, x, pairs, heads)
        else:
            out, gates = ad.adapter_bank(base, x, pairs, heads)
        assert len(ad._state().tape) == (mode == "recorded")
        ad.reset_tape()
        for t, k in zip(leaves, keep):  # no input is written
            assert np.array_equal(_bits(t.data), _bits(k))
        runs.append((out.data.tobytes(),
                     None if gates is None else gates.tobytes()))
    assert runs[0] == runs[1] == runs[2]


# ---------------------------------------------------------------------------
# optimizer: the flat update against a per-tensor loop


class _PerTensorReference:
    """The per-tensor SGD/Adam loop that the flat update replaces."""

    def __init__(self, params, kind, lr):
        self.params, self.kind, self.lr = params, kind, lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.step_count = 0
        self.moments = [(np.zeros_like(p.data), np.zeros_like(p.data))
                        for p in params]

    def step(self):
        self.step_count += 1
        for p, (m, v) in zip(self.params, self.moments):
            g = p.grad
            if self.kind == "sgd":
                p.data -= self.lr * g
            else:
                m *= self.beta1
                m += (1 - self.beta1) * g
                v *= self.beta2
                v += (1 - self.beta2) * g * g
                mhat = m / (1 - self.beta1 ** self.step_count)
                vhat = v / (1 - self.beta2 ** self.step_count)
                p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
            p.grad = None


RAGGED = [(3,), (2, 5), (1,), (4, 3, 2), (7, 1), (32,)]


def _normal_grad(rng, shape):
    return rng.normal(scale=rng.choice([1e-6, 1.0, 1e3]), size=shape)


def _extreme_grad(rng, shape):
    # +-0, subnormals, and 1e300-scale values whose squares overflow to inf
    return rng.choice([0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1e-320, 1.0,
                       1e300, -3e300, 7e299], size=shape)


@pytest.mark.parametrize("kind,lr,grad", [
    pytest.param("adam", 1e-3, _normal_grad, id="adam-0.001"),
    pytest.param("adam", 2e-2, _normal_grad, id="adam-0.02"),
    pytest.param("sgd", 0.1, _normal_grad, id="sgd-0.1"),
    pytest.param("adam", 1e-3, _extreme_grad, id="adam-0.001-extreme")])
def test_flat_update_matches_per_tensor_loop(kind, lr, grad):
    rng = np.random.default_rng(6)
    init = [rng.normal(size=s) for s in RAGGED]
    flat = [Tensor(a.copy(), requires_grad=True) for a in init]
    ref = [Tensor(a.copy(), requires_grad=True) for a in init]
    opt, want = Optimizer(flat, kind=kind, lr=lr), _PerTensorReference(ref, kind, lr)
    for _ in range(5):
        for p, q in zip(flat, ref):
            g = grad(rng, p.data.shape)
            p.grad, q.grad = g.copy(), g
        with np.errstate(over="ignore"):
            opt.step()
            want.step()
        for p, q in zip(flat, ref):
            assert p.grad is None
            assert np.array_equal(_bits(p.data), _bits(q.data))
    assert opt.step_count == want.step_count == 5


@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_missing_grad_changes_nothing(kind):
    first = Tensor([1.0, 2.0], requires_grad=True)
    second = Tensor([3.0], requires_grad=True)
    opt = Optimizer([first, second], kind=kind, lr=0.5)
    grad = np.array([0.25, -4.0])
    first.grad = grad
    with pytest.raises(GradientError, match="no grad"):
        opt.step()
    assert first.data.tolist() == [1.0, 2.0]
    assert first.grad is grad and grad.tolist() == [0.25, -4.0]
    assert opt.step_count == 0


def test_grad_of_the_wrong_shape_changes_nothing():
    p = Tensor([1.0, 2.0], requires_grad=True)
    opt = Optimizer([p], kind="sgd", lr=0.5)
    p.grad = np.array([1.0])
    with pytest.raises(GradientError, match="shape"):
        opt.step()
    assert p.data.tolist() == [1.0, 2.0] and opt.step_count == 0


def test_optimizer_rejects_a_tensor_given_twice():
    p = Tensor([1.0], requires_grad=True)
    with pytest.raises(GradientError, match="twice"):
        Optimizer([p, p])
