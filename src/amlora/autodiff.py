"""Reverse-mode automatic differentiation on dense float64 tensors.

Every forward operation that touches a gradient-requiring tensor appends a
node to a thread-local tape; ``backward`` replays the tape in reverse
insertion order, which guarantees a single deterministic reduction order.
The tape is rebuilt on every forward pass, so parameter sets that grow over
time (new adapters, new selector heads) need no graph surgery.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionError, GradientError

_tls = threading.local()


def _state():
    if not hasattr(_tls, "tape"):
        _tls.tape = []
        _tls.no_grad_depth = 0
    return _tls


class no_grad:
    """Context manager that disables tape recording (evaluation, FD probes)."""

    def __enter__(self):
        _state().no_grad_depth += 1
        return self

    def __exit__(self, *exc):
        _state().no_grad_depth -= 1
        return False


def _recording() -> bool:
    return _state().no_grad_depth == 0


class Tensor:
    """Dense n-dimensional float64 array with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("tag", "output", "backward_fn")

    def __init__(self, tag: str, output: Tensor,
                 backward_fn: Callable[[np.ndarray], None]):
        self.tag = tag
        self.output = output
        self.backward_fn = backward_fn


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(tag: str, inputs: Sequence[Tensor], data: np.ndarray,
          backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if _recording() and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _state().tape.append(_Node(tag, out, backward_fn))
    return out


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to ``shape`` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make("add", (a, b), data, bw)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make("mul", (a, b), data, bw)


def relu(t: Tensor) -> Tensor:
    mask = t.data > 0.0
    data = np.where(mask, t.data, 0.0)

    def bw(g):
        _accum(t, g * mask)

    return _make("relu", (t,), data, bw)


def reshape(t: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = t.data.shape
    data = t.data.reshape(shape)

    def bw(g):
        _accum(t, g.reshape(old))

    return _make("reshape", (t,), data, bw)


def transpose(t: Tensor, axes: tuple[int, ...]) -> Tensor:
    data = np.transpose(t.data, axes)
    inv = tuple(np.argsort(axes))

    def bw(g):
        _accum(t, np.transpose(g, inv))

    return _make("transpose", (t,), data, bw)


def sum_all(t: Tensor) -> Tensor:
    data = np.asarray(t.data.sum())

    def bw(g):
        _accum(t, np.broadcast_to(g, t.data.shape).copy())

    return _make("sum", (t,), data, bw)


def mean_axis(t: Tensor, axis: int) -> Tensor:
    n = t.data.shape[axis]
    data = t.data.mean(axis=axis)

    def bw(g):
        _accum(t, np.repeat(np.expand_dims(g / n, axis), n, axis=axis))

    return _make("mean", (t,), data, bw)


def concat_last(parts: Iterable[Tensor]) -> Tensor:
    parts = list(parts)
    widths = [p.data.shape[-1] for p in parts]
    data = np.concatenate([p.data for p in parts], axis=-1)

    def bw(g):
        off = 0
        for p, w in zip(parts, widths):
            _accum(p, g[..., off:off + w])
            off += w

    return _make("concat", tuple(parts), data, bw)


def index_last(t: Tensor, i: int) -> Tensor:
    """Slice ``t[..., i:i+1]`` keeping the last axis."""
    data = t.data[..., i:i + 1]

    def bw(g):
        full = np.zeros_like(t.data)
        full[..., i:i + 1] = g
        _accum(t, full)

    return _make("index", (t,), data, bw)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather ``table[ids]`` with scatter-add backward."""
    data = table.data[ids]

    def bw(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids.reshape(-1),
                      g.reshape(-1, table.data.shape[1]))

    return _make("embedding", (table,), data, bw)


# ---------------------------------------------------------------------------
# matmul


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(
            f"matmul needs >=2-d operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")
    if b.data.ndim > 2 and a.data.shape[:-2] != b.data.shape[:-2]:
        raise DimensionError(
            f"matmul batch dimensions disagree: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            if b.data.ndim == 2 and a.data.ndim > 2:
                k = a.data.shape[-1]
                n = g.shape[-1]
                _accum(b, a.data.reshape(-1, k).T @ g.reshape(-1, n))
            else:
                _accum(b, np.swapaxes(a.data, -1, -2) @ g)

    return _make("matmul", (a, b), data, bw)


# ---------------------------------------------------------------------------
# losses and activations the training loop needs


def softmax(t: Tensor) -> Tensor:
    """Numerically stable softmax along the last axis."""
    if t.data.ndim == 0 or t.data.shape[-1] == 0:
        raise DimensionError("softmax needs a non-empty last axis")
    shifted = t.data - t.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accum(t, (g - dot) * y)

    return _make("softmax", (t,), y, bw)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer class labels (fused softmax)."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2:
        raise DimensionError(f"cross_entropy expects b x C logits, got {logits.data.shape}")
    b, c = logits.data.shape
    if b < 1:
        raise DimensionError("cross_entropy needs a non-empty batch")
    if labels.shape != (b,):
        raise DimensionError(f"labels shape {labels.shape} does not match batch {b}")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"label out of range [0, {c})")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=-1, keepdims=True)
    picked = shifted[np.arange(b), labels] - np.log(e.sum(axis=-1))
    data = np.asarray(-picked.mean())

    def bw(g):
        d = probs.copy()
        d[np.arange(b), labels] -= 1.0
        _accum(logits, d * (float(g) / b))

    return _make("cross_entropy", (logits,), data, bw)


def l1_norm(t: Tensor) -> Tensor:
    """Sum of absolute values; subgradient at exactly 0 is 0."""
    data = np.asarray(np.abs(t.data).sum())

    def bw(g):
        _accum(t, np.sign(t.data) * float(g))

    return _make("l1", (t,), data, bw)


def dropout(t: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; caller only invokes this in train mode."""
    if rate <= 0.0:
        return t
    mask = (rng.random(t.data.shape) >= rate) / (1.0 - rate)
    return mul(t, Tensor(mask))


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor):
    """Populate grads of every trainable tensor reachable from ``loss``.

    Consumes the thread-local tape: the nodes are walked exactly once in
    reverse insertion order and the tape is cleared afterwards.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise GradientError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    tape = _state().tape
    if not any(n.output is loss for n in tape):
        raise GradientError("loss is not on the active tape (already consumed?)")
    loss.grad = np.ones_like(loss.data)
    try:
        for node in reversed(tape):
            g = node.output.grad
            if g is None:
                continue
            node.backward_fn(g)
    finally:
        for node in tape:
            node.output.grad = None
        tape.clear()


def reset_tape():
    """Drop any recorded nodes (used between independent forwards)."""
    _state().tape.clear()


# ---------------------------------------------------------------------------
# optimizers


class Optimizer:
    """SGD / Adam over an explicit set of trainable tensors.

    Adam uses beta1=0.9, beta2=0.999, eps=1e-8. ``step`` clears grads after
    applying the update; frozen tensors may never be registered.
    """

    def __init__(self, params: Iterable[Tensor], kind: str = "adam",
                 lr: float = 1e-4):
        if kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {kind!r}")
        if lr < 0:
            raise ValueError("learning rate must be non-negative")
        self.kind = kind
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.step_count = 0
        self.params: list[Tensor] = []
        self._moments: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for p in params:
            if not p.requires_grad:
                raise GradientError("frozen tensor passed to Optimizer")
            self.params.append(p)

    def step(self):
        self.step_count += 1
        for p in self.params:
            if p.grad is None:
                raise GradientError("trainable parameter has no grad; run backward first")
            g = p.grad
            if self.kind == "sgd":
                p.data -= self.lr * g
            else:
                key = id(p)
                if key not in self._moments:
                    self._moments[key] = (np.zeros_like(p.data), np.zeros_like(p.data))
                m, v = self._moments[key]
                m *= self.beta1
                m += (1 - self.beta1) * g
                v *= self.beta2
                v += (1 - self.beta2) * g * g
                mhat = m / (1 - self.beta1 ** self.step_count)
                vhat = v / (1 - self.beta2 ** self.step_count)
                p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
            p.grad = None


# ---------------------------------------------------------------------------
# gradient oracle


def finite_diff_check(model_fn: Callable[[list[Tensor]], Tensor],
                      params: list[Tensor], eps: float = 1e-5) -> float:
    """Compare backward() grads against central differences.

    Returns max over probed coordinates of |analytic - numeric| /
    max(1, |numeric|). Frozen parameters are skipped entirely.
    """
    reset_tape()
    loss = model_fn(params)
    backward(loss)
    probed = [p for p in params if p.requires_grad]
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in probed]
    for p in probed:
        p.grad = None

    worst = 0.0
    for p, a in zip(probed, analytic):
        flat = p.data.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            with no_grad():
                f_plus = float(model_fn(params).data)
            flat[j] = orig - eps
            with no_grad():
                f_minus = float(model_fn(params).data)
            flat[j] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            if not np.isfinite(numeric):
                raise GradientError(
                    f"non-finite finite-difference probe at coordinate {j} "
                    f"of a {p.data.shape} parameter")
            err = abs(a.reshape(-1)[j] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst
