"""Reverse-mode automatic differentiation on dense float64 tensors.

Every forward operation that touches a gradient-requiring tensor appends a
node to a thread-local tape; ``backward`` replays the tape in reverse
insertion order, which guarantees a single deterministic reduction order.
The ``no_grad`` depth is per thread too, so a thread that runs forwards for
an evaluation enters ``no_grad`` itself.
The tape is rebuilt on every forward pass, so parameter sets that grow over
time (new adapters, new selector heads) need no graph surgery.

Each training step allocates the tape's activations, and ``backward`` frees
each node's grad and closure as soon as that node's backward has run.
Importing this module therefore sets two glibc malloc options for the whole
process: freed memory stays mapped for reuse instead of going back to the
kernel, which would fault it in afresh on the next step. Off glibc the
allocator is left as it is. Float results do not depend on either.
"""

from __future__ import annotations

import ctypes
import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, GradientError

_tls = threading.local()

# glibc <malloc.h> parameter numbers
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory_mapped():
    """Serve blocks up to 32 MiB from the heap and never trim it.

    Both options are needed: setting either one turns off glibc's dynamic
    thresholds and leaves the other at its 128 KiB default, which would
    trim the heap after each step or give every eval array of a few MB a
    fresh ``mmap`` on each forward pass.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, -1)  # -1: never trim
    except (OSError, AttributeError, TypeError):
        pass  # not glibc


_keep_freed_memory_mapped()


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


def _records(inputs: Sequence[Tensor]) -> bool:  # whether an op records a node
    return _recording() and any(t.requires_grad for t in inputs)


def _make(tag: str, inputs: Sequence[Tensor], data: np.ndarray,
          backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if _records(inputs):
        out.requires_grad = True
        _state().tape.append(_Node(tag, out, backward_fn))
    return out


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        # 0.0 + g into a fresh array laid out like t.data: the bytes that
        # zero-filling and then adding gave, without the fill.
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
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
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _make("add", (a, b), data, bw)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make("mul", (a, b), data, bw)


def relu(t: Tensor, out: np.ndarray | None = None) -> Tensor:
    """``np.where(t > 0, t, 0.0)``, into a new array or, numpy style, into
    ``out``: ``t.data`` only from a caller that made ``t`` and reads it no
    more."""
    mask = t.data > 0.0 if _records((t,)) else None  # only backward reads it
    # np.where(mask, x, 0.0) without a branch per element: fmax maps NaN to
    # 0 and the + 0.0 turns its -0.0 into +0.0, so the bits are the same.
    data = np.fmax(t.data, 0.0, out=out)
    data += 0.0

    def bw(g):
        _accum(t, g * mask)

    return _make("relu", (t,), data, bw)


def mean_axis(t: Tensor, axis: int) -> Tensor:
    n = t.data.shape[axis]
    data = t.data.mean(axis=axis)

    def bw(g):
        _accum(t, np.repeat(np.expand_dims(g / n, axis), n, axis=axis))

    return _make("mean", (t,), data, bw)


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


def _weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of ``a @ W`` with respect to a 2-d ``W``, given ``g``."""
    return a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])


# ---------------------------------------------------------------------------
# fused ops
#
# Each fused op records one tape node in place of a chain of per-op tape
# ops, which live in ``tests/reference.py`` with the tests that compare the
# two. It runs the chain's numpy expressions in order on arrays of the same
# shapes and layouts, and its backward adds to each input's ``.grad`` once
# per contribution in the chain's order, so every value and gradient keeps
# the chain's bytes; pre-summing, stacking GEMMs or flattening 3-d matmuls
# would round differently. Three shortcuts keep them too: a row max taken
# column by column is the same max (exp maps a zero shift of either sign
# to 1; a row with a NaN uses numpy's max), the zero route's logit and
# head gradient are the +0.0 that BLAS gives for 0 @ a finite head, and a
# gate, sum, softmax or GEMM written into an array the op made (adapter
# outputs, scores, logits, the merged heads) is the same operation.


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w.T + b``; replaces ``add(matmul(x, transpose(w, (1, 0))), b)``,
    with ``matmul`` and ``transpose`` from ``tests/reference.py``."""
    if x.data.ndim < 2 or x.data.shape[-1] != w.data.shape[1]:
        raise DimensionError(
            f"linear input {x.data.shape} does not fit weight {w.data.shape}")
    data = x.data @ w.data.T
    data += b.data

    def bw(g):
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))
        if x.requires_grad:
            _accum(x, g @ w.data)
        if w.requires_grad:
            _accum(w, _weight_grad(x.data, g).T)

    return _make("linear", (x, w, b), data, bw)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over ``(b, L, d)`` inputs.

    Splits ``d`` into ``heads`` heads, softmaxes ``q k^T / sqrt(d/heads)``
    over keys, and merges the per-head contexts back to ``(b, L, d)``.
    Replaces the reshape/transpose split of q, k and v, the score matmul,
    scale and softmax, and the context matmul and merge, a chain of ops from
    ``tests/reference.py``.
    """
    shape = q.data.shape
    if (len(shape) != 3 or k.data.shape != shape or v.data.shape != shape
            or shape[2] % heads != 0):
        raise DimensionError(
            f"attention needs equal (b, L, d) q, k, v with d divisible by "
            f"{heads} heads, got {shape}, {k.data.shape}, {v.data.shape}")
    b, L, d = shape
    dh = d // heads
    split = (b, L, heads, dh)
    qh = np.transpose(q.data.reshape(split), (0, 2, 1, 3))
    kh = np.transpose(k.data.reshape(split), (0, 2, 1, 3))
    vh = np.transpose(v.data.reshape(split), (0, 2, 1, 3))
    scale = 1.0 / math.sqrt(dh)
    scores = qh @ np.transpose(kh, (0, 1, 3, 2))
    scores *= scale
    y = _softmax_rows(scores, out=scores)  # the backward reads only y
    data = np.empty(shape)  # each head's GEMM writes its columns of it
    np.matmul(y, vh, out=np.transpose(data.reshape(split), (0, 2, 1, 3)))

    def bw(g):
        gc = np.ascontiguousarray(np.transpose(g.reshape(split), (0, 2, 1, 3)))
        scores = q.requires_grad or k.requires_grad
        if scores:
            gy = gc @ np.swapaxes(vh, -1, -2)
        if v.requires_grad:
            gv = np.swapaxes(y, -1, -2) @ gc
            _accum(v, np.transpose(gv, (0, 2, 1, 3)).reshape(shape))
        if scores:
            gs = _softmax_grad(gy, y) * scale
            if k.requires_grad:
                gk = np.transpose(np.swapaxes(qh, -1, -2) @ gs, (0, 1, 3, 2))
                _accum(k, np.transpose(gk, (0, 2, 1, 3)).reshape(shape))
            if q.requires_grad:
                gq = gs @ kh
                _accum(q, np.transpose(gq, (0, 2, 1, 3)).reshape(shape))

    return _make("attention", (q, k, v), data, bw)


def adapter_bank(base: Tensor, x: Tensor, pairs: Sequence[tuple],
                 heads: Sequence[Tensor] | None = None):
    """``base`` plus the weighted outputs of n low-rank adapters, one node.

    ``pairs`` holds each adapter's ``(A, B, scale)``; adapter i contributes
    ``w_i * ((x @ A_i.T) @ B_i.T) * scale_i`` and the contributions are added
    to ``base`` in order. With ``heads=None`` every weight is 1. Otherwise
    ``heads`` holds n + 1 ``(d_out, 1)`` score columns, head 0 scoring the
    constant-zero route (no adapter: output and logit 0), and the weights are
    the softmax over routes of each output times its head.

    Returns the output tensor and the softmax weights ``(..., n + 1)``
    (``None`` without heads). Replaces the per-adapter low-rank chains, the
    per-head score matmuls, concat and softmax, and the index/mul/add mix:
    ``stack_outputs`` and ``gate`` from ``tests/reference.py``, then the mix.
    """
    inputs = [base, x, *(t for A, B, _ in pairs for t in (A, B)), *(heads or ())]
    record = _records(inputs)
    xd = x.data
    if record:
        lows = [xd @ A.data.T for A, _, _ in pairs]
        outs = [low @ B.data.T for low, (_, B, _) in zip(lows, pairs)]
    else:  # only a node's backward reads the low-rank products
        outs = [(xd @ A.data.T) @ B.data.T for A, B, _ in pairs]
    for o, (_, _, scale) in zip(outs, pairs):
        o *= scale
    # adapter i's output needs a gradient when x or its pair does
    out_req = [x.requires_grad or A.requires_grad or B.requires_grad
               for A, B, _ in pairs]
    y = None
    if heads is not None:
        # column 0 stays the zero route's logit, 0 @ heads[0]
        logits = np.zeros(xd.shape[:-1] + (len(pairs) + 1,))
        for i, (o, h) in enumerate(zip(outs, heads[1:]), start=1):
            logits[..., i:i + 1] = o @ h.data
        y = _softmax_rows(logits, out=logits)
    gated = bool(pairs) and y is not None and (
        any(out_req) or any(h.requires_grad for h in heads))
    data = base.data
    for i, o in enumerate(outs, start=1):
        own = None if record else o  # no node reads o again: write into it
        term = o if y is None else np.multiply(y[..., i:i + 1], o, out=own)
        if i == 1:  # a fresh array: base.data is never written
            data = np.add(data, term, out=own)
        else:
            data += term

    def bw(g):
        if base.requires_grad:
            _accum(base, _unbroadcast(g, base.data.shape))
        # gradient into each adapter's output, before its scale
        gouts = [None if not req else g if y is None else g * y[..., i:i + 1]
                 for i, req in enumerate(out_req, start=1)]
        if gated:
            gw = np.zeros_like(y)
            for i, o in enumerate(outs, start=1):
                gw[..., i:i + 1] = _unbroadcast(g * o, gw[..., i:i + 1].shape)
            gl = _softmax_grad(gw, y)
            for j in range(len(pairs), -1, -1):
                glj = np.ascontiguousarray(gl[..., j:j + 1])
                h = heads[j]
                if j and out_req[j - 1]:
                    gouts[j - 1] = gouts[j - 1] + \
                        glj @ np.swapaxes(h.data, -1, -2)
                if h.requires_grad:
                    _accum(h, _weight_grad(outs[j - 1], glj) if j
                           else np.zeros(h.data.shape))
        for i in range(len(pairs) - 1, -1, -1):
            if not out_req[i]:
                continue
            A, B, scale = pairs[i]
            go = gouts[i] * scale
            if x.requires_grad or A.requires_grad:
                glow = go @ B.data
            if B.requires_grad:
                _accum(B, _weight_grad(lows[i], go).T)
            if x.requires_grad:
                _accum(x, glow @ A.data)
            if A.requires_grad:
                _accum(A, _weight_grad(xd, glow).T)

    return _make("adapter_bank", inputs, data, bw), y


# ---------------------------------------------------------------------------
# losses and activations the training loop needs


def _softmax_rows(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis of ``x``, into a new array or, numpy style,
    into ``out`` (``x`` itself too). The row max is taken a column at a time:
    numpy's per-row ``max`` is slow on short rows.
    """
    m = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j:j + 1], out=m)
    if np.isnan(m).any():  # numpy's max picks a row's NaN by its position
        m = x.max(axis=-1, keepdims=True)
    e = np.subtract(x, m, out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    dot = (g * y).sum(axis=-1, keepdims=True)
    return (g - dot) * y


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


def l1_sum(ts: Sequence[Tensor], scale: float) -> Tensor:
    """``scale`` times the summed L1 norms of ``ts``, as one node.

    Replaces ``mul(add(...add(l1_norm(t0), l1_norm(t1))...), scale)``, with
    ``l1_norm`` from ``tests/reference.py``.
    """
    total = np.abs(ts[0].data).sum()
    for t in ts[1:]:
        total = total + np.abs(t.data).sum()
    data = np.asarray(total * scale)

    def bw(g):
        gt = float(g * scale)
        for t in reversed(ts):
            if t.requires_grad:
                _accum(t, np.sign(t.data) * gt)

    return _make("l1", tuple(ts), data, bw)


def dropout(t: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; caller only invokes this in train mode."""
    if rate <= 0.0:
        return t
    # bool times 1/(1 - rate) rounds as bool / (1 - rate) does, but multiplies
    mask = (rng.random(t.data.shape) >= rate) * (1.0 / (1.0 - rate))
    return mul(t, Tensor(mask))


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor):
    """Populate grads of every trainable tensor reachable from ``loss``.

    Consumes the thread-local tape: nodes pop off its end in reverse
    insertion order. Every reader of a node's output sits later on the
    tape, so its grad is complete at the pop; the node, that grad and what
    only its closure holds are dropped before the next pop.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise GradientError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    tape = _state().tape
    if not any(n.output is loss for n in tape):
        raise GradientError("loss is not on the active tape (already consumed?)")
    loss.grad = np.ones_like(loss.data)
    try:
        while tape:
            node = tape.pop()
            g, node.output.grad = node.output.grad, None
            if g is not None:
                node.backward_fn(g)
            del node, g
    finally:
        for node in tape:
            node.output.grad = None
        tape.clear()


def reset_tape():
    """Drop any recorded nodes (used between independent forwards)."""
    _state().tape.clear()


# ---------------------------------------------------------------------------
# optimizers

OPTIMIZERS = ("adam", "sgd")


def check_lr(name: str, lr: float) -> None:
    """The one rule for a learning rate: finite and >= 0."""
    if not math.isfinite(lr):
        raise ConfigError(f"{name} must be finite, got {lr}")
    if lr < 0:
        raise ConfigError(f"{name} must be >= 0, got {lr}")


class Optimizer:
    """SGD / Adam over an explicit set of trainable tensors, in one flat update.

    Adam uses beta1=0.9, beta2=0.999, eps=1e-8, and keeps its two moments as
    flat arrays in which each parameter owns one slice. ``step`` checks every
    grad before it changes anything, gathers the grads into one array, runs
    the update expression once over it, subtracts each parameter's slice in
    place and clears the grads; Adam's intermediates go into that array or
    one scratch array ``s`` of its size. Every operation is elementwise and
    in the expression's order, so the bytes equal those of the same update
    run tensor by tensor. Frozen tensors may never be registered.
    """

    def __init__(self, params: Iterable[Tensor], kind: str = "adam",
                 lr: float = 1e-4):
        if kind not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {kind!r}")
        check_lr("lr", lr)
        self.kind = kind
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.step_count = 0
        self.params: list[Tensor] = []
        self._slices: list[slice] = []  # each parameter's part of the flat arrays
        end = 0
        for p in params:
            if not p.requires_grad:
                raise GradientError("frozen tensor passed to Optimizer")
            if any(p is q for q in self.params):
                raise GradientError("tensor passed to Optimizer twice")
            self.params.append(p)
            self._slices.append(slice(end, end + p.size))
            end += p.size
        self._m, self._v = np.zeros(end), np.zeros(end)

    def step(self):
        for p in self.params:
            if p.grad is None:
                raise GradientError("trainable parameter has no grad; run backward first")
            if p.grad.shape != p.data.shape:
                raise GradientError(f"grad shape {p.grad.shape} does not match "
                                    f"parameter shape {p.data.shape}")
        self.step_count += 1
        if not self.params:
            return
        g = np.concatenate([p.grad.reshape(-1) for p in self.params])
        if self.kind == "sgd":
            update = self.lr * g
        else:
            m, v, s = self._m, self._v, np.empty_like(g)
            m *= self.beta1
            m += np.multiply(1 - self.beta1, g, out=s)
            v *= self.beta2
            np.multiply(1 - self.beta2, g, out=s)
            v += np.multiply(s, g, out=s)
            np.sqrt(np.divide(v, 1 - self.beta2 ** self.step_count, out=s), out=s)
            s += self.eps
            update = np.divide(m, 1 - self.beta1 ** self.step_count, out=g)
            update *= self.lr
            update /= s
        for p, part in zip(self.params, self._slices):
            p.data -= update[part].reshape(p.data.shape)
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
