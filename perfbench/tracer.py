"""Outside-in span tracer for one benchmark worker process.

The tracer replaces public amlora callables at the names their callers look
up (a module global such as ``harness.generate_task``, or a method on its
class such as ``Optimizer.step``) with wrappers that record one span per
call and count exact work at the same boundary. Nothing under ``src/amlora``
is edited. Spans live in memory and are written out once, at the end.

Each thread keeps its own span stack, because ``amlora run --jobs N`` runs
grid cells on a thread pool. Spans cover this process only: work done in a
child process it starts is not traced.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _digest(args, kwargs) -> str:
    text = repr((args, sorted(kwargs.items())))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Tracer:
    """Span recorder plus exact counters; see ``install`` for the wrap list."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # (span id, parent id, name, thread id, start, end); parent 0 = root
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.tape_tags: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextmanager
    def span(self, name: str):
        """Record one span around the body of a ``with`` block."""
        st = self._stack()
        sid = next(self._ids)
        parent = st[-1] if st else 0
        st.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            st.pop()
            self.spans.append((sid, parent, name, threading.get_ident(),
                               t0, t1))

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owners, attr: str, name, before=None, after=None):
        """Replace ``owner.attr`` for every owner by one recording wrapper.

        ``name`` is a span name or a function of the call's arguments that
        returns one. ``before(args, kwargs)`` runs ahead of the call and
        ``after(result)`` after it; both only count, never alter.
        """
        orig = getattr(owners[0], attr)
        for owner in owners[1:]:
            if getattr(owner, attr) is not orig:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the same "
                                   f"object as {owners[0].__name__}.{attr}")
        span = self.span
        label = name if callable(name) else (lambda a, k: name)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            with span(label(args, kwargs)):
                out = orig(*args, **kwargs)
            if after is not None:
                after(out)
            return out

        for owner in owners:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def _distinct(self, key):
        def before(args, kwargs):
            d = _digest(args, kwargs)
            with self._lock:
                self.distinct[key].add(d)
        return before

    def install(self):
        """Wrap every layer boundary the benchmark reports on."""
        from amlora import (autodiff, baselines, checkpoint, cli, harness,
                            model, tasks)

        def tape_at_backward(args, kwargs):
            # The tape is thread-local; backward runs on the thread that
            # recorded it, so this reads exactly the step's nodes.
            tags = Counter(node.tag for node in autodiff._state().tape)
            with self._lock:
                self.tape_tags.update(tags)

        self.wrap([autodiff], "backward", "autodiff.backward",
                  before=tape_at_backward)
        self.wrap([autodiff.Optimizer], "step", "autodiff.Optimizer.step",
                  before=lambda a, k: self._count("optimizer.tensors",
                                                  len(a[0].params)))

        def forward_label(args, kwargs):
            mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
            return f"model.Backbone.forward.{mode}"

        self.wrap([model.Backbone], "forward", forward_label)
        self.wrap([model], "apply_gated",
                  lambda a, k: f"selector.apply_gated.n"
                               f"{len(a[1].task_adapters)}")
        classes = [baselines.Driver]
        for cls in classes:
            classes.extend(cls.__subclasses__())
        for cls in classes:
            if "extra_loss" in cls.__dict__:
                self.wrap([cls], "extra_loss", "baselines.extra_loss")

        self.wrap([harness], "pretrain_base", "harness.pretrain_base",
                  before=self._distinct("harness.pretrain_base"))
        self.wrap([harness], "train_task", "harness.train_task",
                  after=lambda steps: self._count("train_task.steps", steps))
        self.wrap([harness], "evaluate", "harness.evaluate",
                  before=lambda a, k: self._count(
                      "evaluate.examples", int(a[1].eval_x.shape[0])))
        self.wrap([harness], "emit_report", "harness.emit_report")
        self.wrap([harness], "run_stream", "harness.run_stream")
        self.wrap([cli], "run_stream", "cli.run_stream")
        self.wrap([tasks, harness, cli], "generate_task",
                  "tasks.generate_task",
                  before=self._distinct("tasks.generate_task"))
        self.wrap([checkpoint, cli], "load_checkpoint",
                  "checkpoint.load_checkpoint")

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child = defaultdict(float)
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent:
                child[parent] += t1 - t0
        per = {}
        for sid, _, name, _, t0, t1 in self.spans:
            e = per.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
            e["calls"] += 1
            e["total_s"] += t1 - t0
            e["self_s"] += t1 - t0 - child[sid]
        return {"spans": per, "counts": dict(self.counts),
                "tape_tags": dict(self.tape_tags),
                "distinct": {k: len(v) for k, v in self.distinct.items()}}

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, name, tid, t0, t1 in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "run": self.run_id, "thread": tid,
                                    "start": t0, "end": t1}) + "\n")
