"""In-memory span recorder and function wrappers for traced benchmark runs.

A Recorder keeps one span per wrapped call: (span id, parent span id,
name, start ns, end ns). The parent link comes from a ContextVar that
holds the id of the innermost open span, and times come from
perf_counter_ns. Spans stay in memory until the caller folds them into a
Summary, which the benchmark does after every operation so that memory
stays bounded by the spans of a single operation.

Wrappers are made once, installed only around a traced call and
restored after it. When a Recorder is disabled its wrappers call
straight through and add no spans.
"""

from __future__ import annotations

import contextvars
import functools
import sys
from collections import Counter
from time import perf_counter_ns

ROOT_SPAN = "bench.op"  # the span around one whole operation


class Recorder:
    """Collects spans while enabled; does nothing else."""

    def __init__(self):
        self.enabled = False
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._current = contextvars.ContextVar("bench_span", default=0)
        self._next_id = 1

    def call(self, name, fn, args=(), kwargs=None, hook=None):
        """fn(*args, **kwargs), recorded as a span named `name` when enabled."""
        kwargs = kwargs or {}
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = self._next_id
        self._next_id += 1
        parent = self._current.get()
        token = self._current.set(sid)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._current.reset(token)
            self.spans.append((sid, parent, name, start, end))
        if hook is not None:
            hook(self.counters, args, result)
        return result

    def drain(self) -> tuple[list, Counter]:
        """Hand over the recorded spans and counters and start afresh."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], Counter()
        return spans, counters


class Summary:
    """Per-name call counts and self times folded from many operations.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """

    def __init__(self):
        self.ops = 0
        self.op_ns = 0
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.nested: Counter = Counter()  # "parent name|child name" -> calls
        self.counters: Counter = Counter()
        self.cache: Counter = Counter()  # "<cache>.hits" / "<cache>.misses"

    def add_spans(self, spans, counters):
        names = {sid: name for sid, _, name, _, _ in spans}
        child_ns: Counter = Counter()
        for _, parent, _, start, end in spans:
            if parent:
                child_ns[parent] += end - start
        for sid, parent, name, start, end in spans:
            self.calls[name] += 1
            self.self_ns[name] += end - start - child_ns[sid]
            if parent in names:
                self.nested[f"{names[parent]}|{name}"] += 1
            if name == ROOT_SPAN:
                self.ops += 1
                self.op_ns += end - start
        self.counters.update(counters)

    def merge(self, other: dict):
        """Fold in a Summary that crossed a process boundary as to_json()."""
        self.ops += other["ops"]
        self.op_ns += other["op_ns"]
        for field in ("calls", "self_ns", "nested", "counters", "cache"):
            getattr(self, field).update(other[field])

    def to_json(self) -> dict:
        return {
            "ops": self.ops,
            "op_ns": self.op_ns,
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "nested": dict(self.nested),
            "counters": dict(self.counters),
            "cache": dict(self.cache),
        }


def _wrap(recorder: Recorder, name: str, fn, hook):
    call = recorder.call

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return call(name, fn, args, kwargs, hook)

    return traced


def wrappers(recorder: Recorder, targets, package: str) -> list[tuple]:
    """Wrappers for every target and every alias of it in the package's modules.

    targets holds (owner, attribute, span name, hook) tuples, where the
    owner is a module or a class. A module that imported the function by
    name holds its own reference, so every attribute of every loaded
    module of the package that is the same object gets the wrapper too.
    Returns (owner, attribute, original, wrapper) tuples for install()
    and restore(); nothing is replaced yet.
    """
    modules = [
        m
        for key, m in sorted(sys.modules.items())
        if m is not None and (key == package or key.startswith(package + "."))
    ]
    plan = []
    for owner, attr, name, hook in targets:
        original = owner.__dict__[attr]
        wrapper = _wrap(recorder, name, original, hook)
        plan.append((owner, attr, original, wrapper))
        for module in modules:
            for alias, value in vars(module).items():
                if value is original:
                    plan.append((module, alias, original, wrapper))
    return plan


def install(plan: list[tuple]):
    for owner, attr, _, wrapper in plan:
        setattr(owner, attr, wrapper)


def restore(plan: list[tuple]):
    for owner, attr, original, _ in reversed(plan):
        setattr(owner, attr, original)
