"""Helpers shared by run.py and worker.py: spans, statistics, checks.

Nothing here imports pencurve, so the helpers can be tested on their own.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = math.nan
    parent: int | None = None
    meta: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Records nested spans around calls into the package.

    Spans are kept in call order; each knows the index of the span that was
    open when it started, so self time can net out nested calls.
    """

    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, self.clock(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was open")

    @contextmanager
    def span(self, name: str, layer: str):
        idx = self.open(name, layer)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def wrap(self, fn, name: str, layer: str, meta=None):
        """fn wrapped in a span; meta(args, kwargs, result) is stored on it."""

        def traced(*args, **kwargs):
            idx = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if meta is not None:
                self.spans[idx].meta = meta(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets):
        """Swap timing wrappers onto module attributes; restore them on exit.

        targets: (module name, attribute, span name, layer, meta or None).
        The module is looked up in the import system rather than through a
        package attribute, because a package may rebind a submodule's name
        to a function of the same name.
        """
        saved = []
        try:
            for module_name, attr, name, layer, meta in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, layer, meta))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


class Round:
    """Times the calls of one round by path, inside a root span when traced."""

    def __init__(self, tracer=None, clock=time.perf_counter):
        self.tracer = tracer
        self.clock = clock
        self.paths = {"fit": 0.0, "check": 0.0, "oracle": 0.0}

    def call(self, path: str, name: str, layer: str, fn, *args):
        t0 = self.clock()
        try:
            if self.tracer is None:
                return fn(*args)
            with self.tracer.span(name, layer):
                return fn(*args)
        finally:
            self.paths[path] += self.clock() - t0


def self_times(spans) -> dict:
    """Seconds per layer spent in that layer's own code.

    A span's self time is its duration minus the durations of its direct
    children; spans on one thread nest, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    out: dict = {}
    for s, inner in zip(spans, child_time):
        out[s.layer] = out.get(s.layer, 0.0) + s.duration - inner
    return out


def root_index(spans) -> list:
    """Index of the outermost span enclosing each span (itself for roots)."""
    roots = []
    for i, s in enumerate(spans):
        roots.append(i if s.parent is None else roots[s.parent])
    return roots


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("quartiles of no values")
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def geometric_mean(values) -> float:
    vals = [float(v) for v in values]
    if not vals or any(not v > 0.0 for v in vals):
        return math.nan
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


@dataclass
class Outcomes:
    """Operations attempted and failed; a failure is a raise or a failed check."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, op: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
