"""In-process tracer for the benchmark: spans and counters around the
public functions of the contagion modules.

The tracer patches module attributes, so it sees every call that goes
through a module global, including ``from .x import f`` bindings in other
modules of the package. Nothing is patched unless ``install`` is called,
and ``uninstall`` puts every original back.

A span records name, start, end and the index of its parent span. Spans
stay in memory until the benchmark writes them out. Calls that are too hot
for one span each are kept as counters: calls and total seconds, keyed by
the name of the enclosing span.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters = defaultdict(lambda: [0, 0.0])  # (name, enclosing span) -> [calls, seconds]
        self.tallies = defaultdict(float)  # name -> summed quantity
        self.values = defaultdict(list)  # name -> recorded values
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def enclosing(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def span_wrapper(self, fn, name, after=None):
        """Wrap ``fn`` so each call records one span.

        ``name`` is a string or a function of (args, kwargs) returning one;
        ``after(tracer, args, kwargs, result)`` runs once the span is closed.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append(Span(label, clock(), math.nan, stack[-1] if stack else -1))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx].end = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def counter_wrapper(self, fn, name, before=None, after=None):
        """Wrap ``fn`` so each call adds to a (calls, seconds) counter."""
        counters, clock = self.counters, self.clock

        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            t0 = clock()
            result = fn(*args, **kwargs)
            entry = counters[(name, self.enclosing())]
            entry[0] += 1
            entry[1] += clock() - t0
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def reset_counts(self) -> None:
        """Forget counters and tallies (spans are kept)."""
        self.counters.clear()
        self.tallies.clear()

    # -- patching --------------------------------------------------------

    def install(self, plan, modules) -> None:
        """Patch every binding of each planned function.

        ``plan`` holds (module, attribute, make_wrapper) triples, where
        ``make_wrapper(tracer, fn)`` returns the replacement. Every module in
        ``modules`` that binds the same function object gets the wrapper.
        """
        for module, attr, make in plan:
            original = getattr(module, attr)
            wrapped = make(self, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover."""
    children = defaultdict(list)
    for idx, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(idx)
    out = []
    for idx, s in enumerate(spans):
        clipped = [
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in children[idx]
        ]
        covered = _covered([(a, b) for a, b in clipped if b > a])
        out.append((s.end - s.start) - covered)
    return out


def tail_percentile(values):
    """(percentile, value, count) for the highest percentile worth reporting.

    p90 needs at least 100 samples. With fewer, the highest percentile that
    still has ten samples beyond it is used; with ten or fewer samples no
    percentile has, and the median is reported. Empty input gives (90, 0, 0).
    """
    n = len(values)
    if n == 0:
        return 90, 0.0, 0
    if n >= 100:
        q = 90
    elif n > 10:
        q = math.floor(100.0 * (n - 10) / n)
    else:
        q = 50
    return q, _percentile(values, q), n


def _percentile(values, q) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def median(values) -> float:
    return _percentile(values, 50) if values else 0.0
