"""In-memory spans around calls into a program's layers, and their self time.

A ``Tracer`` replaces module attributes with timing wrappers.  Code that
looks a function up as a module global at call time (``kernels.min_subset_split``
from ``analysis``, ``best_split_test`` from ``engine``) then runs through the
wrapper without any change to the program's own files.

Each span records its name, the thread it ran on, its parent span (the
innermost open span of the same thread) and its start and end.  Spans are
timed on the calling thread's CPU clock (``time.thread_time``): under the
interpreter lock two pool threads interleave, and a wall clock would count
the time one waits for the lock as busy time of both.  With the thread clock
the self times of all threads add up to the process's CPU time.  A span that
a pool thread starts has no parent, because the opening thread's stack is not
visible to it.

Self time is a span's duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator, Sequence

# One exported span: (name, thread, parent index or None, start, end).
Span = tuple[str, int, "int | None", float, float]

# Called after a wrapped function returns: hook(tracer, args, kwargs, result).
Hook = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """Collects spans, counters and distinct-input sets for one process."""

    def __init__(self):
        self._records: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: int) -> None:
        with self._lock:
            self.counts[name] += amount

    def distinct(self, name: str, key) -> None:
        with self._lock:
            self.keys[name].add(key)

    def wrap(self, fn: Callable, name: str, hook: Hook | None = None) -> Callable:
        clock = time.thread_time
        records = self._records

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            record = [name, threading.get_ident(), stack[-1] if stack else None, clock(), 0.0]
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
                records.append(record)  # list.append is atomic under the GIL
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets: Iterable[tuple[object, str, str, Hook | None]]) -> Iterator[None]:
        """Wrap ``module.attr`` for each (module, attr, span name, hook); restore on exit."""
        saved = []
        try:
            for module, attr, name, hook in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, hook))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def spans(self) -> list[Span]:
        """Finished spans in completion order, parents given as list indices."""
        records = list(self._records)
        index = {id(r): i for i, r in enumerate(records)}
        return [
            (name, thread, None if parent is None else index[id(parent)], start, end)
            for name, thread, parent, start, end in records
        ]


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals within it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, _thread, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (_name, _thread, _parent, start, end) in enumerate(spans):
        inside = [(max(s, start), min(e, end)) for s, e in children.get(i, ()) if e > start and s < end]
        out.append((end - start) - _covered(inside))
    return out


def summarize(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed self time and summed total (inclusive) time."""
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        row = table[span[0]]
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += span[4] - span[3]
    return dict(table)
