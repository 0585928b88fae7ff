"""Spans and call counts recorded around the package's public functions.

The benchmark never edits the package.  It replaces a public name, such
as ``duores.experiments.run``, with a wrapper for the length of one
traced pass and puts the original back afterwards.  A span is the tuple
``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (-1 at top level) and spans of one operation share
``op``.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps


class TracerError(RuntimeError):
    """A wrap target does not exist, so a layer would go unmeasured."""


def patch(owner, attr: str, make_wrapper):
    """Replace ``owner.attr`` by ``make_wrapper(original)``.

    Returns a function that restores the original.  A missing or
    non-callable target raises :class:`TracerError`, so a later rename
    in the package fails the benchmark instead of dropping a layer.
    """
    label = f"{getattr(owner, '__name__', owner)}.{attr}"
    original = getattr(owner, attr, None)
    if not callable(original):
        raise TracerError(f"wrap target {label} is missing")
    setattr(owner, attr, make_wrapper(original))
    return lambda: setattr(owner, attr, original)


class Tracer:
    """Records spans and call counts for wrapped public functions."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._op: int | None = None
        self._next_op = 0

    def _new_op(self) -> int:
        self._next_op += 1
        return self._next_op

    @contextmanager
    def operation(self):
        """Give every span opened inside one shared operation id.  A
        top-level span opened outside any operation gets its own."""
        outer = self._op
        self._op = self._new_op()
        try:
            yield
        finally:
            self._op = outer

    @contextmanager
    def span(self, name: str):
        stack, spans = self._stack, self.spans
        if stack:
            parent = stack[-1]
            op = spans[parent][4]
        else:
            parent = -1
            op = self._op if self._op is not None else self._new_op()
        idx = len(spans)
        spans.append((name, time.perf_counter(), None, parent, op))
        stack.append(idx)
        try:
            yield
        finally:
            stack.pop()
            spans[idx] = (name, spans[idx][1], time.perf_counter(), parent, op)

    def _span_wrapper(self, name: str, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self, targets):
        """Wrap every ``(owner, attr, name, count_only)`` target for the
        duration of the block; restore them in reverse order after."""
        restores = []
        try:
            for owner, attr, name, count_only in targets:
                make = self._count_wrapper if count_only else self._span_wrapper
                restores.append(patch(owner, attr, lambda fn, n=name, m=make: m(n, fn)))
            yield self
        finally:
            for restore in reversed(restores):
                restore()

    def to_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]


def span_totals(spans) -> dict:
    """Per span name: ``calls``, inclusive seconds ``total_s`` and
    ``self_s``, the inclusive time minus the time of direct children.

    Spans come from one thread, so children of a span never overlap
    and their durations add up to the part of its interval they cover.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict = {}
    for (name, start, end, _, _), kids in zip(spans, child_s):
        t = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["total_s"] += end - start
        t["self_s"] += end - start - kids
    return out
