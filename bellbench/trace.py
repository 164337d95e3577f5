"""In-memory spans around calls into bellsim's layers, plus counters.

Spans are recorded only while a root span is open, so wrappers installed
for a traced pass cost one attribute test anywhere else.  A span is
(name, start, end, parent index); a layer's self time is its span's duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import collections
import json
import time
from contextlib import contextmanager

NAME, START, END, PARENT = range(4)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = collections.Counter()
        self._stack = []
        self._patched = []

    @contextmanager
    def span(self, name: str):
        """Record one span; opened with nothing else open, it is a root and
        enables recording for everything called inside it."""
        rec = [name, self.clock(), 0.0, self._stack[-1] if self._stack else None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[END] = self.clock()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        if not self._stack:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` inside a span named ``name``; ``on_result`` sees each result."""

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None and self._stack:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until ``restore``."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counters": dict(self.counters)}, fh)


def self_times(spans) -> list:
    """Per-span duration minus the union of its children's intervals."""
    children = collections.defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[PARENT] is not None:
            children[rec[PARENT]].append((spans[i][START], spans[i][END]))
    out = []
    for i, rec in enumerate(spans):
        start, end = rec[START], rec[END]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def totals(spans):
    """(inclusive seconds, self seconds) summed per span name."""
    inclusive = collections.Counter()
    own = collections.Counter()
    for rec, s in zip(spans, self_times(spans)):
        inclusive[rec[NAME]] += rec[END] - rec[START]
        own[rec[NAME]] += s
    return inclusive, own
