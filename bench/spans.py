"""In-memory spans and the wrappers that record them.

A span records a name, a start, an end and its parent (the span that was
open when it started), plus the command repetition it belongs to, so all
spans of one command share an identifier.  Spans stay in memory while the
benchmark runs and are written out once at the end.

A span's self time is its duration minus the part of that interval its
direct children cover.  Children of one call never overlap in this
single-threaded program, but coverage is computed as an interval union so
that overlapping children would not be counted twice.
"""

from __future__ import annotations

import functools
import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at the root
    rep: int             # command repetition the span belongs to
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus child coverage (clipped to the parent's interval)."""
    kids = children_of(spans)
    out = []
    for s, ks in zip(spans, kids):
        clipped = [(max(spans[k].start, s.start), min(spans[k].end, s.end)) for k in ks]
        out.append(s.duration - covered([(lo, hi) for lo, hi in clipped if hi > lo]))
    return out


class Tracer:
    """Records spans around wrapped callables.  One tracer per process;
    wrappers are installed only inside ``installed()``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.rep = -1
        self.state: dict = {}    # scratch space for the hooks of instrument.py
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), math.nan, parent, self.rep))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def wrap(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span.  ``name`` is a string or a callable of
        (tracer, args); ``before(tracer, args)`` runs ahead of the call and
        ``after(tracer, span, result)`` after a successful one."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            idx = self.open(name(self, args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self, self.spans[idx], result)
            return result

        return wrapper

    @contextmanager
    def installed(self, targets, rep: int):
        """Patch every (owner, attribute, name, before, after) target for
        the duration of the block, then restore the originals exactly."""
        saved = []
        self.rep = rep
        try:
            for owner, attr, name, before, after in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, before, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.rep = -1

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
