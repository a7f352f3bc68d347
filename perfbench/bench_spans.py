"""In-memory spans and counts recorded by wrappers around the program's functions.

The wrappers live here, outside the program: :meth:`Tracer.install` replaces
an attribute (a module-level function or a class method) with a timing
wrapper and :meth:`Tracer.remove` puts every original back.  A span is kept
as (name, start, end, parent, run id); the parent is the index of the span
that was open when this one began, so spans nest the way the calls did.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    run_id: int


def self_times(spans):
    """Each span's duration minus the time its direct child spans cover.

    Spans come from one thread, so the children of one parent never
    overlap and the time they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, covered)]


def totals_by_name(spans):
    """{name: (calls, summed self time in seconds)} over a list of spans."""
    out = defaultdict(lambda: [0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        entry = out[span.name]
        entry[0] += 1
        entry[1] += own
    return {name: (calls, own) for name, (calls, own) in out.items()}


class Tracer:
    """Records spans and counts from the wrappers it installs."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.run_id = 0
        self._open = []
        self._installed = []  # (owner, attribute, original)

    def wrap(self, name, fn, count=None):
        """A wrapper of ``fn`` that records a span called ``name``.

        ``count(counts, args, kwargs, result)``, when given, adds the call's
        work counts after the call returns.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else -1
            tracer.spans.append(None)
            tracer._open.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._open.pop()
                tracer.spans[index] = Span(name, start, end, parent, tracer.run_id)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self, owner, attribute, name, count=None):
        """Replace ``owner.attribute`` by a traced wrapper named ``name``."""
        original = vars(owner)[attribute]
        self._installed.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, count))

    def remove(self):
        """Restore every wrapped attribute, last installed first."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, run."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.run_id]) + "\n")
