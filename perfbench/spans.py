"""In-memory span and counter recording for the traced benchmark run.

A span is (name, start, end, parent, op, attrs) with times from
``time.perf_counter``, which on Linux reads the system-wide monotonic
clock, so spans recorded by CLI child processes line up with the
parent's.  Spans and counters stay in memory and are written out once,
when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []              # [name, start, end, parent, op, attrs]
        self.counters = defaultdict(int)   # (op, name) -> count
        self._stack = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.op, attrs]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def operation(self, name, index):
        """Root span of one operation; spans opened inside carry its id."""
        self.op = index
        try:
            with self.span(name):
                yield
        finally:
            self.op = None

    def add(self, name, start, end, parent=None, **attrs):
        """Record a span measured elsewhere (a child process); returns its id.

        Without ``parent`` it goes under the open span.
        """
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append([name, start, end, parent, self.op, attrs])
        return len(self.spans) - 1

    def count(self, name, n=1):
        self.counters[(self.op, name)] += n

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(("name", "start", "end", "parent", "op", "attrs"), s))
                                 for s in self.spans],
                       "counters": [{"op": op, "name": name, "count": c}
                                    for (op, name), c in self.counters.items()]}, fh)

    # -- summaries -----------------------------------------------------------

    def op_roots(self):
        return [i for i, s in enumerate(self.spans) if s[3] is None and s[4] is not None]

    def per_op_totals(self):
        """{name: [per-op total seconds]} for spans directly under each op root."""
        roots = set(self.op_roots())
        totals = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            if s[3] in roots:
                totals[s[0]][s[4]] += s[2] - s[1]
        return {name: list(by_op.values()) for name, by_op in totals.items()}

    def per_op_counts(self):
        out = defaultdict(list)
        for (op, name), c in self.counters.items():
            if op is not None:
                out[name].append(c)
        return dict(out)

    def coverage(self):
        """Share of each op's wall time covered by its direct child spans."""
        shares = []
        for i in self.op_roots():
            root = self.spans[i]
            covered = sum(s[2] - s[1] for s in self.spans if s[3] == i)
            shares.append(covered / (root[2] - root[1]))
        if not shares:
            return None
        return {"min": min(shares), "median": statistics.median(shares), "ops": len(shares)}


class NullTracer:
    """Stands in for Tracer in untraced phases; records nothing."""

    enabled = False

    def span(self, name, **attrs):
        return contextlib.nullcontext()

    def operation(self, name, index):
        return contextlib.nullcontext()

    def add(self, name, start, end, parent=None, **attrs):
        return None

    def count(self, name, n=1):
        pass
