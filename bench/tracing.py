"""In-memory spans around the package's public functions.

The tracer replaces functions with wrappers, as attributes of the module
that calls them (for example ``stableadmit.cli.solve`` or
``stableadmit.preprocess.da``), so no package file changes. A wrapper
records a span (name, start, end, parent, op id) only while an op is
running; outside ops, for instance in the correctness gates, it passes
straight through. Counts are read from the objects the wrapped
functions return.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []       # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None

    def span(self, name, fn, count=None):
        """Wrap fn in a span; name may be a callable of (args, kwargs)."""
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            rec = [label, time.perf_counter(), 0.0,
                   self.stack[-1] if self.stack else None, self.op]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                count(self.counts, result, args, kwargs)
            return result
        return wrapper

    def counter(self, key: str, fn):
        """Count calls without a span, for functions called in inner loops."""
        def wrapper(*args, **kwargs):
            if self.op is not None:
                self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def patched(self, table):
        """table: (module, attribute, wrapper factory) triples."""
        saved = []
        try:
            for module, attr, make in table:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, make(getattr(module, attr)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def run_op(self, op_id: int, fn):
        """Run one op under a root span; its self time is benchmark glue."""
        self.op = op_id
        try:
            return self.span("bench.op", fn)()
        finally:
            self.op = None

    def self_times(self) -> dict[str, float]:
        """Span duration minus the part its children cover, summed by name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] += (end - start) - child_time[k]
        return out
