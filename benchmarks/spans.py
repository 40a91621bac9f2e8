"""In-memory spans around the benchmark's calls into tilepar.

A span records name, layer, start, end, parent span and workload. Spans
are kept in a list while the benchmark runs and written out once at the
end. A layer's self time is the duration of its spans minus the part of
each covered by child spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    workload: str
    round: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans while `enabled`; otherwise every call runs untouched."""

    def __init__(self, workload):
        self.workload = workload
        self.enabled = False
        self.round = -1
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, layer=None, **attrs):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, layer or name.split(".", 1)[0], parent,
                 self.workload, self.round, time.perf_counter(), attrs=attrs)
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield
        finally:
            self._stack.pop()
            s.end = time.perf_counter()

    def call(self, name, fn, *args, layer=None, **kwargs):
        with self.span(name, layer):
            return fn(*args, **kwargs)

    def to_json(self):
        return [asdict(s) for s in self.spans]


def self_times(spans):
    """Self time of every span, by span id; a parent outside `spans` is ignored."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration
    return own


def layer_self_times(spans):
    """Total self time per layer over `spans`."""
    own = self_times(spans)
    out = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + own[s.id]
    return out
