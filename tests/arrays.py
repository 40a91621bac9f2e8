"""Helpers shared across the test suite: a dense copy of a view, the CLI
array-file writer, a triple-loop matmul reference, a trace sink that
refuses empty runs and a counter of built functions' calls."""

import collections

from tilepar.ndarray import NdArray, View, element_list
from tilepar.semantics import Interpreter


def materialize(x):
    """Copy a view into a fresh dense NdArray of the same layout."""
    return NdArray(x.shape, x.dtype, x.layout, element_list(x, x.layout))


def dump_array(arr):
    """The CLI array format (see `ndarray.load_array`) of `arr`."""
    v = materialize(arr) if isinstance(arr, View) else arr
    lines = [
        "shape: " + " ".join(str(s) for s in v.shape),
        f"dtype: {v.dtype}",
        f"layout: {v.layout}",
        " ".join(repr(x) if isinstance(x, float) else str(x) for x in v.data),
    ]
    return "\n".join(lines) + "\n"


def naive_matmul(a, b):
    """Triple-loop reference; `b` holds the right matrix pre-transposed
    (rows of `b` are columns of the mathematical right operand)."""
    n, inner = a.shape
    m = b.shape[0]
    out = NdArray((n, m), "f64")
    for i in range(n):
        for j in range(m):
            s = 0.0
            for k in range(inner):
                s += a.get((i, k)) * b.get((j, k))
            out.set((i, j), s)
    return out


class NoEmptyRunSink:
    """A trace sink that raises on a run without events and keeps nothing
    else; `runs` counts the runs it took."""

    def __init__(self):
        self.runs = 0

    def run(self, addrs, kinds):
        self.runs += 1
        if next(iter(addrs), None) is None:
            raise AssertionError(f"empty {kinds!r} run")

    def phase(self, label):
        pass


def counting_build(monkeypatch):
    """Count the calls of every function built from here on, by name."""
    calls = collections.Counter()
    build = Interpreter._build

    def counted_build(self, fn):
        compiled = build(self, fn)
        call = compiled.call

        def counted(*args):
            calls[fn.name] += 1
            return call(*args)
        compiled.call = counted
        return compiled
    monkeypatch.setattr(Interpreter, "_build", counted_build)
    return calls
