"""Array helpers shared across the test suite: a dense copy of a view,
the CLI array-file writer, a triple-loop matmul reference and a trace
sink that refuses empty runs."""

from tilepar.ndarray import NdArray, View, element_list


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
