"""Dense n-dimensional arrays, zero-copy views, and tile decomposition.

Arrays hold int64 or float64 elements in row- or column-major order over a
flat buffer. Views (slices and tiles) share the buffer; a tile keeps the
rank of its base, a slice drops the sliced axis. Every element is 8 bytes
for address-trace purposes.

`offsets` is the only walk over a view's elements: it yields flat buffer
offsets in index order (last axis fastest). Every whole-array copy --
materializing, concatenating, stacking -- goes through the one kernel on
top of it, `copy`, which also reports each element's read and write to a
trace sink; `elementwise` walks its operands' offsets the same way.
"""

from __future__ import annotations

import itertools
import operator
import weakref

ELEM_SIZE = 8

DTYPES = ("i64", "f64")
LAYOUTS = ("row", "col")


class ShapeError(Exception):
    pass


def make_strides(shape, layout):
    """Element strides for a dense array of `shape` in the given layout."""
    n = len(shape)
    strides = [0] * n
    acc = 1
    order = range(n - 1, -1, -1) if layout == "row" else range(n)
    for i in order:
        strides[i] = acc
        acc *= shape[i]
    return tuple(strides)


def _product(xs):
    p = 1
    for x in xs:
        p *= x
    return p


class NdArray:
    """Owning dense array.

    `addr` is the byte address of element 0 in the simulated address
    space; the evaluator's allocator assigns it, otherwise it is 0.
    """

    __slots__ = ("shape", "dtype", "layout", "data", "strides", "addr", "__weakref__")

    def __init__(self, shape, dtype, layout="row", data=None, addr=0):
        shape = tuple(int(s) for s in shape)
        if any(s < 0 for s in shape):
            raise ShapeError(f"negative extent in shape {shape}")
        if dtype not in DTYPES:
            raise ShapeError(f"unknown dtype {dtype!r}")
        if layout not in LAYOUTS:
            raise ShapeError(f"unknown layout {layout!r}")
        size = _product(shape)
        if data is None:
            fill = 0 if dtype == "i64" else 0.0
            data = [fill] * size
        elif len(data) != size:
            raise ShapeError(f"shape {shape} needs {size} elements, got {len(data)}")
        self.shape = shape
        self.dtype = dtype
        self.layout = layout
        self.data = list(data)
        self.strides = make_strides(shape, layout)
        self.addr = addr

    @property
    def rank(self):
        return len(self.shape)

    @property
    def size(self):
        return len(self.data)

    def flat_index(self, idx):
        return sum(i * s for i, s in zip(idx, self.strides))

    def get(self, idx):
        return self.data[self.flat_index(idx)]

    def set(self, idx, value):
        self.data[self.flat_index(idx)] = value

    def addr_of(self, idx):
        return self.addr + self.flat_index(idx) * ELEM_SIZE

    def to_nested(self):
        return as_view(self).to_nested()

    @classmethod
    def from_nested(cls, nested, dtype=None, layout="row"):
        shape = []
        probe = nested
        while isinstance(probe, (list, tuple)):
            shape.append(len(probe))
            probe = probe[0] if probe else None
        flat = _flatten(nested, len(shape))
        if dtype is None:
            dtype = "f64" if any(isinstance(v, float) for v in flat) else "i64"
        arr = cls(shape, dtype, layout)
        data = arr.data
        for o, x in zip(offsets(arr), flat):
            data[o] = x
        return arr

    @classmethod
    def scalar(cls, value):
        dtype = "f64" if isinstance(value, float) else "i64"
        return cls((), dtype, "row", [value])

    def __repr__(self):
        return f"NdArray(shape={self.shape}, dtype={self.dtype}, layout={self.layout})"


def _flatten(nested, depth):
    if depth == 0:
        return [nested]
    out = []
    for item in nested:
        out.extend(_flatten(item, depth - 1))
    return out


class View:
    """Zero-copy window into an NdArray.

    Slicing removes an axis; tiling restricts extents but keeps rank.
    `offset` is a flat element offset; `strides` are per remaining axis.
    """

    __slots__ = ("root", "offset", "shape", "strides")

    def __init__(self, root, offset, shape, strides):
        self.root = root
        self.offset = offset
        self.shape = tuple(shape)
        self.strides = tuple(strides)

    @property
    def rank(self):
        return len(self.shape)

    @property
    def dtype(self):
        return self.root.dtype

    @property
    def layout(self):
        return self.root.layout

    @property
    def size(self):
        return _product(self.shape)

    def flat_index(self, idx):
        return self.offset + sum(i * s for i, s in zip(idx, self.strides))

    def get(self, idx):
        return self.root.data[self.flat_index(idx)]

    def to_nested(self):
        if self.rank > 1:
            return [slice_axis(self, 0, i).to_nested() for i in range(self.shape[0])]
        items = list(elements(self))
        return items if self.shape else items[0]

    def __repr__(self):
        return f"View(shape={self.shape})"


def as_view(x):
    if isinstance(x, View):
        return x
    return View(x, 0, x.shape, x.strides)


ArrayValue = (NdArray, View)


def tile_view(x, axis, start, extent):
    """Same-rank window covering [start, start+extent) along `axis`."""
    v = as_view(x)
    if not 0 <= axis < v.rank:
        raise ShapeError(f"axis {axis} out of range for rank {v.rank}")
    if start < 0 or start + extent > v.shape[axis]:
        raise ShapeError(f"tile [{start}, {start + extent}) exceeds extent {v.shape[axis]}")
    shape = list(v.shape)
    shape[axis] = extent
    return View(v.root, v.offset + start * v.strides[axis], shape, v.strides)


def decompose(x, axis, k):
    """Split `x` along `axis` into full tiles of extent k plus a straggler.

    Returns floor(L/k) same-rank tiles of extent k in order, followed by
    one straggler tile of extent L mod k iff k does not divide L.
    Concatenating the tiles along `axis` reproduces `x`.
    """
    if k <= 0:
        raise ShapeError(f"tile extent must be positive, got {k}")
    v = as_view(x)
    if not 0 <= axis < v.rank:
        raise ShapeError(f"axis {axis} out of range for rank {v.rank}")
    length = v.shape[axis]
    tiles = []
    full = length // k
    for t in range(full):
        tiles.append(tile_view(v, axis, t * k, k))
    rem = length - full * k
    if rem:
        tiles.append(tile_view(v, axis, full * k, rem))
    return tiles


def slice_axis(x, axis, i):
    """Rank-reducing slice: drop `axis`, fixing it at index i."""
    v = as_view(x)
    if not 0 <= axis < v.rank:
        raise ShapeError(f"axis {axis} out of range for rank {v.rank}")
    if not 0 <= i < v.shape[axis]:
        raise ShapeError(f"index {i} out of bounds for extent {v.shape[axis]}")
    shape = v.shape[:axis] + v.shape[axis + 1:]
    strides = v.strides[:axis] + v.strides[axis + 1:]
    return View(v.root, v.offset + i * v.strides[axis], shape, strides)


def offsets(x):
    """Iterate the flat buffer offsets of every element of `x` in index
    order (last axis fastest). This is the one walk over a view's elements."""
    return _walk(as_view(x), 0, 1)


def elements(x):
    """Iterate the element values of `x` in index order."""
    v = as_view(x)
    return map(v.root.data.__getitem__, offsets(v))


def _addresses(x):
    """Iterate the byte addresses of every element of `x` in index order."""
    v = as_view(x)
    return _walk(v, v.root.addr, ELEM_SIZE)


def _walk(v, base, scale):
    """base + scale * offset for every element of view `v`, in index order:
    one range per run along the last axis."""
    if not v.shape:
        return iter((base + scale * v.offset,))
    if 0 in v.shape:
        return iter(())
    step = v.strides[-1] * scale
    length = v.shape[-1] * step
    start = base + scale * v.offset
    if len(v.shape) == 1:
        return range(start, start + length, step)
    starts = [start]
    for extent, stride in zip(v.shape[:-1], v.strides[:-1]):
        steps = [i * stride * scale for i in range(extent)]
        starts = [b + s for b in starts for s in steps]
    return itertools.chain.from_iterable(range(b, b + length, step) for b in starts)


def _trace(trace, sources, dst):
    """Report each element, in index order, as a read of every view in
    `sources` (one or two) followed by a write of `dst`."""
    read, write = trace.read, trace.write
    if len(sources) == 1:
        for r, w in zip(_addresses(sources[0]), _addresses(dst)):
            read(r)
            write(w)
        return
    for r, q, w in zip(_addresses(sources[0]), _addresses(sources[1]), _addresses(dst)):
        read(r)
        read(q)
        write(w)


def copy(src, dst, trace=None):
    """Copy the elements of `src` into the equal-shaped `dst`; returns dst.

    With a trace sink, each element is reported as a read of `src`
    followed by a write of `dst`, in index order.
    """
    s, d = as_view(src), as_view(dst)
    if s.shape != d.shape:
        raise ShapeError(f"copy shape mismatch: {s.shape} vs {d.shape}")
    sdata, ddata = s.root.data, d.root.data
    for i, j in zip(offsets(s), offsets(d)):
        ddata[j] = sdata[i]
    if trace is not None:
        _trace(trace, [s], d)
    return dst


def materialize(x):
    """Copy a view into a fresh dense NdArray of the same layout."""
    v = as_view(x)
    return copy(v, NdArray(v.shape, v.dtype, v.layout))


def concat(parts, axis, trace=None, new_array=NdArray):
    """Concatenate arrays/views along `axis` into a dense row-major array.

    `new_array(shape, dtype)` makes the output before any element is
    copied (the interpreter passes its allocating constructor); `trace`
    receives the copy traffic.
    """
    if not parts:
        raise ShapeError("cannot concatenate zero parts")
    views = [as_view(p) for p in parts]
    first = views[0]
    rank = first.rank
    if not 0 <= axis < rank:
        raise ShapeError(f"axis {axis} out of range for rank {rank}")
    for v in views:
        if v.rank != rank:
            raise ShapeError("rank mismatch in concat")
        for a in range(rank):
            if a != axis and v.shape[a] != first.shape[a]:
                raise ShapeError(f"extent mismatch on axis {a} in concat")
    shape = list(first.shape)
    shape[axis] = sum(v.shape[axis] for v in views)
    out = new_array(tuple(shape), result_dtype(views))
    base = 0
    for v in views:
        copy(v, tile_view(out, axis, base, v.shape[axis]), trace)
        base += v.shape[axis]
    return out


# ---------------------------------------------------------------------------
# Scalar and elementwise arithmetic
# ---------------------------------------------------------------------------

def result_dtype(values):
    """'f64' when any value is a float scalar or an f64 array, else 'i64'."""
    for x in values:
        if as_view(x).dtype == "f64" if isinstance(x, ArrayValue) else isinstance(x, float):
            return "f64"
    return "i64"


def _min(a, b):
    return a if a <= b else b


def _max(a, b):
    return a if a >= b else b


_SCALAR_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv, "min": _min, "max": _max}


def scalar_op(op):
    """The scalar function of binary operator `op`, with int/float promotion.

    `/` always produces float64; the other operators keep int64 when both
    operands are int64.
    """
    try:
        return _SCALAR_OPS[op]
    except KeyError:
        raise ValueError(f"unknown operator {op!r}") from None


def elementwise(op, a, b, trace=None, new_array=NdArray):
    """Apply a binary operator over arrays/scalars with scalar broadcast.

    Shapes must match exactly unless one operand is a scalar. The result
    comes from `new_array(shape, dtype, layout)`, in the layout of the
    first array operand. With a trace sink, each element is reported as a
    read of every array operand (a, then b) followed by the result write.
    """
    a_arr = isinstance(a, ArrayValue)
    b_arr = isinstance(b, ArrayValue)
    f = scalar_op(op)
    if not a_arr and not b_arr:
        return f(a, b)
    av = as_view(a) if a_arr else None
    bv = as_view(b) if b_arr else None
    if av is not None and bv is not None and av.shape != bv.shape:
        raise ShapeError(f"elementwise shape mismatch: {av.shape} vs {bv.shape}")
    like = av if av is not None else bv
    dtype = "f64" if op == "/" else result_dtype((a, b))
    out = new_array(like.shape, dtype, like.layout)
    odata = out.data
    xs = elements(av) if av is not None else itertools.repeat(a)
    ys = elements(bv) if bv is not None else itertools.repeat(b)
    for k, x, y in zip(offsets(out), xs, ys):
        odata[k] = f(x, y)
    if trace is not None:
        _trace(trace, [v for v in (av, bv) if v is not None], out)
    return out


# ---------------------------------------------------------------------------
# Address traces and allocation
# ---------------------------------------------------------------------------

class Allocator:
    """Simulated address space with line-aligned bases and block reuse.

    A block returns to a size-keyed free list when its owning array is
    garbage collected; reference counting frees interpreter temporaries at
    their exact death points, so reuse never aliases two live arrays and
    the resulting traces model a real allocator's temporary recycling.
    Allocation order (and hence every address) is deterministic for a
    deterministic evaluation.
    """

    def __init__(self, align=64):
        self.align = align
        self.next = 0
        self.free_blocks = {}

    def allocate(self, arr, reclaim=True):
        """Give `arr` a line-aligned block. With `reclaim` the block returns
        to the free list when `arr` dies. Run inputs outlive the run and
        are placed without it: their finalizer would keep this allocator
        alive for as long as the input."""
        nbytes = max(1, arr.size) * ELEM_SIZE
        nbytes = (nbytes + self.align - 1) // self.align * self.align
        blocks = self.free_blocks.get(nbytes)
        if blocks:
            addr = blocks.pop()
        else:
            addr = self.next
            self.next += nbytes
        arr.addr = addr
        if reclaim:
            weakref.finalize(arr, self._release, nbytes, addr)
        return arr

    def _release(self, nbytes, addr):
        self.free_blocks.setdefault(nbytes, []).append(addr)


# ---------------------------------------------------------------------------
# Array file format
# ---------------------------------------------------------------------------

def load_array(text):
    """Parse the CLI array format: shape/dtype/layout headers, then
    whitespace-separated elements in layout order."""
    header = {}
    lines = text.strip().splitlines()
    body_start = 0
    for i, line in enumerate(lines):
        line = line.strip()
        if ":" in line and line.split(":", 1)[0] in ("shape", "dtype", "layout"):
            key, val = line.split(":", 1)
            header[key.strip()] = val.strip()
            body_start = i + 1
        else:
            break
    for key in ("shape", "dtype", "layout"):
        if key not in header:
            raise ShapeError(f"array file missing {key!r} header")
    dtype = header["dtype"]
    layout = {"row": "row", "col": "col"}.get(header["layout"])
    if layout is None:
        raise ShapeError(f"layout must be 'row' or 'col', got {header['layout']!r}")
    tokens = " ".join(lines[body_start:]).split()
    conv = int if dtype == "i64" else float
    try:
        shape = tuple(int(t) for t in header["shape"].split())
        data = [conv(t) for t in tokens]
    except ValueError as e:
        raise ShapeError(f"array file holds a non-number: {e}") from None
    return NdArray(shape, dtype, layout, data)


def dump_array(arr):
    v = materialize(arr) if isinstance(arr, View) else arr
    lines = [
        "shape: " + " ".join(str(s) for s in v.shape),
        f"dtype: {v.dtype}",
        f"layout: {v.layout}",
        " ".join(repr(x) if isinstance(x, float) else str(x) for x in v.data),
    ]
    return "\n".join(lines) + "\n"
