"""Dense n-dimensional arrays, zero-copy views, and tile decomposition.

Arrays hold int64 or float64 elements in row- or column-major order over a
flat buffer. Views (slices and tiles) share the buffer; a tile keeps the
rank of its base, a slice drops the sliced axis. Every element is 8 bytes
for address-trace purposes.

An NdArray is its own view: it has the view fields `root` (itself) and
`offset` (0), so every function here takes either without wrapping it.
A View carries its own dtype: a slice or a tile takes its source's, and
a value the interpreter builds at a place in an output keeps its own.

`NdArray(...)`, `NdArray.from_nested` and `load_array` take input from
outside the program and check all of it: every element is an int or a
float, and an int in an i64 array. `adopt` is the interpreter's way
to build an array: it takes a finished element list as is, with a shape,
dtype and layout the interpreter derived itself, and checks nothing.
Strides are worked out once per (shape, layout).

`runs` is the one enumeration of a view's elements: in row order (last
axis fastest) or col order (first axis fastest), runs of n elements a
fixed step apart in the buffer, from each of a list of start offsets.
`element_list` slices the buffer once per run (a dense array in that
order gives its own buffer), `offsets` and `addresses` give a range per
run in row order, and `interleave` zips the address ranges of several
views, as a copy or a leaf reads them. A rank-1 view's one run, the hot
case, is taken directly: as a slice (`span`) and as an address range.

`concat` and `elementwise` only build values: each puts its output's
element list together from element lists and `adopt`s it once, so no
array is zero-filled and then overwritten. They neither place their
output nor report a trace run; the interpreter (`semantics.Interpreter`)
does both. `write` copies a view's elements to a place in an element
list, one slice assignment per run, where the interpreter stacks arrays.

`Allocator` places arrays in a simulated address space. It takes a block
back when its array dies, through a `weakref.ref` callback, and keeps
the (size, address) of every live block in a dict of its own. A `Block`
is placed the same way: it stands for a temporary array whose elements
are kept elsewhere, and holds only its size and address.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import weakref

ELEM_SIZE = 8
# Every block starts at a multiple of this many bytes.
ALIGN = 64

DTYPES = ("i64", "f64")
LAYOUTS = ("row", "col")

# The Python types of an array's elements.
_ELEMENT_TYPES = frozenset((int, float))


class ShapeError(Exception):
    pass


@functools.lru_cache(maxsize=1024)
def make_strides(shape, layout):
    """Element strides for a dense array of `shape` (a tuple) in the given
    layout."""
    n = len(shape)
    strides = [0] * n
    acc = 1
    order = range(n - 1, -1, -1) if layout == "row" else range(n)
    for i in order:
        strides[i] = acc
        acc *= shape[i]
    return tuple(strides)


class NdArray:
    """Owning dense array, and its own view (`root`, `offset`).

    `addr` is the byte address of element 0 in the simulated address
    space; the evaluator's allocator assigns it, otherwise it is 0.
    """

    __slots__ = ("shape", "dtype", "layout", "data", "strides", "addr", "__weakref__")

    offset = 0

    def __init__(self, shape, dtype, layout="row", data=None, addr=0):
        shape = tuple(map(int, shape))
        _check_form(shape, dtype, layout)
        size = math.prod(shape)
        if data is None:
            data = [0 if dtype == "i64" else 0.0] * size
        elif len(data) != size:
            raise ShapeError(f"shape {shape} needs {size} elements, got {len(data)}")
        else:
            data = list(data)
            _check_elements(set(map(type, data)), dtype)
        self.shape = shape
        self.dtype = dtype
        self.layout = layout
        self.data = data
        self.strides = make_strides(shape, layout)
        self.addr = addr

    @property
    def root(self):
        # A property, not a slot: a slot holding `self` would be a reference
        # cycle, and the array would no longer die (and free its simulated
        # block) the moment its last reference goes.
        return self

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

    def to_nested(self):
        return _nested(self)

    @classmethod
    def from_nested(cls, nested, dtype=None, layout="row"):
        """The array of nested lists (or tuples) `nested`, whose shape is
        read along its first items. Ragged input, or an element that is not
        an int or a float, raises ShapeError. Without `dtype` it is f64 when
        any element is a float, else i64."""
        shape = []
        probe = nested
        while isinstance(probe, (list, tuple)):
            shape.append(len(probe))
            probe = probe[0] if probe else None
        shape = tuple(shape)
        if shape:
            data, kinds = [0] * math.prod(shape), set()
            _fill(data, kinds, nested, shape, make_strides(shape, layout), 0, 0)
        else:
            data, kinds = [nested], {type(nested)}
        _check_elements(kinds, dtype)
        if dtype is None:
            dtype = "f64" if float in kinds else "i64"
        _check_form(shape, dtype, layout)
        return adopt(shape, dtype, layout, data)

    @classmethod
    def scalar(cls, value):
        dtype = "f64" if isinstance(value, float) else "i64"
        return cls((), dtype, "row", [value])

    def __repr__(self):
        return f"NdArray(shape={self.shape}, dtype={self.dtype}, layout={self.layout})"


def _check_form(shape, dtype, layout):
    if min(shape, default=0) < 0:
        raise ShapeError(f"negative extent in shape {shape}")
    if dtype not in DTYPES:
        raise ShapeError(f"unknown dtype {dtype!r}")
    if layout not in LAYOUTS:
        raise ShapeError(f"unknown layout {layout!r}")


def _check_elements(kinds, dtype):
    """Raise ShapeError unless every type in `kinds` is int or float (a
    bool is neither), and int for `dtype` i64: an i64 array holds ints
    only, as every array the interpreter builds does, so the node kernels
    know an i64 operand's values are ints without a look (`kernels`)."""
    bad = kinds - _ELEMENT_TYPES
    if bad:
        names = ", ".join(sorted(k.__name__ for k in bad))
        raise ShapeError(f"elements must be int or float, got {names}")
    if dtype == "i64" and float in kinds:
        raise ShapeError("i64 elements must be int, got float")


def adopt(shape, dtype, layout, data):
    """An NdArray over `data`, the finished list of its elements in
    `layout` order, taken as is. Nothing is checked: `shape` must be a
    tuple of extents that `data` fills, `dtype` and `layout` valid names."""
    arr = NdArray.__new__(NdArray)
    arr.shape, arr.dtype, arr.layout, arr.addr = shape, dtype, layout, 0
    arr.data = data
    arr.strides = make_strides(shape, layout)
    return arr


def _fill(data, kinds, nested, shape, strides, depth, base):
    """Write the elements of `nested`, axis `depth` on, into `data` from
    offset `base`: one slice assignment per innermost list. Adds each
    element's type to `kinds`."""
    n, stride = shape[depth], strides[depth]
    if not isinstance(nested, (list, tuple)) or len(nested) != n:
        found = f"{len(nested)} items" if isinstance(nested, (list, tuple)) else "a scalar"
        raise ShapeError(f"ragged input: expected {n} items on axis {depth}, got {found}")
    if depth + 1 < len(shape):
        for i, item in enumerate(nested):
            _fill(data, kinds, item, shape, strides, depth + 1, base + i * stride)
        return
    row = set(map(type, nested))
    if any(issubclass(k, (list, tuple)) for k in row):
        raise ShapeError(f"ragged input: a list where axis {depth} holds scalars")
    kinds |= row
    data[base:base + n * stride:stride] = nested


class View:
    """Zero-copy window into an NdArray.

    Slicing removes an axis; tiling restricts extents but keeps rank.
    `offset` is a flat element offset; `strides` are per remaining axis;
    `dtype` is the view's own, not its root's (see the module docstring).
    """

    __slots__ = ("root", "offset", "shape", "strides", "dtype")

    def __init__(self, root, offset, shape, strides, dtype):
        self.root = root
        self.offset = offset
        self.shape = tuple(shape)
        self.strides = tuple(strides)
        self.dtype = dtype

    @property
    def rank(self):
        return len(self.shape)

    @property
    def size(self):
        return math.prod(self.shape)

    @property
    def layout(self):
        return self.root.layout

    def flat_index(self, idx):
        return self.offset + sum(i * s for i, s in zip(idx, self.strides))

    def get(self, idx):
        return self.root.data[self.flat_index(idx)]

    def to_nested(self):
        return _nested(self)

    def __repr__(self):
        return f"View(shape={self.shape}, dtype={self.dtype})"


def _nested(v):
    if len(v.shape) > 1:
        return [_nested(slice_axis(v, 0, i)) for i in range(v.shape[0])]
    items = list(elements(v))
    return items if v.shape else items[0]


def as_view(x):
    """`x` itself: an NdArray is its own view."""
    return x


ArrayValue = (NdArray, View)


def tile_view(x, axis, start, extent):
    """Same-rank window covering [start, start+extent) along `axis`."""
    if not 0 <= axis < len(x.shape):
        raise ShapeError(f"axis {axis} out of range for rank {len(x.shape)}")
    if start < 0 or start + extent > x.shape[axis]:
        raise ShapeError(f"tile [{start}, {start + extent}) exceeds extent {x.shape[axis]}")
    shape = list(x.shape)
    shape[axis] = extent
    return View(x.root, x.offset + start * x.strides[axis], shape, x.strides, x.dtype)


def decompose(x, axis, k):
    """Split `x` along `axis` into full tiles of extent k plus a straggler.

    Returns floor(L/k) same-rank tiles of extent k in order, followed by
    one straggler tile of extent L mod k iff k does not divide L.
    Concatenating the tiles along `axis` reproduces `x`.
    """
    if k <= 0:
        raise ShapeError(f"tile extent must be positive, got {k}")
    if not 0 <= axis < len(x.shape):
        raise ShapeError(f"axis {axis} out of range for rank {len(x.shape)}")
    root, offset, shape, strides, dtype = x.root, x.offset, x.shape, x.strides, x.dtype
    length = shape[axis]
    full, rem = divmod(length, k)
    step = k * strides[axis]
    tile = shape[:axis] + (k,) + shape[axis + 1:]
    tiles = [View(root, offset + t * step, tile, strides, dtype) for t in range(full)]
    if rem:
        tiles.append(View(root, offset + full * step,
                          shape[:axis] + (rem,) + shape[axis + 1:], strides, dtype))
    return tiles


def slice_axis(x, axis, i):
    """Rank-reducing slice: drop `axis`, fixing it at index i."""
    if not 0 <= axis < len(x.shape):
        raise ShapeError(f"axis {axis} out of range for rank {len(x.shape)}")
    if not 0 <= i < x.shape[axis]:
        raise ShapeError(f"index {i} out of bounds for extent {x.shape[axis]}")
    shape = x.shape[:axis] + x.shape[axis + 1:]
    strides = x.strides[:axis] + x.strides[axis + 1:]
    return View(x.root, x.offset + i * x.strides[axis], shape, strides, x.dtype)


def span(v):
    """The slice of `v.root.data` that holds rank-1 view `v`, in index order."""
    n, step = v.shape[0], v.strides[0]
    return slice(v.offset, v.offset + n * step, step) if n else slice(0, 0)


def runs(v, layout="row"):
    """(starts, n, step): the elements of view `v` in `layout` order (row:
    last axis fastest, col: first axis fastest) are runs of n elements,
    step apart in the buffer, from each flat offset in `starts` in turn.
    A rank-0 view is one run of one element, an empty view none."""
    shape, strides = v.shape, v.strides
    if layout != "row":
        shape, strides = shape[::-1], strides[::-1]
    if 0 in shape:
        return (), 0, 1
    starts = (v.offset,)
    for axis in range(len(shape) - 1):
        extent, stride = shape[axis], strides[axis]
        starts = [b + i * stride for b in starts for i in range(extent)]
    return (starts, shape[-1], strides[-1]) if shape else (starts, 1, 1)


def offsets(x):
    """Iterate the flat buffer offsets of every element of `x` in index
    order (last axis fastest): one range per run."""
    starts, n, step = runs(x)
    return itertools.chain.from_iterable(range(b, b + n * step, step) for b in starts)


def elements(x):
    """Iterate the element values of `x` in index order."""
    return map(x.root.data.__getitem__, offsets(x))


def addresses(x):
    """Iterate the byte addresses of every element of view `x` in index
    order: a range per run (`runs`), a rank-1 view's one range directly."""
    if len(x.shape) != 1:
        starts, n, step = runs(x)
        base, step = x.root.addr, step * ELEM_SIZE
        return itertools.chain.from_iterable(
            [range(base + b * ELEM_SIZE, base + b * ELEM_SIZE + n * step, step) for b in starts])
    start, step = x.root.addr + x.offset * ELEM_SIZE, x.strides[0] * ELEM_SIZE
    return range(start, start + x.shape[0] * step, step)


def interleave(ranges):
    """The items of the equally long iterables `ranges`, index by index:
    at each index, one of each in turn."""
    return ranges[0] if len(ranges) == 1 else itertools.chain.from_iterable(zip(*ranges))


def element_list(v, layout="row"):
    """The elements of view `v` in `layout` order as a list: one slice of
    the buffer per run (`runs`), a rank-1 view's `span`. A dense NdArray
    in `layout` gives its own `data`, which the caller must not change."""
    data = v.root.data
    if type(v) is NdArray and v.layout == layout:
        return data
    if len(v.shape) == 1:
        return data[span(v)]
    starts, n, step = runs(v, layout)
    return list(itertools.chain.from_iterable(data[b:b + n * step:step] for b in starts))


def write(data, offset, strides, v):
    """Write the elements of view `v` into the element list `data`, at the
    place of v's shape that starts at `offset` with `strides`: one slice
    assignment per run of the place (`runs`, which reads only a view's
    offset, shape and strides), taking v's elements in row order."""
    items = element_list(v)
    starts, n, step = runs(View(None, offset, v.shape, strides, v.dtype))
    for i, b in enumerate(starts):
        data[b:b + n * step:step] = items[i * n:i * n + n]


def concat(parts, axis):
    """The dense row-major array of arrays/views `parts` concatenated along
    `axis`, after checking their ranks and extents. For every index of the
    axes before `axis`, the output's element list takes each part's
    elements from `axis` on in turn; a dense row-major part gives slices of
    its own `data`."""
    if not parts:
        raise ShapeError("cannot concatenate zero parts")
    first = parts[0].shape
    rank = len(first)
    if not 0 <= axis < rank:
        raise ShapeError(f"axis {axis} out of range for rank {rank}")
    for v in parts:
        if len(v.shape) != rank:
            raise ShapeError("rank mismatch in concat")
        for a in range(rank):
            if a != axis and v.shape[a] != first[a]:
                raise ShapeError(f"extent mismatch on axis {a} in concat")
    extent = sum(v.shape[axis] for v in parts)
    shape = first[:axis] + (extent,) + first[axis + 1:]
    lists = [element_list(v) for v in parts]
    outer = math.prod(first[:axis])
    sizes = [math.prod(v.shape[axis:]) for v in parts]
    if outer == 1:
        data = list(itertools.chain.from_iterable(lists))
    else:
        data = list(itertools.chain.from_iterable(
            items[o * size:(o + 1) * size] for o in range(outer)
            for items, size in zip(lists, sizes)))
    return adopt(shape, result_dtype(parts), "row", data)


# ---------------------------------------------------------------------------
# Scalar and elementwise arithmetic
# ---------------------------------------------------------------------------

def result_dtype(values):
    """'f64' when any value is a float scalar or an f64 array, else 'i64'."""
    for x in values:
        if x.dtype == "f64" if isinstance(x, ArrayValue) else isinstance(x, float):
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


def match_shapes(a_shape, b_shape):
    """Raise ShapeError unless two array operands of an elementwise
    operation have the same shape."""
    if a_shape != b_shape:
        raise ShapeError(f"elementwise shape mismatch: {a_shape} vs {b_shape}")


def elementwise_dtype(op, a, b):
    """The dtype of `a OP b` over arrays or scalars: `/` always gives f64."""
    return "f64" if op == "/" else result_dtype((a, b))


def elementwise(op, a, b):
    """Apply a binary operator over arrays/scalars with scalar broadcast.

    Shapes must match exactly unless one operand is a scalar. The result
    is in the layout of the first array operand: its elements are computed
    in that layout's order from one `element_list` per array operand.
    """
    a_arr = isinstance(a, ArrayValue)
    b_arr = isinstance(b, ArrayValue)
    f = scalar_op(op)
    if not a_arr and not b_arr:
        return f(a, b)
    if a_arr and b_arr:
        match_shapes(a.shape, b.shape)
    like = a if a_arr else b
    dtype = elementwise_dtype(op, a, b)
    layout = like.layout
    xs = element_list(a, layout) if a_arr else itertools.repeat(a)
    ys = element_list(b, layout) if b_arr else itertools.repeat(b)
    return adopt(like.shape, dtype, layout, list(map(f, xs, ys)))


# ---------------------------------------------------------------------------
# Address traces and allocation
# ---------------------------------------------------------------------------

class Block:
    """An address-only stand-in for a temporary array of `size` elements:
    the allocator places it (`addr`) and takes its block back when it
    dies, as for an array."""

    __slots__ = ("size", "addr", "__weakref__")

    def __init__(self, size):
        self.size, self.addr = size, 0


class Allocator:
    """Simulated address space with 64-byte-aligned bases and block reuse.
    The alignment does not follow the cache model's line size: under a
    128-byte line, two blocks can share a line.

    A block returns to a size-keyed free list when its owning array dies,
    through a `weakref.ref` callback that pops the block from `live`.
    Reference counting frees interpreter temporaries at their exact death
    points, so reuse never aliases two live arrays and the resulting
    traces model a real allocator's temporary recycling. Allocation order
    (and hence every address) is deterministic for a deterministic
    evaluation. A live array keeps its allocator alive through the
    callback; once the last one dies, nothing does.
    """

    def __init__(self):
        self.next = 0
        self.free_blocks = {}
        self.live = {}  # weakref.ref to a reclaimable array -> (size, address)

    def allocate(self, arr, reclaim=True):
        """Give `arr` a 64-byte-aligned block. With `reclaim` the block returns
        to the free list when `arr` dies. Run inputs outlive the run and
        are placed without it: their reference would keep this allocator
        alive for as long as the input."""
        nbytes = max(1, arr.size) * ELEM_SIZE
        nbytes = (nbytes + ALIGN - 1) // ALIGN * ALIGN
        blocks = self.free_blocks.get(nbytes)
        if blocks:
            addr = blocks.pop()
        else:
            addr = self.next
            self.next += nbytes
        arr.addr = addr
        if reclaim:
            self.live[weakref.ref(arr, self._release)] = (nbytes, addr)
        return arr

    def _release(self, ref):
        nbytes, addr = self.live.pop(ref)
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
