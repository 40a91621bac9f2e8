"""Differential tests of the evaluator's flat-buffer fast paths.

Stacking, concatenating and elementwise arithmetic build their output's
element list from one slice of the flat buffer per rank-1 view (or per
run along the last axis) where the reference below zero-fills the output
and then walks every element's offset; a callee that is a nest of
Map, Reduce and Scan runs through its kernel where the reference makes one
call per row. Both must give the same values (element by element, int or
float), the same trace events, the same simulated addresses and the same
counters. An NdArray must also behave as the View over all of itself.
"""

import collections
import dataclasses
import functools
import itertools
import math
import operator
import random

import pytest

from tilepar import semantics
from tilepar.ir import Program, Return, body_shape, desugar_allpairs, parse_program
from tilepar.ndarray import (
    ELEM_SIZE, LAYOUTS, Allocator, NdArray, View, adopt, as_view, decompose, element_list,
    result_dtype, scalar_op, slice_axis, tile_view,
)
from tilepar.semantics import EvalConfig, EvalError, Interpreter, TraceSink, eval_program
from tilepar.tiling import register_tile, tile_program

import programs
from arrays import counting_build


def index_offsets(v):
    """The flat offset of every element of `v` in index order (last axis
    fastest), one index at a time: the walk the references below use,
    which shares no code with the run enumeration under test."""
    return [v.flat_index(idx) for idx in itertools.product(*map(range, v.shape))]


def index_values(v):
    """The elements of `v` in index order, one index at a time."""
    return [v.root.data[o] for o in index_offsets(v)]


def reference_copy(src, dst, sink):
    """The per-element copy: one read of `src` and one write of `dst` per
    element, in index order."""
    sdata, ddata = src.root.data, dst.root.data
    for i, j in zip(index_offsets(src), index_offsets(dst)):
        ddata[j] = sdata[i]
        if sink is not None:
            sink.run((src.root.addr + i * ELEM_SIZE,), "R")
            sink.run((dst.root.addr + j * ELEM_SIZE,), "W")
    return dst


def zeros(interp, shape, dtype, layout="row"):
    """A zero-filled array, placed by the interpreter."""
    zero = 0 if dtype == "i64" else 0.0
    return interp._placed(adopt(shape, dtype, layout, [zero] * math.prod(shape)))


def reference_stack(interp, values, axis):
    """_stack as the per-element path computes it."""
    sink = interp.config.trace
    if not any(isinstance(x, (NdArray, View)) for x in values):
        out = zeros(interp, (len(values),), result_dtype(values))
        out.data[:] = values
        for i in range(len(values)):
            sink.run((out.addr + i * ELEM_SIZE,), "W")
        return out
    shape = values[0].shape
    out = zeros(interp, shape[:axis] + (len(values),) + shape[axis:], result_dtype(values))
    for j, x in enumerate(values):
        reference_copy(x, slice_axis(out, axis, j), sink)
    return out


def reference_concat(interp, parts, axis):
    """concat as the per-element path computes it: each part copied in
    turn into its tile of a zero-filled output."""
    shape = list(parts[0].shape)
    shape[axis] = sum(v.shape[axis] for v in parts)
    out = zeros(interp, tuple(shape), result_dtype(parts))
    base = 0
    for v in parts:
        reference_copy(v, tile_view(out, axis, base, v.shape[axis]), interp.config.trace)
        base += v.shape[axis]
    return out


def reference_elementwise(interp, op, a, b):
    """elementwise as the per-element path computes it: a zero-filled
    output in the first array operand's layout, written at each element's
    offset, then per element a read of every array operand and the write."""
    sink, f = interp.config.trace, scalar_op(op)
    arrays = [v for v in (a, b) if isinstance(v, (NdArray, View))]
    like = arrays[0]
    out = zeros(interp, like.shape, "f64" if op == "/" else result_dtype((a, b)), like.layout)
    operands = [index_values(v) if isinstance(v, (NdArray, View)) else itertools.repeat(v)
                for v in (a, b)]
    for k, x, y in zip(index_offsets(out), *operands):
        out.data[k] = f(x, y)
    reads = zip(*([v.root.addr + o * ELEM_SIZE for o in index_offsets(v)] for v in arrays))
    for k, addrs in zip(index_offsets(out), reads):
        for addr in addrs:
            sink.run((addr,), "R")
        sink.run((out.addr + k * ELEM_SIZE,), "W")
    return out


def in_layout_order(v, layout):
    """`v` as a view whose index order is `v`'s `layout` order."""
    if layout == "row":
        return v
    return View(v.root, v.offset, v.shape[::-1], v.strides[::-1], v.dtype)


def traced_interpreter(program=Program({})):
    """An interpreter with a trace sink and a simulated address space that
    already has live and freed blocks of several sizes."""
    interp = Interpreter(program, EvalConfig(trace=TraceSink()))
    interp._allocator = Allocator()
    interp.keep = [zeros(interp, (n,), "i64") for n in (3, 9, 20, 5)]
    del interp.keep[1:3]  # frees a 128- and a 192-byte block
    return interp


def typed(data):
    return [(type(x), x) for x in data]


def random_array(shape, dtype, layout, seed):
    rng = random.Random(seed)
    data = [rng.randrange(-50, 50) for _ in range(math.prod(shape))]
    if dtype == "f64":
        data = [x / 4 for x in data]
    return NdArray(shape, dtype, layout, data)


def matrix(rows, cols, dtype, layout, seed):
    return random_array((rows, cols), dtype, layout, seed)


def rank1_rows(base, tile):
    """Rank-1 views of `base`: its rows and columns, and the rows and
    columns of its tiles (stragglers included) along both axes."""
    views = []
    for axis in (0, 1):
        views.append([slice_axis(base, axis, i) for i in range(base.shape[axis])])
        for t in decompose(base, 1 - axis, tile):
            views.append([slice_axis(t, axis, i) for i in range(t.shape[axis])])
    return views


BASES = [
    matrix(7, 5, "i64", "col", 1),
    matrix(6, 9, "f64", "row", 2),
    matrix(5, 5, "i64", "row", 3),
    matrix(1, 4, "f64", "col", 4),
]


def stack_cases():
    for base in BASES:
        for rows in rank1_rows(base, 2):
            for axis in (0, 1):
                yield rows, axis
    # i64 rows promoted by one f64 row, in each position.
    ints = [slice_axis(BASES[0], 0, i) for i in range(3)]
    floats = [slice_axis(matrix(5, 2, "f64", "col", 9), 1, i) for i in range(2)]
    for axis in (0, 1):
        yield ints + floats[:1], axis
        yield floats[1:] + ints, axis
    # Rank-2 values, and an NdArray row among views, take the copy path.
    tiles = decompose(BASES[1], 0, 2)[:3]
    for axis in (0, 1, 2):
        yield tiles, axis
    vector = NdArray((5,), "i64", "row", [9, 8, 7, 6, 5])
    for axis in (0, 1):
        yield [vector, slice_axis(BASES[0], 0, 2)], axis
    # Scalars: i64, f64, mixed, a bool, and none.
    for scalars in ([3, -1, 4], [0.5, 2.25], [1, 2.5, 3], [True, 2], [2, False, 1.5], []):
        yield scalars, 0
    # Joined along a new axis (`ndarray.join`): rank-3 tiles, col-major
    # arrays, i64 tiles among f64 ones, a single value and values with no
    # element; rank-1 rows of width 0 take the row path.
    cube = random_array((4, 3, 5), "i64", "row", 33)
    cols = [random_array((3, 4), "f64", "col", seed) for seed in (34, 35, 36)]
    ints = decompose(random_array((6, 4), "i64", "row", 37), 0, 3)
    empty = [NdArray((2, 0), "i64"), NdArray((2, 0), "f64", "col")]
    for axis in range(4):
        yield decompose(cube, 1, 1), axis
    for axis in range(3):
        yield cols, axis
        yield [ints[0], cols[0], ints[1]], axis
        yield empty, axis
    for axis in (0, 2):
        yield decompose(BASES[1], 1, 4)[:1], axis
    for axis in (0, 1):
        yield [NdArray((0,), "i64"), slice_axis(NdArray((0, 3), "f64"), 1, 2)], axis


@pytest.mark.parametrize("values,axis", list(stack_cases()))
def test_stack_matches_per_element_copy(values, axis):
    fast, slow = traced_interpreter(), traced_interpreter()
    out = fast._stack(values, axis)
    ref = reference_stack(slow, values, axis)
    assert (out.shape, out.dtype, out.layout) == (ref.shape, ref.dtype, ref.layout)
    assert typed(out.data) == typed(ref.data)
    assert out.addr == ref.addr
    assert fast.config.trace.events == slow.config.trace.events
    assert (fast._allocator.next, fast._allocator.free_blocks) == \
           (slow._allocator.next, slow._allocator.free_blocks)


def test_stack_untraced_matches_traced():
    # One evaluator: the untraced run takes the same fast path.
    untraced = Interpreter(Program({}))
    for values, axis in stack_cases():
        traced = traced_interpreter()._stack(values, axis)
        assert typed(untraced._stack(values, axis).data) == typed(traced.data)


def test_interpreter_arrays_equal_checked_ones():
    """Arrays the interpreter builds from their finished elements
    (`ndarray.adopt`) have the fields that the checked constructor gives
    the same elements."""
    interp = Interpreter(Program({}))
    m, f = matrix(4, 3, "i64", "col", 11), matrix(2, 3, "f64", "row", 12)
    rows, nested = [slice_axis(m, 0, i) for i in range(4)], m.to_nested()
    column = slice_axis(m, 1, 0)
    cases = [
        (interp._stack([3, -1, 4]), NdArray((3,), "i64", "row", [3, -1, 4])),
        (interp._stack([1, 2.5]), NdArray((2,), "f64", "row", [1, 2.5])),
        (interp._stack([]), NdArray((0,), "i64", "row", [])),
        (interp._stack(rows, 0), NdArray((4, 3), "i64", "row", sum(nested, []))),
        (interp._stack(rows, 1), NdArray((3, 4), "i64", "row", sum(map(list, zip(*nested)), []))),
        (interp._elementwise("*", column, 0.5),
         NdArray((4,), "f64", "col", [x * 0.5 for x in column.to_nested()])),
        (interp._elementwise("+", slice_axis(f, 0, 1), rows[2]),
         NdArray((3,), "f64", "row", [x + y for x, y in zip(f.to_nested()[1], nested[2])])),
    ]
    for got, want in cases:
        assert type(got) is NdArray
        assert (got.shape, got.strides, got.dtype, got.layout, typed(got.data), got.addr) == \
               (want.shape, want.strides, want.dtype, want.layout, typed(want.data), want.addr)


def test_stack_rejects_mixed_and_unequal_values():
    interp = traced_interpreter()
    row = slice_axis(BASES[0], 0, 0)
    with pytest.raises(EvalError, match="scalars with arrays"):
        interp._stack([row, 3])
    with pytest.raises(EvalError, match="scalars with arrays"):
        interp._stack([3, row])
    with pytest.raises(EvalError, match="cannot stack shapes"):
        interp._stack([row, slice_axis(BASES[0], 1, 0)])


def copy_cases():
    row_major, col_major = matrix(6, 8, "i64", "row", 5), matrix(6, 8, "f64", "col", 6)
    sources = [slice_axis(row_major, 0, 2), slice_axis(col_major, 0, 3),
               decompose(slice_axis(col_major, 1, 1), 0, 4)[1],
               NdArray((8,), "i64", "row", list(range(8)))]
    for src in sources:
        n = src.shape[0]
        contiguous = NdArray((n,), "f64")
        strided = slice_axis(NdArray((n, 3), "i64", "row"), 1, 1)
        strided_col = slice_axis(NdArray((2, n), "i64", "col"), 0, 1)
        for dst in (contiguous, strided, strided_col):
            yield src, dst
    # Rank 2 copies one run along the last axis at a time; rank 0 is one
    # element, and an empty view copies nothing.
    yield decompose(col_major, 1, 3)[2], NdArray((6, 2), "i64", "row")
    yield decompose(row_major, 0, 4)[1], slice_axis(NdArray((2, 3, 8), "f64", "col"), 1, 2)
    yield NdArray.scalar(4), NdArray.scalar(0.5)
    yield NdArray((0, 3), "i64"), NdArray((0, 3), "i64", "col")


@pytest.mark.parametrize("src,dst", list(copy_cases()))
def test_copy_matches_per_element_copy(src, dst):
    # A copy reads `src` out with `element_list`, in the layout order of
    # what it goes into, and the interpreter's `_stack` writes it into its
    # output (here a stack of one along a new axis 0). Both give what the
    # per-element copy gives: into `dst`, and into a zero-filled output.
    alloc = Allocator()
    for x in (src.root, dst.root):
        if x.addr == 0:
            alloc.allocate(x, reclaim=False)
    reference_copy(src, dst, None)
    for layout in LAYOUTS:
        assert typed(element_list(src, layout)) == \
               typed(index_values(in_layout_order(dst, layout)))
    fast, slow = traced_interpreter(), traced_interpreter()
    out = fast._stack([src], 0)
    ref = zeros(slow, (1,) + src.shape, src.dtype)
    reference_copy(src, slice_axis(ref, 0, 0), slow.config.trace)
    assert (out.shape, out.dtype, out.layout, typed(out.data), out.addr) == \
           (ref.shape, ref.dtype, ref.layout, typed(ref.data), ref.addr)
    assert fast.config.trace.events == slow.config.trace.events


def row_major(v):
    """A dense row-major NdArray holding the elements of `v`."""
    return NdArray(v.shape, v.dtype, "row", index_values(v))


def concat_cases():
    """(parts, axis): tiles (stragglers included) and slices of row- and
    col-major arrays of ranks 1-3 along every axis, the same tiles as dense
    row-major arrays, a single part, parts of zero extent, and i64 parts
    among f64 ones."""
    bases = [random_array((9,), "f64", "col", 41), matrix(7, 5, "i64", "col", 42),
             matrix(6, 4, "f64", "row", 43), random_array((4, 3, 5), "i64", "row", 44),
             random_array((3, 4, 2), "f64", "col", 45)]
    for base in bases:
        for axis in range(base.rank):
            for k in (2, 3):
                yield decompose(base, axis, k), axis
                yield [row_major(t) for t in decompose(base, axis, k)], axis
            yield [base], axis
            yield [tile_view(base, axis, 1, 0), base, tile_view(base, axis, 0, 0)], axis
        if base.rank > 1:
            for axis in range(base.rank - 1):
                yield [slice_axis(base, 0, i) for i in range(base.shape[0])], axis
    # Parts with no element: extent 0 off the joined axis, and all parts.
    for axis in (0, 1):
        yield [NdArray((2, 0), "i64"), NdArray((2, 0), "f64", "col")], axis
    yield [NdArray((0, 3), "i64", "col"), NdArray((0, 3), "i64")], 0
    # i64 parts among f64 ones keep their int elements.
    ints, floats = matrix(4, 6, "i64", "row", 46), matrix(4, 6, "f64", "col", 47)
    for axis in (0, 1):
        yield decompose(ints, axis, 4)[:1] + decompose(floats, axis, 4) + \
            decompose(ints, axis, 4)[1:], axis


def placed(parts):
    """Give each part's array that has no address one, outside the
    interpreter's address space."""
    alloc = Allocator()
    alloc.next = 1 << 20
    for v in parts:
        if v.root.addr == 0:
            alloc.allocate(v.root, reclaim=False)


@pytest.mark.parametrize("parts,axis", list(concat_cases()))
def test_concat_matches_per_element_copy(parts, axis):
    placed(parts)
    fast, slow = traced_interpreter(), traced_interpreter()
    out = fast._join(parts, axis)
    ref = reference_concat(slow, parts, axis)
    assert type(out) is NdArray
    assert (out.shape, out.strides, out.dtype, out.layout) == \
           (ref.shape, ref.strides, ref.dtype, ref.layout)
    assert typed(out.data) == typed(ref.data)
    assert out.addr == ref.addr
    assert fast.config.trace.events == slow.config.trace.events
    assert (fast._allocator.next, fast._allocator.free_blocks) == \
           (slow._allocator.next, slow._allocator.free_blocks)


def elementwise_cases():
    """(a, b) of rank 0, 2 and 3: row- and col-major arrays, tiles and
    slices of them, a scalar on either side, mixed dtypes and layouts, and
    operands with no element."""
    row3 = random_array((4, 3, 5), "i64", "row", 51)
    col3 = random_array((4, 3, 5), "f64", "col", 52)
    col2, row2 = matrix(7, 5, "i64", "col", 53), matrix(5, 7, "f64", "row", 54)
    yield row3, col3
    yield col3, row3
    yield col3, 3
    yield 0.5, row3
    for t in (0, 1):  # full tiles, then stragglers
        yield decompose(col3, 1, 2)[t], decompose(row3, 1, 2)[t]
    yield slice_axis(row3, 1, 2), slice_axis(col3, 1, 0)
    yield col2, row_major(col2)
    yield decompose(col2, 0, 3)[2], slice_axis(decompose(random_array((2, 1, 5), "f64", "col", 55),
                                                         0, 1)[1], 0, 0)
    yield tile_view(col2, 1, 1, 3), 2
    yield NdArray.scalar(4), NdArray.scalar(0.5)
    yield NdArray((2, 0, 3), "i64", "col"), NdArray((2, 0, 3), "f64")


@pytest.mark.parametrize("a,b", list(elementwise_cases()))
def test_elementwise_matches_per_element_walk(a, b):
    placed([v for v in (a, b) if isinstance(v, (NdArray, View))])
    for op in ("+", "-", "*", "/", "min", "max"):
        divisor = index_values(b) if isinstance(b, (NdArray, View)) else [b]
        if op == "/" and 0 in divisor:
            continue
        fast, slow = traced_interpreter(), traced_interpreter()
        out = fast._elementwise(op, a, b)
        ref = reference_elementwise(slow, op, a, b)
        assert (out.shape, out.strides, out.dtype, out.layout) == \
               (ref.shape, ref.strides, ref.dtype, ref.layout)
        assert typed(out.data) == typed(ref.data), op
        assert out.addr == ref.addr
        assert fast.config.trace.events == slow.config.trace.events


def test_ndarray_is_its_own_view():
    for base in BASES:
        view = View(base, 0, base.shape, base.strides, base.dtype)
        assert base.root is base and base.offset == 0 and as_view(base) is base
        assert base.to_nested() == view.to_nested()
        for axis in range(2):
            for i in range(base.shape[axis]):
                a, b = slice_axis(base, axis, i), slice_axis(view, axis, i)
                assert (a.root, a.offset, a.shape, a.strides) == \
                       (b.root, b.offset, b.shape, b.strides)
            for k in (1, 2, 3):
                for a, b in zip(decompose(base, axis, k), decompose(view, axis, k),
                                strict=True):
                    assert (a.root, a.offset, a.shape, a.strides) == \
                           (b.root, b.offset, b.shape, b.strides)
    scalar = NdArray.scalar(2.5)
    assert scalar.to_nested() == 2.5


def test_ndarray_dies_with_its_last_reference():
    # `root` must not be a reference cycle: the simulated block is freed
    # the moment the array goes, without waiting for the cycle collector.
    alloc = Allocator()
    arr = alloc.allocate(NdArray((4,), "i64"))
    assert arr.root is arr
    del arr
    assert alloc.free_blocks == {64: [0]}


def test_elementary_reads_match_offsets():
    # A leaf's kernel reads each rank-1 operand with one slice, and reports
    # one read per operand per index, in argument order.
    program = parse_program("fn add2(a, b) { return a + b; } fn main(x) { return x; }")
    interp = traced_interpreter(program)
    col, row = matrix(7, 5, "i64", "col", 7), matrix(5, 5, "f64", "row", 8)
    for x in (col, row):
        interp._allocator.allocate(x, reclaim=False)
    pairs = [(slice_axis(col, 0, 1), slice_axis(row, 0, 4)),  # strided, contiguous
             (slice_axis(row, 1, 2), decompose(slice_axis(col, 1, 3), 0, 5)[0]),
             # Stragglers of a column tile and of a row tile.
             (decompose(slice_axis(col, 1, 0), 0, 3)[2], slice_axis(decompose(row, 0, 4)[1], 1, 1))]
    for a, b in pairs:
        interp.config.trace.events.clear()
        kernel = interp._kernel(interp._function("add2"), (1, 1))
        values = kernel([a, b], (0, 0), a.shape[0], {})
        assert values == [x + y for x, y in zip(index_values(a), index_values(b))]
        reads = [[v.root.addr + o * ELEM_SIZE for o in index_offsets(v)] for v in (a, b)]
        assert interp.config.trace.events == [(addr, "R") for pair in zip(*reads) for addr in pair]


def test_rank1_elementwise_matches_per_element_walk():
    # A rank-1 result is filled with one slice per array operand; the
    # reference reads every element through its offset.
    col, row = matrix(7, 5, "i64", "col", 21), matrix(5, 6, "f64", "row", 22)
    alloc = Allocator()
    for x in (col, row):
        alloc.allocate(x, reclaim=False)
    strided, contiguous = slice_axis(col, 0, 2), slice_axis(row, 1, 3)
    straggler, empty = decompose(slice_axis(col, 1, 4), 0, 3)[2], NdArray((0,), "i64")
    for a, b in ((strided, contiguous), (contiguous, 3), (2.5, straggler), (empty, empty)):
        arrays = [v for v in (a, b) if isinstance(v, (NdArray, View))]
        for op in ("+", "-", "*", "/", "min", "max"):
            sink = TraceSink()
            interp = Interpreter(Program({}), EvalConfig(trace=sink))
            interp._allocator = alloc
            out = interp._elementwise(op, a, b)
            operands = [index_values(v) if isinstance(v, (NdArray, View)) else itertools.repeat(v)
                        for v in (a, b)]
            assert typed(out.data) == typed(list(map(scalar_op(op), *operands)))
            expected = []
            reads = zip(*([v.root.addr + o * ELEM_SIZE for o in index_offsets(v)] for v in arrays))
            for i, addrs in enumerate(reads):
                expected += [(r, "R") for r in addrs] + [(out.addr + i * ELEM_SIZE, "W")]
            assert sink.events == expected


# -- nests under Map ----------------------------------------------------------
#
# A Map whose callee is a nest (see `ir.body_shape`), such as a row fold
# `return reduce(G, combine=C, init=K, params; axes=[0, ...])`, runs through
# the callee's kernel, without one call per row. Each program below is
# compared with a twin whose `fold` starts with a no-op `r = x;`:
# `body_shape` does not describe the twin, so it makes one generic call per
# row.

FOLD_LIB = """
fn ident(x) { return x; }
fn add2(a, b) { return a + b; }
fn max2(a, b) { return a max b; }
fn mul2(a, b) { return a * b; }
fn sq(x) { return x * x; }
fn add2b(a, b) { c = a + b; return c; }
fn rowsum(y) { return reduce(ident, combine=add2, init=0, y; axes=[0]); }
fn rowscan(y) { return scan(sq, combine=max2, init=-inf, y; axes=[0]); }
fn rowsq(y) { return map(sq, y; axes=[0]); }
fn rowmul(a, b) { return map(mul2, a, b; axes=[0, 0]); }
"""


def fold_program(params, body, main, uses="", internal=False):
    """FOLD_LIB plus `fold(params) {uses} { body }` and `main`, and the
    twin whose fold first runs `r = <first param>;`; `internal` parses the
    internal dialect."""
    first = params.split(",")[0].strip()
    return tuple(parse_program(FOLD_LIB + f"fn fold({params}) {uses} {{ {pre}{body} }}\n" + main,
                               allow_internal=internal)
                 for pre in ("", f"r = {first}; "))


def observe(program, args, calls, traced=True, tile_sizes=None):
    """Value (or EvalError text), trace events, counters and calls of
    `fold` of one run of `program` at `tile_sizes`."""
    calls.clear()
    config = EvalConfig(tile_sizes=dict(tile_sizes or {}), trace=TraceSink() if traced else None)
    try:
        value = Interpreter(program, config).run(args)
        out = (value.shape, value.dtype, value.addr, typed(value.data)) \
            if isinstance(value, NdArray) else typed([value])
    except EvalError as exc:
        out = str(exc)
    events = config.trace.events if traced else None
    return out, events, config.counters, calls["fold"]


def assert_same_as_twin(pair, args, monkeypatch, fused):
    """Values, events, addresses and counters of `pair` agree, traced and
    untraced; the first makes no per-row fold call when `fused`."""
    calls = counting_build(monkeypatch)
    for traced in (True, False):
        fast, slow = (observe(p, args, calls, traced) for p in pair)
        assert fast[:3] == slow[:3]
        assert slow[3] > 0 and fast[3] == (0 if fused else slow[3])
    return fast[0]


def views_of(base, k):
    """`base`, and its last tile along each axis at tile size `k`."""
    return [base] + [decompose(base, axis, k)[-1] for axis in range(len(base.shape))]


ONE_OPERAND = [
    ("reduce(ident, combine=add2, init=0, x; axes=[0]);", True),
    ("reduce(ident, combine=max2, init=-inf, x; axes=[0]);", True),
    ("reduce(sq, combine=add2, init=0, x; axes=[0]);", True),
    ("reduce(ident, combine=add2b, init=0, x; axes=[0]);", False),  # non-elementary combine
    ("reduce(ident, combine=add2, init=1 - 1, x; axes=[0]);", False),  # init not a Const
]


@pytest.mark.parametrize("body,fused", ONE_OPERAND)
@pytest.mark.parametrize("axis", [0, 1])
def test_row_fold_matches_generic_call_per_row(body, fused, axis, monkeypatch):
    pair = fold_program("x", f"return {body}",
                        f"fn main(X) {{ return map(fold, X; axes=[{axis}]); }}")
    bases = [matrix(7, 5, "i64", "col", 11), matrix(6, 9, "f64", "row", 12),
             matrix(5, 4, "f64", "col", 13)]
    for base in bases:
        base.addr = 4096
        for x in views_of(base, 3):
            assert_same_as_twin(pair, [x], monkeypatch, fused)


def test_row_fold_of_empty_rows_is_init(monkeypatch):
    pair = fold_program("x", "return reduce(ident, combine=add2, init=7, x; axes=[0]);",
                        "fn main(X) { return map(fold, X; axes=[0]); }")
    # Rows of no element take the generic path.
    for dtype in ("i64", "f64"):
        x = NdArray((3, 0), dtype, "col")
        value = assert_same_as_twin(pair, [x], monkeypatch, False)
        assert value == ((3,), "i64", 0, typed([7, 7, 7]))
    # No rows at all: the Map's own empty result, before any fold.
    calls = counting_build(monkeypatch)
    fast, slow = (observe(p, [NdArray((0, 4), "f64")], calls) for p in pair)
    assert fast == slow and fast[0][:2] == ((0,), "f64")


def test_row_fold_of_f64_rows_with_int_init(monkeypatch):
    pair = fold_program("x", "return reduce(ident, combine=add2, init=0, x; axes=[0]);",
                        "fn main(X) { return map(fold, X; axes=[1]); }")
    x = matrix(4, 6, "f64", "row", 14)
    value = assert_same_as_twin(pair, [x], monkeypatch, True)
    assert value[1] == "f64"


@pytest.mark.parametrize("axes", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_two_operand_row_fold(axes, monkeypatch):
    pair = fold_program("x, y", "return reduce(mul2, combine=add2, init=0, x, y; axes=[0, 0]);",
                        f"fn main(X, Y) {{ return map(fold, X, Y; axes=[{axes[0]}, {axes[1]}]); }}")
    x = matrix(6, 4, "i64", "row", 15)
    y = matrix(*((6, 4) if axes[0] == axes[1] else (4, 6)), "f64", "col", 16)
    for a, b in ((x, y), (decompose(x, 1 - axes[0], 3)[-1], decompose(y, 1 - axes[1], 3)[-1])):
        a.root.addr, b.root.addr = 1024, 8192
        assert_same_as_twin(pair, [a, b], monkeypatch, True)


def test_row_fold_rejects_unequal_row_extents(monkeypatch):
    pair = fold_program("x, y", "return reduce(mul2, combine=add2, init=0, x, y; axes=[0, 0]);",
                        "fn main(X, Y) { return map(fold, X, Y; axes=[0, 0]); }")
    x, y = matrix(3, 4, "i64", "row", 17), matrix(3, 5, "i64", "col", 18)
    calls = counting_build(monkeypatch)
    fast, slow = (observe(p, [x, y], calls) for p in pair)
    assert fast[:3] == slow[:3]
    assert fast[0] == "Reduce sliced extents differ: 4 vs 5"
    assert fast[2].bounds_checks == 6  # the Map's own checks only


@pytest.mark.parametrize("axes", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_reduce_node_rows_of_unequal_extents_fail_as_generic(axes, monkeypatch):
    # The node checks its rows' extents once per call, from the operands'
    # shapes, and raises what the generic twin's first row raises.
    pair = fold_program("x, y", "return reduce(mul2, combine=add2, init=0, x, y; axes=[0, 0]);",
                        f"fn main(X, Y) {{ return map(fold, X, Y; axes=[{axes[0]}, {axes[1]}]); }}")
    x = matrix(*((3, 4) if axes[0] == 0 else (4, 3)), "i64", "row", 20)
    y = matrix(*((3, 5) if axes[1] == 0 else (5, 3)), "f64", "col", 21)
    x.addr, y.addr = 1024, 8192
    value = assert_same_as_twin(pair, [x, y], monkeypatch, True)
    assert value == "Reduce sliced extents differ: 4 vs 5"
    # The same for tiles whose rows are strided spans of their roots.
    tiles = [decompose(v, 1 - axis, 3)[-1] for v, axis in zip((x, y), axes)]
    value = assert_same_as_twin(pair, tiles, monkeypatch, True)
    assert value == "Reduce sliced extents differ: 1 vs 2"


def test_reduce_node_failing_row_reports_the_rows_read(monkeypatch):
    # A reduce node reports all its rows' reads as one run; when row 2
    # divides by zero, that run holds rows 0 to 2, as the generic twin's
    # calls read them, and the bounds checks count those rows.
    pair = fold_program("x", "return reduce(ident, combine=div2, init=1, x; axes=[0]);",
                        "fn div2(a, b) { return a / b; }\n"
                        "fn main(X) { return map(fold, X; axes=[0]); }")
    x = NdArray((4, 3), "i64", "col", [1, 2, 3, 4, 5, 6, 0, 8, 9, 1, 1, 1])
    value = assert_same_as_twin(pair, [x], monkeypatch, True)
    assert value == "arithmetic error: float division by zero"


def test_row_fold_near_misses_take_the_generic_path(monkeypatch):
    body = "return reduce(ident, combine=add2, init=0, x; axes=[0]);"
    x = matrix(5, 4, "i64", "col", 19)
    # A scalar closure operand: the node declines, and the generic call of
    # row 0 raises.
    pair = fold_program("x", "return reduce(mul2, combine=add2, init=0, x, s; axes=[0, 0]);",
                        "fn main(X, s) { return map(fold, X; axes=[0]); }", "uses s")
    assert assert_same_as_twin(pair, [x, 3], monkeypatch, False) == \
        "Reduce argument must be an array, got a scalar"
    # Rank-3 operands: each row is a matrix, folded elementwise.
    cube = NdArray((3, 4, 2), "i64", "col", list(range(24)))
    pair = fold_program("x", body, "fn main(X) { return map(fold, X; axes=[0]); }")
    assert_same_as_twin(pair, [cube], monkeypatch, False)
    # A G that takes two scalars over one operand (validation rejects it)
    # fails as the generic call per row does.
    for p in pair:
        fold = p.fn("fold")
        reduce = dataclasses.replace(fold.body[-1].value, fn="mul2")
        bad = dataclasses.replace(fold, body=fold.body[:-1] + (Return(reduce),))
        with pytest.raises(EvalError, match="unbound variable 'b'"):
            Interpreter(Program({**p.functions, "fold": bad})).run([x])
    # As the tile function of an operator whose slot has the fixed size 4,
    # fold runs once per tile: in the full tile its extent-4 fold counts no
    # check, and in the straggler it counts its own.
    pair = fold_program("x", body, "fn main(X) { return tiledmap(fold, fixed=4, slot=0, "
                        "depth=0, X; axes=[0]); }", internal=True)
    calls = counting_build(monkeypatch)
    fast, slow = (observe(p, [x], calls, tile_sizes={0: 4}) for p in pair)
    assert fast == slow
    assert fast[3] == 2 and fast[2].bounds_checks == 1


# A node's operands may be closure parameters: a rank-1 array is every
# row's operand, read as a row of stride 0.
CLOSURE_FOLDS = [
    "reduce(ident, combine=add2, init=0, x; axes=[0])",  # a closure it does not read
    "reduce(mul2, combine=add2, init=0, s, x; axes=[0, 0])",
    "reduce(mul2, combine=max2, init=-inf, x, s; axes=[0, 0])",
    "scan(mul2, combine=add2, init=0, s, x; axes=[0, 0])",
    "map(mul2, x, s; axes=[0, 0])",
    "reduce(sq, combine=add2, init=0, s; axes=[0])",  # only the closure operand
]


@pytest.mark.parametrize("body", CLOSURE_FOLDS)
@pytest.mark.parametrize("axis", [0, 1])
def test_row_fold_over_closure_operands(body, axis, monkeypatch):
    pair = fold_program("x", f"return {body};",
                        f"fn main(X, s) {{ return map(fold, X; axes=[{axis}]); }}", "uses s")
    base = matrix(4, 6, "f64", "col", 22)
    base.addr = 2048
    for x in views_of(base, 4):
        n = x.shape[1 - axis]
        s = matrix(3, n, "i64", "row", 23)
        s.addr = 8192
        # A whole rank-1 array, and a strided column of a matrix.
        for row in (NdArray((n,), "i64", "row", list(range(1, n + 1))), slice_axis(s, 0, 1),
                    slice_axis(matrix(n, 3, "i64", "row", 24), 1, 2)):
            assert_same_as_twin(pair, [x, row], monkeypatch, True)


def test_row_fold_of_some_parameters(monkeypatch):
    # `y` is sliced by the Map but not folded: its rows, of another
    # extent, are neither read nor checked.
    pair = fold_program("x, y", "return reduce(sq, combine=add2, init=0, x; axes=[0]);",
                        "fn main(X, Y) { return map(fold, X, Y; axes=[0, 0]); }")
    x, y = matrix(3, 4, "i64", "row", 31), matrix(3, 6, "f64", "col", 32)
    x.addr, y.addr = 1024, 4096
    assert assert_same_as_twin(pair, [x, y], monkeypatch, True)[0] == (3,)


def test_row_fold_closure_operand_of_the_wrong_extent_fails_as_generic(monkeypatch):
    pair = fold_program("x", "return reduce(mul2, combine=add2, init=0, s, x; axes=[0, 0]);",
                        "fn main(X, s) { return map(fold, X; axes=[0]); }", "uses s")
    x, s = matrix(3, 4, "i64", "row", 25), NdArray((5,), "f64", "row", [1.5] * 5)
    assert assert_same_as_twin(pair, [x, s], monkeypatch, True) == \
        "Reduce sliced extents differ: 5 vs 4"
    # No row, no check: the Map's own empty result.
    calls = counting_build(monkeypatch)
    fast, slow = (observe(p, [NdArray((0, 4), "i64"), s], calls) for p in pair)
    assert fast == slow and fast[0][:2] == ((0,), "i64")


def test_row_fold_closure_operand_of_rank_2_takes_the_generic_path(monkeypatch):
    # Each row then folds whole rows of `s`, elementwise: no leaf node.
    pair = fold_program("x", "return reduce(mul2, combine=add2, init=0, s, x; axes=[0, 0]);",
                        "fn main(X, s) { return map(fold, X; axes=[0]); }", "uses s")
    x, s = matrix(3, 4, "i64", "row", 26), matrix(4, 2, "i64", "col", 27)
    assert assert_same_as_twin(pair, [x, s], monkeypatch, False)[0] == (3, 2)


# A map node whose callee reads a closure bound, per row, from the node's
# own parameter: the register tiles of a fused matmul.
BOUND_PER_ROW = """
fn dot(y) uses x { return reduce(mul2, combine=add2, init=0, x, y; axes=[0, 0]); }
fn main(X, Y) { return map(fold, X; axes=[0]); }
"""


@pytest.mark.parametrize("shapes", [((3, 4), (5, 4)), ((1, 2), (2, 2)), ((2, 0), (3, 0)),
                                    ((2, 3), (0, 3)), ((2, 3), (2, 4))])
def test_map_node_binds_callee_closures_per_row(shapes, monkeypatch):
    pair = fold_program("x", "return map(dot, Y; axes=[0]);", BOUND_PER_ROW, "uses Y")
    (m, k), (n, k2) = shapes
    x, y = matrix(m, k, "f64", "row", 28), matrix(n, k2, "i64", "col", 29)
    x.addr, y.addr = 1024, 4096
    # Rows of no element, or no row of Y, take the generic path.
    value = assert_same_as_twin(pair, [x, y], monkeypatch, 0 not in (k, n))
    if k != k2:
        assert value == f"Reduce sliced extents differ: {k} vs {k2}"
    else:
        assert value[0] == (m, n)


def test_map_node_declines_at_row_0_without_side_effects(monkeypatch):
    # `scale` reads its closure `x`, bound per row to a row of X: the leaf
    # kernel declines for an array closure, so the node declines before
    # it counts or reads anything, and every row is a generic call.
    pair = fold_program("x", "return map(scale, Y; axes=[0]);",
                        "fn scale(y) uses x { return y * x; }\n"
                        "fn main(X, Y) { return map(fold, X; axes=[0]); }", "uses Y")
    x, y = matrix(2, 3, "i64", "row", 30), NdArray((3,), "i64", "row", [1, 2, 3])
    assert assert_same_as_twin(pair, [x, y], monkeypatch, False)[0] == (2, 3, 3)


# Callees of a map node that fold each row of Y against their closure `x`,
# bound per row of X: a reduce over a leaf, one whose leaf divides, a dot.
FOLD_CALLEES = {
    "reduce": "fn inner(y) uses x { return reduce(mul2, combine=add2, init=0, x, y; axes=[0, 0]); }",
    "divide": "fn div(a, b) { return a / b; }\n"
              "fn inner(y) uses x { return reduce(div, combine=add2, init=0, y, x; axes=[0, 0]); }",
    "dot": "fn inner(y) uses x { p = y - x; return reduce(sq, combine=add2, init=0, p; axes=[0]); }",
}


def nonzero(shape, dtype, layout, seed):
    """A random array of `shape` with no zero element."""
    rng = random.Random(seed)
    data = [rng.choice((-3, -2, -1, 1, 2, 5)) for _ in range(math.prod(shape))]
    return NdArray(shape, dtype, layout, [x / 4 for x in data] if dtype == "f64" else data)


@pytest.mark.parametrize("callee", sorted(FOLD_CALLEES))
@pytest.mark.parametrize("dtypes", [("i64", "f64"), ("f64", "i64"), ("i64", "i64")])
def test_two_level_node_matches_generic_call_per_row(callee, dtypes, monkeypatch):
    # The node runs X's rows i and Y's rows j, each (i, j) folded over k,
    # calling `fold` for no row: row- and column-major operands, their last
    # tiles along axis 0 and, strided, along axis 1, single rows and
    # elements. Rows of no element, or no row of Y, take the generic path.
    pair = fold_program("x", "return map(inner, Y; axes=[0]);",
                        FOLD_CALLEES[callee] + "\nfn main(X, Y) { return map(fold, X; axes=[0]); }",
                        "uses Y")
    for m, n, k in ((5, 6, 7), (1, 1, 1), (3, 2, 0), (2, 0, 3)):
        for layouts in (("row", "col"), ("col", "row")):
            x, y = nonzero((m, k), dtypes[0], layouts[0], m), nonzero((n, k), dtypes[1], layouts[1], n)
            x.addr, y.addr = 1024, 8192
            pairs = [(x, y)]
            if 0 not in (m, n, k):
                pairs += [(decompose(x, 0, 2)[-1], decompose(y, 0, 4)[-1]),
                          (decompose(x, 1, 3)[-1], decompose(y, 1, 3)[-1])]
            for a, b in pairs:
                value = assert_same_as_twin(pair, [a, b], monkeypatch, 0 not in (n, k))
                assert value[0] == (a.shape[0], b.shape[0])
                if 0 not in (n, k):  # else every value is the int init, or there is none
                    assert value[1] == ("f64" if "f64" in dtypes or callee == "divide" else "i64")
    # Unequal k extents: a reduce raises as one call per row does, after
    # the same checks; a dot's product raises, so its kernel declines.
    if callee != "dot":
        x, y = nonzero((2, 3), dtypes[0], "row", 7), nonzero((4, 5), dtypes[1], "col", 8)
        value = assert_same_as_twin(pair, [x, y], monkeypatch, True)
        assert value.startswith("Reduce sliced extents differ: ")


# (fold's parameters, its body, the rank of the Map's operands)
NESTS = [
    ("x", "map(sq, x; axes=[0])", 2),  # Map of Map
    ("x", "scan(ident, combine=add2, init=0, x; axes=[0])", 2),  # Map of Scan
    ("x", "scan(sq, combine=max2, init=-inf, x; axes=[0])", 2),
    ("x, y", "map(mul2, x, y; axes=[0, 0])", 2),
    ("x", "map(rowsum, x; axes=[0])", 3),  # Map of Map of Reduce
    ("x", "map(rowscan, x; axes=[0])", 3),  # Map of Map of Scan
    ("x", "map(rowsq, x; axes=[0])", 3),  # Map of Map of Map
    ("x, y", "map(rowmul, x, y; axes=[0, 0])", 3),
]


@pytest.mark.parametrize("params,body,rank", NESTS)
def test_nest_matches_generic_call_per_row(params, body, rank, monkeypatch):
    # Row- and column-major operands and their last tiles (stragglers
    # included) along every axis, mapped along every axis. Over rank 3 the
    # kernel runs only a callee's kernel that gives scalars, a reduce's.
    operands = len(params.split(","))
    fused = rank == 2 or "rowsum" in body
    bases = [random_array((7, 5, 4)[:rank], "i64", "col", 31),
             random_array((6, 3, 5)[:rank], "f64", "row", 32)]
    for axis in range(rank):
        names, axes = ", ".join(["X"] * operands), ", ".join([str(axis)] * operands)
        pair = fold_program(params, f"return {body};",
                            f"fn main(X) {{ return map(fold, {names}; axes=[{axes}]); }}")
        for base in bases:
            base.addr = 4096
            for x in views_of(base, 3):
                assert_same_as_twin(pair, [x], monkeypatch, fused)


def test_leaf_closure_operands(monkeypatch):
    # A scalar closure operand is broadcast, on either side of the
    # operator and alone; an array one takes the generic path.
    vector = random_array((7,), "i64", "row", 33)
    array = random_array((2,), "f64", "col", 34)
    for body in ("return x * s;", "return s - x;", "return s;"):
        mapped = fold_program("x", body, "fn main(X, s) { return map(fold, X; axes=[0]); }",
                              "uses s")
        value = assert_same_as_twin(mapped, [vector, 3], monkeypatch, True)
        assert len(value[3]) == 7
        assert_same_as_twin(mapped, [vector, array], monkeypatch, False)
        folded = fold_program("x", body, "fn main(X, s) { return "
                              "scan(fold, combine=add2, init=0, X; axes=[0]); }", "uses s")
        assert_same_as_twin(folded, [vector, 2.5], monkeypatch, True)
    # `return x * x` reads its one operand once per element.
    squared = fold_program("x", "return x * x;", "fn main(X) { return map(fold, X; axes=[0]); }")
    assert_same_as_twin(squared, [vector], monkeypatch, True)


def test_folds_over_zero_rows_return_as_generic(monkeypatch):
    # A Reduce or Scan over zero rows never runs its callee: a function
    # missing below the callee, or callee rows of different extents, must
    # not raise.
    calls = counting_build(monkeypatch)
    gone = "fn gone(x) { return x; }\n"
    for op in ("reduce", "scan"):
        main = (gone + f"fn main(X, Y) {{ return {op}(fold, combine=add2, init=7, X, Y; "
                "axes=[0, 0]); }")
        for body in ("return map(gone, x; axes=[0]);", "return map(mul2, x, y; axes=[0, 0]);"):
            pair = fold_program("x, y", body, main)
            for p in pair:
                del p.functions["gone"]
            args = [NdArray((0, 4), "i64"), NdArray((0, 5), "i64", "col")]
            fast, slow = (observe(p, args, calls) for p in pair)
            assert fast == slow
            if op == "reduce":
                assert fast[0] == typed([7])
            else:
                assert fast[0][:2] == ((0,), "i64")
    # A Map of nests whose rows hold zero rows each.
    inner = "fn inner(y) { return map(gone, y; axes=[0]); }\n"
    for params, body, names in (("x, y", "map(rowmul, x, y; axes=[0, 0])", "X, Y; axes=[0, 0]"),
                                ("x", "map(inner, x; axes=[0])", "X; axes=[0]")):
        pair = fold_program(params, f"return {body};",
                            gone + inner + f"fn main(X, Y) {{ return map(fold, {names}); }}")
        for p in pair:
            del p.functions["gone"]
        args = [NdArray((2, 0, 4), "i64"), NdArray((2, 0, 5), "i64", "col")]
        fast, slow = (observe(p, args, calls) for p in pair)
        assert fast[:3] == slow[:3] and fast[0][:2] == ((2, 0), "i64")


def test_tiled_row_sums_make_one_call_per_tile(monkeypatch):
    # 256 rows at tile size 23 are 12 tiles (11 full, 1 straggler) per
    # slot: main, 12 `sum_row$t0` calls, and in each of them 12 tiles of
    # `ident$t1` and 11 lifted combines. A per-row fold call would add
    # 3,072 more, and 256 to the untiled eval.
    program = parse_program(programs.SUM_ROWS)
    tiled = tile_program(program).program
    x = matrix(256, 256, "f64", "col", 20)
    calls = counting_build(monkeypatch)
    tiled_value = eval_program(tiled, [x], EvalConfig(tile_sizes={0: 23, 1: 23}))
    assert sum(calls.values()) == 1 + 12 + 12 * (12 + 11)
    calls.clear()
    assert eval_program(program, [x]).data == tiled_value.data
    assert sum(calls.values()) == 1


def test_tiled_matmul_and_row_scan_calls(monkeypatch):
    # Only tiles and lifted combines are called. Every nest runs through
    # its kernel, also the fused product's fold over an array closure
    # operand and the Maps of `a + b` over rows: one call per slice would
    # make 9,797 calls in the cache pass and 12,311 in the register pass.
    calls = counting_build(monkeypatch)
    program = desugar_allpairs(parse_program(programs.MATMUL))
    res = tile_program(program, arg_ranks=[2, 2])
    reg_program, reg_spec = register_tile(res.program, res.spec, 16)
    x, y = matrix(16, 16, "f64", "row", 35), matrix(16, 16, "f64", "col", 36)
    for tiled, spec, total in ((res.program, res.spec, 133), (reg_program, reg_spec, 1015)):
        calls.clear()
        eval_program(tiled, [x, y], EvalConfig(tile_sizes=spec.sizes(overrides={0: 5, 1: 5, 2: 5})))
        assert sum(calls.values()) == total
    program = parse_program(programs.ROW_SCAN)
    calls.clear()
    eval_program(tile_program(program).program, [matrix(64, 64, "i64", "col", 37)],
                 EvalConfig(tile_sizes={0: 10, 1: 10}))
    # main, 7 row tiles and 7 column tiles in each. The carry fix-up of
    # every step runs the lifted combine `map(add2$u0, a, b)` through its
    # leaf kernel, without a call.
    assert sum(calls.values()) == 1 + 7 + 7 * 7
    calls.clear()
    eval_program(program, [matrix(64, 64, "i64", "col", 37)])
    assert sum(calls.values()) == 1
    # The benchmark's prefix scan: 192 x 192, column-major, tiles 23 x 23.
    calls.clear()
    eval_program(tile_program(program).program, [matrix(192, 192, "i64", "col", 38)],
                 EvalConfig(tile_sizes={0: 23, 1: 23}))
    assert sum(calls.values()) <= 200


def test_tiled_matmul32_reg_calls_and_arrays(monkeypatch):
    # The benchmark's register-tiled matmul: 32 x 32, row-major f64, cache
    # tiles 6 x 6 x 6 and register tiles of 4. A map or scan node stacks
    # its rows' results into one element list, so only the array that an
    # operator returns is built; an array per row would make 12,666. The
    # product is fused into the fold: as written, the program made 6,000
    # calls, and without the kernels for closure operands and rows of
    # `a + b` the fused one makes 21,683.
    calls = counting_build(monkeypatch)
    built = collections.Counter()
    adopt = semantics.adopt

    def counted(*args):
        built["arrays"] += 1
        return adopt(*args)
    monkeypatch.setattr(semantics, "adopt", counted)
    program = desugar_allpairs(parse_program(programs.MATMUL))
    res = tile_program(program, arg_ranks=[2, 2])
    tiled, spec = register_tile(res.program, res.spec, 16)
    x, y = matrix(32, 32, "f64", "row", 39), matrix(32, 32, "f64", "row", 40)
    eval_program(tiled, [x, y], EvalConfig(tile_sizes=spec.sizes(overrides={0: 6, 1: 6, 2: 6})))
    assert sum(calls.values()) == 3827
    assert built["arrays"] <= 5500


def test_tiled_prefixscan_arrays(monkeypatch):
    # The benchmark's prefix scan: 192 x 192 i64, column-major, tiles 23 x
    # 23. Each tile's carry fix-up is one call of the lifted combine's leaf
    # node, whose steps are one element list; an array per step would make
    # 1,602.
    built = collections.Counter()
    adopt = semantics.adopt

    def counted(*args):
        built["arrays"] += 1
        return adopt(*args)
    monkeypatch.setattr(semantics, "adopt", counted)
    program = tile_program(parse_program(programs.ROW_SCAN)).program
    eval_program(program, [matrix(192, 192, "i64", "col", 41)],
                 EvalConfig(tile_sizes={0: 23, 1: 23}))
    assert built["arrays"] <= 200


def random_row_fold(seed):
    """A Map of a row fold over one or two random matrices, mapped along
    either axis, with a combine and init the tiler accepts. Values are
    small integers or quarters, so every order of summing is exact."""
    rng = random.Random(seed)
    two = rng.random() < 0.5
    rows, cols = rng.randint(1, 11), rng.randint(1, 11)
    dtype = rng.choice(("i64", "f64"))
    combine, init = rng.choice([("add2", 0), ("max2", "-inf")]
                               + [("mul2", 1)] * (dtype == "i64"))
    g = rng.choice(("mul2", "add2")) if two else "ident"
    axes = [rng.randrange(2) for _ in range(1 + two)]
    inputs = []
    for axis in axes:
        shape = (rows, cols) if axis == 0 else (cols, rows)
        data = [rng.randint(-3, 3) for _ in range(rows * cols)]
        if dtype == "f64":
            data = [x / 4 for x in data]
        inputs.append(NdArray(shape, dtype, rng.choice(("row", "col")), data))
    params, names = ("x, y", "X, Y") if two else ("x", "X")
    source = FOLD_LIB + (
        f"fn fold({params}) {{ return reduce({g}, combine={combine}, init={init}, "
        f"{params}; axes=[{', '.join('0' * len(axes))}]); }}\n"
        f"fn main({names}) {{ return map(fold, {names}; axes=[{', '.join(map(str, axes))}]); }}")
    op = {"add2": operator.add, "mul2": operator.mul, "max2": max}
    slices = [[[x.get((i, j) if axis == 0 else (j, i)) for j in range(cols)]
               for i in range(rows)] for x, axis in zip(inputs, axes)]
    start = float(init) if init == "-inf" else init
    expected = [functools.reduce(op[combine], map(op[g], *row) if two else row[0], start)
                for row in zip(*slices)]
    return parse_program(source), inputs, expected, rng


def row_folds(program):
    return {f.name for f in program.functions.values() if (body_shape(f) or ("",))[0] == "reduce"}


@pytest.mark.parametrize("block", range(4))
def test_random_row_folds_through_both_tiling_passes(block, monkeypatch):
    # Every row fold in these programs maps over rank-2 tiles with
    # elementary functions, so none of them is ever called.
    calls = counting_build(monkeypatch)
    for seed in range(block * 25, block * 25 + 25):
        program, inputs, expected, rng = random_row_fold(seed)
        assert eval_program(program, inputs).data == expected, seed
        result = tile_program(program)
        assert result.changed, (seed, result.reason)
        reg_program, reg_spec = register_tile(result.program, result.spec, 16)
        extent = max(inputs[0].shape)
        for _ in range(3):
            sizes = {s.id: rng.randint(1, extent + 1) for s in result.spec.runtime_slots()}
            for tiled, spec in ((result.program, result.spec), (reg_program, reg_spec)):
                out = eval_program(tiled, inputs, EvalConfig(tile_sizes=spec.sizes(sizes)))
                assert out.data == expected, (seed, sizes)
                assert not any(calls[name] for name in row_folds(tiled)), seed
