"""Differential tests of the evaluator's flat-buffer fast paths.

Stacking and copying use one slice of the flat buffer per rank-1 view (or
per run along the last axis) where the reference below walks every
element's offset. Both must give the same
values (element by element, int or float), the same trace events and the
same simulated addresses. An NdArray must also behave as the View over
all of itself.
"""

import itertools
import random

import pytest

from tilepar.ir import Program, parse_program
from tilepar.ndarray import (
    ELEM_SIZE, Allocator, NdArray, View, as_view, copy, decompose, offsets,
    result_dtype, slice_axis,
)
from tilepar.semantics import EvalConfig, EvalError, Interpreter, TraceSink


def reference_copy(src, dst, sink):
    """The per-element copy: one read of `src` and one write of `dst` per
    element, in index order."""
    sdata, ddata = src.root.data, dst.root.data
    for i, j in zip(offsets(src), offsets(dst)):
        ddata[j] = sdata[i]
        if sink is not None:
            sink.read(src.root.addr + i * ELEM_SIZE)
            sink.write(dst.root.addr + j * ELEM_SIZE)
    return dst


def reference_stack(interp, values, axis):
    """_stack as the per-element path computes it."""
    sink = interp.config.trace
    if not any(isinstance(x, (NdArray, View)) for x in values):
        out = interp._new_array((len(values),), result_dtype(values))
        out.data[:] = values
        for i in range(len(values)):
            sink.write(out.addr + i * ELEM_SIZE)
        return out
    shape = values[0].shape
    out = interp._new_array(shape[:axis] + (len(values),) + shape[axis:], result_dtype(values))
    for j, x in enumerate(values):
        reference_copy(x, slice_axis(out, axis, j), sink)
    return out


def traced_interpreter(program=Program({})):
    """An interpreter with a trace sink and a simulated address space that
    already has live and freed blocks of several sizes."""
    interp = Interpreter(program, EvalConfig(trace=TraceSink()))
    interp._allocator = Allocator()
    interp.keep = [interp._new_array((n,), "i64") for n in (3, 9, 20, 5)]
    del interp.keep[1:3]  # frees a 128- and a 192-byte block
    return interp


def typed(data):
    return [(type(x), x) for x in data]


def matrix(rows, cols, dtype, layout, seed):
    rng = random.Random(seed)
    data = [rng.randrange(-50, 50) for _ in range(rows * cols)]
    if dtype == "f64":
        data = [x / 4 for x in data]
    return NdArray((rows, cols), dtype, layout, data)


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
    alloc = Allocator()
    for x in (src.root, dst.root):
        if x.addr == 0:
            alloc.allocate(x, reclaim=False)
    before = list(dst.root.data)
    fast_sink, ref_sink = TraceSink(), TraceSink()
    copy(src, dst, fast_sink)
    fast = list(dst.root.data)
    dst.root.data[:] = before
    reference_copy(src, dst, ref_sink)
    assert typed(fast) == typed(dst.root.data)
    assert fast_sink.events == ref_sink.events


def test_ndarray_is_its_own_view():
    for base in BASES:
        view = View(base, 0, base.shape, base.strides)
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
    # A fused loop reads each rank-1 operand with one slice, and reports
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
        values = interp._elementary(interp._function("add2"), [a, b])
        assert values == [x + y for x, y in zip(
            map(a.root.data.__getitem__, offsets(a)), map(b.root.data.__getitem__, offsets(b)))]
        reads = [[v.root.addr + o * ELEM_SIZE for o in offsets(v)] for v in (a, b)]
        assert interp.config.trace.events == [(addr, "R") for pair in zip(*reads) for addr in pair]
