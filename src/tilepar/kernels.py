"""Node kernels: an operator's callee run over every slice without a call
per slice (`Kernels`, which `semantics.Interpreter` inherits).

An operator runs a callee that `ir.body_shape` describes through its
kernel `kernel(views, axes, extent, captured)`:
- a leaf over rank-1 operands is one loop over a slice of each flat
  buffer (scalar closure operands broadcast); it gives its results, one
  scalar per slice, which the operator stacks, folds or scans;
- a leaf `a OP b` over rank-2 operands of its own parameters runs each
  row's elementwise operation without a frame or a View, and gives the
  rows stacked, as a `Stack` (below) of the elementwise result's dtype;
- a map, reduce or scan (a node) runs once per row without a frame, its
  callee by the same rule. Its operands are any of its parameters, whose
  rows it takes, and its closure parameters, the same value for every
  row: over rank-2 operands a rank-1 closure array is broadcast as a View
  of stride 0 along the rows, as a tile's fix-up broadcasts its carry.
  The callee of a map node may read closures, bound per row from the
  node's parameters or closure values. Over rank-2 operands a node reads
  each row as a slice of the flat buffer, without a View per row, and
  checks the row extents once. A reduce node gives its rows' results, one
  scalar per row. A map or scan node gives its whole stacked value as one
  `Stack`: a flat row-major element list, with the shape and the dtype
  that stacking its rows' arrays would give. Each row appends its results
  to that list, and a map node whose rows are arrays concatenates its
  rows' lists. The caller that needs an array (`Interpreter._assemble`)
  adopts the list once.
A fold (Reduce or Scan) runs only a leaf so, with a scalar init, no emit
and a combine `return a OP b`. A kernel that meets an operand it has no
rule for (a scalar or wrong-rank closure) declines before any side
effect, and the operator makes one call per slice. Stacked scalars are
the output's element list as they are; arrays are stacked as a concat
joins its parts (`ndarray.join`). All give the values, trace events,
allocations, counters and errors of one call per slice.

One call per slice would build an array for each row of a map or scan
node, and for each row of those rows. With a trace sink the node models
each of them by an address-only `ndarray.Block` of the same size. It
reports the same `W` or `RW` run over the block as the array's stack
would, and lets the blocks die where the arrays would: a row's blocks
die, last to first, once the row's own block is written, and the
outermost ones once the operator's array is. So addresses, events and
runs are those of one call per slice. A leaf's reads are one `R` run,
and so are the reads of all the rows of a reduce node; a map or scan
node reports each row's reads as one run, as the row's results are
stacked between them.
"""

from __future__ import annotations

import functools
import itertools
import types

from . import ir
from .ndarray import (
    ELEM_SIZE, ArrayValue, Block, View, addresses, elementwise_dtype, interleave, match_shapes,
    result_dtype, scalar_op, span,
)


class EvalError(Exception):
    """An error of the program under evaluation."""


# The captured values of a callee without closure parameters.
NO_CAPTURES = types.MappingProxyType({})

# The element types `scalar_dtype` takes as scalars without a per-value check.
_SCALARS = frozenset((int, float))


def _leaf_values(fn, op, names):
    """(shared, values) of a leaf `fn` whose `ir.body_shape` is ("leaf", op,
    names): `shared` lists the closure parameters its body reads, and
    `values(columns)` gives its results at every index of `columns`, the
    element lists of its parameters and then of `shared`."""
    shared = [c for c in fn.closure_params if c in names]
    picks = [(fn.params + tuple(shared)).index(n) for n in names]
    if op is None:
        pick = picks[0]
        return shared, lambda columns: columns[pick]
    f = scalar_op(op)
    return shared, lambda columns: list(map(f, *map(columns.__getitem__, picks)))


def _row_extent(views, axes, what):
    """The extent of every row of the rank-2 `views` sliced along `axes`.
    Rows of different extents raise as `Interpreter._operand_views` does."""
    n = views[0].shape[1 - axes[0]]
    for v, axis in zip(views, axes):
        if v.shape[1 - axis] != n:
            raise EvalError(f"{what} sliced extents differ: {n} vs {v.shape[1 - axis]}")
    return n


def _row_ranges(views, axes, n):
    """`i ->` the byte addresses of row i of each of the rank-2 `views`
    sliced along `axes`, every row of extent n: one range per view."""
    spans = [(v.root.addr + v.offset * ELEM_SIZE, v.strides[axis] * ELEM_SIZE,
              v.strides[1 - axis] * ELEM_SIZE) for v, axis in zip(views, axes)]
    return lambda i: [range(base + i * row, base + i * row + n * step, step)
                      for base, row, step in spans]


def _row_reads(views, axes, n):
    """`i ->` the byte addresses a leaf reads at row i of the rank-2 `views`
    sliced along `axes`, every row of extent n: per index, one per view in
    order (`ndarray.interleave`). One view's row is its range, with no
    list built per row: the hot case, as a traced row sum reads one view."""
    if len(views) == 1:
        (v,), (axis,) = views, axes
        base, row = v.root.addr + v.offset * ELEM_SIZE, v.strides[axis] * ELEM_SIZE
        step = v.strides[1 - axis] * ELEM_SIZE
        return lambda i: range(base + i * row, base + i * row + n * step, step)
    ranges = _row_ranges(views, axes, n)
    return lambda i: interleave(ranges(i))


def _gathered(views, axes, extent, captured, sources):
    """(operands, axes): the operands of a node's operator stacked over the
    node's `extent` rows, from `sources` (see `Kernels._new_kernel`),
    and the axis of each that holds the rows. A parameter gives its view;
    a closure operand, a rank-1 array, is broadcast as a View with stride 0
    along a new leading axis, as `Interpreter._fix_up` broadcasts a carry.
    (None, None) when a closure operand is anything else."""
    out, out_axes = [], []
    for s in sources:
        if type(s) is int:
            out.append(views[s])
            out_axes.append(axes[s])
            continue
        v = captured[s]
        if not isinstance(v, ArrayValue) or len(v.shape) != 1:
            return None, None
        out.append(View(v.root, v.offset, (extent,) + v.shape, (0,) + v.strides))
        out_axes.append(0)
    return out, out_axes


def scalar_dtype(values):
    """The dtype of `values` stacked as scalars: f64 when any is a float,
    else i64; None when any is an array."""
    kinds = set(map(type, values))
    if kinds <= _SCALARS:
        return "f64" if float in kinds else "i64"
    if any(isinstance(x, ArrayValue) for x in values):
        return None
    return result_dtype(values)


class Stack:
    """The value of a map or scan node's kernel before it is an array: its
    elements `data` in row-major order, `shape` and `dtype`. With a trace
    sink, `rows` lists the address-only block (`ndarray.Block`) that holds
    the place of each row's own value, in row order; else it is None."""

    __slots__ = ("data", "shape", "empty", "rows", "exact")

    def __init__(self, data, shape, empty, rows, exact=None):
        self.data, self.shape, self.empty, self.rows, self.exact = data, shape, empty, rows, exact

    @property
    def dtype(self):
        """The dtype that stacking the rows' arrays gives: `exact` when the
        rows are arrays whose dtype their operands decide, else the first
        operand's (`empty`) when there is no element, else `scalar_dtype`
        of the elements."""
        return self.exact or (scalar_dtype(self.data) if self.data else self.empty)


class Kernels:
    """The kernel builders of `semantics.Interpreter`. They use its
    `config` and `program`, and its `_function`, `_placed`, `_fill`,
    `_slicer` and `_operand_views`."""

    def _kernel(self, f, ranks):
        """The kernel of `f` for operands of `ranks` (see the module docstring) or
        None: `kernel(views, axes, extent, captured)` lists f's results at every slice
        of `views` along `axes` (a map or scan node gives them stacked, as a `Stack`),
        or is None before any side effect. A fold node needs rank 2 and a combine
        with `op`."""
        if ranks not in f.kernels:
            f.kernels[ranks] = self._new_kernel(f, ranks)
        return f.kernels[ranks]

    def _new_kernel(self, f, ranks):
        fn, shape = f.fn, f.shape
        if shape is None or len(ranks) != len(fn.params):
            return None
        if shape[0] == "leaf":
            op, names = shape[1], shape[2]
            if set(ranks) == {1}:
                return self._leaf(fn, op, names)
            if set(ranks) == {2} and op is not None and set(names) <= set(fn.params):
                return self._row_map(op, [fn.params.index(n) for n in names])
            return None
        kind, g, combine, init, names = shape
        functions = self.program.functions
        if min(ranks) < 2 or g not in functions:
            return None
        callee, scope = functions[g], fn.params + fn.closure_params
        if any(c not in scope for c in callee.closure_params):
            return None
        # Where each operand of the node's operator comes from: the index of
        # a parameter, whose rows it takes, or the name of a closure
        # parameter, the same value for every row.
        sources = [fn.params.index(n) if n in fn.params else n for n in names]
        op = self._function(combine).op if combine in functions else None
        leaf = ir.body_shape(callee)
        if (set(ranks) == {2} and leaf is not None and leaf[0] == "leaf"
                and not callee.closure_params and len(callee.params) == len(names)):
            if kind != "map" and op is None:
                return None
            values = _leaf_values(callee, leaf[1], leaf[2])[1]
            return self._leaf_node(kind, values, op, init, sources,
                                   sources == list(range(len(ranks))))
        if kind != "map":
            return None
        return self._node(fn, self._function(g), sources)

    def _leaf(self, fn, op, names):
        """Kernel of leaf `fn`, None for an array closure operand. It reports
        reads as the generic path does: per index, one per view in order."""
        shared, values = _leaf_values(fn, op, names)
        trace = self.config.trace

        def leaf(views, axes, extent, captured):
            columns = [v.root.data[span(v)] for v in views]
            for n in shared:
                if isinstance(captured[n], ArrayValue):
                    return None
                columns.append([captured[n]] * extent)
            if trace is not None and extent:
                trace.run(interleave(list(map(addresses, views))), "R")
            return values(columns)
        return leaf

    def _row_map(self, op, picks):
        """Kernel of a leaf `a OP b` over the parameters `picks` when the
        operands are rank 2: per row, the elementwise operation
        (`_elementwise`) over the two rows, without a frame or a View. A
        row's values are computed, then its block is placed, then one `RRW`
        run reads both rows and writes the block. Row extents are checked
        once and raise as `ndarray.elementwise` does (`match_shapes`). It
        gives a `Stack` whose dtype is the elementwise result's
        (`elementwise_dtype`)."""
        f, trace = scalar_op(op), self.config.trace

        def rows(views, axes, extent, captured):
            (a, ax), (b, bx) = ((views[p], axes[p]) for p in picks)
            n, m = a.shape[1 - ax], b.shape[1 - bx]
            if extent:
                match_shapes((n,), (m,))
            spans = [(v.root.data, v.offset, v.strides[axis], v.strides[1 - axis])
                     for v, axis in ((a, ax), (b, bx))]
            (da, oa, sa, ta), (db, ob, sb, tb) = spans
            out, blocks = [], [] if trace is not None else None
            ranges = trace and _row_ranges([a, b], (ax, bx), n)
            for i in range(extent):
                i_a, i_b = oa + i * sa, ob + i * sb
                out += map(f, da[i_a:i_a + n * ta:ta], db[i_b:i_b + n * tb:tb])
                if blocks is not None:
                    block = self._placed(Block(n))
                    if n:
                        start = block.addr
                        trace.run(interleave(ranges(i) + [range(start, start + n * ELEM_SIZE,
                                                               ELEM_SIZE)]), "RRW")
                    blocks.append(block)
            return Stack(out, (extent, n) if extent else (0,), views[0].dtype, blocks,
                          elementwise_dtype(op, a, b) if extent else None)
        return rows

    def _leaf_node(self, kind, values, op, init, sources, direct):
        """Kernel of a node over rank-2 operands whose callee is a leaf with
        `values` (`_leaf_values`): per row, the untiled operator without a
        frame. Its operator's operands come from `sources` (see
        `_new_kernel`), `direct` when they are the node's parameters, in
        order: a closure operand, a rank-1 array, is broadcast to every row
        as a View with stride 0 along the rows, and any other closure value
        makes it decline. Row i of each operand is the flat
        span (root, offset + i * strides[axis], strides[1 - axis]); no View
        is built for it. Row extents are checked once. A reduce gives its
        rows' results, and reports the reads of all its rows as one run, as
        nothing comes between them. A map or a scan appends each row's
        results to one element list and gives a `Stack`; it reports each
        row's reads as a run before the row's block takes the row's
        results."""
        what, counters, trace = kind.capitalize(), self.config.counters, self.config.trace
        one_run = trace is not None and kind == "reduce"
        run_per_row = trace is not None and not one_run
        arity = len(sources)
        if kind == "reduce":
            def row(columns, out):
                out.append(functools.reduce(op, values(columns), init))
        elif kind == "scan":
            def row(columns, out):
                out += itertools.islice(itertools.accumulate(values(columns), op, initial=init),
                                        1, None)
        else:
            def row(columns, out):
                out += values(columns)

        def node(views, axes, extent, captured):
            if not direct:
                views, axes = _gathered(views, axes, extent, captured, sources)
                if views is None:
                    return None
            n = extent and _row_extent(views, axes, what)
            spans = [(v.root.data, v.offset, v.strides[axis], v.strides[1 - axis])
                     for v, axis in zip(views, axes)]
            reads = trace and _row_reads(views, axes, n)
            out, blocks, i = [], [] if run_per_row else None, -1
            try:
                for i in range(extent):
                    if run_per_row and n:
                        trace.run(reads(i), "R")
                    row([data[o + i * s:o + i * s + n * t:t] for data, o, s, t in spans], out)
                    if blocks is not None:
                        blocks.append(self._row_block(n, None))
            finally:  # rows 0..i were checked and read, also when row i raised
                counters.bounds_checks += arity * n * (i + 1)
                if one_run and n and i >= 0:
                    trace.run(itertools.chain.from_iterable(map(reads, range(i + 1))), "R")
            if kind == "reduce":
                return out
            return Stack(out, (extent, n) if extent else (0,), views[0].dtype, blocks)
        return node

    def _node(self, fn, callee, sources):
        """Kernel of map node `fn`, with callee `callee`, over operands that
        `_leaf_node` does not run: per row, the untiled map without a
        frame. Each row's operands come from `sources` (see
        `_new_kernel`), and so do the callee's closure values, bound per
        row from the node's own parameters. The callee's kernel is looked
        up at row 0 only, for row 0's operand ranks; the node declines there
        when the callee has none or its kernel declines, as every row has
        row 0's ranks and extents. It concatenates its rows' element lists
        into one `Stack`; a row's block takes the row's own rows
        (`_append_row`)."""
        arity, counters, append = len(sources), self.config.counters, self._append_row
        zeros = (0,) * arity
        binds = [(c, fn.params.index(c) if c in fn.params else c)
                 for c in callee.fn.closure_params]

        def node(views, axes, extent, captured):
            slicers = [self._slicer(v, axis) for v, axis in zip(views, axes)]
            out, blocks = [], [] if self.config.trace is not None else None
            shape, n, empty, exact = (), 0, views[0].dtype, None
            for i in range(extent):
                rows = [s(i) for s in slicers]
                operands = [rows[s] if type(s) is int else captured[s] for s in sources]
                bound = {c: rows[s] if type(s) is int else captured[s] for c, s in binds} \
                    if binds else NO_CAPTURES
                if not i:
                    # Every row has the extents of row 0, and only row 0 checks them.
                    n = self._operand_views(operands, zeros, "Map")[1]
                    inner = self._kernel(callee, tuple(len(v.shape) for v in operands))
                    if inner is None:
                        return None
                    empty = operands[0].dtype
                counters.bounds_checks += arity * n
                value = inner(operands, zeros, n, bound)
                if value is None:  # row 0, before any side effect
                    counters.bounds_checks -= arity * n
                    return None
                if not i and type(value) is Stack:
                    exact = value.exact
                shape = append(out, blocks, value, n)
                del value  # its rows' blocks die now (`_append_row`)
            return Stack(out, (extent,) + shape if extent else (0,), empty, blocks, exact)
        return node

    def _append_row(self, out, blocks, value, n):
        """Append to `out` the elements of one row's `value` from a node's
        kernel, a `Stack` or n scalars, and with a trace sink its block
        to `blocks`; gives the row's shape. The blocks of `value`'s own
        rows die when this returns, after the row's block is placed."""
        if type(value) is Stack:
            data, shape, rows = value.data, value.shape, value.rows
        else:
            data, shape, rows = value, (n,), None
        out += data
        if blocks is not None:
            blocks.append(self._row_block(len(data), rows))
        return shape

    def _row_block(self, size, rows):
        """An address-only block of `size` elements, placed and written as
        an array that stacks `rows` (None for scalars) would be."""
        block = self._placed(Block(size))
        self._fill(block, rows)
        return block
