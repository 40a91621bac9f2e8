"""Node kernels: an operator's callee run over every slice without a call
per slice (`Kernels`, which `semantics.Interpreter` inherits).

An operator runs a callee that `ir.body_shape` describes through its
kernel `kernel(views, axes, extent, captured, at=None)`:
- a leaf over rank-1 operands is one loop over a slice of each flat
  buffer (scalar closure operands broadcast), one result per slice;
- a leaf `a OP b` over rank-2 operands of its own parameters runs each
  row's elementwise operation without a frame or a View;
- a map, reduce or scan (a node) over rank-2 operands whose callee is a
  leaf runs once per row without a frame. Its operands are any of its
  parameters, whose rows it takes, and its closure parameters, the same
  value for every row: a rank-1 closure array is read in place as a row
  of stride 0, the same elements at every row, with no View built for
  it. It reads each row as a slice of the flat buffer, without a View
  per row, and checks the row extents once. A reduce node gives one
  result per row;
- a dot, `p = a OP b` reduced by a leaf, over rank-2 operands, its
  parameters or rank-1 closure arrays read as rows of stride 0 as
  above, runs each row's product and fold without a frame or an array,
  one result per row;
- any other map node runs its callee's kernel once per row without a
  frame, if that kernel gives scalars: a reduce node's, a dot's, or a
  leaf's over rank-1 rows. The callee may read closures, bound per row
  from the node's parameters or closure values. A map node over a map or
  scan node has no kernel.
A fold (Reduce or Scan) runs only a leaf so, with a scalar init, no emit
and a combine `return a OP b`. An operator hands a kernel at least one
slice. A kernel that meets a row of no element, or an operand it has no
rule for (a scalar or wrong-rank closure), declines, giving None, before
any side effect, and the operator makes one call per slice; so does a
dot whose product's rows differ in extent, which the call then raises.

A kernel writes its value where the value stays. The caller's
`at(shape)` gives `(data, offset, strides)`: the element list, the
offset of element 0 and the strides of the place, of `shape`, where the
kernel writes its results stacked along a new leading axis, its rows
first. That place is the value's in a tiled operator's output, with the
stacked axis first, or a new array whose element list the kernel fills.
A kernel calls `at` once, after the last point where it can decline,
with `(extent,)` plus the shape of one row's value. It writes each row
with one slice assignment as it computes it, and gives `(dtype, rows)`:
the dtype that stacking its rows' values gives, and with a trace sink
the block of each row (below), None for scalars; without one, None.
Given no `at`, a kernel whose results are scalars (a leaf over rank-1
operands, a reduce node, a dot) gives them as a list instead: a fold
folds or scans them, and a map node writes them into its own rows.

The dtype follows the values, as stacking them would: f64 when any
result is a float, else i64. A map or scan node over a leaf knows its
results are ints without a look at them when every operand is i64,
which holds ints only (`ndarray`), no `/` makes them and the init is an
int; else it looks at each row's results until one holds a float. A
leaf `a OP b` over rows gives `ndarray.elementwise_dtype`, and a map
node f64 when any row's value is. All give the values, trace events,
allocations, counters and errors of one call per slice.

One call per slice would build an array for each row of a map or scan
node. With a trace sink the node models each of them by an address-only
`ndarray.Block` of the same size. It reports the same `W` or `RW` run
over the block as the array's stack would, and lets the blocks die where
the arrays would, once the operator's array is written. So addresses,
events and runs are those of one call per slice. A leaf's reads are one
`R` run, and so are the reads of all the rows of a reduce node; a map or
scan node reports each row's reads as one run, as the row's results are
stacked between them. A dot's product is a block of its size, placed
as the product's array would be, which one `RRW` run writes and one `R`
run reads, and which dies before the next row's.
"""

from __future__ import annotations

import functools
import itertools
import types

from . import ir
from .ndarray import (
    ELEM_SIZE, ArrayValue, Block, addresses, elementwise_dtype, interleave, match_shapes, scalar_op,
    span,
)


class EvalError(Exception):
    """An error of the program under evaluation."""


# The captured values of a callee without closure parameters.
NO_CAPTURES = types.MappingProxyType({})


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


def _rows(views, axes, captured, sources):
    """The rows of each operand of a node's operator, from `sources` (see
    `Kernels._new_kernel`), as one flat span: (element list, offset of row
    0, row stride, element stride, row extent, byte address of row 0),
    strides in elements. A parameter's rows are the slices of its rank-2
    view along its axis in `axes`. A closure operand, a rank-1 array, is
    every row itself: it is read in place with row stride 0. None when a
    closure operand is anything else."""
    out = []
    for s in sources:
        if type(s) is int:
            v, axis = views[s], axes[s]
            row, step, n = v.strides[axis], v.strides[1 - axis], v.shape[1 - axis]
        else:
            v = captured[s]
            if not isinstance(v, ArrayValue) or len(v.shape) != 1:
                return None
            row, (step,), (n,) = 0, v.strides, v.shape
        root = v.root
        out.append((root.data, v.offset, row, step, n, root.addr + v.offset * ELEM_SIZE))
    return out


def _row_ranges(spans, n):
    """`i ->` the byte addresses of row i of each of `spans` (`_rows`),
    every row of extent n: one range per span."""
    steps = [(addr, row * ELEM_SIZE, step * ELEM_SIZE) for _, _, row, step, _, addr in spans]
    return lambda i: [range(base + i * row, base + i * row + n * step, step)
                      for base, row, step in steps]


def _row_reads(spans, n):
    """`i ->` the byte addresses a leaf reads at row i of `spans` (`_rows`),
    every row of extent n: per index, one per span in order
    (`ndarray.interleave`). One span's row is its range, with no list
    built per row: the hot case, as a traced row sum reads one operand."""
    if len(spans) == 1:
        (_, _, row, step, _, base), = spans
        row, step = row * ELEM_SIZE, step * ELEM_SIZE
        return lambda i: range(base + i * row, base + i * row + n * step, step)
    ranges = _row_ranges(spans, n)
    return lambda i: interleave(ranges(i))


def _scalars(results, at):
    """(dtype, None): scalar `results`, one per slice, written stacked at
    `at` (see the module docstring), and their dtype: f64 when any is a
    float, else i64, also when there is none (a stack of no value)."""
    data, offset, (step,) = at((len(results),))
    if results:
        data[offset:offset + len(results) * step:step] = results
    return "f64" if float in map(type, results) else "i64", None


class Kernels:
    """The kernel builders of `semantics.Interpreter`. They use its
    `config` and `program`, and its `_function`, `_placed`, `_fill`,
    `_slicer` and `_operand_views`."""

    def _kernel(self, f, ranks):
        """The kernel of `f` for operands of `ranks` (see the module docstring) or
        None: `kernel(views, axes, extent, captured, at=None)` writes f's results at
        every slice of `views` along `axes` stacked at `at` (scalars without `at`
        are given as a list), or is None before any side effect. A fold node needs
        rank 2 and a combine with `op`."""
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
        kind, g, combine, init, names = shape[:5]
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
        comb = self._function(combine) if combine in functions else None
        op = comb and comb.op
        leaf = ir.body_shape(callee)
        elementary = (set(ranks) == {2} and leaf is not None and leaf[0] == "leaf"
                      and not callee.closure_params)
        if kind == "dot":
            if not elementary or len(callee.params) != 1 or op is None:
                return None
            return self._dot(shape[5], sources, _leaf_values(callee, *leaf[1:])[1], op, init)
        if elementary and len(callee.params) == len(names):
            if kind != "map" and op is None:
                return None
            values = _leaf_values(callee, leaf[1], leaf[2])[1]
            divides = "/" in (leaf[1], op and comb.shape[1])
            return self._leaf_node(kind, values, op, init, sources, divides)
        # A map node runs only a callee whose kernel gives scalars.
        if kind != "map" or leaf is None or leaf[0] in ("map", "scan"):
            return None
        return self._node(fn, self._function(g), sources, leaf[0] != "leaf")

    def _leaf(self, fn, op, names):
        """Kernel of leaf `fn`, None for an array closure operand: its results,
        written at `at` or, without one, as a list (`_scalars`). It reports
        reads as the generic path does: per index, one per view in order."""
        shared, values = _leaf_values(fn, op, names)
        trace = self.config.trace

        def leaf(views, axes, extent, captured, at=None):
            columns = [v.root.data[span(v)] for v in views]
            for n in shared:
                if isinstance(captured[n], ArrayValue):
                    return None
                columns.append([captured[n]] * extent)
            if trace is not None:
                trace.run(interleave(list(map(addresses, views))), "R")
            results = values(columns)
            return results if at is None else _scalars(results, at)
        return leaf

    def _row_map(self, op, picks):
        """Kernel of a leaf `a OP b` over the parameters `picks` when the
        operands are rank 2: per row, the elementwise operation
        (`_elementwise`) over the two rows, without a frame or a View. A
        row's values are written, then its block is placed, then one `RRW`
        run reads both rows and writes the block. Row extents are checked
        once and raise as `ndarray.elementwise` does (`match_shapes`); rows
        of no element make it decline. Its dtype is the elementwise
        result's (`elementwise_dtype`)."""
        f, trace = scalar_op(op), self.config.trace

        def rows(views, axes, extent, captured, at):
            spans = _rows(views, axes, captured, picks)
            (da, oa, sa, ta, n, _), (db, ob, sb, tb, m, _) = spans
            match_shapes((n,), (m,))
            if not n:
                return None
            buf, base, (row, step) = at((extent, n))
            width = n * step
            blocks = [] if trace is not None else None
            ranges = trace and _row_ranges(spans, n)
            for i in range(extent):
                i_a, i_b, o = oa + i * sa, ob + i * sb, base + i * row
                buf[o:o + width:step] = map(f, da[i_a:i_a + n * ta:ta], db[i_b:i_b + n * tb:tb])
                if blocks is not None:
                    block = self._placed(Block(n))
                    start = block.addr
                    trace.run(interleave(ranges(i) + [range(start, start + n * ELEM_SIZE,
                                                           ELEM_SIZE)]), "RRW")
                    blocks.append(block)
            return elementwise_dtype(op, *[views[p] for p in picks]), blocks
        return rows

    def _leaf_node(self, kind, values, op, init, sources, divides):
        """Kernel of a node over rank-2 operands whose callee is a leaf with
        `values` (`_leaf_values`): per row, the untiled operator without a
        frame. Its operator's operands come from `sources` (see
        `_new_kernel`), each read as a row span (`_rows`): a closure
        operand, a rank-1 array, is read in place as a row of stride 0,
        and any other closure value makes it decline. Row i of each
        operand is a slice of its flat buffer; no View is built for an
        operand or a row. Row extents are checked once and raise as
        `Interpreter._operand_views` does, and rows of no element make it
        decline. A reduce writes its rows' results at `at` once they are
        all computed, or gives them as a list without one, and reports the
        reads of all its rows as one run, as nothing comes between them. A
        map or a scan writes each row's results as it computes them; it
        reports each row's reads as a run before the row's block takes the
        row's results. It looks at the dtypes of its operands' sources, a
        parameter's view or a closure array. `divides` says whether the
        leaf or the combine is `/`."""
        what, counters, trace = kind.capitalize(), self.config.counters, self.config.trace
        reduces = kind == "reduce"
        one_run = trace is not None and reduces
        run_per_row = trace is not None and not reduces
        arity = len(sources)
        if reduces:
            def row(columns):
                return functools.reduce(op, values(columns), init)
        elif kind == "scan":
            def row(columns):
                return list(itertools.islice(itertools.accumulate(values(columns), op,
                                                                  initial=init), 1, None))
        else:
            row = values
        # Whether the results must be looked at for a float whatever the
        # operands' dtypes (see the module docstring).
        look_always = divides or type(init) is float

        def node(views, axes, extent, captured, at):
            spans = _rows(views, axes, captured, sources)
            if spans is None:
                return None
            n = spans[0][4]
            for _, _, _, _, m, _ in spans:
                if m != n:
                    raise EvalError(f"{what} sliced extents differ: {n} vs {m}")
            if not n:
                return None
            reads = trace and _row_reads(spans, n)
            if not reduces:
                buf, base, (stride, step) = at((extent, n))
                width = n * step
                look = look_always or "f64" in [
                    (views[s] if type(s) is int else captured[s]).dtype for s in sources]
            f64, blocks = False, [] if run_per_row else None
            try:
                if reduces:
                    out = []
                    for i in range(extent):
                        out.append(row([data[o + i * s:o + i * s + n * t:t]
                                        for data, o, s, t, _, _ in spans]))
                else:
                    for i in range(extent):
                        if run_per_row:
                            trace.run(reads(i), "R")
                        got = row([data[o + i * s:o + i * s + n * t:t]
                                   for data, o, s, t, _, _ in spans])
                        o = base + i * stride
                        buf[o:o + width:step] = got
                        if look and float in map(type, got):
                            look, f64 = False, True
                        if blocks is not None:
                            blocks.append(self._row_block(n))
            finally:  # rows 0..i were checked and read, also when row i raised
                counters.bounds_checks += arity * n * (i + 1)
                if one_run:
                    trace.run(itertools.chain.from_iterable(map(reads, range(i + 1))), "R")
            if reduces:
                return out if at is None else _scalars(out, at)
            return "f64" if f64 else "i64", blocks
        return node

    def _dot(self, op, sources, values, fold, init):
        """Kernel of a dot (`ir.body_shape`) over rank-2 operands from
        `sources`, read as row spans as `_leaf_node` reads them (a rank-1
        closure array as a row of stride 0, with no View built for it):
        per row, the product `a OP b` of the operands' rows, then the
        reduce of the leaf that gives `values` (`_leaf_values`) with the
        combine `fold`, without a frame or an array. It declines on a
        closure operand that is not a rank-1 array and on rows of no
        element or of different extents, where the product raises. A row's
        product is a block (see the module docstring), whose `RRW` run
        reads the rows as `_elementwise` does; the reduce counts a bounds
        check per element of it. It gives one result per row, written at
        `at` or, without one, as a list."""
        f, counters, trace = scalar_op(op), self.config.counters, self.config.trace

        def dot(views, axes, extent, captured, at=None):
            spans = _rows(views, axes, captured, sources)
            if spans is None:
                return None
            (da, oa, sa, ta, n, _), (db, ob, sb, tb, m, _) = spans
            if not n or m != n:
                return None
            ranges = trace and _row_ranges(spans, n)
            out = []
            for i in range(extent):
                i_a, i_b = oa + i * sa, ob + i * sb
                product = list(map(f, da[i_a:i_a + n * ta:ta], db[i_b:i_b + n * tb:tb]))
                if trace is not None:
                    start = self._placed(Block(n)).addr  # the block dies here
                    block = range(start, start + n * ELEM_SIZE, ELEM_SIZE)
                    trace.run(interleave(ranges(i) + [block]), "RRW")
                    trace.run(block, "R")
                counters.bounds_checks += n
                out.append(functools.reduce(fold, values([product]), init))
            return out if at is None else _scalars(out, at)
        return dot

    def _node(self, fn, callee, sources, reduces):
        """Kernel of map node `fn`, with callee `callee`, a reduce node or a
        dot when `reduces`, else a leaf, over operands that `_leaf_node`
        does not run: per row, the untiled map without a frame, when the
        callee's kernel gives scalars (a reduce node's or a dot's, or a
        leaf's over rank-1 rows). Each row's
        operands come from `sources` (see `_new_kernel`), and so do the
        callee's closure values, bound per row from the node's own
        parameters. The callee's kernel is looked up at row 0 only, for row
        0's operand ranks, as every row has row 0's ranks and extents. So
        the node declines there, before any side effect, when the rows
        have no slice or the callee's kernel is none, gives arrays or
        declines. The node writes each row's scalars at the row's place,
        and a row's block stands for the row's array (`_row_block`)."""
        arity, counters, trace = len(sources), self.config.counters, self.config.trace
        zeros = (0,) * arity
        binds = [(c, fn.params.index(c) if c in fn.params else c)
                 for c in callee.fn.closure_params]

        def node(views, axes, extent, captured, at):
            slicers = [self._slicer(v, axis) for v, axis in zip(views, axes)]
            f64, blocks = False, [] if trace is not None else None
            for i in range(extent):
                rows = [s(i) for s in slicers]
                operands = [rows[s] if type(s) is int else captured[s] for s in sources]
                bound = {c: rows[s] if type(s) is int else captured[s] for c, s in binds} \
                    if binds else NO_CAPTURES
                if not i:
                    # Every row has the extents of row 0, and only row 0 checks them.
                    n = self._operand_views(operands, zeros, "Map")[1]
                    ranks = tuple(len(v.shape) for v in operands)
                    inner = n and (reduces or max(ranks) == 1) and self._kernel(callee, ranks)
                    if not inner:
                        return None
                counters.bounds_checks += arity * n
                got = inner(operands, zeros, n, bound, None)
                if got is None:  # row 0, before any side effect
                    counters.bounds_checks -= arity * n
                    return None
                if not i:
                    data, base, (stride, step) = at((extent, n))
                    width = n * step
                o = base + i * stride
                data[o:o + width:step] = got
                f64 = f64 or float in map(type, got)
                if blocks is not None:
                    blocks.append(self._row_block(n))
            return "f64" if f64 else "i64", blocks
        return node

    def _row_block(self, size):
        """An address-only block of `size` elements, placed and written as
        a stack of scalars would be."""
        block = self._placed(Block(size))
        self._fill(block)
        return block
