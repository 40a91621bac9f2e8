"""Reference interpreter for untiled and tiled programs.

Evaluation is eager and deterministic. Scalars are Python ints/floats;
arrays are NdArray/View values, and an NdArray is its own view. Nested
functions of parallel operators receive sliced arguments positionally;
their closure parameters are resolved by name in the frame enclosing the
operator expression.

The three tiled operators run through one method (`Interpreter._tiled`).
It cuts every operand into full tiles plus an optional straggler and
runs the tiles one after another in tile order, each through the one
build of its tile function. A full tile of an operator whose slot has a
fixed size k (`fixed=k`, a register tile) also puts k in the frame of
its tile call, for the bounds-check rule (`Counters`). The results are
put back together so that the outcome equals the untiled operator:
concatenated for a map, folded with the combine for a reduce, and for a
scan fixed up with each tile's carry, then emitted, then concatenated (a
tiled scan's tiles scan without `emit`). When the lifted combine is
`return map(G, a, b; axes=[0, 0])`, a tile's whole fix-up is one call of
the combine's node kernel (below) over the carry, broadcast along a new
leading axis, and the tile: each row is one step, run as the untiled map
would run it. Any other combine is called once per step. An empty extent
at depth 0 gives what the untiled operator gives for zero slices; below
depth 0 one empty straggler runs through the tile function, which builds
the nest's own empty result.

The untiled ones run through one method too (`Interpreter._untiled`):
one callee call per slice, each result folded into the accumulator
before the next call, or the callee's kernel (below), whose results
`_assemble` stacks, folds or scans. Zero slices give a reduce its init,
else an empty rank-1 array of the first operand's dtype.

Each function is built once, on its first call, into nested closures;
callees are looked up by name when an operator first runs, so a missing
function raises only when execution reaches it. An operator runs a
callee that `ir.body_shape` describes without a call per slice, through
its kernel `kernel(views, axes, extent, captured)`:
- a leaf over rank-1 operands is one loop over a slice of each flat
  buffer (scalar closure operands broadcast); it gives its results, one
  scalar per slice, which the operator stacks, folds or scans;
- a leaf `a OP b` over rank-2 operands of its own parameters runs each
  row's elementwise operation without a frame or a View, and gives the
  rows stacked, as a `_Stack` (below) of the elementwise result's dtype;
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
  `_Stack`: a flat row-major element list, with the shape and the dtype
  that stacking its rows' arrays would give. Each row appends its results
  to that list, and a map node whose rows are arrays concatenates its
  rows' lists. The caller that needs an array (`_assemble`) adopts the
  list once.
A fold (Reduce or Scan) runs only a leaf so, with a scalar init, no emit
and a combine `return a OP b`. A kernel that meets an operand it has no
rule for (a scalar or wrong-rank closure) declines before any side
effect, and the operator makes one call per slice. Stacked scalars are
the output's element list as they are; arrays are stacked as a concat
joins its parts (`ndarray.join`). All give the values, trace events,
allocations, counters and errors of one call per slice.

The interpreter builds its arrays with `ndarray.adopt`, from a finished
element list and a shape, dtype and layout it derived itself, so nothing
is zero-filled first or checked again. It places each array, and each
block (below), at one point (`_placed`) as it is built, so the order of
allocations, and of the frees that reference counting makes, decides
each address. One call per slice would build an array for each row of a
map or scan node, and for each row of those rows. With a trace sink the
node models each of them by an address-only `ndarray.Block` of the same
size. It reports the same `W` or `RW` run over the block as the array's
stack would, and lets the blocks die where the arrays would: a row's
blocks die, last to first, once the row's own block is written, and the
outermost ones once the operator's array is. So addresses, events and
runs are those of one call per slice.

A trace sink is any object with `run(addrs, kinds)` and `phase(label)`.
When one is attached (`EvalConfig.trace`), every array element read or
write is reported to it by byte address, in runs: `addrs` iterates a
run's addresses in event order and `kinds`, a non-empty string of `R`
and `W`, is cycled over them to give each one's kind. The interpreter
reports every run; `ndarray` reports none. A leaf's reads are one `R`
run, and so are the reads of all the rows of a reduce node; a map or
scan node reports each row's reads as one run, as the row's results are
stacked between them. An elementwise operation is one `RW` or `RRW` run.
Every stack and join, of arrays or blocks, is one run of the one copy
emitter, `_fill`. No run is empty: an operation on no element reports
none.
Each statement of the entry function announces itself with `phase`
before it runs, never within a run; a `for` loop is one phase, `for
VAR`, and its body announces none. Each traced run places its arrays in
a fresh simulated address space, so addresses start at 0. `TraceSink`
records the events; `cachesim.Simulator` consumes them as they come.
"""

from __future__ import annotations

import functools
import itertools
import types
from dataclasses import dataclass, field

from . import ir
from .ndarray import (
    ELEM_SIZE, Allocator, ArrayValue, Block, NdArray, View, addresses, adopt, concat, decompose,
    element_list, elementwise, elementwise_dtype, interleave, join, make_strides, match_shapes,
    result_dtype, scalar_op, slice_axis, span, tile_view,
)


class EvalError(Exception):
    pass


@dataclass
class Counters:
    """Instrumentation for dispatch and bounds-check behaviour.

    `full_tile_calls` and `straggler_calls` count the tiles a tiled
    operator runs. `bounds_checks` counts, for each untiled operator, one
    check per operand per slice, also for the rows a node kernel runs
    without a call; tiled operators count none. The one exception: an
    operator run by a full tile of a `fixed=k` operator, in the tile
    function's own frame, counts no check at extent k, on whichever axis
    it slices. So an axis that is only as long as k by chance is skipped
    too, while the operators of the tile function's callees, of its
    `uses` closures and of its inner stragglers, each run in a frame of
    its own, count as anywhere else."""

    full_tile_calls: int = 0
    straggler_calls: int = 0
    bounds_checks: int = 0


class TraceSink:
    """Records each event of a run in `events` as (address, 'R' | 'W'),
    pairing the run's addresses with its kinds cycled; ignores phases. A
    trace sink is any object with `run(addrs, kinds)` and `phase(label)`;
    `cachesim.Simulator` is the streaming one."""

    def __init__(self):
        self.events = []

    def run(self, addrs, kinds):
        self.events.extend(zip(addrs, itertools.cycle(kinds)))

    def phase(self, label):
        pass


@dataclass
class EvalConfig:
    tile_sizes: dict = field(default_factory=dict)  # slot id -> extent
    trace: object = None  # a trace sink, or None
    counters: Counters = field(default_factory=Counters)


def eval_program(program, args, config=None):
    """Evaluate `main` on the given argument values."""
    return Interpreter(program, config).run(args)


# What a block returns when it runs to its end without a return statement.
_NO_RETURN = object()

# The captured values of a callee without closure parameters.
_NO_CAPTURES = types.MappingProxyType({})

# The frame key that holds k in a full tile's call of the tile function of
# a `fixed=k` operator; no program can bind it, as no identifier starts
# with "$".
_FIXED = "$k"

# The element types `_stack` takes as scalars without a per-value check.
_SCALARS = frozenset((int, float))


class _Compiled:
    """One function, built once per interpreter.

    `call(args, captured)` applies it to positional arguments and its
    captured closure values. `kernels` maps operand ranks to its kernel
    or None (see `Interpreter._kernel`); `op` is its scalar operator as a
    combine (`ir.combine_op`), and `shape` its `ir.body_shape`."""

    __slots__ = ("fn", "call", "op", "shape", "kernels")

    def __init__(self, fn, call, op, shape):
        self.fn, self.call, self.op, self.shape, self.kernels = fn, call, op, shape, {}


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
    node's `extent` rows, from `sources` (see `Interpreter._new_kernel`),
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


def _scalar_dtype(values):
    """The dtype of `values` stacked as scalars: f64 when any is a float,
    else i64; None when any is an array."""
    kinds = set(map(type, values))
    if kinds <= _SCALARS:
        return "f64" if float in kinds else "i64"
    if any(isinstance(x, ArrayValue) for x in values):
        return None
    return result_dtype(values)


class _Stack:
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
        operand's (`empty`) when there is no element, else `_scalar_dtype`
        of the elements."""
        return self.exact or (_scalar_dtype(self.data) if self.data else self.empty)


def _failing(message):
    def fail(frame, hold=None):
        raise EvalError(message)
    return fail


class Interpreter:
    """Evaluates a program by building each function into closures on its
    first call: statements and expressions become nested Python closures
    over a frame dict, with callees and closure-parameter names resolved
    once instead of on every call."""

    def __init__(self, program, config=None):
        self.program = program
        self.config = config or EvalConfig()
        self._functions = {}  # name -> _Compiled
        self._entry = None
        self._allocator = None

    # -- entry points --------------------------------------------------------

    def run(self, args):
        fn = self.program.fn("main")
        if len(args) != len(fn.params):
            raise EvalError(f"main takes {len(fn.params)} argument(s), got {len(args)}")
        if fn.closure_params:
            raise EvalError("entry function main must not have closure parameters")
        if self.config.trace is not None:
            self._allocator = Allocator()
            for a in args:
                if isinstance(a, NdArray):
                    self._allocator.allocate(a, reclaim=False)
        self._entry = fn  # its statements announce trace phases when built
        try:
            return self._function("main").call(list(args), {})
        except ArithmeticError as exc:  # division by zero, float overflow
            raise EvalError(f"arithmetic error: {exc}") from exc
        finally:
            # The built closures refer back to this interpreter; dropping
            # them lets reference counting free it, with its trace sink,
            # as soon as the caller does.
            self._functions = {}

    # -- building functions ----------------------------------------------------

    def _function(self, name):
        """The build of function `name`."""
        compiled = self._functions.get(name)
        if compiled is None:
            compiled = self._functions[name] = self._build(self.program.fn(name))
        return compiled

    def _callee(self, name, env):
        """The built function `name` and its closure values from `env`."""
        f = self._function(name)
        if not f.fn.closure_params:
            return f, _NO_CAPTURES
        captured = {}
        for c in f.fn.closure_params:
            if c not in env:
                raise EvalError(f"closure parameter {c!r} of {name} is unbound at the call site")
            captured[c] = env[c]
        return f, captured

    def _build(self, fn):
        op = ir.combine_op(fn)
        mark = self.config.trace is not None and fn is self._entry
        body = self._block(fn.body, mark)
        params, name = fn.params, fn.name

        def call(args, captured):
            frame = dict(zip(params, args))
            frame.update(captured)
            value = body(frame)
            if value is _NO_RETURN:
                raise EvalError(f"{name} finished without returning")
            return value

        return _Compiled(fn, call, op and scalar_op(op), ir.body_shape(fn))

    def _kernel(self, f, ranks):
        """The kernel of `f` for operands of `ranks` (see the module docstring) or
        None: `kernel(views, axes, extent, captured)` lists f's results at every slice
        of `views` along `axes` (a map or scan node gives them stacked, as a `_Stack`),
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
        return self._node(fn, self._function(g), sources, ranks)

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
        gives a `_Stack` whose dtype is the elementwise result's
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
            return _Stack(out, (extent, n) if extent else (0,), views[0].dtype, blocks,
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
        results to one element list and gives a `_Stack`; it reports each
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
            return _Stack(out, (extent, n) if extent else (0,), views[0].dtype, blocks)
        return node

    def _node(self, fn, callee, sources, ranks):
        """Kernel of map node `fn`, with callee `callee`, over operands of
        `ranks` that `_leaf_node` does not run: per row, the untiled map
        without a frame. Each row's operands come from `sources` (see
        `_new_kernel`), and so do the callee's closure values, bound per
        row from the node's own parameters. The callee's kernel is picked
        for the operands' ranks once per operand ranks, and may decline at
        row 0 only, as every row has row 0's ranks and extents. It
        concatenates its rows' element lists into one `_Stack`; a row's
        block takes the row's own rows (`_append_row`)."""
        arity, counters, append = len(sources), self.config.counters, self._append_row
        zeros = (0,) * arity
        binds = [(c, fn.params.index(c) if c in fn.params else c)
                 for c in callee.fn.closure_params]
        fixed = None
        if all(type(s) is int for s in sources):
            fixed = self._kernel(callee, tuple(ranks[s] - 1 for s in sources))
            if fixed is None:
                return None

        def node(views, axes, extent, captured):
            slicers = [self._slicer(v, axis) for v, axis in zip(views, axes)]
            out, blocks = [], [] if self.config.trace is not None else None
            shape, n, inner, empty, exact = (), 0, fixed, views[0].dtype, None
            for i in range(extent):
                rows = [s(i) for s in slicers]
                operands = [rows[s] if type(s) is int else captured[s] for s in sources]
                bound = {c: rows[s] if type(s) is int else captured[s] for c, s in binds} \
                    if binds else _NO_CAPTURES
                if not i:
                    # Every row has the extents of row 0, and only row 0 checks them.
                    n = self._operand_views(operands, zeros, "Map")[1]
                    inner = inner or self._kernel(callee, tuple(len(v.shape) for v in operands))
                    if inner is None:
                        return None
                    empty = operands[0].dtype
                counters.bounds_checks += arity * n
                value = inner(operands, zeros, n, bound)
                if value is None:  # row 0, before any side effect
                    counters.bounds_checks -= arity * n
                    return None
                if not i and type(value) is _Stack:
                    exact = value.exact
                shape = append(out, blocks, value, n)
                del value  # its rows' blocks die now (`_append_row`)
            return _Stack(out, (extent,) + shape if extent else (0,), empty, blocks, exact)
        return node

    def _append_row(self, out, blocks, value, n):
        """Append to `out` the elements of one row's `value` from a node's
        kernel, a `_Stack` or n scalars, and with a trace sink its block
        to `blocks`; gives the row's shape. The blocks of `value`'s own
        rows die when this returns, after the row's block is placed."""
        if type(value) is _Stack:
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

    # -- statements ------------------------------------------------------------

    def _block(self, block, mark):
        """A closure running `block` on a frame; it returns the value of
        the first return statement reached, or _NO_RETURN.

        A for loop's sequence stays alive until its block ends (`hold`):
        when a temporary dies decides which free block the allocator hands
        out next, so this keeps every traced address where it was."""
        steps = tuple(self._statement(s, mark) for s in block)
        if len(steps) == 1:
            return steps[0]

        def run(frame):
            hold = []
            for step in steps:
                value = step(frame, hold)
                if value is not _NO_RETURN:
                    return value
            return _NO_RETURN

        return run

    def _statement(self, s, mark):
        phase = self.config.trace.phase if mark else None
        t = type(s)
        if t is ir.Assign:
            target, value = s.target, self._expr(s.value)
            label = f"{target} ="

            def assign(frame, hold=None):
                if phase is not None:
                    phase(label)
                frame[target] = value(frame)
                return _NO_RETURN
            return assign
        if t is ir.Return:
            value = self._expr(s.value)

            def ret(frame, hold=None):
                if phase is not None:
                    phase("return")
                return value(frame)
            return ret
        if t is ir.If:
            cond = self._expr(s.cond)
            then, orelse = self._block(s.then, mark), self._block(s.orelse, mark)

            def branch(frame, hold=None):
                c = cond(frame)
                if isinstance(c, ArrayValue):
                    raise EvalError("if condition must be a scalar")
                return then(frame) if c != 0 else orelse(frame)
            return branch
        if t is ir.For:
            var, seq, body = s.var, self._expr(s.seq), self._block(s.body, False)

            def loop(frame, hold=None):
                if phase is not None:
                    phase(f"for {var}")
                xs = seq(frame)
                if not isinstance(xs, ArrayValue):
                    raise EvalError("for-loop sequence must be an array")
                if hold is not None:
                    hold[:] = (xs,)
                if not xs.shape:
                    raise EvalError("cannot iterate a rank-0 array")
                step = self._slicer(xs, 0)
                for i in range(xs.shape[0]):
                    frame[var] = step(i)
                    value = body(frame)
                    if value is not _NO_RETURN:
                        return value
                return _NO_RETURN
            return loop
        return _failing(f"unknown statement {t.__name__}")

    # -- expressions -----------------------------------------------------------

    def _expr(self, e):
        """A closure evaluating expression `e` on a frame."""
        t = type(e)
        if t is ir.Const:
            value = e.value
            return lambda frame: value
        if t is ir.Var:
            name = e.name

            def var(frame):
                try:
                    return frame[name]
                except KeyError:
                    raise EvalError(f"unbound variable {name!r}") from None
            return var
        if t is ir.BinOp:
            left, right = self._expr(e.left), self._expr(e.right)
            op, f = e.op, scalar_op(e.op)

            def binop(frame):
                a, b = left(frame), right(frame)
                if isinstance(a, ArrayValue) or isinstance(b, ArrayValue):
                    return self._elementwise(op, a, b)
                return f(a, b)
            return binop
        if t is ir.Index:
            array, index = self._expr(e.array), self._expr(e.index)
            return lambda frame: self._index(array(frame), index(frame))
        if t is ir.ArrayLit:
            items = tuple(self._expr(x) for x in e.items)
            return lambda frame: self._stack([item(frame) for item in items])
        if isinstance(e, ir.TILED_OPS) or t in (ir.Map, ir.Reduce, ir.Scan):
            return self._operator(e)
        if t is ir.AllPairs:
            return _failing("AllPairs must be desugared before evaluation")
        return _failing(f"cannot evaluate {t.__name__}")

    def _operator(self, e):
        """Operands evaluate first, in order, then the init value; both are
        released in that order once the operator returns."""
        args = tuple(self._expr(a) for a in e.args)
        init = self._expr(e.init) if hasattr(e, "init") else None
        run = self._tiled if type(e) in ir.TILED_OPS else self._untiled

        def operator(frame):
            values = [a(frame) for a in args]
            start = init and init(frame)
            return run(e, start, values, frame)
        return operator

    def _index(self, arr, i):
        if not isinstance(arr, ArrayValue):
            raise EvalError("cannot index a scalar")
        if isinstance(i, ArrayValue) or isinstance(i, float):
            raise EvalError("array index must be an integer scalar")
        if not arr.shape:
            raise EvalError("cannot index a rank-0 array")
        if not 0 <= i < arr.shape[0]:
            raise EvalError(f"index {i} out of bounds for extent {arr.shape[0]}")
        return self._slicer(arr, 0)(i)

    # -- array plumbing (all traced) --------------------------------------------

    def _placed(self, out):
        """`out`, an array or a block, placed in the run's address space when
        there is a trace sink."""
        if self.config.trace is not None:
            self._allocator.allocate(out)
        return out

    def _new_array(self, shape, dtype, layout, data):
        """`ndarray.adopt(shape, dtype, layout, data)`, placed: an array over
        its finished element list `data`."""
        return self._placed(adopt(shape, dtype, layout, data))

    def _fill(self, out, rows=None, places=None):
        """Report the writes of stacking or joining into `out`, an array or a
        block. Stacked scalars (`rows` is None, `out` of rank 1) are one `W`
        run over `out`. Else one `RW` run copies each of `rows` in turn, per
        element a read of the row and then a write of its place. The rows
        are arrays or views, or blocks, each read as its range; their places
        are the views `places`, or else (equal blocks) each the next stretch
        of `out`. No run when `out` is empty."""
        size, run = out.size, self.config.trace.run
        if not size:
            return
        if rows is None:
            run(range(out.addr, out.addr + size * ELEM_SIZE, ELEM_SIZE), "W")
            return
        if type(rows[0]) is Block:
            reads = (range(r.addr, r.addr + r.size * ELEM_SIZE, ELEM_SIZE) for r in rows)
        else:
            reads = map(addresses, rows)
        if places is None:
            start, step = out.addr, size // len(rows) * ELEM_SIZE
            places = (range(a, a + step, ELEM_SIZE)
                      for a in range(start, start + size * ELEM_SIZE, step))
        else:
            places = map(addresses, places)
        run(itertools.chain.from_iterable(itertools.chain.from_iterable(
            map(zip, reads, places))), "RW")

    def _join(self, parts, axis, stacked=False):
        """`ndarray.join(parts, axis, stacked)`, or the checked `concat`, placed;
        a trace sink gets each part's copy to its slice or tile (`_fill`)."""
        out = self._placed(join(parts, axis, True) if stacked else concat(parts, axis))
        if self.config.trace is not None:
            if stacked:
                places = (slice_axis(out, axis, j) for j in range(len(parts)))
            else:
                starts = itertools.accumulate((v.shape[axis] for v in parts), initial=0)
                places = (tile_view(out, axis, base, v.shape[axis])
                          for base, v in zip(starts, parts))
            self._fill(out, parts, places)
        return out

    def _elementwise(self, op, a, b):
        """`ndarray.elementwise(op, a, b)` of at least one array, placed; one
        run of, per element in index order, a read of each array operand (a,
        then b) and then the result's write."""
        out = self._placed(elementwise(op, a, b))
        trace = self.config.trace
        if trace is not None and out.size:
            operands = [v for v in (a, b) if isinstance(v, ArrayValue)]
            trace.run(interleave([*map(addresses, operands), addresses(out)]),
                      "R" * len(operands) + "W")
        return out

    def _slicer(self, v, axis):
        """`i ->` the slice of `v` at index i along `axis`, for every in-bounds
        i; a rank-1 `v` gives its element, read out (and traced). The
        slice's shape and strides, or the element's address, are worked
        out once."""
        root, offset, stride = v.root, v.offset, v.strides[axis]
        if len(v.shape) > 1:
            shape = v.shape[:axis] + v.shape[axis + 1:]
            strides = v.strides[:axis] + v.strides[axis + 1:]
            return lambda i: View(root, offset + i * stride, shape, strides)
        data, trace = root.data, self.config.trace
        if trace is None:
            return lambda i: data[offset + i * stride]
        run, base = trace.run, root.addr + offset * ELEM_SIZE

        def element(i):
            run((base + i * stride * ELEM_SIZE,), "R")
            return data[offset + i * stride]
        return element

    def _stack(self, values, axis=0):
        """Stack equal-shaped values along a new `axis`: Map and Scan
        outputs, array literals, and tiled-scan steps. `values` is a list;
        stacked scalars keep it as the output's elements, arrays are
        joined (`_join`)."""
        dtype = _scalar_dtype(values)
        if dtype is None:
            if not all(isinstance(x, ArrayValue) for x in values):
                raise EvalError("cannot stack scalars with arrays")
            shape = values[0].shape
            for x in values:
                if x.shape != shape:
                    raise EvalError(f"cannot stack shapes {shape} and {x.shape}")
            return self._join(values, axis, stacked=True)
        out = self._new_array((len(values),), dtype, "row", values)
        if self.config.trace is not None:
            self._fill(out)
        return out

    # -- untiled operators -------------------------------------------------------

    def _operand_views(self, args, axes, what):
        views = []
        extent = None
        for a, axis in zip(args, axes):
            if not isinstance(a, ArrayValue):
                raise EvalError(f"{what} argument must be an array, got a scalar")
            if axis >= len(a.shape):
                raise EvalError(f"{what} axis {axis} out of range for rank {len(a.shape)}")
            if extent is None:
                extent = a.shape[axis]
            elif a.shape[axis] != extent:
                raise EvalError(f"{what} sliced extents differ: {extent} vs {a.shape[axis]}")
            views.append(a)
        return views, extent

    def _untiled(self, node, init, args, env):
        """A Map, Reduce or Scan (see the module docstring); `init` is None for a
        map. It counts bounds checks as `Counters` says: at extent k none
        when its frame `env` holds k under `_FIXED`, else one per operand
        per slice."""
        kind = type(node).__name__
        f, captured = self._callee(node.fn, env)
        op = emit = None
        if kind != "Map":
            comb, comb_captured = self._callee(node.combine, env)
            op = comb.op
            if kind == "Scan" and node.emit is not None:
                emit, emit_captured = self._callee(node.emit, env)
        views, extent = self._operand_views(args, node.axes, kind)
        if extent != env.get(_FIXED):
            self.config.counters.bounds_checks += len(views) * extent
        if extent == 0:
            return self._assemble(kind, (), op, init, views[0].dtype)
        if kind == "Map" or (op is not None and emit is None and not isinstance(init, ArrayValue)
                             and all(len(v.shape) == 1 for v in views)):
            kernel = self._kernel(f, tuple([len(v.shape) for v in views]))
            values = kernel and kernel(views, node.axes, extent, captured)
            if values is not None:
                return self._assemble(kind, values, op, init, views[0].dtype)
        # Each step's callee result, then the old accumulator, die before the
        # next call; once the value is built, the last accumulator dies before
        # the other steps (see `_tiled` on why the order is spelled out).
        acc, outs = init, []
        slicers = [self._slicer(v, axis) for v, axis in zip(views, node.axes)]
        for i in range(extent):
            slices = [s(i) for s in slicers]
            if kind == "Map":
                outs.append(f.call(slices, captured))
                continue
            acc = comb.call([acc, f.call(slices, captured)], comb_captured)
            if kind == "Scan":
                outs.append(emit.call([acc], emit_captured) if emit else acc)
        value = acc if kind == "Reduce" else self._stack(outs)
        del acc, outs
        return value

    def _assemble(self, kind, values, op, init, dtype):
        """The value of untiled operator `kind` ("Map", "Reduce" or "Scan") from
        its callee's results (see the module docstring), or the array of a
        node kernel's `_Stack`; `dtype` is the first operand's."""
        if kind == "Reduce":
            return functools.reduce(op, values, init)
        if type(values) is _Stack:
            out = self._new_array(values.shape, values.dtype, "row", values.data)
            if values.rows is not None:
                self._fill(out, values.rows)
            return out
        if not values:
            return self._new_array((0,), dtype, "row", [])
        if kind == "Scan":
            values = list(itertools.accumulate(values, op, initial=init))[1:]
        return self._stack(values)

    # -- tiled operators -----------------------------------------------------------

    def _tile_size(self, node):
        k = self.config.tile_sizes.get(node.slot)
        if k is None:
            raise EvalError(f"no tile size bound for slot {node.slot}")
        if k < 1:
            raise EvalError(f"tile size for slot {node.slot} must be >= 1, got {k}")
        return k

    def _tiled(self, node, init, args, env):
        """A TiledMap, TiledReduce or TiledScan (see the module docstring);
        `init` is None for a map."""
        kind = type(node)
        k = self._tile_size(node)
        views, extent = self._operand_views(args, node.axes, kind.__name__)
        if extent == 0 and node.depth == 0:
            if kind is ir.TiledReduce:
                return init
            return self._new_array((0,), views[0].dtype, "row", [])
        if kind is not ir.TiledMap:
            comb, comb_captured = self._callee(node.combine, env)
        emit = emit_captured = None
        if kind is ir.TiledScan and node.emit is not None:
            emit, emit_captured = self._callee(node.emit, env)
        f, captured = self._callee(node.fn, env)
        full, full_captured = extent // k, captured
        if node.fixed is not None and full:
            if k != node.fixed:
                raise EvalError(f"{node.fn} specialised for fixed size {node.fixed}, "
                                f"dispatched with k={k}")
            full_captured = {**captured, _FIXED: k}
        results = []
        for t, tiles in enumerate(zip(*[decompose(v, axis, k) or [v]
                                        for v, axis in zip(views, node.axes)])):
            results.append(f.call(tiles, full_captured if t < full else captured))
        counters = self.config.counters
        counters.full_tile_calls += full
        counters.straggler_calls += len(results) - full
        # Each array frees its simulated block as it dies, so the order in
        # which the temporaries die decides traced addresses. The reduce and
        # scan branches delete theirs in a fixed order, rather than leave it
        # to the order in which the frame would release its locals. A list
        # frees its items last to first.
        if kind is ir.TiledReduce:
            acc, partial = results[0], None
            for partial in results[1:]:
                acc = comb.call([acc, partial], comb_captured)
            del results, partial
            return acc
        what = kind.__name__[5:].lower()
        if not all(isinstance(r, ArrayValue) for r in results):
            raise EvalError(f"tiled {what} tiles must produce arrays")
        if any(len(r.shape) <= node.depth for r in results):
            raise EvalError(f"tiled {what} tiles have no axis {node.depth} to join along")
        if kind is ir.TiledMap:
            return self._join(results, node.depth)
        # A scan's tiles scan without `emit`. Every tile after the first is
        # fixed up by combining the previous tile's last accumulator into
        # each of its steps: in one call of the combine's kernel when it has
        # one (`_tile_kernel`, `_fix_up`), else one combine call per step.
        # Only then is `emit` applied to every step, so the result equals
        # the untiled scan for any emit. A kernel's row blocks stand for the
        # step arrays and are kept in `steps` as they would be, and `piece`
        # keeps the tile, as a step's slice of it would.
        axis, adjusted = node.depth, []
        step = steps = piece = last = None
        for part in results:
            n = part.shape[axis]
            if adjusted:
                steps = None  # the previous tile's steps die, last to first
                kernel = self._tile_kernel(comb, last, part) if n else None
                if kernel is not None:
                    piece = part
                    part, steps = self._fix_up(kernel, last, part, axis)
                else:
                    step = self._slicer(part, axis)
                    steps = []
                    for j in range(n):
                        piece = step(j)
                        steps.append(comb.call([last, piece], comb_captured))
                    part = self._stack(steps, axis)
            if n:  # else the one empty straggler, already the nest's result
                last = self._slicer(part, axis)(n - 1)
                if emit is not None:
                    part = self._emit_steps(emit, emit_captured, part, axis)
            adjusted.append(part)
        out = self._join(adjusted, axis)
        # `piece` (and `step` when the combine is called) holds the last
        # tile, and `last` that tile's fix-up.
        del results, adjusted, part, step, steps, piece, last
        return out

    def _tile_kernel(self, comb, last, part):
        """The kernel of combine `comb` over the operands of a tile's fix-up
        (`_fix_up`) when `comb` is `return map(G, a, b; axes=[0, 0])` and
        the previous tile's last accumulator `last` is an array; else None,
        and the fix-up calls `comb` once per step."""
        if comb.shape is None or comb.shape[0] != "map" or not isinstance(last, ArrayValue):
            return None
        return self._kernel(comb, (len(last.shape) + 1, len(part.shape)))

    def _fix_up(self, kernel, last, part, axis):
        """(fixed, blocks): tiled-scan tile `part` with `last` combined into
        each of its steps along `axis`, in one call of the combine's
        `kernel` over `last` broadcast along a new leading axis and `part`.
        `fixed` is the steps stacked along `axis` as `_stack` stacks them,
        and `blocks` lists the kernel's blocks for the steps (None without
        a trace sink), which the stack's run reads."""
        n = part.shape[axis]
        carry = View(last.root, last.offset, (n,) + last.shape, (0,) + last.strides)
        stack = kernel([carry, part], (0, axis), n, _NO_CAPTURES)
        shape, data = stack.shape, stack.data
        if axis:  # a View rooted at the stack reads its list with the steps' axis at `axis`
            strides = make_strides(shape, "row")
            moved = View(stack, 0, shape[1:axis + 1] + shape[:1] + shape[axis + 1:],
                         strides[1:axis + 1] + strides[:1] + strides[axis + 1:])
            shape, data = moved.shape, element_list(moved)
        fixed = self._new_array(shape, stack.dtype, "row", data)
        if stack.rows is not None:
            self._fill(fixed, stack.rows, (slice_axis(fixed, axis, j) for j in range(n)))
        return fixed, stack.rows

    def _emit_steps(self, emit, captured, part, axis):
        """`emit` applied to every step of `part` along `axis`, stacked."""
        step = self._slicer(part, axis)
        return self._stack([emit.call([step(j)], captured) for j in range(part.shape[axis])], axis)
