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
its tile call, for the bounds-check rule (`Counters`). A reduce folds
its tiles' results with the combine. A map or scan builds its value in
place (destination passing): each tile call gets, as an argument, the
tile's place in the output, cut along the depth axis (`_Dest`). The
operator its tile function returns (`_returned`) takes it when its value
fits there (`_claim`), and builds it there through one writer
(`_written`): a kernel writes each row there as it computes it, a stack
each of its scalars or arrays. The first value to take a place creates
the output, in that value's shape widened along the depth axis, itself
at the operator's own place in its parent's output when it has one.
When every tile's value is at its place, the output is the operator's
value; else, as when a tile returns another value or one of another
rank or extent, the tiles are concatenated (`_gather`). A scan's tiles
scan without `emit`; each tile after the first is then fixed up with
the previous tile's carry, at its place, and `emit` is applied to every
step last, the emitted steps taking the places instead. When the lifted combine is
`return map(G, a, b; axes=[0, 0])`, a tile's whole fix-up is one call of
the combine's node kernel (`kernels`) over the carry, broadcast along a
new leading axis, and the tile: each row is one step, run as the
untiled map would run it and written at the tile's place. Any other
combine is called once per step. An empty extent at depth 0 gives what
the untiled operator gives for zero slices (`_assemble`); below depth 0
one empty straggler runs through the tile function, which builds the
nest's own empty result.

The untiled ones run through one method too (`Interpreter._untiled`):
one callee call per slice, each result folded into the accumulator
before the next call, or the callee's kernel (`kernels.Kernels`): a
map's kernel writes the map's value, at its place when it has one
(`_written`), and a fold's gives its scalar results, which `_assemble`
folds or scans. Zero slices give a reduce its init, else an empty rank-1
array of the first operand's dtype.

Each function is built once, on its first call, into nested closures;
callees are looked up by name when an operator first runs, so a missing
function raises only when execution reaches it. A reduce's tiles get
no place.

The interpreter builds its arrays with `ndarray.adopt`, from an element
list and a shape, dtype and layout it derived itself, so nothing is
zero-filled first or checked again: the list is finished, or a writer,
a node kernel or a stack (`_written`), fills it before anything reads it.
It places each array, and each block (`kernels`), at one point
(`_placed`) as it is built, so the order of allocations, and of the frees
that reference counting makes, decides each address; an array a kernel
fills is placed once the kernel's row blocks are, where it would be had
the kernel built its value first.

A trace sink is any object with `run(addrs, kinds)` and `phase(label)`.
When one is attached (`EvalConfig.trace`), every array element read or
write is reported to it by byte address, in runs: `addrs` iterates a
run's addresses in event order and `kinds`, a non-empty string of `R`
and `W`, is cycled over them to give each one's kind. The interpreter
reports every run; `ndarray` reports none. An elementwise operation is
one `RW` or `RRW` run. Every stack and join, of arrays or blocks, is
one run of the one copy emitter, `_fill`. No run is empty: an operation
on no element reports none. Each statement of the entry function
announces itself with `phase` before it runs, never within a run; a
`for` loop is one phase, `for VAR`, and its body announces none. Each
traced run places its arrays in a fresh simulated address space, so
addresses start at 0. `TraceSink` records the events;
`cachesim.Simulator` consumes them as they come.
"""

from __future__ import annotations

import functools
import itertools
import math
import types
from dataclasses import dataclass, field

from . import ir
from .kernels import EvalError, Kernels
from .ndarray import (
    ELEM_SIZE, Allocator, ArrayValue, Block, NdArray, View, addresses, adopt, concat, decompose,
    elementwise, interleave, result_dtype, scalar_op, slice_axis, tile_view, write,
)

# The captured values of a callee without closure parameters.
NO_CAPTURES = types.MappingProxyType({})


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
    its own, count as anywhere else. `tiles_placed` counts the tiles
    whose values a tiled map or scan takes as its output where they
    are, at their places, with no join (`Interpreter._gather`)."""

    full_tile_calls: int = 0
    straggler_calls: int = 0
    bounds_checks: int = 0
    tiles_placed: int = 0


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

# The frame key that holds k in a full tile's call of the tile function of
# a `fixed=k` operator; no program can bind it, as no identifier starts
# with "$".
_FIXED = "$k"

# The frame key that holds a tile's place (`_Dest`) in the call of a tile
# function (`_Compiled`). Only a return of an operator reads it
# (`_returned`).
_PLACE = "$place"

# The operators that can build their value at a place: a map or scan
# stacks its results there, and a tiled map or scan hands its tiles places
# in it.
_PLACEABLE = frozenset((ir.Map, ir.Scan, ir.TiledMap, ir.TiledScan))


class _Compiled:
    """One function, built once per interpreter.

    `call(args, captured, place=None)` applies it to positional arguments
    and its captured closure values; a tile's `place`, when given, is
    offered to the operator it returns (`_returned`), which builds its
    value there when `_claim` lets it, and any other value leaves it.
    `kernels` maps operand ranks to its kernel or None (see
    `Kernels._kernel`); `op` is its scalar operator as a combine
    (`ir.combine_op`), and `shape` its `ir.body_shape`."""

    __slots__ = ("fn", "call", "op", "shape", "kernels")

    def __init__(self, fn, call, op, shape):
        self.fn, self.call, self.op, self.shape = fn, call, op, shape
        self.kernels = {}


def _returned(block, i):
    """The operator whose value statement i of `block` gives as the block's
    return value unchanged, or None: that of `return OP`, or of `v = OP`
    when `return v` comes next, where OP is `_PLACEABLE`."""
    s = block[i]
    if type(s) is ir.Assign:
        after = block[i + 1] if i + 1 < len(block) else None
        if type(after) is not ir.Return or after.value != ir.Var(s.target):
            return None
    elif type(s) is not ir.Return:
        return None
    return s.value if type(s.value) in _PLACEABLE else None


class _Dest:
    """The output of a tiled map or scan, cut along its `axis` (the
    operator's depth), of `extent`, into tiles of `k`: tile t's place is
    the pair `(dest, t)`, `min(k, extent - t * k)` long from `t * k`.
    `place` is the operator's own place in its parent's output, or None.
    Until a value first takes a place (`Interpreter._claim`), `out` and
    `views` are None; that value creates `out`, the view at `place` when
    the value fits there, else an array of its own, and `views`.
    `views[t]` is then the view of `out` that a value last took place t
    as, or None; each view carries its value's dtype, and `out` takes one
    only when it is gathered (`Interpreter._gather`)."""

    __slots__ = ("axis", "extent", "k", "place", "out", "views")

    def __init__(self, axis, extent, k, place):
        self.axis, self.extent, self.k, self.place = axis, extent, k, place
        self.out = self.views = None


def _widened(place, shape):
    """The shape of the output in which a value of `shape` takes `place`:
    `shape` with the output's extent along its axis. None when the value
    has no such axis or its extent there is not the place's."""
    dest, t = place
    axis = dest.axis
    if len(shape) <= axis or shape[axis] != min(dest.k, dest.extent - t * dest.k):
        return None
    return shape[:axis] + (dest.extent,) + shape[axis + 1:]


def _scalars(values, at):
    """(dtype, None): the scalars `values` written stacked at `at` (see
    `kernels`), and their dtype: f64 when any is a float, else i64, also
    when there is none (a stack of no value)."""
    data, offset, (step,) = at((len(values),))
    if values:
        data[offset:offset + len(values) * step:step] = values
    return "f64" if float in map(type, values) else "i64", None


def _arrays(values, at):
    """(dtype, values): the equal-shaped arrays `values` written stacked at
    `at` (see `kernels`), each at its step, and their dtype: f64 when any
    array is."""
    data, offset, strides = at((len(values),) + values[0].shape)
    for i, x in enumerate(values):
        write(data, offset + i * strides[0], strides[1:], x)
    return result_dtype(values), values


def _failing(message):
    def fail(frame, hold=None):
        raise EvalError(message)
    return fail


class Interpreter(Kernels):
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
            return f, NO_CAPTURES
        captured = {}
        for c in f.fn.closure_params:
            if c not in env:
                raise EvalError(f"closure parameter {c!r} of {name} is unbound at the call site")
            captured[c] = env[c]
        return f, captured

    def _build(self, fn):
        op = ir.combine_op(fn)
        mark = self.config.trace is not None and fn is self._entry
        body = self._block(fn.body, mark, True)
        params, name = fn.params, fn.name

        def call(args, captured, place=None):
            frame = dict(zip(params, args))
            frame.update(captured)
            if place is not None:
                frame[_PLACE] = place
            value = body(frame)
            if value is _NO_RETURN:
                raise EvalError(f"{name} finished without returning")
            return value

        return _Compiled(fn, call, op and scalar_op(op), ir.body_shape(fn))

    # -- statements ------------------------------------------------------------

    def _block(self, block, mark, body=False):
        """A closure running `block` on a frame; it returns the value of
        the first return statement reached, or _NO_RETURN. The operators a
        function's `body` returns (`_returned`) are offered the frame's place.

        A for loop's sequence stays alive until its block ends (`hold`):
        when a temporary dies decides which free block the allocator hands
        out next, so this keeps every traced address where it was."""
        steps = tuple(self._statement(s, mark, body and _returned(block, i) is not None)
                      for i, s in enumerate(block))
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

    def _statement(self, s, mark, placed):
        """A closure running statement `s` on a frame. When `placed`, its
        operator is offered the frame's place."""
        phase = self.config.trace.phase if mark else None
        t = type(s)
        if t is ir.Assign:
            target = s.target
            value = self._operator(s.value, True) if placed else self._expr(s.value)
            label = f"{target} ="

            def assign(frame, hold=None):
                if phase is not None:
                    phase(label)
                frame[target] = value(frame)
                return _NO_RETURN
            return assign
        if t is ir.Return:
            value = self._operator(s.value, True) if placed else self._expr(s.value)

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

    def _operator(self, e, placed=False):
        """Operands evaluate first, in order, then the init value; both are
        released in that order once the operator returns. When `placed`, the
        operator is offered the place its frame holds under `_PLACE`, if
        any, and builds its value there when it fits (`_claim`)."""
        args = tuple(self._expr(a) for a in e.args)
        init = self._expr(e.init) if hasattr(e, "init") else None
        run = self._tiled if type(e) in ir.TILED_OPS else self._untiled

        if placed:
            def operator(frame):
                values = [a(frame) for a in args]
                start = init and init(frame)
                return run(e, start, values, frame, frame.get(_PLACE))
            return operator

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

    def _written(self, writer, place, axis=0):
        """(value, rows), what `writer(at)` writes, or None when it declines:
        a kernel (see `kernels`, whose protocol `at` follows) or a stack
        (`_stack`). Its rows are the value's steps along `axis`: it writes
        them, with `axis` first, where the value takes `place` (`_claim`),
        or else, as when `place` is None, into the element list of a new
        array; the value, that view or array, takes the writer's dtype.
        Storage is created when the writer asks for it, but a new array is
        placed only once a kernel's row blocks are, and then the stack's
        run copies `rows`, those blocks or the stacked arrays (None for
        scalars), to the steps (`_fill`), as when the value is built first
        and then put at its place."""
        held = []  # the value, the array to place or None, the value with `axis` first

        def at(shape):
            if axis:
                value_shape = shape[1:axis + 1] + shape[:1] + shape[axis + 1:]
            else:
                value_shape = shape
            claimed = place and self._claim(place, value_shape)
            if claimed is None:
                out = new = adopt(value_shape, None, "row", [None] * math.prod(value_shape))
            else:
                out, new = claimed
            s = out.strides
            steps = View(out.root, out.offset, shape, s[axis:axis + 1] + s[:axis] + s[axis + 1:],
                         None) if axis else out
            held.extend((out, new, steps))
            return out.root.data, out.offset, steps.strides

        got = writer(at)
        if got is None:
            return None
        out, new, steps = held
        out.dtype = got[0]
        if new is not None:
            self._placed(new)
        if self.config.trace is not None:
            self._fill(steps, got[1])
        return out, got[1]

    def _claim(self, place, shape):
        """(view, new): the view of its output (`_Dest`) where a value of
        `shape` takes `place`, or None when it does not fit (`_widened`) or
        the output's other extents differ: the one test of whether a value
        is at its place. The first value to take a place creates the
        output, in the value's shape widened along the axis, and its list
        of views: at the output's own place when it takes that, else a new
        array, `new`, whose elements the tiles write before anything reads
        them; the caller places it (`_placed`) and gives the view its
        value's dtype (`_written`), and `_gather` gives `new` its own.
        `new` is None once the output exists."""
        full = _widened(place, shape)
        if full is None:
            return None
        dest, t = place
        out, new = dest.out, None
        if out is None:
            claimed = dest.place and self._claim(dest.place, full)
            out, new = claimed or (adopt(full, None, "row", [None] * math.prod(full)),) * 2
            dest.out = out
            dest.views = [None] * max(1, -(-dest.extent // dest.k))
        elif out.shape != full:
            return None
        dest.views[t] = view = View(out.root, out.offset + t * dest.k * out.strides[dest.axis],
                                    shape, out.strides, None)
        return view, new

    def _fill(self, out, rows=None, places=None):
        """Report the writes of stacking or joining into `out`, an array, a
        view or a block. Stacked scalars (`rows` is None, `out` of rank 1)
        are one `W` run over `out`. Else one `RW` run copies each of `rows`
        in turn, per element a read of the row and then a write of its
        place. The rows are arrays or views, or blocks, each read as its
        range; their places are the views `places`, or else (equal blocks)
        each the next stretch of `out`, or of a view `out` the next slice
        along axis 0. No run when `out` is empty."""
        size, run = out.size, self.config.trace.run
        if not size:
            return
        if rows is None:
            run(addresses(out) if type(out) is View
                else range(out.addr, out.addr + size * ELEM_SIZE, ELEM_SIZE), "W")
            return
        if type(rows[0]) is Block:
            reads = (range(r.addr, r.addr + r.size * ELEM_SIZE, ELEM_SIZE) for r in rows)
        else:
            reads = map(addresses, rows)
        if places is not None:
            places = map(addresses, places)
        elif type(out) is View:
            places = (addresses(slice_axis(out, 0, i)) for i in range(len(rows)))
        else:
            start, step = out.addr, size // len(rows) * ELEM_SIZE
            places = (range(a, a + step, ELEM_SIZE)
                      for a in range(start, start + size * ELEM_SIZE, step))
        run(itertools.chain.from_iterable(itertools.chain.from_iterable(
            map(zip, reads, places))), "RW")

    def _join(self, parts, axis):
        """The checked `ndarray.concat` of `parts` along `axis`, placed; a trace
        sink gets each part's copy to its tile (`_fill`)."""
        out = self._placed(concat(parts, axis))
        if self.config.trace is not None:
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
        root, offset, stride, dtype = v.root, v.offset, v.strides[axis], v.dtype
        if len(v.shape) > 1:
            shape = v.shape[:axis] + v.shape[axis + 1:]
            strides = v.strides[:axis] + v.strides[axis + 1:]
            return lambda i: View(root, offset + i * stride, shape, strides, dtype)
        data, trace = root.data, self.config.trace
        if trace is None:
            return lambda i: data[offset + i * stride]
        run, base = trace.run, root.addr + offset * ELEM_SIZE

        def element(i):
            run((base + i * stride * ELEM_SIZE,), "R")
            return data[offset + i * stride]
        return element

    def _stack(self, values, axis=0, place=None):
        """Stack the equal-shaped `values`, a list, along a new `axis`,
        written at `place` (`_written`): Map and Scan outputs, array
        literals, and tiled-scan steps. Scalars are written as a kernel
        writes its scalar results (`_scalars`), arrays each at its
        step (`_arrays`)."""
        kinds = set(map(type, values))
        if kinds.isdisjoint(ArrayValue):
            return self._written(functools.partial(_scalars, values), place)[0]
        if not kinds.issubset(ArrayValue):
            raise EvalError("cannot stack scalars with arrays")
        shape = values[0].shape
        for x in values:
            if x.shape != shape:
                raise EvalError(f"cannot stack shapes {shape} and {x.shape}")
        # The writer holds `values` only while it runs. When nothing else
        # holds the list, it dies with this frame before `x` lets the last
        # array go: traced addresses depend on that order of frees.
        return self._written(functools.partial(_arrays, values), place, axis)[0]

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

    def _untiled(self, node, init, args, env, place=None):
        """A Map, Reduce or Scan (see the module docstring); `init` is None for a
        map. A map or scan over at least one slice builds its value at
        `place` (`_written`). It counts bounds checks as `Counters` says: at
        extent k none when its frame `env` holds k under `_FIXED`, else one
        per operand per slice."""
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
            if kind == "Map":
                written = kernel and self._written(
                    functools.partial(kernel, views, node.axes, extent, captured), place)
                if written is not None:
                    return written[0]
            else:
                values = kernel and kernel(views, node.axes, extent, captured)
                if values is not None:
                    return self._assemble(kind, values, op, init, views[0].dtype, place)
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
        value = acc if kind == "Reduce" else self._stack(outs, place=place)
        del acc, outs
        return value

    def _assemble(self, kind, values, op, init, dtype, place=None):
        """The value of untiled operator `kind` ("Map", "Reduce" or "Scan") from
        its callee's results, one per slice (see the module docstring), built at
        `place` unless it is empty; `dtype` is the first operand's."""
        if kind == "Reduce":
            return functools.reduce(op, values, init)
        if not values:
            return self._placed(adopt((0,), dtype, "row", []))
        if kind == "Scan":
            values = list(itertools.accumulate(values, op, initial=init))[1:]
        return self._stack(values, place=place)

    # -- tiled operators -----------------------------------------------------------

    def _tile_size(self, node):
        k = self.config.tile_sizes.get(node.slot)
        if k is None:
            raise EvalError(f"no tile size bound for slot {node.slot}")
        if k < 1:
            raise EvalError(f"tile size for slot {node.slot} must be >= 1, got {k}")
        return k

    def _tiled(self, node, init, args, env, place=None):
        """A TiledMap, TiledReduce or TiledScan (see the module docstring);
        `init` is None for a map. A map or scan builds its value at `place`
        when its tiles take theirs (`_Dest`)."""
        kind = type(node)
        k = self._tile_size(node)
        views, extent = self._operand_views(args, node.axes, kind.__name__)
        if extent == 0 and node.depth == 0:
            return self._assemble(kind.__name__[5:], (), None, init, views[0].dtype)
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
        # A map or scan offers each tile call its place in the output; with
        # `emit`, the emitted steps take the places and the tiles none.
        tiles = zip(*[decompose(v, axis, k) or [v] for v, axis in zip(views, node.axes)])
        dest = None if kind is ir.TiledReduce else _Dest(node.depth, extent, k, place)
        given = dest if emit is None else None  # the output whose places the tiles take
        results = []
        for t, tile in enumerate(tiles):
            results.append(f.call(tile, full_captured if t < full else captured,
                                  given and (given, t)))
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
        if not all(isinstance(r, ArrayValue) for r in results):
            raise EvalError(f"tiled {kind.__name__[5:].lower()} tiles must produce arrays")
        if any(len(r.shape) <= node.depth for r in results):
            raise EvalError(f"tiled {kind.__name__[5:].lower()} tiles have no axis "
                            f"{node.depth} to join along")
        if kind is ir.TiledMap:
            return self._gather(dest, results, node.depth)
        # A scan's tiles scan without `emit`. Every tile after the first is
        # fixed up by combining the previous tile's last accumulator into
        # each of its steps: in one call of the combine's kernel when it has
        # one that runs (`_fix_up`), else one combine call per step.
        # Only then is `emit` applied to every step, so the result equals
        # the untiled scan for any emit. A kernel's row blocks stand for the
        # step arrays and are kept in `steps` as they would be, and `piece`
        # keeps the tile, as a step's slice of it would. A tile at its place
        # is fixed up there; with `emit`, the emitted steps take the place.
        axis, adjusted = node.depth, []
        step = steps = piece = last = None
        for t, part in enumerate(results):
            n = part.shape[axis]
            at = (dest, t) if dest.views and part is dest.views[t] else None
            if adjusted:
                steps = None  # the previous tile's steps die, last to first
                fixed = self._fix_up(comb, last, part, axis, at) if n else None
                if fixed is not None:
                    piece = part
                    part, steps = fixed
                    del fixed  # the steps die with `steps` alone
                else:
                    step = self._slicer(part, axis)
                    steps = []
                    for j in range(n):
                        piece = step(j)
                        steps.append(comb.call([last, piece], comb_captured))
                    part = self._stack(steps, axis, at)
            if n:  # else the one empty straggler, already the nest's result
                last = self._slicer(part, axis)(n - 1)
                # No name holds the slicer: the tile dies as `part` is rebound,
                # after its emitted steps.
                if emit is not None:
                    part = self._stack([emit.call([x], emit_captured)
                                        for x in map(self._slicer(part, axis), range(n))],
                                       axis, (dest, t))
            adjusted.append(part)
        out = self._gather(dest, adjusted, axis)
        # `piece` (and `step` when the combine is called) holds the last
        # tile, and `last` that tile's fix-up.
        del results, adjusted, part, step, steps, piece, last
        return out

    def _fix_up(self, comb, last, part, axis, place):
        """(fixed, blocks): tiled-scan tile `part` with `last` combined into
        each of its steps along `axis`, in one call of the kernel of combine
        `comb` over `last` broadcast along a new leading axis and `part`.
        It is None, and the tile's steps call `comb` one by one, unless
        `comb` is `return map(G, a, b; axes=[0, 0])`, `last` is an array
        and the kernel runs (it declines before any side effect).
        `fixed` is the steps stacked along `axis` at `place`, as `_stack`
        stacks them: the kernel writes each step there, along `axis`
        (`_written`), as it computes it. `blocks` lists the kernel's blocks
        for the steps (None without a trace sink), which the stack's run
        reads."""
        if comb.shape is None or comb.shape[0] != "map" or not isinstance(last, ArrayValue):
            return None
        kernel, n = self._kernel(comb, (len(last.shape) + 1, len(part.shape))), part.shape[axis]
        carry = View(last.root, last.offset, (n,) + last.shape, (0,) + last.strides, last.dtype)
        return kernel and self._written(
            functools.partial(kernel, [carry, part], (0, axis), n, NO_CAPTURES), place, axis)

    def _gather(self, dest, parts, axis):
        """The value of a tiled map or scan from its tiles' values `parts`
        along `axis`: the output, `dest.out`, with the dtype their join
        would have, when every part is at its place (`_Dest.views`), else
        the parts joined (`_join`), as they are when no value took a place."""
        if parts == dest.views:  # arrays compare by identity
            self.config.counters.tiles_placed += len(parts)
            dest.out.dtype = result_dtype(parts)
            return dest.out
        return self._join(parts, axis)
