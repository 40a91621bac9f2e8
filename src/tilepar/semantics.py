"""Reference interpreter for untiled and tiled programs.

Evaluation is eager and deterministic. Scalars are Python ints/floats;
arrays are NdArray/View values. Nested functions of parallel operators
receive sliced arguments positionally; their closure parameters are
resolved by name in the frame enclosing the operator expression.

Tiled operators decompose their arguments into full tiles plus an
optional straggler, dispatch full tiles to the fixed-size function clone
when one is attached (otherwise to the generic one), always dispatch the
straggler to the generic function, and reassemble results so that the
outcome equals the untiled operator. Tiles are evaluated one after
another in tile order.

When a trace sink is attached, every array element read/write is reported
as (byte address, R|W) for cache simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ir
from .ndarray import (
    ELEM_SIZE, Allocator, ArrayValue, NdArray, View, apply_op, as_view, concat, copy,
    decompose, elementwise, result_dtype, slice_axis,
)


class EvalError(Exception):
    pass


@dataclass
class Counters:
    """Instrumentation for dispatch and bounds-check behaviour."""

    full_tile_calls: int = 0
    straggler_calls: int = 0
    bounds_checks: int = 0


class TraceSink:
    """Collects (address, kind) events; kind is 'R' or 'W'.

    Subclass or pass `consumer` to stream events instead of storing them.
    Entry-level statements announce themselves via `phase`, so consumers
    can attribute traffic to program phases.
    """

    def __init__(self, consumer=None, phase_consumer=None):
        self.events = [] if consumer is None else None
        self.consumer = consumer
        self.phase_consumer = phase_consumer

    def emit(self, addr, kind):
        if self.consumer is not None:
            self.consumer(addr, kind)
        else:
            self.events.append((addr, kind))

    def read(self, addr):
        self.emit(addr, "R")

    def write(self, addr):
        self.emit(addr, "W")

    def phase(self, label):
        if self.phase_consumer is not None:
            self.phase_consumer(label)


@dataclass
class EvalConfig:
    tile_sizes: dict = field(default_factory=dict)  # slot id -> extent
    trace: TraceSink | None = None
    counters: Counters = field(default_factory=Counters)
    allocator: Allocator = field(default_factory=Allocator)


def eval_program(program, args, config=None, entry="main"):
    """Evaluate `entry` on the given argument values."""
    return Interpreter(program, config).run(args, entry)


class Interpreter:
    def __init__(self, program, config=None):
        self.program = program
        self.config = config or EvalConfig()
        self._shape_cache = {}

    # -- entry points --------------------------------------------------------

    def run(self, args, entry="main"):
        fn = self.program.fn(entry)
        if len(args) != len(fn.params):
            raise EvalError(f"{entry} takes {len(fn.params)} argument(s), got {len(args)}")
        if fn.closure_params:
            raise EvalError(f"entry function {entry} must not have closure parameters")
        if self.config.trace is not None:
            for a in args:
                if isinstance(a, NdArray):
                    self.config.allocator.allocate(a, reclaim=False)
        self._entry_fn = fn
        return self.call_function(fn, list(args), {})

    # -- function calls ------------------------------------------------------

    def call_function(self, fn, args, env):
        """Apply `fn` to positional args; closures resolved from `env`."""
        shape = self._body_shape(fn)
        if shape[0] == "ident":
            return args[0]
        if shape[0] == "binop":
            return self._binop(shape[1], args[0], args[1])
        frame = dict(zip(fn.params, args))
        for c in fn.closure_params:
            if c not in env:
                raise EvalError(f"closure parameter {c!r} of {fn.name} is unbound at the call site")
            frame[c] = env[c]
        done, value = self._exec_block(fn.body, frame, fn)
        if not done:
            raise EvalError(f"{fn.name} finished without returning")
        return value

    def _body_shape(self, fn):
        """Classify trivial bodies so hot combine/identity calls skip frames."""
        cached = self._shape_cache.get(fn.name)
        if cached is not None:
            return cached
        shape = ("generic",)
        if fn.fixed_extent is not None:
            # Specialised clones must go through the generic path so their
            # extent assertions and fast-path gating stay observable.
            self._shape_cache[fn.name] = shape
            return shape
        if not fn.closure_params and len(fn.body) == 1 and isinstance(fn.body[0], ir.Return):
            e = fn.body[0].value
            if isinstance(e, ir.Var) and len(fn.params) == 1 and e.name == fn.params[0]:
                shape = ("ident",)
            elif (isinstance(e, ir.BinOp) and len(fn.params) == 2
                  and isinstance(e.left, ir.Var) and e.left.name == fn.params[0]
                  and isinstance(e.right, ir.Var) and e.right.name == fn.params[1]):
                shape = ("binop", e.op)
        self._shape_cache[fn.name] = shape
        return shape

    # -- statements ------------------------------------------------------------

    def _exec_block(self, block, frame, fn):
        trace = self.config.trace
        mark = trace is not None and fn is getattr(self, "_entry_fn", None)
        for s in block:
            t = type(s)
            if t is ir.Assign:
                if mark:
                    trace.phase(f"{s.target} =")
                frame[s.target] = self.eval_expr(s.value, frame, fn)
            elif t is ir.Return:
                if mark:
                    trace.phase("return")
                return True, self.eval_expr(s.value, frame, fn)
            elif t is ir.If:
                cond = self.eval_expr(s.cond, frame, fn)
                if isinstance(cond, ArrayValue):
                    raise EvalError("if condition must be a scalar")
                done, value = self._exec_block(s.then if cond != 0 else s.orelse, frame, fn)
                if done:
                    return True, value
            elif t is ir.For:
                seq = self.eval_expr(s.seq, frame, fn)
                if not isinstance(seq, ArrayValue):
                    raise EvalError("for-loop sequence must be an array")
                v = as_view(seq)
                if v.rank == 0:
                    raise EvalError("cannot iterate a rank-0 array")
                for i in range(v.shape[0]):
                    frame[s.var] = self._slice_value(v, 0, i)
                    done, value = self._exec_block(s.body, frame, fn)
                    if done:
                        return True, value
            else:
                raise EvalError(f"unknown statement {type(s).__name__}")
        return False, None

    # -- expressions -----------------------------------------------------------

    def eval_expr(self, e, frame, fn):
        t = type(e)
        if t is ir.Const:
            return e.value
        if t is ir.Var:
            try:
                return frame[e.name]
            except KeyError:
                raise EvalError(f"unbound variable {e.name!r}") from None
        if t is ir.BinOp:
            return self._binop(e.op, self.eval_expr(e.left, frame, fn),
                               self.eval_expr(e.right, frame, fn))
        if t is ir.Index:
            return self._index(self.eval_expr(e.array, frame, fn),
                               self.eval_expr(e.index, frame, fn))
        if t is ir.ArrayLit:
            return self._stack([self.eval_expr(x, frame, fn) for x in e.items])
        if t is ir.Map:
            args = [self.eval_expr(a, frame, fn) for a in e.args]
            return self.eval_map(e.fn, args, e.axes, frame,
                                 fixed_extent=self._fixed_for(e, fn),
                                 strict=self._slices_own_params(e, fn))
        if t is ir.Reduce:
            args = [self.eval_expr(a, frame, fn) for a in e.args]
            init = self.eval_expr(e.init, frame, fn)
            return self.eval_reduce(e.fn, e.combine, init, args, e.axes, frame,
                                    fixed_extent=self._fixed_for(e, fn),
                                    strict=self._slices_own_params(e, fn))
        if t is ir.Scan:
            args = [self.eval_expr(a, frame, fn) for a in e.args]
            init = self.eval_expr(e.init, frame, fn)
            return self.eval_scan(e.fn, e.combine, e.emit, init, args, e.axes, frame,
                                  fixed_extent=self._fixed_for(e, fn),
                                  strict=self._slices_own_params(e, fn))
        if t is ir.TiledMap:
            args = [self.eval_expr(a, frame, fn) for a in e.args]
            return self.eval_tiled_map(e, args, frame)
        if t is ir.TiledReduce:
            args = [self.eval_expr(a, frame, fn) for a in e.args]
            init = self.eval_expr(e.init, frame, fn)
            return self.eval_tiled_reduce(e, init, args, frame)
        if t is ir.TiledScan:
            args = [self.eval_expr(a, frame, fn) for a in e.args]
            init = self.eval_expr(e.init, frame, fn)
            return self.eval_tiled_scan(e, init, args, frame)
        if t is ir.AllPairs:
            raise EvalError("AllPairs must be desugared before evaluation")
        raise EvalError(f"cannot evaluate {type(e).__name__}")

    def _binop(self, op, a, b):
        if not isinstance(a, ArrayValue) and not isinstance(b, ArrayValue):
            if op == "+":
                return a + b
            if op == "*":
                return a * b
            if op == "-":
                return a - b
            return apply_op(op, a, b)
        return self._elementwise(op, a, b)

    def _elementwise(self, op, a, b):
        return elementwise(op, a, b, self.config.trace, self._new_array)

    def _index(self, arr, i):
        if not isinstance(arr, ArrayValue):
            raise EvalError("cannot index a scalar")
        if isinstance(i, ArrayValue) or isinstance(i, float):
            raise EvalError("array index must be an integer scalar")
        v = as_view(arr)
        if v.rank == 0:
            raise EvalError("cannot index a rank-0 array")
        if not 0 <= i < v.shape[0]:
            raise EvalError(f"index {i} out of bounds for extent {v.shape[0]}")
        return self._slice_value(v, 0, i)

    # -- array plumbing (all traced) --------------------------------------------

    def _new_array(self, shape, dtype, layout="row"):
        out = NdArray(shape, dtype, layout)
        if self.config.trace is not None:
            self.config.allocator.allocate(out)
        return out

    def _slice_value(self, v, axis, i):
        """Slice one step along `axis`; scalars are read out (and traced)."""
        if v.rank == 1:
            if isinstance(v, View):
                offset = v.offset + i * v.strides[0]
                root = v.root
            else:
                offset = i * v.strides[0]
                root = v
            if self.config.trace is not None:
                self.config.trace.read(root.addr + offset * ELEM_SIZE)
            return root.data[offset]
        return slice_axis(v, axis, i)

    def _stack(self, values, axis=0):
        """Stack equal-shaped values along a new `axis`: Map and Scan
        outputs, array literals, and tiled-scan steps."""
        trace = self.config.trace
        arrays = [isinstance(x, ArrayValue) for x in values]
        if not any(arrays):
            out = self._new_array((len(values),), result_dtype(values))
            out.data[:] = values
            if trace is not None:
                for i in range(len(values)):
                    trace.write(out.addr + i * ELEM_SIZE)
            return out
        if not all(arrays):
            raise EvalError("cannot stack scalars with arrays")
        shape = as_view(values[0]).shape
        for x in values:
            if as_view(x).shape != shape:
                raise EvalError(f"cannot stack shapes {shape} and {as_view(x).shape}")
        out = self._new_array(shape[:axis] + (len(values),) + shape[axis:],
                              result_dtype(values))
        for j, x in enumerate(values):
            copy(x, slice_axis(out, axis, j), trace)
        return out

    # -- untiled operators -------------------------------------------------------

    def _operand_views(self, args, axes, what):
        views = []
        extent = None
        for a, axis in zip(args, axes):
            if not isinstance(a, ArrayValue):
                raise EvalError(f"{what} argument must be an array, got a scalar")
            v = as_view(a)
            if axis >= v.rank:
                raise EvalError(f"{what} axis {axis} out of range for rank {v.rank}")
            if extent is None:
                extent = v.shape[axis]
            elif v.shape[axis] != extent:
                raise EvalError(f"{what} sliced extents differ: {extent} vs {v.shape[axis]}")
            views.append(v)
        return views, extent

    def _capture(self, fname, env):
        fn = self.program.fn(fname)
        captured = {}
        for c in fn.closure_params:
            if c not in env:
                raise EvalError(f"closure parameter {c!r} of {fname} is unbound at the call site")
            captured[c] = env[c]
        return fn, captured

    @staticmethod
    def _fixed_for(e, enclosing):
        return enclosing.fixed_extent if enclosing is not None else None

    @staticmethod
    def _slices_own_params(e, enclosing):
        """True when the operator slices the enclosing function's own
        parameters along the axes a fixed-size clone was specialised for."""
        if enclosing is None or enclosing.fixed_extent is None:
            return False
        for arg, axis in zip(e.args, e.axes):
            if not (isinstance(arg, ir.Var) and arg.name in enclosing.params):
                continue
            if enclosing.fixed_axes is None:
                return True
            pos = enclosing.params.index(arg.name)
            if pos < len(enclosing.fixed_axes) and axis == enclosing.fixed_axes[pos]:
                return True
        return False

    def _gate_fixed(self, extent, fixed_extent, strict, what):
        """Fast path (no per-iteration bounds checks) when the extent matches
        the specialisation; a mismatch on the specialised tile itself is a
        dispatch bug and raises."""
        if fixed_extent is None:
            return False
        if extent == fixed_extent:
            return True
        if strict:
            raise EvalError(
                f"{what} specialised for extent {fixed_extent} invoked on extent {extent}")
        return False

    def eval_map(self, fname, args, axes, env, fixed_extent=None, strict=False):
        fn, captured = self._capture(fname, env)
        views, extent = self._operand_views(args, axes, "Map")
        fast = self._gate_fixed(extent, fixed_extent, strict, "Map")
        counters = self.config.counters
        results = []
        nargs = len(views)
        for i in range(extent):
            if not fast:
                counters.bounds_checks += nargs
                for v, axis in zip(views, axes):
                    if i >= v.shape[axis]:
                        raise EvalError("slice index out of bounds")
            slices = [self._slice_value(v, axis, i) for v, axis in zip(views, axes)]
            results.append(self.call_function(fn, slices, captured))
        if extent == 0:
            return self._new_array((0,), views[0].dtype if views else "i64")
        return self._stack(results)

    def eval_reduce(self, fname, combine, init, args, axes, env, fixed_extent=None, strict=False):
        fn, captured = self._capture(fname, env)
        comb_fn, comb_captured = self._capture(combine, env)
        views, extent = self._operand_views(args, axes, "Reduce")
        fast = self._gate_fixed(extent, fixed_extent, strict, "Reduce")
        counters = self.config.counters
        acc = init
        nargs = len(views)
        for i in range(extent):
            if not fast:
                counters.bounds_checks += nargs
            slices = [self._slice_value(v, axis, i) for v, axis in zip(views, axes)]
            acc = self.call_function(comb_fn, [acc, self.call_function(fn, slices, captured)],
                                     comb_captured)
        return acc

    def eval_scan(self, fname, combine, emit, init, args, axes, env, fixed_extent=None, strict=False):
        fn, captured = self._capture(fname, env)
        comb_fn, comb_captured = self._capture(combine, env)
        emit_fn = emit_captured = None
        if emit is not None:
            emit_fn, emit_captured = self._capture(emit, env)
        views, extent = self._operand_views(args, axes, "Scan")
        fast = self._gate_fixed(extent, fixed_extent, strict, "Scan")
        counters = self.config.counters
        acc = init
        outs = []
        nargs = len(views)
        for i in range(extent):
            if not fast:
                counters.bounds_checks += nargs
            slices = [self._slice_value(v, axis, i) for v, axis in zip(views, axes)]
            acc = self.call_function(comb_fn, [acc, self.call_function(fn, slices, captured)],
                                     comb_captured)
            outs.append(self.call_function(emit_fn, [acc], emit_captured) if emit_fn else acc)
        if extent == 0:
            return self._new_array((0,), views[0].dtype if views else "i64")
        return self._stack(outs)

    # -- tiled operators -----------------------------------------------------------

    def _tile_size(self, node):
        k = self.config.tile_sizes.get(node.slot)
        if k is None:
            raise EvalError(f"no tile size bound for slot {node.slot}")
        if k < 1:
            raise EvalError(f"tile size for slot {node.slot} must be >= 1, got {k}")
        return k

    def _tile_sets(self, node, args):
        """Decompose all arguments; returns (list of per-tile argument lists,
        number of full tiles, k)."""
        k = self._tile_size(node)
        views, extent = self._operand_views(args, node.axes, type(node).__name__)
        per_arg = [decompose(v, axis, k) for v, axis in zip(views, node.axes)]
        ntiles = len(per_arg[0]) if per_arg else 0
        tile_args = [[tiles[t] for tiles in per_arg] for t in range(ntiles)]
        full = extent // k
        return tile_args, full, k, extent

    def _dispatch_tiles(self, node, tile_args, full, k, env):
        """Evaluate every tile in order, full tiles via the fixed clone when
        present. Returns per-tile results in tile order."""
        fn, captured = self._capture(node.fn, env)
        fixed_fn = fixed_captured = None
        if node.fixed is not None:
            fixed_fn, fixed_captured = self._capture(node.fixed, env)
        counters = self.config.counters

        def eval_tile(t):
            tiles = tile_args[t]
            if t < full:
                for tv, axis in zip(tiles, node.axes):
                    if tv.shape[axis] != k:
                        raise EvalError(
                            f"full tile extent {tv.shape[axis]} != tile size {k} (slot {node.slot})")
                if fixed_fn is not None:
                    if fixed_fn.fixed_extent is not None and fixed_fn.fixed_extent != k:
                        raise EvalError(
                            f"fixed-size clone {fixed_fn.name} specialised for "
                            f"{fixed_fn.fixed_extent}, dispatched with k={k}")
                    return self.call_function(fixed_fn, list(tiles), fixed_captured)
            return self.call_function(fn, list(tiles), captured)

        results = [eval_tile(t) for t in range(len(tile_args))]
        counters.full_tile_calls += min(full, len(tile_args))
        counters.straggler_calls += max(0, len(tile_args) - full)
        return results

    def eval_tiled_map(self, node, args, env):
        tile_args, full, k, extent = self._tile_sets(node, args)
        if extent == 0:
            return self._new_array((0,), "i64")
        results = self._dispatch_tiles(node, tile_args, full, k, env)
        if not all(isinstance(r, ArrayValue) for r in results):
            raise EvalError("tiled map tiles must produce arrays")
        return concat(results, node.depth, self.config.trace, self._new_array)

    def eval_tiled_reduce(self, node, init, args, env):
        tile_args, full, k, extent = self._tile_sets(node, args)
        if extent == 0:
            return init
        comb_fn, comb_captured = self._capture(node.combine, env)
        results = self._dispatch_tiles(node, tile_args, full, k, env)
        acc = results[0]
        for part in results[1:]:
            acc = self.call_function(comb_fn, [acc, part], comb_captured)
        return acc

    def eval_tiled_scan(self, node, init, args, env):
        tile_args, full, k, extent = self._tile_sets(node, args)
        if extent == 0:
            return self._new_array((0,), "i64")
        comb_fn, comb_captured = self._capture(node.combine, env)
        results = self._dispatch_tiles(node, tile_args, full, k, env)
        axis = node.depth
        adjusted = []
        last = None
        for part in results:
            if not isinstance(part, ArrayValue):
                raise EvalError("tiled scan tiles must produce arrays")
            pv = as_view(part)
            if last is not None:
                steps = []
                for j in range(pv.shape[axis]):
                    piece = slice_axis(pv, axis, j) if pv.rank > 1 else self._slice_value(pv, axis, j)
                    steps.append(self.call_function(comb_fn, [last, piece], comb_captured))
                part = self._stack(steps, axis)
                pv = as_view(part)
            last_piece = slice_axis(pv, axis, pv.shape[axis] - 1) if pv.rank > 1 \
                else self._slice_value(pv, axis, pv.shape[axis] - 1)
            last = last_piece
            adjusted.append(part)
        return concat(adjusted, axis, self.config.trace, self._new_array)
