"""Automatic tiling: rewrites Map/Reduce/Scan nests into tiled-operator nests.

One transformation tiles one function (``_Tiler.tile_function``). It
walks the function's body keeping three pieces of state:

  * ``visited``  -- the ordered sequence of operators seen on the way down,
    each recorded with its original (local) axes and reduce/scan payload;
  * ``remaining``-- per variable, the original axes not yet sliced away,
    used to remap each operator's local axis to the global axis of the
    full-rank value the tiled operator will actually receive;
  * ``depths``   -- per variable, the nesting depths (with local axes) at
    which its lineage was an operator argument; this drives both nest
    reconstruction and the Map-wrapping of scalar statements.

Every operator becomes its tiled counterpart. A Map whose nested function
contains further operators recurses; otherwise (and always for Reduce and
Scan, which terminate the walk) the nested function's body is rebuilt as
the original operator nest, stripped of non-operator statements, via
``build_operator_nest``. Combine functions, and a scan's emit, are lifted
by wrapping them in one Map per rank added by enclosing tiling; a scan's
tiles scan without emit, which the evaluator applies after fixing up
the tile boundaries. Scalar statements inside functions being tiled are
wrapped in one Map per recorded depth so that the extra tile ranks are
peeled off before the original expression runs.

A function is left untiled when control flow is reachable from it, or
when it has a Reduce or Scan whose combine is not `return a OP b` with OP
one of +, *, min, max, or whose init is not OP's identity: tiles fold
from the init independently, so only then does tiling keep the result.

The transformation is applied twice, by two passes. Each normalizes the
program once (``normalize_for_tiling``: every operator the whole
right-hand side of its statement, with variable or constant arguments),
keeps only the functions the entry reaches, and validates only the
functions it created or replaced; a pass that changes nothing returns its
input as given. The cache pass, ``tile_program``, tiles the entry
function with sizes chosen at run time, or returns the input unchanged
with a reason. The register pass, ``register_tile``, tiles the
reconstructed nests with small fixed sizes (``register_tile_size``); it
infers the untiled ranks once per pass. Each operator it tiles gets its
fixed-extent clone (``specialize_fixed``) when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import count

from . import ir
from .ir import (
    Assign, BinOp, Const, Function, Map, Program, Reduce, Return, Scan,
    TiledMap, TiledReduce, TiledScan, Var, contains_control_flow,
    contains_parallel_op, free_vars, fresh_name, validate_program,
)

UNTILED_OPS = (Map, Reduce, Scan)

INT64_MIN, INT64_MAX = -(2 ** 63), 2 ** 63 - 1

# The combine operators a reduction or scan may be tiled with, and the
# init values that are their identities.
IDENTITIES = {
    "+": (0,),
    "*": (1,),
    "min": (float("inf"), INT64_MAX),
    "max": (float("-inf"), INT64_MIN),
}


class TilingError(Exception):
    pass


class UnsupportedNesting(TilingError):
    """The operator nest cannot be reconstructed faithfully (for example a
    nesting level at which no variable was sliced, or a reduction whose
    combine is not an associative operator with its identity as init);
    the program is left untiled rather than transformed incorrectly."""


@dataclass(frozen=True)
class OpLevel:
    """One visited operator: kind plus its original payload."""

    kind: str  # 'map' | 'reduce' | 'scan'
    axes: tuple[int, ...]  # local axes, by argument position
    combine: str | None = None
    init: object | None = None


@dataclass
class TilingState:
    """Transformation bookkeeping (see module docstring)."""

    visited: tuple[OpLevel, ...] = ()
    remaining: dict = field(default_factory=dict)  # name -> tuple of original axes
    depths: dict = field(default_factory=dict)     # name -> tuple of (depth, local axis)

    def clone(self):
        return TilingState(self.visited, dict(self.remaining), dict(self.depths))


@dataclass
class TileSlot:
    id: int
    kind: str  # 'cache' | 'register'
    size: int | None  # None while runtime-tunable
    path: str


@dataclass
class TileSpec:
    slots: list = field(default_factory=list)

    def new_slot(self, kind, path, size=None):
        slot = TileSlot(len(self.slots), kind, size, path)
        self.slots.append(slot)
        return slot

    def sizes(self, overrides=None):
        """Concrete slot->size mapping; runtime slots take `overrides`."""
        sizes = {}
        for slot in self.slots:
            if slot.size is not None:
                sizes[slot.id] = slot.size
            elif overrides and slot.id in overrides:
                sizes[slot.id] = overrides[slot.id]
        return sizes

    def runtime_slots(self):
        return [s for s in self.slots if s.size is None]

    def table(self):
        lines = ["slot  kind      size     operator"]
        for s in self.slots:
            size = "tunable" if s.size is None else str(s.size)
            lines.append(f"{s.id:<5} {s.kind:<9} {size:<8} {s.path}")
        return "\n".join(lines)


@dataclass
class TilingResult:
    changed: bool
    program: Program
    spec: TileSpec | None = None
    reason: str | None = None


# Register tiles take at most this share of the registers, and a size
# from REGISTER_TILE_MIN to REGISTER_TILE_MAX.
REGISTER_BUDGET = 0.75
REGISTER_TILE_MIN = 1
REGISTER_TILE_MAX = 8


def register_tile_size(n_operands, registers):
    """The largest power of two k <= REGISTER_TILE_MAX with
    n_operands * k <= REGISTER_BUDGET * registers, or REGISTER_TILE_MIN
    when not even that fits."""
    k = REGISTER_TILE_MIN
    while k * 2 <= REGISTER_TILE_MAX and n_operands * k * 2 <= REGISTER_BUDGET * registers:
        k *= 2
    return k


# ---------------------------------------------------------------------------
# Rank bookkeeping
# ---------------------------------------------------------------------------

def required_ranks(program, entry="main"):
    """Minimal ranks of the entry parameters, inferred from slicing usage.

    A parameter sliced along axis a needs rank >= a+1, plus one more rank
    for every requirement its slice inherits in the nested function. A
    statement passes its target's requirement back to the variables its
    right-hand side reads, one rank higher through an index. The tiled
    program's axis bookkeeping only consults the axes a variable actually
    gets sliced along, so minimal ranks are sufficient.
    """
    return _function_ranks(_rank_table(program), program.fn(entry))


def _function_ranks(req, fn):
    """The ranks of `fn`'s parameters and closure parameters in `req`."""
    return {p: req.get((fn.name, p), 0) for p in fn.params + fn.closure_params}


def _rank_table(program):
    """(function name, variable) -> minimal rank, for every variable of
    every function of `program` with a requirement (see required_ranks)."""
    req = {}  # (fname, varname) -> rank

    def get(fname, var):
        return req.get((fname, var), 0)

    table = program.functions.items()
    assigns = [(fname, s) for fname, fn in table for s in fn.body if isinstance(s, Assign)]
    ops = [(fname, e) for fname, fn in table
           for e in ir.walk_exprs(fn.body) if isinstance(e, UNTILED_OPS)]
    for _ in range(100):
        before = dict(req)
        for fname, s in assigns:
            for var, rank in _reads(s.value, get(fname, s.target)):
                req[(fname, var)] = max(rank, get(fname, var))
        for fname, e in ops:
            nested = program.functions.get(e.fn)
            for pos, (arg, axis) in enumerate(zip(e.args, e.axes)):
                if not isinstance(arg, Var):
                    continue
                rank = axis + 1
                if nested is not None and pos < len(nested.params):
                    rank = max(rank, get(e.fn, nested.params[pos]) + 1)
                req[(fname, arg.name)] = max(rank, get(fname, arg.name))
            if nested is not None:
                for c in nested.closure_params:
                    req[(fname, c)] = max(get(e.fn, c), get(fname, c))
        if req == before:
            break
    else:
        raise TilingError("rank inference failed to converge")
    return req


def _reads(e, rank):
    """(variable, rank) pairs: what a value of rank `rank` computed by `e`
    requires of the variables it reads through arithmetic and indexing."""
    if isinstance(e, Var):
        yield e.name, rank
    elif isinstance(e, BinOp):
        yield from _reads(e.left, rank)
        yield from _reads(e.right, rank)
    elif isinstance(e, ir.Index):
        yield from _reads(e.array, rank + 1)


class _RankOracle:
    """Untiled result ranks of expressions, via function summaries."""

    def __init__(self, program):
        self.program = program
        self.memo = {}

    def expr_rank(self, e, env):
        if isinstance(e, Const):
            return 0
        if isinstance(e, Var):
            return env.get(e.name, 0)
        if isinstance(e, BinOp):
            return max(self.expr_rank(e.left, env), self.expr_rank(e.right, env))
        if isinstance(e, ir.ArrayLit):
            return 1 + (self.expr_rank(e.items[0], env) if e.items else 0)
        if isinstance(e, ir.Index):
            return max(self.expr_rank(e.array, env) - 1, 0)
        if isinstance(e, (Map, Scan)):
            return 1 + self._nested_rank(e, env)
        if isinstance(e, Reduce):
            return self._nested_rank(e, env)
        raise TilingError(f"cannot infer rank of {type(e).__name__}")

    def _nested_rank(self, e, env):
        fn = self.program.fn(e.fn)
        arg_ranks = tuple(max(self.expr_rank(a, env) - 1, 0) for a in e.args)
        closure_ranks = tuple(sorted((c, env.get(c, 0)) for c in fn.closure_params))
        key = (e.fn, arg_ranks, closure_ranks)
        if key in self.memo:
            return self.memo[key]
        self.memo[key] = 0  # cycle guard
        inner = dict(zip(fn.params, arg_ranks))
        inner.update(dict(closure_ranks))
        result = self.return_rank(fn, inner)
        self.memo[key] = result
        return result

    def return_rank(self, fn, env):
        env = dict(env)
        for s in fn.body:
            if isinstance(s, Assign):
                env[s.target] = self.expr_rank(s.value, env)
            elif isinstance(s, Return):
                return self.expr_rank(s.value, env)
        raise TilingError(f"{fn.name} has no unconditional return")


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def normalize_for_tiling(program):
    """A-normalize operators: every operator is the entire right-hand side
    of an assignment or return, and operator arguments are variables or
    constants. Compound non-operator return expressions are bound to a
    temporary first so the statement rules cover them.

    Only functions with untiled operators and no tiled ones are touched;
    operator-free functions are innermost computations the transformation
    never splits.
    """
    out = Program(dict(program.functions))
    counter = count(1)

    def normalize(e, prelude, stmt):
        def bind(x):
            tmp = f"t$n{next(counter)}"
            prelude.append(Assign(tmp, x))
            return Var(tmp)

        e = _norm_expr(e, bind, top=isinstance(stmt, (Assign, Return)))
        if isinstance(stmt, Return) and not isinstance(e, (Var, Const) + ir.PARALLEL_OPS):
            e = bind(e)
        return e

    for name, fn in list(out.functions.items()):
        if not _untiled_nest(fn):
            continue
        body = ir.map_block(fn.body, normalize)
        if body != fn.body:
            out.functions[name] = replace(fn, body=body)
    return out


def _untiled_nest(fn):
    """True if `fn` holds untiled operators and no tiled ones."""
    kinds = [type(e) for e in ir.walk_exprs(fn.body)]
    return any(k in UNTILED_OPS for k in kinds) and not any(k in ir.TILED_OPS for k in kinds)


def _norm_expr(e, bind, top):
    """`e` with every operator argument a variable or constant, and every
    operator below the top bound to a temporary by `bind`."""
    if isinstance(e, ir.AllPairs):
        raise TilingError("AllPairs must be desugared before tiling")
    if not isinstance(e, UNTILED_OPS):
        return ir.map_children(e, lambda c: _norm_expr(c, bind, top=False))

    def operand(a):
        a = _norm_expr(a, bind, top=False)
        return a if isinstance(a, (Var, Const)) else bind(a)

    args = tuple(operand(a) for a in e.args)
    if isinstance(e, Map):
        e = replace(e, args=args)
    else:
        e = replace(e, args=args, init=_norm_expr(e.init, bind, top=False))
    return e if top else bind(e)


# ---------------------------------------------------------------------------
# The transformation
# ---------------------------------------------------------------------------

class _Tiler:
    """Tiles one function of `program` into a copy of its function table:
    for cache, with runtime-tunable slots, or, given `registers`, for
    registers, with fixed-size slots."""

    def __init__(self, program, spec, registers=0):
        self.program = Program(dict(program.functions))
        self.out = self.program.functions
        self.spec = spec
        self.registers = registers
        self.ranks = _RankOracle(program)
        self._combine_cache = {}

    # -- infrastructure ------------------------------------------------------

    def define(self, name, params, body):
        """Create a function, deriving closure parameters from free names."""
        fv = free_vars(body, self.program)
        closures = tuple(sorted(fv - set(params)))
        fn = Function(name, tuple(params), closures, tuple(body))
        self.out[name] = fn
        return fn

    def new_slot(self, path, nargs):
        size = register_tile_size(nargs + 1, self.registers) if self.registers else None
        return self.spec.new_slot("register" if self.registers else "cache", path, size)

    # -- blocks and statements -------------------------------------------------

    def tile_function(self, name, ranks):
        """The program with function `name` tiled, given the untiled rank
        of each of its parameters and closure parameters (0 if missing)."""
        fn = self.out[name]
        state = TilingState()
        for p in fn.params + fn.closure_params:
            state.remaining[p] = tuple(range(ranks.get(p, 0)))
        self.out[name] = replace(fn, body=self.tile_block(fn.body, state, name))
        return self.program

    def tile_block(self, block, state, path):
        return tuple(self.tile_statement(s, state, path) for s in block)

    def tile_statement(self, s, state, path):
        if isinstance(s, Return):
            return Return(self.tile_expr(s.value, state, path))
        if isinstance(s, Assign):
            return self.tile_assign(s, state, path)
        raise TilingError(f"control flow reached the transformer: {type(s).__name__}")

    def tile_assign(self, s, state, path):
        e = s.value
        recorded = [rec for y in sorted(free_vars(e, self.program))
                    for rec in state.depths.get(y, ())]
        depths = sorted({d for d, _ in recorded})
        rank = self.ranks.expr_rank(e, {v: len(r) for v, r in state.remaining.items()})
        if contains_parallel_op(e):
            value = self.tile_expr(e, state, path)
        elif depths:
            # Wrap the scalar statement in one Map per recorded depth to
            # peel the tile ranks added by enclosing operators (axis 0 at
            # every level, matching slicing at the leading remaining axis).
            # A tile axis recorded elsewhere would be peeled in the wrong
            # order, so such programs are left untiled.
            if any(axis != 0 for _, axis in recorded):
                raise UnsupportedNesting(
                    f"scalar statement {s.target!r} reads a tile whose axis is not "
                    f"leading ({path})")
            levels = [(d, OpLevel("map", axes=(0,))) for d in depths]
            fv_order = tuple(sorted(free_vars(e)))
            wrap_eps = {v: state.depths.get(v, ()) for v in fv_order}
            value = self.build_operator_nest(levels, wrap_eps, fv_order,
                                             (Return(e),), f"{path}.{s.target}",
                                             force_axis0=True)
        else:
            value = e
        state.depths[s.target] = tuple((d, 0) for d in depths)
        offset = len(depths)
        state.remaining[s.target] = tuple(range(offset, offset + rank))
        return Assign(s.target, value)

    # -- operator expressions ------------------------------------------------------

    def tile_expr(self, e, state, path):
        if isinstance(e, Map):
            return self.tile_map(e, state, path)
        if isinstance(e, (Reduce, Scan)):
            return self.tile_reduce_scan(e, state, path)
        if isinstance(e, ir.TILED_OPS):
            raise TilingError("input already contains tiled operators")
        if isinstance(e, ir.AllPairs):
            raise TilingError("AllPairs must be desugared before tiling")
        return e

    def _operand_info(self, e, state, what):
        """Global axes and per-arg state for an operator's Var arguments."""
        names = []
        for a in e.args:
            if not isinstance(a, Var):
                raise TilingError(f"{what} arguments must be variables after normalization")
            names.append(a.name)
        global_axes = []
        for name, axis in zip(names, e.axes):
            remaining = state.remaining.get(name)
            if remaining is None:
                raise TilingError(f"no axis record for {name!r}")
            if axis >= len(remaining):
                raise TilingError(
                    f"{what} slices axis {axis} of {name!r} but only {len(remaining)} remain")
            global_axes.append(remaining[axis])
        return names, tuple(global_axes)

    def _enter(self, e, level, names, state, path):
        """The state inside operator `e`'s nested function (one level
        deeper, each sliced axis removed), its path, and a new slot for `e`."""
        depth = len(state.visited)
        inner = state.clone()
        inner.visited = state.visited + (level,)
        for axis, name, param in zip(e.axes, names, self.out[e.fn].params):
            inner.depths[param] = state.depths.get(name, ()) + ((depth, axis),)
            rem = list(state.remaining[name])
            rem.pop(axis)
            inner.remaining[param] = tuple(rem)
        node_path = f"{path}/{e.fn}@d{depth}"
        return inner, node_path, self.new_slot(node_path, len(names))

    def tile_map(self, e, state, path):
        names, global_axes = self._operand_info(e, state, "Map")
        fn = self.out[e.fn]
        depth = len(state.visited)
        inner, node_path, slot = self._enter(e, OpLevel("map", e.axes), names, state, path)
        if contains_parallel_op(fn.body):
            body = self.tile_block(fn.body, inner, node_path)
        else:
            body = self._rebuilt_nest(fn, inner, node_path)
        name, fixed = self.tile_functions(fn, depth, body, slot, global_axes)
        return TiledMap(name, fixed, slot.id, depth, e.args, global_axes)

    def tile_functions(self, fn, depth, body, slot, axes):
        """The names of the tile function with `body` of an operator over
        `fn` at `depth`, and of its clone for a slot of fixed size (None for
        a runtime-tunable slot), both defined now. Bodies are built inner
        operators first, so the clone already names its inner clones."""
        tile_fn = self.define(fresh_name(f"{fn.name}$t{depth}", self.out), fn.params, body)
        if slot.size is None:
            return tile_fn.name, None
        clone = specialize_fixed(self.program, tile_fn.name, slot.size, axes)
        self.out[clone.name] = clone
        return tile_fn.name, clone.name

    def _rebuilt_nest(self, fn, state, path):
        """`fn`'s body inside the untiled nest of the operators visited so
        far. The nest may slice `fn`'s parameters and any free variable of
        its body whose lineage an enclosing operator sliced (tiles arriving
        through closures)."""
        universe = list(fn.params)
        for v in sorted(free_vars(fn.body, self.program)):
            if v not in universe and state.depths.get(v):
                universe.append(v)
        nest = self.build_operator_nest(list(enumerate(state.visited)), state.depths,
                                        tuple(universe), fn.body, path)
        return (Return(nest),)

    def tile_reduce_scan(self, e, state, path):
        what = "Reduce" if isinstance(e, Reduce) else "Scan"
        self._check_exact_combine(e, path)
        names, global_axes = self._operand_info(e, state, what)
        fn = self.out[e.fn]
        depth = len(state.visited)
        # A scan's tiles scan without `emit` (a rebuilt Scan has none): the
        # evaluator fixes up tile boundaries on the accumulators, then emits.
        level = OpLevel(what.lower(), e.axes, e.combine, e.init)
        inner, node_path, slot = self._enter(e, level, names, state, path)
        # A reduction always terminates the walk: partial results of one
        # reduction cannot feed another, so the nested function is rebuilt
        # from the visited nest even if it contains further operators.
        name, fixed = self.tile_functions(fn, depth, self._rebuilt_nest(fn, inner, node_path),
                                          slot, global_axes)
        added = max((len(state.depths.get(n, ())) for n in names), default=0)
        lifted = self.lift_combine(e.combine, added)
        if isinstance(e, Reduce):
            return TiledReduce(name, fixed, slot.id, depth, lifted, e.init, e.args, global_axes)
        emit = self.lift_combine(e.emit, added) if e.emit is not None else None
        return TiledScan(name, fixed, slot.id, depth, lifted, emit, e.init, e.args,
                         global_axes)

    def _check_exact_combine(self, e, path):
        """Each tile folds from `init` and the per-tile partials are then
        combined, which equals the untiled fold only for an associative
        combine whose init is its identity."""
        op = ir.combine_op(self.out[e.combine])
        if op not in IDENTITIES:
            raise UnsupportedNesting(
                f"combine {e.combine!r} is not `return a OP b` with OP one of "
                f"{', '.join(IDENTITIES)} ({path})")
        if not (isinstance(e.init, Const) and e.init.value in IDENTITIES[op]):
            raise UnsupportedNesting(
                f"init {ir.print_expr(e.init)} of combine {e.combine!r} is not the "
                f"identity of {op!r} ({path})")

    def lift_combine(self, combine, added_ranks):
        """Wrap the combine (or a scan's emit) in one Map per rank added by
        enclosing tiling, so it is applied to matching elements of
        partial-result tiles."""
        if added_ranks == 0:
            return combine
        key = (combine, added_ranks)
        if key in self._combine_cache:
            return self._combine_cache[key]
        fn = self.out[combine]
        levels = [(j, OpLevel("map", axes=(0, 0))) for j in range(added_ranks)]
        eps = {p: tuple((j, 0) for j in range(added_ranks)) for p in fn.params}
        nest = self.build_operator_nest(levels, eps, fn.params, fn.body,
                                        f"combine:{combine}", force_axis0=True)
        clone = self.define(fresh_name(f"{combine}$t{added_ranks}", self.out), fn.params,
                            (Return(nest),))
        self._combine_cache[key] = clone.name
        return clone.name

    # -- nest reconstruction --------------------------------------------------------

    def build_operator_nest(self, levels, eps, var_order, block, path, force_axis0=False):
        """Rebuild the untiled operator nest over the given variables.

        `levels` is a list of (depth key, OpLevel). Level j slices exactly
        the variables whose depth record contains that key, at the local
        axis recorded there (or axis 0 when forced); all other free
        variables pass through as closure parameters of the generated
        nested functions. The innermost body is `block`, untouched.
        """
        (depth_key, level), rest = levels[0], levels[1:]
        sliced = []
        axes = []
        for v in var_order:
            for d, axis in eps.get(v, ()):
                if d == depth_key:
                    sliced.append(v)
                    axes.append(0 if force_axis0 else axis)
                    break
        if not sliced:
            raise UnsupportedNesting(
                f"no variables recorded for nesting depth {depth_key} ({path})")
        if rest:
            inner_expr = self.build_operator_nest(rest, eps, var_order, block, path,
                                                  force_axis0)
            inner_body = (Return(inner_expr),)
        else:
            inner_body = block
        inner_fn = self.define(fresh_name(f"{_path_base(path)}$u{depth_key}", self.out),
                               sliced, inner_body)
        args = tuple(Var(v) for v in sliced)
        axes = tuple(axes)
        if level.kind == "map":
            return Map(inner_fn.name, args, axes)
        if level.kind == "reduce":
            return Reduce(inner_fn.name, level.combine, level.init, args, axes)
        return Scan(inner_fn.name, level.combine, None, level.init, args, axes)


def _path_base(path):
    tail = path.rsplit("/", 1)[-1]
    return tail.split("@", 1)[0].split(":", 1)[-1].split(".", 1)[0]


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def tile_program(program, arg_ranks=None, entry="main"):
    """Tile the entry function for cache: every operator becomes a tiled
    operator with a runtime-tunable size slot.

    Returns TilingResult; `changed` is False (with a reason, and the input
    program returned untouched) when there is nothing to tile or when
    control flow anywhere operator-reachable forces the bail-out.
    """
    validate_program(program)
    main = program.fn(entry)
    for fn in program.functions.values():  # validation has ruled out tiled operators
        if any(isinstance(e, ir.AllPairs) for e in ir.walk_exprs(fn.body)):
            raise TilingError("AllPairs must be desugared before tiling")
    if not contains_parallel_op(main.body):
        return TilingResult(False, program, None, "no data-parallel operators")
    if contains_control_flow(program, main):
        return TilingResult(False, program, None,
                            "control flow in a function being tiled")

    normalized = normalize_for_tiling(program)
    if arg_ranks is None:
        inferred = required_ranks(normalized, entry)
        arg_ranks = [inferred[p] for p in main.params]
    elif len(arg_ranks) != len(main.params):
        raise TilingError(f"{entry} has {len(main.params)} parameter(s), "
                          f"got {len(arg_ranks)} ranks")

    spec = TileSpec()
    try:
        tiled = _Tiler(normalized, spec).tile_function(
            entry, dict(zip(main.params, arg_ranks)))
    except UnsupportedNesting as exc:
        return TilingResult(False, program, None, str(exc))
    return TilingResult(True, _validated(program, ir.prune(tiled, [entry])), spec)


def specialize_fixed(program, fname, k, axes=None):
    """Clone `fname` with a fixed sliced-extent annotation.

    The evaluator dispatches full tiles of extent k to the clone, which
    skips per-iteration bounds checks; applying it to any other extent
    along the specialised axes is an error. `axes` gives the per-parameter
    axes the extent pins (the tiled operator's global axes); without it
    any slicing of the clone's parameters is assumed fixed."""
    if k < 1:
        raise TilingError(f"fixed extent must be >= 1, got {k}")
    fn = program.fn(fname)
    name = fresh_name(f"{fname}$k{k}", program.functions)
    clone = replace(fn, name=name, fixed_extent=k,
                    fixed_axes=tuple(axes) if axes is not None else None)
    return clone


def register_tile(program, spec, hw, entry="main"):
    """Second tiling pass: fixed-size register tiles, each operator with its
    fixed-extent clone, inside the nests the cache pass rebuilt.

    Each function still reachable from the entry with untiled operators
    and no tiled ones is tiled, unless control flow is reachable from it
    or its nest cannot be rebuilt. If none is, or no registers are
    reported, the program is returned as given."""
    registers = getattr(hw, "registers", hw if isinstance(hw, int) else 0)
    if registers <= 0:
        return program, spec

    new_spec = TileSpec(list(spec.slots))
    tiled = normalized = normalize_for_tiling(program)
    ranks = _rank_table(normalized)
    order = ir.reachable(program, [entry])
    # Tiling adds no control flow: check each function only if there is any.
    flow = bool(order) and contains_control_flow(program, entry)
    for name in order:
        fn = tiled.functions.get(name)  # None once a rewrite orphaned it
        if fn is None or not _untiled_nest(fn) or (
                flow and contains_control_flow(tiled, name)):
            continue
        slots = len(new_spec.slots)
        try:
            tiled = ir.prune(_Tiler(tiled, new_spec, registers).tile_function(
                name, _function_ranks(ranks, fn)), [entry])
        except UnsupportedNesting:
            del new_spec.slots[slots:]  # slots of operators left untiled
            continue

    if tiled is normalized:
        return program, new_spec
    return _validated(program, tiled), new_spec


def _validated(source, tiled):
    """`tiled`, after checking the functions that are not those of `source`.
    A replaced function keeps its name, parameters and closure parameters,
    so the others need no second check."""
    changed = [n for n, fn in tiled.functions.items() if source.functions.get(n) is not fn]
    return ir.validate_functions(tiled, changed, allow_tiled=True)

