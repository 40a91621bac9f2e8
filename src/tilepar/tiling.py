"""Automatic tiling: rewrites Map/Reduce/Scan nests into tiled-operator nests.

One transformation tiles one function (``_Tiler.tile_function``). It
walks the function's body keeping three pieces of state:

  * ``visited``  -- the untiled Map, Reduce and Scan nodes entered on the
    way down, in order; a rebuilt nest copies each one at its level;
  * ``remaining``-- per variable, the original axes not yet sliced away,
    used to remap each operator's local axis to the global axis of the
    full-rank value the tiled operator will actually receive;
  * ``depths``   -- per variable, the nesting depths (with local axes) at
    which its lineage was an operator argument; this drives both nest
    reconstruction and the Map-wrapping of scalar statements.

One rule, ``_Tiler.tile_operator``, turns every operator into its tiled
counterpart. A Map whose nested function contains further operators
recurses; otherwise (and always for Reduce and Scan, which terminate the
walk) the nested function's body is rebuilt as the original operator
nest, stripped of non-operator statements, via ``build_operator_nest``.
Combine functions, and a scan's emit, are lifted by wrapping them in one
Map per rank added by enclosing tiling; a scan's tiles scan without emit,
which the evaluator applies after fixing up the tile boundaries. Scalar
statements inside functions being tiled are wrapped in one Map per
recorded depth so that the extra tile ranks are peeled off before the
original expression runs.

A function is left untiled when control flow is reachable from it, or
when it has a Reduce or Scan whose combine is not `return a OP b` with OP
one of +, *, min, max, or whose init is not OP's identity: tiles fold
from the init independently, so only then does tiling keep the result.

The transformation is applied twice, by two passes. Each normalizes the
program once (``normalize_for_tiling``: every operator the whole
right-hand side of its statement, with variable or constant arguments),
keeps only the functions the entry reaches, and validates only the
functions it created or replaced; a pass that changes nothing returns its
input as given. The cache pass, ``tile_program``, first fuses every
elementwise producer of rank 1 into the Reduce that consumes it
(``fuse_producers``), so that a tile covers the reads of the producer's
inputs rather than a temporary built over the whole extent before the
reduce runs: in matmul, `p = x * y` becomes operands x and y of the
reduce, whose callee computes `x * y`, and the register tiles then
reorder input reads. It then tiles the entry function with sizes chosen
at run time, or returns its input unchanged, unfused, with a reason. The
register pass, ``register_tile``, tiles the reconstructed nests with
small fixed sizes (``register_tile_size``); it infers the untiled ranks
once per pass. Each operator it tiles says its slot's size
(``fixed=N``), which the evaluator checks against the tile size it is
given and uses for its bounds-check count.
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


@dataclass
class TilingState:
    """Transformation bookkeeping (see module docstring)."""

    visited: tuple = ()  # the untiled Map, Reduce and Scan nodes entered
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

def required_ranks(program):
    """Minimal ranks of the parameters of `main`, inferred from slicing usage.

    A parameter sliced along axis a needs rank >= a+1, plus one more rank
    for every requirement its slice inherits in the nested function. A
    statement passes its target's requirement back to the variables its
    right-hand side reads, one rank higher through an index. The tiled
    program's axis bookkeeping only consults the axes a variable actually
    gets sliced along, so minimal ranks are sufficient.
    """
    return _function_ranks(_rank_table(program), program.fn("main"))


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
    """Untiled result ranks of expressions, via function summaries.
    `contexts` maps each function name to the untiled ranks of its
    variables in each context `return_rank` meets it in."""

    def __init__(self, program):
        self.program = program
        self.memo = {}
        self.contexts = {}

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
        self.contexts.setdefault(fn.name, []).append(env)
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
# Producer fusion
# ---------------------------------------------------------------------------

def fuse_producers(program, arg_ranks):
    """`program` with every elementwise producer fused into the Reduce
    that consumes it, until none is left; `arg_ranks` are the untiled
    ranks of `main`'s parameters.

    A producer is an operand `E` of a Reduce, or a statement `p = E`
    whose `p` is read once in its function, as an operand of one Reduce,
    and by nothing else: no other statement, no return, no callee's
    `uses`. `E` is a tree of binary operators over variables and
    constants, and in every context the rank oracle sees, the operand
    has rank 1 and each of E's variables rank 1 (an array) or rank 0 (a
    scalar). The arrays, each once, replace `p` among the reduce's
    operands. The callee is composed with `E`: its parameter is
    substituted when its body is `return X` with X free of operators and
    reading the parameter once, else `param = E` is prepended. Scalars
    stay scalars, read by the composed callee through `uses`. Each
    element is computed as it was, so values are those of the program as
    written. Functions with control flow or a name bound twice are left
    as they are.

    Only rank 1 into a Reduce keeps every outcome of the program as
    written without static extents: the reduce's check that its
    operands' extents agree is then the whole of E's shape check, and
    over zero slices a reduce gives its init whatever its operands'
    dtypes. A Map or Scan over zero slices takes its first operand's
    dtype, which need not be E's, and a rank-2 array sliced by rows
    would be checked along one axis only."""
    while True:
        fused = _fuse_one(program, arg_ranks)
        if fused is None:
            return program
        program = fused


def _fuse_one(program, arg_ranks):
    """`program` with its first producer fused (see `fuse_producers`), or
    None when it has none. Ranks are inferred only once a producer shows."""
    contexts = None
    for name, e, pos, producer, value in _producers(program):
        if contexts is None:
            oracle, main = _RankOracle(program), program.fn("main")
            oracle.return_rank(main, dict(zip(main.params, arg_ranks)))
            contexts = oracle.contexts
        kinds = name in contexts and _operand_kinds(value, e.args[pos], e.axes[pos],
                                                    contexts[name])
        callee = kinds and _compose(program, program.fn(e.fn), pos, value, *kinds)
        if not callee:
            continue
        arrays = kinds[0]
        op = replace(e, fn=callee.name,
                     args=e.args[:pos] + tuple(map(Var, arrays)) + e.args[pos + 1:],
                     axes=e.axes[:pos] + (e.axes[pos],) * len(arrays) + e.axes[pos + 1:])
        fn = program.functions[name]
        body = tuple(s for s in fn.body if s is not producer)
        out = Program(dict(program.functions))
        out.functions[callee.name] = callee
        out.functions[name] = replace(fn, body=_replace_expr(body, e, op))
        return out
    return None


def _producers(program):
    """(function name, reduce, operand position, producer statement or
    None, elementwise value) of every operand of a Reduce that is a tree
    of binary operators, or a variable whose one read is that operand and
    whose statement computes such a tree, in a function without control
    flow that binds each name once."""
    for name, fn in program.functions.items():
        assigned = _single_assignments(fn)
        if assigned is None:
            continue
        for e in (e for s in fn.body for e in _reduces(s.value)):
            for pos, arg in enumerate(e.args):
                producer = assigned.get(arg.name) if type(arg) is Var else None
                value = producer.value if producer else arg
                if type(value) is BinOp and _elementwise(value) and (
                        producer is None or _read_once(program, fn, arg.name)):
                    yield name, e, pos, producer, value


def _reduces(e):
    """The Reduce nodes under `e`, without a walk when `e` is free of
    operators or is one over variables and constants."""
    if _elementwise(e):
        return ()
    if type(e) is Reduce and all(type(x) in (Var, Const) for x in e.args) and (
            type(e.init) is Const):
        return (e,)
    return [x for x in ir.walk_exprs(e) if type(x) is Reduce]


def _single_assignments(fn):
    """Each name `fn` binds -> its statement, or None when `fn` has control
    flow or binds a name twice or a parameter."""
    assigned = {}
    for s in fn.body:
        if type(s) is Assign:
            if s.target in assigned or s.target in fn.params + fn.closure_params:
                return None
            assigned[s.target] = s
        elif type(s) is not Return:
            return None
    return assigned


def _read_once(program, fn, name):
    """True if `fn` reads `name` once and no callee of its operators
    captures it."""
    reads = 0
    for e in ir.walk_exprs(fn.body):
        if type(e) is Var and e.name == name:
            reads += 1
        elif any(name in program.fn(f).closure_params for f in ir.referenced_functions(e)):
            return False
    return reads == 1


def _elementwise(e):
    """True if `e` is a tree of binary operators over variables and constants."""
    if isinstance(e, BinOp):
        return _elementwise(e.left) and _elementwise(e.right)
    return isinstance(e, (Var, Const))


def _names(e):
    """The variables `e` reads, each once, from left to right."""
    if type(e) is Var:
        return [e.name]
    if isinstance(e, BinOp):
        return list(dict.fromkeys(_names(e.left) + _names(e.right)))
    return []


def _operand_kinds(value, operand, axis, envs):
    """(arrays, scalars): the variables of producer `value`, each once in
    order of first reading, split by rank, when in every context the
    operand (`operand` is `value` itself or the variable that holds it)
    has rank 1 and is sliced along axis 0, and each variable has rank 1
    or 0, one at least rank 1; else None."""
    names = _names(value)
    arrays = None
    for env in envs:
        row = tuple(env.get(n, 0) for n in names)
        if max(row, default=0) != 1 or axis != 0 or arrays not in (None, row) or (
                type(operand) is Var and env.get(operand.name, 0) != 1):
            return None
        arrays = row
    return ([n for n, r in zip(names, arrays) if r],
            [n for n, r in zip(names, arrays) if not r])


def _compose(program, g, pos, value, arrays, scalars):
    """A new function: `g` with its parameter at `pos` computed by `value`
    from new parameters, one per array, and from `scalars` as closure
    parameters; None when a scalar's name is bound in `g`."""
    q, body = g.params[pos], g.body
    bound = set(g.params) | {s.target for s in body if isinstance(s, Assign)}
    if bound & set(scalars):
        return None
    reads = [x for x in ir.walk_exprs(body) if type(x) is Var and x.name == q]
    substitute = len(body) == 1 and isinstance(body[0], Return) and len(reads) == 1 and not (
        contains_parallel_op(body[0].value))
    # A substituted parameter's name is free again; an assigned one is bound.
    taken = (bound - {q} if substitute else bound) | set(g.closure_params) | set(scalars)
    rename = {}
    for a in arrays:
        rename[a] = Var(a if a not in taken else fresh_name(f"{a}$f", taken))
        taken.add(rename[a].name)
    value = _substitute(value, rename)
    if substitute:
        body = (Return(_substitute(body[0].value, {q: value})),)
    else:
        body = (Assign(q, value),) + body
    params = g.params[:pos] + tuple(rename[a].name for a in arrays) + g.params[pos + 1:]
    closures = g.closure_params + tuple(s for s in scalars if s not in g.closure_params)
    return Function(fresh_name(f"{g.name}$f", program.functions), params, closures, body)


def _substitute(e, values):
    """Operator-free `e` with each variable in `values` replaced by its value there."""
    if type(e) is Var:
        return values.get(e.name, e)
    return ir.map_children(e, lambda c: _substitute(c, values))


def _replace_expr(block, old, new):
    """`block` with the expression node `old` (by identity) replaced by `new`."""
    def swap(e):
        return new if e is old else ir.map_children(e, swap)
    return ir.map_block(block, lambda e, prelude, stmt: swap(e))


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
            # peel the tile ranks added by enclosing operators, each Map
            # slicing the axis recorded at its depth. The result records
            # its tile ranks at axis 0, so a tile axis recorded elsewhere
            # would be peeled in the wrong order: such programs are left
            # untiled.
            if any(axis != 0 for _, axis in recorded):
                raise UnsupportedNesting(
                    f"scalar statement {s.target!r} reads a tile whose axis is not "
                    f"leading ({path})")
            fv_order = tuple(sorted(free_vars(e)))
            wrap_eps = {v: state.depths.get(v, ()) for v in fv_order}
            value = self.build_operator_nest([(d, _PEEL) for d in depths], wrap_eps, fv_order,
                                             (Return(e),), f"{path}.{s.target}")
        else:
            value = e
        state.depths[s.target] = tuple((d, 0) for d in depths)
        offset = len(depths)
        state.remaining[s.target] = tuple(range(offset, offset + rank))
        return Assign(s.target, value)

    # -- operator expressions ------------------------------------------------------

    def tile_expr(self, e, state, path):
        if isinstance(e, UNTILED_OPS):
            return self.tile_operator(e, state, path)
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

    def _enter(self, e, names, state, path):
        """The state inside operator `e`'s nested function (one level
        deeper, each sliced axis removed), its path, and a new slot for `e`."""
        depth = len(state.visited)
        inner = state.clone()
        inner.visited = state.visited + (e,)
        for axis, name, param in zip(e.axes, names, self.out[e.fn].params):
            inner.depths[param] = state.depths.get(name, ()) + ((depth, axis),)
            rem = list(state.remaining[name])
            rem.pop(axis)
            inner.remaining[param] = tuple(rem)
        node_path = f"{path}/{e.fn}@d{depth}"
        return inner, node_path, self.new_slot(node_path, len(names))

    def tile_operator(self, e, state, path):
        """The tiled counterpart of Map, Reduce or Scan `e`. Its tile
        function `{fn}$t{depth}` tiles a Map's nested function in place
        when that function holds operators; otherwise, and always for a
        Reduce or Scan, it is the nest of the operators visited so far
        rebuilt around the nested function's body. A Reduce or Scan ends
        the walk because partial results of one reduction cannot feed
        another. Its combine and a scan's emit are lifted over the tile
        ranks its operands gained from enclosing operators."""
        if not isinstance(e, Map):
            self._check_exact_combine(e, path)
        names, global_axes = self._operand_info(e, state, type(e).__name__)
        fn = self.out[e.fn]
        depth = len(state.visited)
        inner, node_path, slot = self._enter(e, names, state, path)
        if isinstance(e, Map) and contains_parallel_op(fn.body):
            body = self.tile_block(fn.body, inner, node_path)
        else:
            body = self._rebuilt_nest(fn, inner, node_path)
        name = self.define(fresh_name(f"{fn.name}$t{depth}", self.out), fn.params, body).name
        if isinstance(e, Map):
            return TiledMap(name, slot.size, slot.id, depth, e.args, global_axes)
        added = max((len(state.depths.get(n, ())) for n in names), default=0)
        combine = self.lift_combine(e.combine, added)
        if isinstance(e, Reduce):
            return TiledReduce(name, slot.size, slot.id, depth, combine, e.init, e.args,
                               global_axes)
        emit = self.lift_combine(e.emit, added) if e.emit is not None else None
        return TiledScan(name, slot.size, slot.id, depth, combine, emit, e.init, e.args,
                         global_axes)

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
        eps = {p: tuple((j, 0) for j in range(added_ranks)) for p in fn.params}
        nest = self.build_operator_nest([(j, _PEEL) for j in range(added_ranks)], eps,
                                        fn.params, fn.body, f"combine:{combine}")
        clone = self.define(fresh_name(f"{combine}$t{added_ranks}", self.out), fn.params,
                            (Return(nest),))
        self._combine_cache[key] = clone.name
        return clone.name

    # -- nest reconstruction --------------------------------------------------------

    def build_operator_nest(self, levels, eps, var_order, block, path):
        """Rebuild the untiled operator nest over the given variables.

        `levels` is a list of (depth key, untiled operator). Level j is a
        copy of its operator that slices exactly the variables whose depth
        record contains that key, at the local axis recorded there; all
        other free variables pass through as closure parameters of the
        generated nested functions. The innermost body is `block`,
        untouched. A rebuilt Scan has no emit: the evaluator fixes up the
        tile boundaries on the accumulators, then emits.
        """
        (depth_key, level), rest = levels[0], levels[1:]
        sliced = []
        axes = []
        for v in var_order:
            for d, axis in eps.get(v, ()):
                if d == depth_key:
                    sliced.append(v)
                    axes.append(axis)
                    break
        if not sliced:
            raise UnsupportedNesting(
                f"no variables recorded for nesting depth {depth_key} ({path})")
        if rest:
            inner_body = (Return(self.build_operator_nest(rest, eps, var_order, block, path)),)
        else:
            inner_body = block
        inner_fn = self.define(fresh_name(f"{_path_base(path)}$u{depth_key}", self.out),
                               sliced, inner_body)
        fields = dict(fn=inner_fn.name, args=tuple(Var(v) for v in sliced), axes=tuple(axes))
        if isinstance(level, Scan):
            fields["emit"] = None
        return replace(level, **fields)


# The level of a nest that peels one tile rank off each value it slices.
_PEEL = Map("", (), ())


def _path_base(path):
    tail = path.rsplit("/", 1)[-1]
    return tail.split("@", 1)[0].split(":", 1)[-1].split(".", 1)[0]


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def tile_program(program, arg_ranks=None):
    """Tile `main` for cache: elementwise producers of rank 1 are fused
    into their reduces (`fuse_producers`), then every operator becomes a tiled
    operator with a runtime-tunable size slot.

    Returns TilingResult; `changed` is False (with a reason, and the input
    program returned untouched) when there is nothing to tile or when
    control flow anywhere operator-reachable forces the bail-out.
    """
    validate_program(program)
    main = program.fn("main")
    for fn in program.functions.values():  # validation has ruled out tiled operators
        if any(isinstance(e, ir.AllPairs) for e in ir.walk_exprs(fn.body)):
            raise TilingError("AllPairs must be desugared before tiling")
    if not contains_parallel_op(main.body):
        return TilingResult(False, program, None, "no data-parallel operators")
    if contains_control_flow(program, main):
        return TilingResult(False, program, None,
                            "control flow in a function being tiled")

    if arg_ranks is None:
        inferred = required_ranks(normalize_for_tiling(program))
        arg_ranks = [inferred[p] for p in main.params]
    elif len(arg_ranks) != len(main.params):
        raise TilingError(f"main has {len(main.params)} parameter(s), "
                          f"got {len(arg_ranks)} ranks")
    normalized = normalize_for_tiling(fuse_producers(program, arg_ranks))

    spec = TileSpec()
    try:
        tiled = _Tiler(normalized, spec).tile_function(
            "main", dict(zip(main.params, arg_ranks)))
    except UnsupportedNesting as exc:
        return TilingResult(False, program, None, str(exc))
    return TilingResult(True, _validated(program, ir.prune(tiled, ["main"])), spec)


def register_tile(program, spec, hw):
    """Second tiling pass: fixed-size register tiles, each operator marked
    with its slot's size (`fixed=`), inside the nests the cache pass rebuilt.

    Each function still reachable from `main` with untiled operators
    and no tiled ones is tiled, unless control flow is reachable from it
    or its nest cannot be rebuilt. If none is, or no registers are
    reported, the program is returned as given."""
    registers = getattr(hw, "registers", hw if isinstance(hw, int) else 0)
    if registers <= 0:
        return program, spec

    new_spec = TileSpec(list(spec.slots))
    tiled = normalized = normalize_for_tiling(program)
    ranks = _rank_table(normalized)
    order = ir.reachable(program, ["main"])
    # Tiling adds no control flow: check each function only if there is any.
    flow = bool(order) and contains_control_flow(program, "main")
    for name in order:
        fn = tiled.functions.get(name)  # None once a rewrite orphaned it
        if fn is None or not _untiled_nest(fn) or (
                flow and contains_control_flow(tiled, name)):
            continue
        slots = len(new_spec.slots)
        try:
            tiled = ir.prune(_Tiler(tiled, new_spec, registers).tile_function(
                name, _function_ranks(ranks, fn)), ["main"])
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

