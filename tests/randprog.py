"""Random program generator for the tiling equivalence oracle.

Generates small operator nests (depth <= 3) over int64 arrays with extents
<= 7, interleaved with scalar statements, combine functions restricted to
+ and max with their identity inits (see `wide` below), and no control
flow. Two flavours:

* statement-heavy programs slice at local axis 0 everywhere (the leading
  remaining axis), which keeps tile ranks leading-dimension-major so the
  Map-wrapping of scalar statements is exact;
* pure nests (no interleaved statements) pick arbitrary valid local axes
  to exercise the local-to-global axis remapping.

`generate(seed, wide=True)` lifts the axis-0 restriction on statement-heavy
programs, and draws reductions and scans whose combine or init tiling
cannot keep exact: non-identity inits, `-` and `*` combines, and a combine
whose body is not a single binop. Tiling must then either reproduce the
untiled result or leave the program unchanged with a reason.

`generate(seed, edge=True)` draws every input extent from 0-3 instead of
2-7, so operators see empty extents, single elements and tiles wider than
their operand. The two ranges take different amounts of the random stream,
so every draw after the shape differs: an edge seed often builds another
program than the same seed without `edge` (89 of seeds 0-199 do).
"""

import random

from tilepar.ir import (
    Assign, BinOp, Const, Function, Map, Program, Reduce, Return, Scan, Var,
    validate_program,
)
from tilepar.ndarray import NdArray

INT64_MIN = -(2 ** 63)

MAX_DEPTH = 3


class _Builder:
    def __init__(self, rng, pure, wide=False):
        self.rng = rng
        self.pure = pure
        self.any_axis = pure or wide
        self.wide = wide
        self.fns = {}
        self.counter = 0
        self.use_c = (not pure) and rng.random() < 0.5
        self.define("add2", ("a", "b"), (), (Return(BinOp("+", Var("a"), Var("b"))),))
        self.define("max2", ("a", "b"), (), (Return(BinOp("max", Var("a"), Var("b"))),))
        self.define("ident", ("x",), (), (Return(Var("x")),))
        if wide:
            self.define("sub2", ("a", "b"), (), (Return(BinOp("-", Var("a"), Var("b"))),))
            self.define("mul2", ("a", "b"), (), (Return(BinOp("*", Var("a"), Var("b"))),))
            self.define("add2b", ("a", "b"), (),
                        (Assign("t", BinOp("+", Var("a"), Var("b"))), Return(Var("t"))))

    def define(self, name, params, closures, body):
        self.fns[name] = Function(name, tuple(params), tuple(closures), tuple(body))
        return name

    def fresh(self, base):
        self.counter += 1
        return f"{base}{self.counter}"

    def pick_combine(self):
        if self.rng.random() < 0.6:
            combine, init = "add2", Const(0)
        else:
            combine, init = "max2", Const(INT64_MIN)
        if not self.wide or self.rng.random() < 0.5:
            return combine, init
        return self.rng.choice([
            ("add2", Const(self.rng.randrange(1, 10))),
            ("max2", Const(0)),
            ("sub2", Const(0)),
            ("mul2", Const(1)),
            ("mul2", Const(2)),
            ("add2b", Const(0)),
        ])

    def scalar_expr(self, candidates):
        """Element-wise arithmetic over in-scope values; returns (expr, rank)."""
        def atom():
            if candidates and self.rng.random() < 0.75:
                name, rank = self.rng.choice(candidates)
                return Var(name), rank
            return Const(self.rng.randrange(-5, 6)), 0

        e, rank = atom()
        for _ in range(self.rng.randrange(1, 3)):
            op = self.rng.choice(["+", "-", "*", "min", "max"])
            other, orank = atom()
            e = BinOp(op, e, other)
            rank = max(rank, orank)
        return e, rank

    def nested_body(self, rank, depth):
        """Body of a nested function whose parameter `v` has `rank`.
        Returns (statements, result rank)."""
        rng = self.rng
        stmts = []
        scalars = [("c", 0)] if self.use_c else []
        arrays = [("v", rank)]
        if not self.pure:
            for _ in range(rng.randrange(0, 3)):
                expr, erank = self.scalar_expr(arrays + scalars)
                t = self.fresh("t")
                stmts.append(Assign(t, expr))
                if erank == rank and rank > 0:
                    arrays.append((t, erank))
                elif erank == 0:
                    scalars.append((t, 0))
        if rank == 0:
            expr, _ = self.scalar_expr(arrays + scalars)
            stmts.append(Return(expr))
            return tuple(stmts), 0
        target, trank = rng.choice(arrays)
        kind_pool = ["map", "reduce", "scan"] if depth < MAX_DEPTH else ["reduce", "scan"]
        if depth >= MAX_DEPTH and trank >= 1:
            kind_pool.append("return")
        kind = rng.choice(kind_pool)
        axis = rng.randrange(trank) if self.any_axis else 0
        if kind == "return":
            stmts.append(Return(Var(target)))
            return tuple(stmts), trank
        if kind == "map":
            inner, out_rank = self.make_fn(trank - 1, depth + 1)
            stmts.append(Return(Map(inner, (Var(target),), (axis,))))
            return tuple(stmts), 1 + out_rank
        fn_name, fn_rank = self.simple_elementwise_fn(trank - 1)
        combine, init = self.pick_combine()
        if kind == "reduce":
            stmts.append(Return(Reduce(fn_name, combine, init, (Var(target),), (axis,))))
            return tuple(stmts), fn_rank
        stmts.append(Return(Scan(fn_name, combine, None, init, (Var(target),), (axis,))))
        return tuple(stmts), 1 + fn_rank

    def simple_elementwise_fn(self, rank):
        """Operator-free nested function usable at any rank (element-wise)."""
        if self.rng.random() < 0.5:
            return "ident", rank
        name = self.fresh("g")
        expr, _ = self.scalar_expr([("x", rank)])
        if not any(isinstance(x, Var) for x in _walk(expr)):
            expr = BinOp("+", Var("x"), expr)
        self.define(name, ("x",), (), (Return(expr),))
        return name, rank

    def make_fn(self, rank, depth):
        body, out_rank = self.nested_body(rank, depth)
        name = self.fresh("f")
        closures = ("c",) if self.use_c else ()
        self.define(name, ("v",), closures, body)
        return name, out_rank


def _walk(e):
    yield e
    if isinstance(e, BinOp):
        yield from _walk(e.left)
        yield from _walk(e.right)


def generate(seed, wide=False, edge=False):
    """Build one random case: (program, input arrays, entry arg ranks).
    `wide` lets statement-heavy programs slice at any axis; `edge` draws
    input extents from 0-3."""
    rng = random.Random(seed)
    pure = rng.random() < 0.4
    b = _Builder(rng, pure, wide)
    rank = rng.randrange(1, 4)
    shape = tuple(rng.randrange(0, 4) if edge else rng.randrange(2, 8) for _ in range(rank))

    top_fn, _ = b.make_fn(rank - 1, 1)
    axis = rng.randrange(rank) if b.any_axis else 0
    stmts = []
    params = ["X"]
    arg_ranks = [rank]
    if b.use_c:
        params.append("c")
        arg_ranks.append(0)
    first = b.fresh("r")
    stmts.append(Assign(first, Map(top_fn, (Var("X"),), (axis,))))
    result = first
    if not pure and rng.random() < 0.35:
        # A second top-level operator consuming the first one's output.
        fn2, _ = b.simple_elementwise_fn(0)
        combine, init = b.pick_combine()
        second = b.fresh("r")
        stmts.append(Assign(second, Reduce(fn2, combine, init, (Var(first),), (0,))))
        result = second
    stmts.append(Return(Var(result)))
    b.define("main", tuple(params), (), tuple(stmts))

    program = validate_program(Program(b.fns))
    data = [rng.randrange(-40, 40) for _ in range(_prod(shape))]
    inputs = [NdArray(shape, "i64", rng.choice(["row", "col"]), data)]
    if b.use_c:
        inputs.append(rng.randrange(-5, 6))
    return program, inputs, arg_ranks


def sample_tile_sizes(spec, rng):
    return {slot.id: rng.randrange(1, 10) for slot in spec.runtime_slots()}


def _prod(xs):
    p = 1
    for x in xs:
        p *= x
    return p
