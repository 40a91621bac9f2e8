from dataclasses import fields

import collections
import math

import pytest

from tilepar import ir
from tilepar.ir import (
    Assign, BinOp, Const, Function, IRSyntaxError, Index, Map, Program,
    Reduce, Return, ValidationError, Var, contains_control_flow,
    contains_parallel_op, desugar_allpairs, free_vars, parse_program,
    print_program,
)
from tilepar.ndarray import NdArray
from tilepar.semantics import eval_program
from tilepar.tiling import register_tile, tile_program

import programs
import randprog


def test_parse_sum_rows_structure():
    p = parse_program(programs.SUM_ROWS)
    assert set(p.functions) == {"ident", "add2", "sum_row", "main"}
    ret = p.fn("main").body[-1]
    assert isinstance(ret, Return)
    assert isinstance(ret.value, Map)
    assert ret.value.axes == (0,)
    inner = p.fn("sum_row").body[-1].value
    assert isinstance(inner, Reduce)
    assert inner.axes == (0,)
    assert inner.init == Const(0)


def test_parse_identity_function():
    p = parse_program("fn id(x){ return x; }")
    fn = p.fn("id")
    assert fn.params == ("x",)
    assert fn.closure_params == ()
    assert fn.body == (Return(Var("x")),)


def test_parser_rejects_tiled_nodes():
    src = """
    fn f(x) { return x; }
    fn main(xs) { return tiledmap(f, slot=0, depth=0, xs; axes=[0]); }
    """
    with pytest.raises(IRSyntaxError, match="internal-only"):
        parse_program(src)
    # Accepted under the debug dialect.
    p = parse_program(src, allow_internal=True)
    assert isinstance(p.fn("main").body[-1].value, ir.TiledMap)


def test_syntax_error_carries_position():
    with pytest.raises(IRSyntaxError) as exc:
        parse_program("fn f(x) { return x }")  # missing ;
    assert exc.value.line == 1


def test_dollar_names_require_internal_dialect():
    with pytest.raises(IRSyntaxError, match="reserved for generated code"):
        parse_program("fn f$t0(x) { return x; }")
    parse_program("fn f$t0(x) { return x; }", allow_internal=True)


def test_assumes_clause_does_not_parse():
    # A fixed size belongs to the tiled operator (`fixed=N`), not to a function.
    src = "fn f(x) assumes extent=4 { return x; }"
    for allow_internal in (False, True):
        with pytest.raises(IRSyntaxError, match="expected '{'"):
            parse_program(src, allow_internal=allow_internal)


@pytest.mark.parametrize("src", [programs.SUM_ROWS, programs.MATMUL, programs.PREFIX_SUM])
def test_round_trip(src):
    p = parse_program(src)
    text = print_program(p)
    again = parse_program(text)
    assert again == p
    assert print_program(again) == text


def test_round_trip_operators_and_precedence():
    src = "fn main(a, b) { c = (a + b) * a min b - a / b; return c[0][1]; }"
    p = parse_program(src)
    assert parse_program(print_program(p)) == p


def test_negative_and_float_literals_round_trip():
    src = "fn main(x) { y = -9223372036854775808; z = 1.5e-9; w = -inf; v = -x; return x; }"
    p = parse_program(src)
    body = p.fn("main").body
    assert body[0].value == Const(-9223372036854775808)
    assert body[1].value == Const(1.5e-9)
    assert body[2].value == Const(float("-inf"))
    assert body[3].value == BinOp("*", Const(-1), Var("x"))
    assert parse_program(print_program(p)) == p


def test_negation_keeps_the_sign_of_zero_and_the_dtype():
    # `-x` on a variable is `-1 * x`: `0 - x` would give 0.0 for 0.0.
    p = parse_program("fn main(x) { return -x; }")
    got = eval_program(p, [0.0])
    assert (got, math.copysign(1.0, got)) == (0.0, -1.0)
    got = eval_program(p, [NdArray((2,), "f64", "row", [0.0, 1.5])])
    assert [math.copysign(1.0, v) for v in got.data] == [-1.0, -1.0]
    assert (got.dtype, got.data) == ("f64", [-0.0, -1.5])
    got = eval_program(p, [NdArray((2,), "i64", "row", [0, 3])])
    assert (got.dtype, got.data, [type(v) for v in got.data]) == ("i64", [0, -3], [int, int])
    assert parse_program(print_program(p)) == p


def test_array_literal_and_inf_round_trip():
    p = parse_program("fn main(x) { a = [x, x * 2, [x][0]]; b = inf; return a; }")
    text = print_program(p)
    assert "  a = [x, x * 2, [x][0]];\n  b = inf;\n" in text
    assert p.fn("main").body[1].value == Const(float("inf"))
    assert parse_program(text) == p
    assert print_program(parse_program(text)) == text


def test_validation_empty_body():
    with pytest.raises(IRSyntaxError, match="empty body"):
        parse_program("fn f() { }")


def test_validation_missing_return():
    with pytest.raises(ValidationError, match="missing-return"):
        parse_program("fn f(x) { y = x + 1; }")


def test_validation_return_not_last():
    prog = Program({"f": Function("f", ("x",), (), (Return(Var("x")), Assign("y", Const(1))))})
    with pytest.raises(ValidationError, match="return-not-last"):
        ir.validate_program(prog)


def test_validation_unbound_variable():
    with pytest.raises(ValidationError, match="unbound-variable"):
        parse_program("fn f(x) { return y; }")


# Programs with two faults each, and the fault validation must report:
# statement by statement, a misplaced return or an unknown statement at its
# statement and the checks of each expression in walk order; then a
# missing return; then an unbound name.
FIRST_FAULT = {
    "closure-before-return": (
        "fn g(a) uses c { return a; } "
        "fn main(x) { y = map(g, x; axes=[0]); return y; return y; }",
        "unbound-closure", "'g'"),
    "return-before-unbound": ("fn main(x) { return x; return z; }", "return-not-last", "main"),
    "statement-order": (
        "fn main(x) { y = map(h1, x; axes=[0]); z = map(h2, x; axes=[0]); return z; }",
        "missing-function", "'h1'"),
    "walk-order": (
        "fn main(x) { return map(h1, x; axes=[0]) + map(h2, x; axes=[0]); }",
        "missing-function", "'h2'"),
    "branch-before-next-statement": (
        "fn main(x) { if x { y = map(h1, x; axes=[0]); } else { y = x; } "
        "return map(h2, y; axes=[0]); }",
        "missing-function", "'h1'"),
    "loop-body-before-missing-return": (
        "fn g(a) uses c { return a; } fn main(x) { for i in x { y = map(g, x; axes=[0]); } }",
        "unbound-closure", "'g'"),
    "expression-before-missing-return": (
        "fn main(x) { y = map(h, z; axes=[0]); }", "missing-function", "'h'"),
    "missing-return-before-unbound": ("fn main(x) { y = z; }", "missing-return", "main"),
}


class Nop(ir.Stmt):
    """A statement kind that validation does not know."""


@pytest.mark.parametrize("name", sorted(FIRST_FAULT) + ["unknown-statement", "unknown-operator"])
def test_validation_reports_the_first_fault(name):
    if name in FIRST_FAULT:
        src, invariant, mention = FIRST_FAULT[name]
        with pytest.raises(ValidationError) as raised:
            parse_program(src)
    else:
        # Built directly: the parser makes neither fault. Both come before
        # the unbound `q`.
        body = {"unknown-statement": (Nop(), Return(Var("q"))),
                "unknown-operator": (Return(BinOp("%", Var("x"), Var("q"))),)}[name]
        invariant, mention = name, "main"
        with pytest.raises(ValidationError) as raised:
            ir.validate_program(Program({"main": Function("main", ("x",), (), body)}))
    assert raised.value.invariant == invariant
    assert mention in str(raised.value)


def test_validation_operator_arity():
    src = """
    fn add2(a, b) { return a + b; }
    fn main(xs) { return map(add2, xs; axes=[0]); }
    """
    with pytest.raises(ValidationError, match="operator-arity"):
        parse_program(src)


@pytest.mark.parametrize("fixed", [0, 1])
def test_validation_fixed_size_at_least_one(fixed):
    src = f"""
    fn f(t) {{ return t; }}
    fn main(xs) {{ return tiledmap(f, fixed={fixed}, slot=0, depth=0, xs; axes=[0]); }}
    """
    if fixed:
        assert parse_program(src, allow_internal=True).fn("main").body[0].value.fixed == 1
        return
    with pytest.raises(ValidationError, match="bad-fixed"):
        parse_program(src, allow_internal=True)


def test_validation_axes_arity():
    src = """
    fn f(a) { return a; }
    fn main(xs) { return map(f, xs; axes=[0, 1]); }
    """
    with pytest.raises(ValidationError, match="axes-arity"):
        parse_program(src)


def test_validation_closure_in_scope():
    src = """
    fn f(a) uses c { return a + c; }
    fn main(xs) { return map(f, xs; axes=[0]); }
    """
    with pytest.raises(ValidationError, match="unbound-closure"):
        parse_program(src)
    ok = """
    fn f(a) uses c { return a + c; }
    fn main(xs, c) { return map(f, xs; axes=[0]); }
    """
    parse_program(ok)


def test_validation_closure_bound_by_both_branches():
    # A name both branches of an `if` bind is in scope after it, for an
    # operator's closure as for any expression.
    src = """
    fn g(x) uses y { return x + y; }
    fn main(X, c) { if c { y = 1; } else { y = 2; } return map(g, X; axes=[0]); }
    """
    X = NdArray((3,), "i64", "row", [1, 2, 3])
    assert eval_program(parse_program(src), [X, 0]).to_nested() == [3, 4, 5]
    one_branch = """
    fn g(x) uses y { return x + y; }
    fn main(X, c) { if c { y = 1; } else { z = 2; } return map(g, X; axes=[0]); }
    """
    with pytest.raises(ValidationError, match="unbound-closure"):
        parse_program(one_branch)


def test_free_vars_basics():
    assert free_vars(BinOp("+", Var("x"), Var("y"))) == {"x", "y"}


def test_free_vars_block_scoping():
    block = (Assign("y", BinOp("+", Var("x"), Const(1))),
             Return(BinOp("+", Var("y"), Var("z"))))
    assert free_vars(block) == {"x", "z"}


def test_free_vars_includes_closures_with_program():
    src = """
    fn f(a) uses c { return a + c; }
    fn main(xs, c) { return map(f, xs; axes=[0]); }
    """
    p = parse_program(src)
    ret = p.fn("main").body[-1].value
    assert free_vars(ret) == {"xs"}
    assert free_vars(ret, p) == {"xs", "c"}


def test_contains_parallel_op():
    p = parse_program(programs.SUM_ROWS)
    assert contains_parallel_op(p.fn("main").body)
    assert contains_parallel_op(p.fn("sum_row").body)
    assert not contains_parallel_op(p.fn("add2").body)
    assert contains_parallel_op(p.fn("main").body[-1].value)


def test_contains_control_flow_deep():
    src = """
    fn leaf(x) { if x { return x; } else { return x + 1; } }
    fn mid(row) { return map(leaf, row; axes=[0]); }
    fn main(xs) { return map(mid, xs; axes=[0]); }
    """
    p = parse_program(src)
    assert contains_control_flow(p, "main")
    assert contains_control_flow(p, "leaf")
    q = parse_program(programs.SUM_ROWS)
    assert not contains_control_flow(q, "main")
    assert contains_control_flow(q, "main") is False


def test_desugar_allpairs_structure():
    p = parse_program(programs.MATMUL)
    d = desugar_allpairs(p)
    assert not any(isinstance(e, ir.AllPairs)
                   for f in d.functions.values() for e in ir.walk_exprs(f.body))
    ret = d.fn("main").body[-1].value
    assert isinstance(ret, Map)
    outer = d.fn(ret.fn)
    inner_ret = outer.body[-1].value
    assert isinstance(inner_ret, Map)
    inner = d.fn(inner_ret.fn)
    # The original first parameter travels as a closure of the inner clone.
    assert inner.closure_params[0] == "x"
    ir.validate_program(d)


def test_desugar_drops_an_allpairs_callee_nothing_references():
    d = desugar_allpairs(parse_program(programs.MATMUL))
    assert "dot" not in d.functions
    assert sorted(d.functions) == sorted(ir.reachable(d, ["main"]))
    # A callee that another operator also calls stays.
    both = programs.MATMUL.replace(
        "fn main(Xs, Ys) { return",
        "fn main(Xs, Ys) { d = map(dot, Xs, Ys; axes=[0, 0]); return")
    assert "dot" in desugar_allpairs(parse_program(both)).functions


def test_desugar_too_deep_a_program_is_an_ir_error():
    """`desugar_allpairs` takes three frames per level of an expression, so a
    sum of 400 terms, which parses, is too deep for it: it raises IRError,
    not RecursionError."""
    p = parse_program(f"fn main(x) {{ return {' + '.join(['x'] * 400)}; }}")
    with pytest.raises(ir.IRError, match="^program nests too deeply$"):
        desugar_allpairs(p)


def test_desugar_no_allpairs_is_identity():
    p = parse_program(programs.SUM_ROWS)
    assert desugar_allpairs(p) == p


def test_desugar_preserves_semantics_3x2_by_4x2():
    from tilepar.ndarray import NdArray
    from tilepar.semantics import eval_program
    p = desugar_allpairs(parse_program(programs.MATMUL))
    a = NdArray.from_nested([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    b = NdArray.from_nested([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 3.0]])
    out = eval_program(p, [a, b])
    expected = [[sum(a.get((i, k)) * b.get((j, k)) for k in range(2))
                 for j in range(4)] for i in range(3)]
    assert out.shape == (3, 4)
    assert out.to_nested() == expected


def test_duplicate_function_names_rejected():
    with pytest.raises(IRSyntaxError, match="duplicate"):
        parse_program("fn f(x) { return x; } fn f(y) { return y; }")


def test_validation_empty_body_programmatic():
    prog = Program({"f": Function("f", ("x",), (), ())})
    with pytest.raises(ValidationError, match="empty-body"):
        ir.validate_program(prog)


@pytest.mark.parametrize("seed", range(25))
def test_round_trip_random_programs(seed):
    import randprog
    program, _, _ = randprog.generate(seed)
    text = print_program(program)
    again = parse_program(text)
    assert again == program
    assert print_program(again) == text


BODY_SHAPES = """
fn g(x) { return x; }
fn g2(a, b) { return a * b; }
fn c(a, b) { return a + b; }
fn ident(x) { return x; }
fn binop(a, b) { return a max b; }
fn fold(x) { return reduce(g, combine=c, init=0, x; axes=[0]); }
fn fold2(x, y) { return reduce(g2, combine=c, init=1.5, x, y; axes=[0, 0]); }
fn fold_neg(x) { return reduce(g, combine=c, init=-inf, x; axes=[0]); }
fn swapped(a, b) { return b max a; }
fn squared(x) { return x * x; }
fn closure(x) uses s { return reduce(g, combine=c, init=0, x; axes=[0]); }
fn closure_operand(y) uses x { return reduce(g2, combine=c, init=0, x, y; axes=[0, 0]); }
fn map_closure(x) uses y { return map(g, y; axes=[0]); }
fn computed(x) { return reduce(g, combine=c, init=0, x + 1; axes=[0]); }
fn two_stmts(x) { r = x; return reduce(g, combine=c, init=0, x; axes=[0]); }
fn expr_init(x) { return reduce(g, combine=c, init=1 - 1, x; axes=[0]); }
fn axis1(x) { return reduce(g, combine=c, init=0, x; axes=[1]); }
fn reordered(x, y) { return reduce(g2, combine=c, init=0, y, x; axes=[0, 0]); }
fn fewer_args(x, y) { return reduce(g, combine=c, init=0, x; axes=[0]); }
fn scan_fold(x) { return scan(g, combine=c, init=0, x; axes=[0]); }
fn map_fold(x) { return map(g, x; axes=[0]); }
fn scaled(x) uses s { return x * s; }
fn captured(x) uses s { return s; }
fn scan_emit(x) { return scan(g, combine=c, emit=g, init=0, x; axes=[0]); }
fn dot(x, y) { p = x * y; return reduce(g, combine=c, init=0.0, p; axes=[0]); }
fn dot_closure(y) uses x { p = x - y; return reduce(g, combine=c, init=0, p; axes=[0]); }
fn dot_same(x) { p = x max x; return reduce(g, combine=c, init=1, p; axes=[0]); }
fn dot_const(x) { p = x * 2; return reduce(g, combine=c, init=0, p; axes=[0]); }
fn dot_param(p, y) { p = p * y; return reduce(g, combine=c, init=0, p; axes=[0]); }
fn dot_twice(x, y) { p = x * y; return reduce(g2, combine=c, init=0, p, p; axes=[0, 0]); }
fn dot_other(x, y) { p = x * y; return reduce(g, combine=c, init=0, x; axes=[0]); }
fn dot_scan(x, y) { p = x * y; return scan(g, combine=c, init=0, p; axes=[0]); }
fn dot_map(x, y) { p = x * y; return map(g, p; axes=[0]); }
fn dot_copy(x) { p = x; return reduce(g, combine=c, init=0, p; axes=[0]); }
fn two_producers(x, y) { d = x - y; s = d * d; return reduce(g, combine=c, init=0, s; axes=[0]); }
"""


def test_body_shape():
    p = parse_program(BODY_SHAPES)
    shapes = {
        "ident": ("leaf", None, ("x",)),
        "binop": ("leaf", "max", ("a", "b")),
        "swapped": ("leaf", "max", ("b", "a")),
        "squared": ("leaf", "*", ("x", "x")),
        "scaled": ("leaf", "*", ("x", "s")),
        "captured": ("leaf", None, ("s",)),
        "fold": ("reduce", "g", "c", 0, ("x",)),
        "fold2": ("reduce", "g2", "c", 1.5, ("x", "y")),
        "fold_neg": ("reduce", "g", "c", float("-inf"), ("x",)),
        "scan_fold": ("scan", "g", "c", 0, ("x",)),
        "map_fold": ("map", "g", None, None, ("x",)),
        # A node's operands are any of its parameters and closure parameters.
        "closure": ("reduce", "g", "c", 0, ("x",)),
        "closure_operand": ("reduce", "g2", "c", 0, ("x", "y")),
        "map_closure": ("map", "g", None, None, ("y",)),
        "reordered": ("reduce", "g2", "c", 0, ("y", "x")),
        "fewer_args": ("reduce", "g", "c", 0, ("x",)),
        # A reduce over the product of two operands, read nowhere else.
        "dot": ("dot", "g", "c", 0.0, ("x", "y"), "*"),
        "dot_closure": ("dot", "g", "c", 0, ("x", "y"), "-"),
        "dot_same": ("dot", "g", "c", 1, ("x", "x"), "max"),
    }
    for name, shape in shapes.items():
        assert ir.body_shape(p.fn(name)) == shape, name
    for near_miss in ("computed", "two_stmts", "expr_init", "axis1", "scan_emit", "dot_const",
                      "dot_param", "dot_twice", "dot_other", "dot_scan", "dot_map", "dot_copy",
                      "two_producers"):
        assert ir.body_shape(p.fn(near_miss)) is None, near_miss
    # A combine is `return a OP b` over its own two parameters, in order.
    assert [ir.combine_op(p.fn(name)) for name in
            ("binop", "c", "swapped", "squared", "scaled", "ident", "fold")] == \
        ["max", "+", None, None, None, None, None]


def local_walk(block):
    """Every expression under `block` in the order `ir.walk_exprs` gives,
    by a recursive walk over the dataclass fields local to this test: the
    statements' expressions (each statement's own, then its nested
    blocks'), last first, each before its children, last child first."""
    def children(node, kind):
        out = []
        for f in fields(node):
            value = getattr(node, f.name)
            out += [x for x in (value if isinstance(value, tuple) else (value,))
                    if isinstance(x, kind)]
        return out

    def statement_exprs(block):
        for s in block:
            yield from children(s, ir.Expr)
            yield from statement_exprs(children(s, ir.Stmt))

    def visit(e):
        yield e
        for c in reversed(children(e, ir.Expr)):
            yield from visit(c)

    for e in reversed(list(statement_exprs(block))):
        yield from visit(e)


def walked_reachable(program, roots):
    """`ir.reachable` as one `local_walk` per function computes it."""
    order, seen, pending = [], set(), collections.deque(roots)
    while pending:
        name = pending.popleft()
        if name in seen or name not in program.functions:
            continue
        seen.add(name)
        order.append(name)
        for e in local_walk(program.functions[name].body):
            pending.extend(ir.referenced_functions(e))
    return order


def test_reachable_order_matches_expression_walk():
    # `register_tile` rewrites functions in this order, and numbers slots
    # by it: the breadth-first discovery order must not change. Untiled
    # programs and both tiling passes of the randprog corpus and of every
    # source in `programs`, from `main` and from each function in turn.
    cases = [(randprog.generate(seed, wide=wide)[::2]) for seed in range(150)
             for wide in (False, True)]
    cases += [(desugar_allpairs(parse_program(getattr(programs, name))), None)
              for name in dir(programs) if name.isupper()]
    checked = 0
    for program, arg_ranks in cases:
        passes = [program]
        res = tile_program(program, arg_ranks=arg_ranks)
        if res.changed:
            passes += [res.program, register_tile(res.program, res.spec, 16)[0]]
        for p in passes:
            for fn in p.functions.values():
                assert list(ir.walk_exprs(fn.body)) == list(local_walk(fn.body))
            for roots in [["main"], ["main", "missing"]] + [[n] for n in p.functions]:
                assert ir.reachable(p, roots) == walked_reachable(p, roots)
                checked += 1
    assert checked > 2000
