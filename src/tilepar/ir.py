"""Tree-structured IR for data-parallel array programs.

Programs are flat tables of named functions. Expressions include scalar
arithmetic, array literals, indexing, and the parallel operators Map,
Reduce, Scan and AllPairs, each of which references a named nested
function and carries one slicing axis per argument. Tiled variants of the
operators (TiledMap/TiledReduce/TiledScan) are internal-only nodes: the
parser rejects them unless the internal dialect is enabled.

The textual format is one `fn` block per function:

    fn NAME(PARAMS) [uses CLOSUREPARAMS] [assumes extent=N[, axes=[AXES]]] { STMT* }

An operator is written as its keyword and its fields in declaration order,
where a bracketed field is optional and ARGS and AXES are comma-separated:

    map(F, ARGS; axes=[AXES])
    reduce(F, combine=C, init=EXPR, ARGS; axes=[AXES])
    scan(F, combine=C, [emit=E,] init=EXPR, ARGS; axes=[AXES])
    allpairs(F, ARG1, ARG2; axes=[AXIS1, AXIS2])
    tiledmap(F, [fixed=G,] slot=N, depth=N, ARGS; axes=[AXES])
    tiledreduce(F, [fixed=G,] slot=N, depth=N, combine=C, init=EXPR, ARGS; axes=[AXES])
    tiledscan(F, [fixed=G,] slot=N, depth=N, combine=C, [emit=E,] init=EXPR, ARGS; axes=[AXES])

Closure parameters are bound by name at the operator application site:
an operator expression `map(f, xs; axes=[0])` slices `xs` into f's
positional parameter and resolves each of f's closure parameters in the
scope enclosing the operator expression.

Each structure has one walk. `walk_exprs` lists the expressions under a
node with an explicit stack, driven by one child-field table;
`reachable` takes operator references from it, and the free names of an
expression are the Var names it lists plus the closure parameters of the
functions referenced. `_scope` is the one pass over statements: it gives
a block's free names and the names surely bound after it (a name bound
by both branches of an `if`; nothing a loop binds), and validation runs
from it, statement by statement and, within an expression, in walk order.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field, fields, replace
from itertools import count

BINARY_OPS = ("+", "-", "*", "/", "min", "max")


class IRError(Exception):
    """Base for all IR-level failures."""


class IRSyntaxError(IRError):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ValidationError(IRError):
    """Raised when a structurally complete program violates an invariant.

    `invariant` is a stable identifier naming the violated rule.
    """

    def __init__(self, invariant, message):
        super().__init__(f"[{invariant}] {message}")
        self.invariant = invariant


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------

class Expr:
    __slots__ = ()


class Stmt:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: int | float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class ArrayLit(Expr):
    items: tuple[Expr, ...]


@dataclass(frozen=True)
class Index(Expr):
    array: Expr
    index: Expr


@dataclass(frozen=True)
class Map(Expr):
    fn: str
    args: tuple[Expr, ...]
    axes: tuple[int, ...]


@dataclass(frozen=True)
class Reduce(Expr):
    fn: str
    combine: str
    init: Expr
    args: tuple[Expr, ...]
    axes: tuple[int, ...]


@dataclass(frozen=True)
class Scan(Expr):
    fn: str
    combine: str
    emit: str | None
    init: Expr
    args: tuple[Expr, ...]
    axes: tuple[int, ...]


@dataclass(frozen=True)
class AllPairs(Expr):
    fn: str
    arg1: Expr
    arg2: Expr
    axes: tuple[int, int]


@dataclass(frozen=True)
class TiledMap(Expr):
    fn: str
    fixed: str | None
    slot: int
    depth: int
    args: tuple[Expr, ...]
    axes: tuple[int, ...]


@dataclass(frozen=True)
class TiledReduce(Expr):
    fn: str
    fixed: str | None
    slot: int
    depth: int
    combine: str
    init: Expr
    args: tuple[Expr, ...]
    axes: tuple[int, ...]


@dataclass(frozen=True)
class TiledScan(Expr):
    fn: str
    fixed: str | None
    slot: int
    depth: int
    combine: str
    emit: str | None
    init: Expr
    args: tuple[Expr, ...]
    axes: tuple[int, ...]


PARALLEL_OPS = (Map, Reduce, Scan, AllPairs, TiledMap, TiledReduce, TiledScan)
TILED_OPS = (TiledMap, TiledReduce, TiledScan)

# How each operator field is written (see the module docstring): the bare
# callee name; `, NAME=VALUE` for a function name, int or expression VALUE;
# `, EXPR` per operand; `; axes=[...]`. _OPTIONAL_FIELDS are left out when None.
_FIELD_SYNTAX = {
    "fn": "callee", "fixed": "function", "slot": "int", "depth": "int",
    "combine": "function", "emit": "function", "init": "expr",
    "args": "operands", "arg1": "operand", "arg2": "operand", "axes": "axes",
}
_OPTIONAL_FIELDS = frozenset({"fixed", "emit"})

# Each operator's keyword (its lowercased class name) and its fields in
# source order, which is their declaration order.
_OPERATOR_SYNTAX = {op: (op.__name__.lower(), tuple(f.name for f in fields(op)))
                   for op in PARALLEL_OPS}
_OPERATOR_KEYWORDS = {keyword: op for op, (keyword, _) in _OPERATOR_SYNTAX.items()}

KEYWORDS = {
    "fn", "uses", "return", "if", "else", "for", "in", "assumes", "extent", "min", "max", "inf",
    *_OPERATOR_KEYWORDS,
    *(name for name, kind in _FIELD_SYNTAX.items() if kind in ("function", "int", "expr", "axes")),
}


def _operator_fields(kinds):
    """Each operator's fields of the given syntax kinds, in source order."""
    return {op: tuple(name for name in names if _FIELD_SYNTAX[name] in kinds)
            for op, (_, names) in _OPERATOR_SYNTAX.items()}


@dataclass(frozen=True)
class Assign(Stmt):
    target: str
    value: Expr


@dataclass(frozen=True)
class Return(Stmt):
    value: Expr


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then: tuple[Stmt, ...]
    orelse: tuple[Stmt, ...]


@dataclass(frozen=True)
class For(Stmt):
    var: str
    seq: Expr
    body: tuple[Stmt, ...]


@dataclass(frozen=True)
class Function:
    name: str
    params: tuple[str, ...]
    closure_params: tuple[str, ...]
    body: tuple[Stmt, ...]
    # Set by fixed-size specialization: the sliced extent this clone may
    # assume, and (optionally) the per-parameter axes the extent applies to.
    fixed_extent: int | None = None
    fixed_axes: tuple[int, ...] | None = None


@dataclass
class Program:
    functions: dict[str, Function] = field(default_factory=dict)

    def __eq__(self, other):
        return isinstance(other, Program) and self.functions == other.functions

    def fn(self, name):
        try:
            return self.functions[name]
        except KeyError:
            raise ValidationError("missing-function", f"no function named {name!r}") from None


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------

# Child-expression fields of each expression kind, in visit order, each
# paired with whether it holds a tuple of expressions (else it holds one).
_CHILD_FIELDS = {
    t: tuple((name, name in ("items", "args")) for name in names)
    for t, names in {
        BinOp: ("left", "right"),
        ArrayLit: ("items",),
        Index: ("array", "index"),
        **_operator_fields(("expr", "operand", "operands")),
    }.items()
}

# The statement counterpart of _CHILD_FIELDS: each statement kind's expression
# fields, then its nested-block fields (control flow has some), in visit order.
_STMT_FIELDS = {
    Assign: (("value",), ()),
    Return: (("value",), ()),
    If: (("cond",), ("then", "orelse")),
    For: (("seq",), ("body",)),
}

# Function-reference fields of each operator kind, in source order. A field
# holding None references nothing.
_REF_FIELDS = _operator_fields(("callee", "function"))


def map_children(e, f):
    """`e` rebuilt with each direct child c replaced by f(c), called in
    visit order."""
    names = _CHILD_FIELDS.get(type(e))
    if names is None:
        return e
    values = dict(vars(e))
    for name, many in names:
        value = values[name]
        values[name] = tuple(map(f, value)) if many else f(value)
    return type(e)(**values)


def map_block(block, f):
    """`block` rebuilt with each statement's expression x replaced by
    f(x, prelude, stmt), nested blocks included. Statements that f appends
    to `prelude` are placed before the statement being rebuilt."""
    out = []
    for s in block:
        exprs, blocks = _STMT_FIELDS[type(s)]
        prelude = []
        values = dict(vars(s))
        for name in exprs:
            values[name] = f(values[name], prelude, s)
        for name in blocks:
            values[name] = map_block(values[name], f)
        out.extend(prelude)
        out.append(type(s)(**values))
    return tuple(out)


def walk_exprs(node):
    """Every expression under `node` (an Expr, Stmt, or block), as a list:
    one walk with an explicit stack. It pops the last expression pushed,
    and pushes each statement's expressions, then those of its nested
    blocks, and each expression's children, in their field order."""
    if isinstance(node, Expr):
        stack = [node]
    else:
        stack = _block_exprs((node,) if isinstance(node, Stmt) else node)
    out = []
    while stack:
        e = stack.pop()
        out.append(e)
        for name, many in _CHILD_FIELDS.get(type(e), ()):
            if many:
                stack.extend(getattr(e, name))
            else:
                stack.append(getattr(e, name))
    return out


def _block_exprs(block):
    """Each statement's expressions, then those of its nested blocks."""
    out = []
    for s in block:
        exprs, blocks = _STMT_FIELDS[type(s)]
        out += [getattr(s, name) for name in exprs]
        for name in blocks:
            out += _block_exprs(getattr(s, name))
    return out


def referenced_functions(e):
    """Function names referenced by an operator expression."""
    names = []
    for name in _REF_FIELDS.get(type(e), ()):
        ref = getattr(e, name)
        if ref is not None:
            names.append(ref)
    return names


def reachable(program, roots):
    """Names of the functions in `program` reachable from the names in
    `roots` through operator references, roots included, in breadth-first
    discovery order."""
    functions = program.functions
    order = []
    seen = set()
    pending = deque(roots)
    while pending:
        name = pending.popleft()
        if name in seen or name not in functions:
            continue
        seen.add(name)
        order.append(name)
        for e in walk_exprs(functions[name].body):
            if type(e) in _REF_FIELDS:
                pending.extend(referenced_functions(e))
    return order


def prune(program, roots):
    """`program` with only the functions reachable from `roots`, in table
    order."""
    live = set(reachable(program, roots))
    return Program({n: fn for n, fn in program.functions.items() if n in live})


def fresh_name(base, taken):
    """`base`, or the first of `base_2`, `base_3`, ... not in `taken`."""
    name, i = base, 2
    while name in taken:
        name = f"{base}_{i}"
        i += 1
    return name


def body_shape(fn):
    """How `fn`'s whole body `return E` is built, or None: ("leaf", OP,
    NAMES) for E `x` (OP None) or `a OP b` over parameters or closure
    parameters; (KIND, G, COMBINE, INIT) for a map, reduce or scan of G over
    fn's own parameters in order along axis 0 in a function without closure
    parameters, with no emit and an int or float constant INIT (COMBINE and
    INIT None for a map). G is described by its own shape. A fixed-size clone
    has none, so that its extent assumption is checked wherever it runs."""
    if fn.fixed_extent is not None or len(fn.body) != 1 or not isinstance(fn.body[0], Return):
        return None
    e, names = fn.body[0].value, fn.params + fn.closure_params
    operands = (e,) if isinstance(e, Var) else (e.left, e.right) if isinstance(e, BinOp) else ()
    if operands and all(isinstance(x, Var) and x.name in names for x in operands):
        return ("leaf", getattr(e, "op", None), tuple(x.name for x in operands))
    if (type(e) not in (Map, Reduce, Scan) or fn.closure_params or getattr(e, "emit", None)
            or e.args != tuple(map(Var, fn.params)) or any(e.axes)):
        return None
    if type(e) is Map:
        return ("map", e.fn, None, None)
    if type(e.init) is Const and type(e.init.value) in (int, float):
        return (type(e).__name__.lower(), e.fn, e.combine, e.init.value)
    return None


def combine_op(fn):
    """OP if `fn` is `return a OP b` over its own parameters, else None."""
    shape = body_shape(fn)
    if shape and shape[0] == "leaf" and shape[2] == fn.params and not fn.closure_params:
        return shape[1]
    return None


def contains_parallel_op(node):
    """True if any parallel operator occurs under `node`."""
    return any(isinstance(e, PARALLEL_OPS) for e in walk_exprs(node))


def contains_control_flow(program, fn):
    """True if `fn` (a name or Function) or any function reachable from
    its operators has If/For."""
    name = program.fn(fn).name if isinstance(fn, str) else fn.name
    # Control flow nests only inside control flow, so scanning each
    # top-level block finds any of it.
    return any(_STMT_FIELDS[type(s)][1]
               for f in reachable(program, [name]) for s in program.functions[f].body)


# ---------------------------------------------------------------------------
# Free variables
# ---------------------------------------------------------------------------

def free_vars(node, program=None):
    """Free variable names of an expression, statement, or block.

    Operator function names are not variables, but when `program` is given
    the closure parameters of referenced functions count as free names at
    the operator site (they are resolved there by name).
    """
    if isinstance(node, Expr):
        return _expr_free(node, program)
    block = (node,) if isinstance(node, Stmt) else tuple(node)
    return _scope(block, set(), lambda e, bound: _expr_free(e, program))[0]


def _expr_free(expr, program, check=None):
    """Every Var name under `expr`, plus the closure parameters of each
    function in `program` that an operator under it references: one
    `walk_exprs`. `check`, if given, is called first on every expression
    but a Var (which has nothing to check), in walk order."""
    free = set()
    for e in walk_exprs(expr):
        if type(e) is Var:
            free.add(e.name)
            continue
        if check is not None:
            check(e)
        if program is not None and type(e) in _REF_FIELDS:
            for name in referenced_functions(e):
                if name in program.functions:
                    free.update(program.functions[name].closure_params)
    return free


def _scope(block, bound, expr_free, fn=None):
    """(free names, names surely bound after `block`), given the names
    `bound` before it. A name is surely bound after an `if` when both
    branches bind it; a loop binds nothing after itself (it may run zero
    times). `expr_free(e, bound)` gives the names each statement
    expression e reads, called once per expression in statement order with
    the names bound at e. With `fn`, a return before the end of a block
    and an unknown statement raise at their statement."""
    free = set()
    for i, s in enumerate(block):
        if fn is not None and isinstance(s, Return) and i != len(block) - 1:
            raise ValidationError("return-not-last", f"{fn.name}: return before end of block")
        if isinstance(s, Assign):
            free |= expr_free(s.value, bound) - bound
            bound = bound | {s.target}
        elif isinstance(s, Return):
            free |= expr_free(s.value, bound) - bound
        elif isinstance(s, If):
            free |= expr_free(s.cond, bound) - bound
            then_free, then_bound = _scope(s.then, bound, expr_free, fn)
            else_free, else_bound = _scope(s.orelse, bound, expr_free, fn)
            free |= then_free | else_free
            bound = bound | (then_bound & else_bound)
        elif isinstance(s, For):
            free |= expr_free(s.seq, bound) - bound
            free |= _scope(s.body, bound | {s.var}, expr_free, fn)[0]
        elif fn is not None:
            raise ValidationError("unknown-statement", f"{fn.name}: {type(s).__name__}")
    return free, bound


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_program(program, allow_tiled=False):
    """Check all structural invariants; raises ValidationError on the first
    violation, naming the invariant."""
    return validate_functions(program, program.functions, allow_tiled)


def validate_functions(program, names, allow_tiled=False):
    """`validate_program`, for the functions `names` of `program` only."""
    for name in names:
        fn = program.functions[name]
        if name != fn.name:
            raise ValidationError("function-table", f"table key {name!r} != function name {fn.name!r}")
        _validate_function(program, fn, allow_tiled)
    return program


def _validate_function(program, fn, allow_tiled):
    """Check `fn` in one `_scope` pass: statement by statement, and within
    each statement expression every node in walk order, with the names
    bound there. Then check that it returns and reads no unbound name."""
    params = set()
    for p in fn.params + fn.closure_params:
        if p in params:
            raise ValidationError("duplicate-param", f"{fn.name}: parameter {p!r} repeated")
        params.add(p)
    if not fn.body:
        raise ValidationError("empty-body", f"{fn.name}: function body is empty")

    def expr_free(expr, bound):
        return _expr_free(expr, program,
                          lambda e: _validate_expr(program, fn, e, bound, allow_tiled))
    free, _ = _scope(fn.body, params, expr_free, fn)
    if not _definitely_returns(fn.body):
        raise ValidationError("missing-return", f"{fn.name}: body may finish without a return")
    if free:
        raise ValidationError(
            "unbound-variable",
            f"{fn.name}: free variable(s) {sorted(free)} are neither parameters nor closure parameters")


def _definitely_returns(block):
    last = block[-1]
    if isinstance(last, Return):
        return True
    if isinstance(last, If):
        return _definitely_returns(last.then) and _definitely_returns(last.orelse)
    return False


def _validate_expr(program, fn, e, bound, allow_tiled):
    """Check the expression node `e` of `fn`, `bound` the names in scope."""
    if isinstance(e, TILED_OPS) and not allow_tiled:
        raise ValidationError("tiled-in-user-program",
                              f"{fn.name}: {type(e).__name__} is internal-only syntax")
    if isinstance(e, BinOp) and e.op not in BINARY_OPS:
        raise ValidationError("unknown-operator", f"{fn.name}: operator {e.op!r}")
    if isinstance(e, ArrayLit) and not e.items:
        raise ValidationError("empty-array-literal", f"{fn.name}: [] has no element type")
    if isinstance(e, PARALLEL_OPS):
        _validate_op(program, fn, e, bound)


def _validate_op(program, fn, e, bound):
    kind = type(e).__name__
    args = (e.arg1, e.arg2) if isinstance(e, AllPairs) else e.args
    if len(e.axes) != len(args):
        raise ValidationError("axes-arity",
                              f"{fn.name}: {kind} has {len(args)} argument(s) but {len(e.axes)} axis entries")
    if any(a < 0 for a in e.axes):
        raise ValidationError("negative-axis", f"{fn.name}: {kind} axis entries must be >= 0")
    if not args:
        raise ValidationError("no-operands", f"{fn.name}: {kind} needs at least one argument")
    for role, ref, arity in _op_refs(e):
        if ref not in program.functions:
            raise ValidationError("missing-function", f"{fn.name}: {kind} references unknown {role} {ref!r}")
        target = program.functions[ref]
        if arity is not None and len(target.params) != arity:
            raise ValidationError(
                "operator-arity",
                f"{fn.name}: {kind} {role} {ref!r} takes {len(target.params)} parameter(s), expected {arity}")
        missing = [c for c in target.closure_params if c not in bound]
        if missing:
            raise ValidationError(
                "unbound-closure",
                f"{fn.name}: closure parameter(s) {missing} of {ref!r} are not in scope at the {kind} site")
    if isinstance(e, TILED_OPS):
        if e.slot < 0:
            raise ValidationError("bad-slot", f"{fn.name}: {kind} slot must be >= 0")
        if e.depth < 0:
            raise ValidationError("bad-depth", f"{fn.name}: {kind} depth must be >= 0")


def _op_refs(e):
    """(role, name, required positional arity) triples for an operator."""
    nargs = 2 if isinstance(e, AllPairs) else len(e.args)
    role = {"fn": "function", "combine": "combine", "emit": "emit", "fixed": "fixed function"}
    arity = {"fn": nargs, "combine": 2, "emit": 1, "fixed": nargs}
    return [(role[f], getattr(e, f), arity[f])
            for f in _REF_FIELDS[type(e)] if getattr(e, f) is not None]


# ---------------------------------------------------------------------------
# AllPairs desugaring
# ---------------------------------------------------------------------------

def desugar_allpairs(program):
    """Rewrite every AllPairs into two nested Maps.

    AllPairs(f, A, B) becomes an outer Map over A whose nested function
    maps a clone of f (first parameter moved to the closure) over B. The
    second argument is hoisted to a temporary when it is not already a
    variable. Semantics are unchanged.
    """
    out = Program(dict(program.functions))
    counter = count(1)

    def desugar(e, prelude):
        e = map_children(e, lambda c: desugar(c, prelude))
        if not isinstance(e, AllPairs):
            return e
        f = out.fn(e.fn)
        first, second = f.params[0], f.params[1]
        arg2 = e.arg2
        if not isinstance(arg2, Var) or arg2.name == first:
            tmp = f"tmp$ap{next(counter)}"
            prelude.append(Assign(tmp, arg2))
            arg2 = Var(tmp)
        inner_name = fresh_name(f"{e.fn}$api", out.functions)
        out.functions[inner_name] = Function(
            inner_name, (second,), (first,) + f.closure_params, f.body)
        outer_name = fresh_name(f"{e.fn}$apo", out.functions)
        outer_body = (Return(Map(inner_name, (arg2,), (e.axes[1],))),)
        out.functions[outer_name] = Function(
            outer_name, (first,), (arg2.name,) + f.closure_params, outer_body)
        return Map(outer_name, (e.arg1,), (e.axes[0],))

    for name, fn in list(out.functions.items()):
        new_body = map_block(fn.body, lambda x, prelude, stmt: desugar(x, prelude))
        if new_body != fn.body:
            out.functions[name] = replace(fn, body=new_body)
    return out


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<float>(\d+\.\d*|\.\d+)([eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_$]*)
  | (?P<punct>[()\[\]{},;=+\-*/])
""", re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text):
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise IRSyntaxError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        value = m.group()
        col = pos - line_start + 1
        if kind == "ws":
            nl = value.count("\n")
            if nl:
                line += nl
                line_start = pos + value.rindex("\n") + 1
        elif kind != "comment":
            tokens.append(_Token(kind, value, line, col))
        pos = m.end()
    tokens.append(_Token("eof", "", line, n - line_start + 1))
    return tokens


# Operator precedence, shared by the parser and the printer; indexing
# (postfix) binds tighter than every binary operator.
_PREC_MINMAX = 1
_PREC_ADD = 2
_PREC_MUL = 3
_PREC_POSTFIX = 4

_OP_PREC = {"min": _PREC_MINMAX, "max": _PREC_MINMAX,
            "+": _PREC_ADD, "-": _PREC_ADD,
            "*": _PREC_MUL, "/": _PREC_MUL}


class _Parser:
    def __init__(self, text, allow_internal):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.allow_internal = allow_internal

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise IRSyntaxError(message, tok.line, tok.col)

    def expect(self, text):
        tok = self.next()
        if tok.text != text:
            self.error(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def at(self, text):
        return self.peek().text == text

    def accept(self, text):
        """Consume the next token if it is `text`; whether it was."""
        if self.at(text):
            self.next()
            return True
        return False

    def ident(self, what="identifier"):
        tok = self.next()
        if tok.kind != "ident":
            self.error(f"expected {what}, found {tok.text!r}", tok)
        if tok.text in KEYWORDS:
            word = "reserved word" if tok.text in ("min", "max", "inf") else "keyword"
            self.error(f"{word} {tok.text!r} cannot be used as {what}", tok)
        if "$" in tok.text and not self.allow_internal:
            self.error(f"{tok.text!r}: '$' names are reserved for generated code", tok)
        return tok.text

    # -- program structure --------------------------------------------------

    def program(self):
        functions = {}
        while not self.peek().kind == "eof":
            tok = self.peek()
            if tok.text != "fn":
                self.error(f"expected 'fn', found {tok.text!r}", tok)
            fn = self.function()
            if fn.name in functions:
                self.error(f"duplicate function name {fn.name!r}", tok)
            functions[fn.name] = fn
        return Program(functions)

    def function(self):
        self.expect("fn")
        name = self.ident("function name")
        self.expect("(")
        params = self.comma_list((")",), self.ident)
        self.expect(")")
        closure = ()
        if self.accept("uses"):
            closure = self.comma_list(("{", "assumes"), self.ident)
        fixed_extent = None
        fixed_axes = None
        if self.at("assumes"):
            # Fixed-size specialization annotation; generated code only.
            if not self.allow_internal:
                self.error("'assumes' clauses appear only in generated code")
            self.next()
            fixed_extent = self.named("extent", "int")
            if self.accept(","):
                fixed_axes = self.named("axes", "axes")
        self.expect("{")
        body = self.block()
        self.expect("}")
        if not body:
            self.error(f"function {name!r} has an empty body")
        return Function(name, params, closure, body, fixed_extent, fixed_axes)

    def comma_list(self, stops, item):
        """What `item()` parses, comma-separated, up to a token in `stops`."""
        items = []
        while self.peek().text not in stops:
            if items:
                self.expect(",")
            items.append(item())
        return tuple(items)

    def block(self):
        stmts = []
        while not self.at("}"):
            stmts.append(self.statement())
        return tuple(stmts)

    def statement(self):
        if self.accept("return"):
            value = self.expr()
            self.expect(";")
            return Return(value)
        if self.accept("if"):
            cond = self.expr()
            self.expect("{")
            then = self.block()
            self.expect("}")
            self.expect("else")
            self.expect("{")
            orelse = self.block()
            self.expect("}")
            return If(cond, then, orelse)
        if self.accept("for"):
            var = self.ident("loop variable")
            self.expect("in")
            seq = self.expr()
            self.expect("{")
            body = self.block()
            self.expect("}")
            return For(var, seq, body)
        target = self.ident("assignment target")
        self.expect("=")
        value = self.expr()
        self.expect(";")
        return Assign(target, value)

    # -- expressions ---------------------------------------------------------

    def expr(self, prec=_PREC_MINMAX):
        """Binary operators that bind at least as tightly as `prec`, each
        left-associative (precedence climbing over `_OP_PREC`)."""
        left = self.unary()
        while _OP_PREC.get(self.peek().text, 0) >= prec:
            op = self.next().text
            left = BinOp(op, left, self.expr(_OP_PREC[op] + 1))
        return left

    def unary(self):
        if self.accept("-"):
            operand = self.unary()
            if isinstance(operand, Const):
                return Const(-operand.value)
            return BinOp("-", Const(0), operand)
        return self.postfix()

    def postfix(self):
        e = self.atom()
        while self.accept("["):
            idx = self.expr()
            self.expect("]")
            e = Index(e, idx)
        return e

    def atom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return Const(int(tok.text))
        if tok.kind == "float":
            self.next()
            return Const(float(tok.text))
        if self.accept("inf"):
            return Const(float("inf"))
        if self.accept("("):
            e = self.expr()
            self.expect(")")
            return e
        if self.accept("["):
            items = [self.expr()]
            while self.accept(","):
                items.append(self.expr())
            self.expect("]")
            return ArrayLit(tuple(items))
        op = _OPERATOR_KEYWORDS.get(tok.text)
        if op is not None:
            if op in TILED_OPS and not self.allow_internal:
                self.error(f"{tok.text!r} is internal-only syntax and not accepted in input programs", tok)
            return self.operator_call(op)
        if tok.kind == "ident":
            return Var(self.ident())
        self.error(f"expected expression, found {tok.text!r}", tok)

    def operator_call(self, op):
        self.next()
        self.expect("(")
        values = {}
        for name in _OPERATOR_SYNTAX[op][1]:
            kind = _FIELD_SYNTAX[name]
            if kind == "callee":
                values[name] = self.ident("function name")
            elif kind == "operands":
                args = []
                while self.accept(","):
                    args.append(self.expr())
                values[name] = tuple(args)
            elif kind == "axes":
                self.expect(";")
                values[name] = self.named(name, kind)
            # An optional field is there when `, NAME` follows; eof ends the tokens.
            elif name in _OPTIONAL_FIELDS and not (
                    self.at(",") and self.tokens[self.pos + 1].text == name):
                values[name] = None
            else:
                self.expect(",")
                values[name] = self.expr() if kind == "operand" else self.named(name, kind)
        self.expect(")")
        return op(**values)

    def named(self, name, kind):
        """The VALUE of `NAME=VALUE`, a function name, an integer, an
        expression or an axes list as `kind` says."""
        self.expect(name)
        self.expect("=")
        if kind == "function":
            return self.ident("function name")
        if kind == "int":
            return self.int_lit()
        if kind == "expr":
            return self.expr()
        self.expect("[")
        axes = self.comma_list(("]",), self.int_lit)
        self.expect("]")
        return axes

    def int_lit(self):
        tok = self.next()
        if tok.kind != "int":
            self.error(f"expected integer, found {tok.text!r}", tok)
        return int(tok.text)


def parse_program(text, allow_internal=False):
    """Parse IR source into a validated Program.

    `allow_internal` enables the debug dialect: tiled operator nodes and
    '$' in identifiers. Input programs from users must not use either.
    """
    parser = _Parser(text, allow_internal)
    program = parser.program()
    return validate_program(program, allow_tiled=allow_internal)


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

def print_program(program):
    """Render a Program in its textual form.

    parse_program(print_program(p)) is structurally identical to p; for
    programs containing tiled operators or generated '$' names the text is
    in the debug dialect and needs allow_internal=True to re-parse.
    """
    return "\n".join(_print_function(fn) for fn in program.functions.values())


def _print_function(fn):
    head = f"fn {fn.name}({', '.join(fn.params)})"
    if fn.closure_params:
        head += f" uses {', '.join(fn.closure_params)}"
    if fn.fixed_extent is not None:
        head += f" assumes extent={fn.fixed_extent}"
        if fn.fixed_axes is not None:
            head += f", axes={_print_axes(fn.fixed_axes)}"
    lines = [head + " {"]
    lines.extend(_print_block(fn.body, "  "))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _print_block(block, indent):
    lines = []
    for s in block:
        if isinstance(s, Assign):
            lines.append(f"{indent}{s.target} = {print_expr(s.value)};")
        elif isinstance(s, Return):
            lines.append(f"{indent}return {print_expr(s.value)};")
        elif isinstance(s, If):
            lines.append(f"{indent}if {print_expr(s.cond)} {{")
            lines.extend(_print_block(s.then, indent + "  "))
            lines.append(f"{indent}}} else {{")
            lines.extend(_print_block(s.orelse, indent + "  "))
            lines.append(f"{indent}}}")
        elif isinstance(s, For):
            lines.append(f"{indent}for {s.var} in {print_expr(s.seq)} {{")
            lines.extend(_print_block(s.body, indent + "  "))
            lines.append(f"{indent}}}")
        else:
            raise TypeError(s)
    return lines


def print_expr(e, prec=0):
    if isinstance(e, Const):
        return _print_const(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, BinOp):
        p = _OP_PREC[e.op]
        text = f"{print_expr(e.left, p)} {e.op} {print_expr(e.right, p + 1)}"
        return f"({text})" if p < prec else text
    if isinstance(e, ArrayLit):
        return "[" + ", ".join(print_expr(x) for x in e.items) + "]"
    if isinstance(e, Index):
        return f"{print_expr(e.array, _PREC_POSTFIX)}[{print_expr(e.index)}]"
    syntax = _OPERATOR_SYNTAX.get(type(e))
    if syntax is None:
        raise TypeError(e)
    keyword, names = syntax
    text = ""
    for name in names:
        kind, value = _FIELD_SYNTAX[name], getattr(e, name)
        if kind == "callee":
            text += value
        elif kind == "operands":
            text += "".join(f", {print_expr(a)}" for a in value)
        elif kind == "operand":
            text += f", {print_expr(value)}"
        elif kind == "axes":
            text += f"; axes={_print_axes(value)}"
        elif kind == "expr":
            text += f", {name}={print_expr(value)}"
        elif value is not None:
            text += f", {name}={value}"
    return f"{keyword}({text})"


def _print_axes(axes):
    return "[" + ", ".join(str(a) for a in axes) + "]"


def _print_const(v):
    if isinstance(v, int):
        return str(v)
    if v != v:  # NaN has no literal; should not appear in programs
        raise ValidationError("nan-literal", "NaN constants are not printable")
    if v == float("inf"):
        return "inf"
    if v == float("-inf"):
        return "-inf"
    return repr(v)
