"""Node kernels: an operator's callee run over every slice without a call
per slice (`Kernels`, which `semantics.Interpreter` inherits).

An operator runs a callee that `ir.body_shape` describes through its
kernel `kernel(views, axes, extent, captured, at=None)`. `_new_kernel`
alone decides which description (`Kernel`), if any, a callee gets for
its operands' ranks, and one driver (`Kernels._driven`) runs every
description. A description is data:
- `leaves`, its operands: each read in place as one flat span with an i,
  a j and a k stride (`_spans`), a parameter's view or a closure's array
  (a rank-1 `uses` array is a row of strides 0), never through a View;
- `top`, its levels: the operator's slices are the rows i (0), the rows j
  of a fold with one row i (1), or the k elements of one row i (2: a leaf
  over rank-1 operands);
- its row body: `values`, a leaf's values over a row's columns (with a
  scan's combine, its steps); with `fold` = (op, init) each row (i, j) is
  reduced to one result, with `product` each row is first `a OP b`;
- `shared`, the closures it broadcasts along k, which must be scalars;
- `unequal`, how rows of unequal extents raise (None: it declines);
  `operator`, the operands of row i's own operator, whose bounds checks it
  counts; `always` and `typed`, its dtype rule (below).

These are the callees with a description:
- a leaf over rank-1 operands: one row of scalar results;
- a leaf `a OP b` over rank-2 operands of its own parameters (a row map):
  each row's product;
- a map or scan node over rank-2 operands whose callee is a leaf: each row
  of its operator, whose scalar closures its leaf may read;
- a reduce node or a dot (`p = a OP b` reduced) over rank-2 operands
  (`_fold`): one result per row j;
- a map node whose callee is such a fold (`_node`): rows i of the node,
  rows j of the callee's operator, each folded over k. An operand of the
  callee's operator is a row of the node's rank-3 parameter or its rank-2
  closure; a closure of the callee, bound per row, is a row of the node's
  rank-2 parameter or its rank-1 closure.
A fold (Reduce or Scan) runs only a leaf so, with a scalar init, no emit
and a combine `return a OP b`. An operator hands a kernel at least one
slice. A kernel that meets a row of no element, or an operand it has no
rule for (a scalar or wrong-rank closure), declines, giving None, before
any side effect, and the operator makes one call per slice; so does a
dot whose rows differ in extent, which the call then raises.

The driver alone calls `at`, counts bounds checks, looks for f64
results, places row blocks and reports reads. `at(shape)` gives `(data,
offset, strides)`, the place where the kernel writes its results stacked
along a new leading axis: the value's place in a tiled operator's output,
or a new array's element list. The driver calls it once, after the last
point where it can decline, with `(extent,)` for scalar results (`top`
1 or 2) or `(extent, n)` for rows, and writes each row i with one slice
assignment. It gives `(dtype, blocks)`: the dtype that stacking the
rows' values gives and, with a trace sink, each row's block (None for
scalars). Given no `at`, scalar results come back as a list, which a fold
folds or scans, or a map node writes into its rows.

The dtype follows the values, as stacking them would: f64 when any
result is a float, else i64. The driver looks at each row's results until
one holds a float, unless every operand is i64 (which holds ints only,
`ndarray`), every shared scalar is an int and the description does not
say `always` (a `/` in its leaf or combine, a float init, a fold). A row
map (`typed`) takes `ndarray.elementwise_dtype`: f64 when any operand is.

Checks are counted as one call per slice counts them: per row i, its
operator's per operand and element; per fold of a row j, its operator's.
Reads are reported as one call per slice reports them. Without a product,
one `R` run reads a row i's operands, index by index (all its rows j for
a fold). A product is an address-only `ndarray.Block` of its size, placed
as the product's array would be and written by one `RRW` run with its
operands' reads: a row map's is its row's block; a dot's is read by one
`R` run and dies before the next row's. One call per slice would build an
array for each row of a map, scan or map node; the driver places an
address-only block of the same size for it and reports the `W` run its
stack would (`_row_block`), so addresses, events and runs are those of
one call per slice. When a row raises, the driver finds, on that path
only, how far it got (`_failed`): checks and reads cover the rows j before
it and the elements it read before it raised, as one call per slice
would; a fold's leaf values are all read before its combine runs.
"""

from __future__ import annotations

import collections
import functools
import itertools
from itertools import count, repeat

from . import ir
from .ndarray import ELEM_SIZE, ArrayValue, Block, interleave, match_shapes, scalar_op


class EvalError(Exception):
    """An error of the program under evaluation."""


# A kernel as data (see the module docstring), which `Kernels._driven` runs.
Kernel = collections.namedtuple(
    "Kernel", "leaves top values fold product shared unequal operator always typed",
    defaults=(None, None, None, (), None, None, True, False))


def _leaf_values(fn, op, names):
    """(shared, values) of a leaf `fn` whose `ir.body_shape` is ("leaf", op,
    names): `shared` lists the closure parameters its body reads, and
    `values(*columns)` gives its results at every index of `columns`, the
    element lists of its parameters and then of `shared`, as an iterable:
    over a column, or a `map` over the columns."""
    shared = [c for c in fn.closure_params if c in names]
    picks = [(fn.params + tuple(shared)).index(n) for n in names]
    # The hot cases run no Python frame: a lone column read whole, and an
    # operator over every column in order.
    whole = picks == list(range(len(fn.params) + len(shared)))
    if op is None:
        pick = picks[0]
        return shared, iter if whole else lambda *columns: columns[pick]
    f = functools.partial(map, scalar_op(op))
    return shared, f if whole else lambda *columns: f(*[columns[p] for p in picks])


def _sources(fn, names):
    """Where each of `names`, the operands of an operator in `fn`, comes
    from: the index of a parameter of `fn`, whose rows it takes, or the
    name of a closure parameter, the same value for every row."""
    return [fn.params.index(n) if n in fn.params else n for n in names]


def _spans(views, axes, captured, leaves, top):
    """(spans, k, f64): each operand a kernel reads, from `leaves`, as one
    flat span over three indices: i over the kernel's rows, j over the
    rows of a fold and k over the elements of a row: (element list, offset
    of element (0, 0, 0), i stride, j stride, k stride, k extent, the
    operand, whose root's address traces read), strides in elements; their one k
    extent, None when they differ; and whether any operand is f64. A leaf
    is (source, stepped): the index of a parameter of the callee or the
    name of one of its closure parameters (`_sources`), and whether the
    operand takes rows j or is the same at every j (j stride 0). A
    parameter is a view whose axis in `axes` is index `top` (0 i, 1 j, 2
    k) and whose other axes are j, if stepped, and k. A closure value is
    the same at every i and, unless stepped, every j: an array of rank 2,
    if stepped, else of rank 1, read in place. None when a value is of
    another rank or a closure value is not an array."""
    out, f64 = [], False
    for s, stepped in leaves:
        if type(s) is int:  # a view of the rank its kernel was built for
            v = views[s]
            axis = axes[s] if top < 2 else None
        else:
            v, axis = captured[s], None
            if not isinstance(v, ArrayValue) or len(v.shape) != 1 + stepped:
                return None
        strides, rank = v.strides, len(v.shape)
        # j and k are the first and the last axis other than `axis`.
        k = rank - 1 if axis != rank - 1 else rank - 2
        o = 0 if axis is None else strides[axis]
        out.append((v.root.data, v.offset, 0 if top else o,
                    o if top else strides[1 if axis == 0 else 0] if stepped else 0,
                    strides[k], v.shape[k], v))
        f64 = f64 or v.dtype == "f64"
    k = out[0][5]
    for s in out:
        if s[5] != k:
            return out, None, f64
    return out, k, f64


def _differ(what, n, m):
    """Raise as `Interpreter._operand_views` does on extents n and m of
    operator `what`."""
    raise EvalError(f"{what} sliced extents differ: {n} vs {m}")


def _slices(spans, n, k, i=None):
    """Per span of `spans` (`_spans`), the element lists of n of its rows,
    of k elements each: rows 0 to n - 1 along i or, given i, the rows (i,
    0) to (i, n - 1) along j. Up to 63 rows are sliced at once, which costs
    the least per row; more are sliced one by one as they are read, so a
    long fold, as an untiled 256-row sum, holds one row at a time."""
    out = []
    for data, o, si, sj, sk, _, _ in spans:
        first, step = (o, si) if i is None else (o + i * si, sj)
        end = first + k * sk
        out.append([data[first:end:sk]] if n == 1 else
                   [data[first + j * step:end + j * step:sk] for j in range(n)] if n < 64 else
                   map(data.__getitem__, map(slice, count(first, step), count(end, step),
                                             repeat(sk, n))))
    return out


def _row_ranges(spans, n):
    """`(i, j) ->` the byte addresses of row (i, j) of each of `spans`
    (`_spans`), every row of extent n: one range per span."""
    steps = [(v.root.addr + o * ELEM_SIZE, si * ELEM_SIZE, sj * ELEM_SIZE, sk * ELEM_SIZE)
             for _, o, si, sj, sk, _, v in spans]
    return lambda i, j=0: [range(b := a + i * si + j * sj, b + n * sk, sk)
                           for a, si, sj, sk in steps]


def _row_reads(spans, n):
    """`(i, j) ->` the byte addresses a body reads at row (i, j) of `spans`
    (`_spans`), every row of extent n: per index, one per span in order
    (`ndarray.interleave`). One span's row is its range, with no list
    built per row: the hot case, as a traced row sum reads one operand."""
    if len(spans) == 1:
        (_, o, si, sj, sk, _, v), = spans
        a, si, sj, sk = v.root.addr + o * ELEM_SIZE, si * ELEM_SIZE, sj * ELEM_SIZE, sk * ELEM_SIZE
        return lambda i, j=0: range(b := a + i * si + j * sj, b + n * sk, sk)
    ranges = _row_ranges(spans, n)
    return lambda i, j=0: interleave(ranges(i, j))


def _failed(d, rows):
    """(J, E) of a row of description `d` that raised (see
    `Kernels._effects`), given the columns of each of its rows j in
    `rows`: they run one at a time, then the one that raised an element
    at a time. `d.values` gives an item per element read, up to and with
    the one at which it raises, or, when only a fold's combine raises,
    all of them."""
    for j, row in enumerate(rows):
        if d.product is not None:
            try:
                row = [list(map(d.product, *row))]
            except Exception:
                return j, None
        e = 0
        try:
            for _ in d.values(*row):
                e += 1
            if d.fold is not None:
                functools.reduce(d.fold[0], d.values(*row), d.fold[1])
        except Exception:
            return j, min(e + 1, len(row[0]))


class Kernels:
    """The kernel driver of `semantics.Interpreter`. It uses its `config`
    and `program`, and its `_function`, `_placed`, `_fill` and
    `_operand_views`."""

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
        """The kernel (`_driven`) of `f`'s description for operands of `ranks`,
        or None: the one place that decides which description, if any, a
        callee gets."""
        fn, shape = f.fn, f.shape
        if shape is None or len(ranks) != len(fn.params):
            return None
        if shape[0] == "leaf":
            op, names = shape[1], shape[2]
            if set(ranks) == {1}:
                shared, values = _leaf_values(fn, op, names)
                return self._driven(Kernel([(p, False) for p in range(len(fn.params))], 2, values,
                                           shared=shared, always=op == "/"))
            if set(ranks) == {2} and op is not None and set(names) <= set(fn.params):
                return self._driven(Kernel(
                    [(fn.params.index(n), False) for n in names], 0, product=scalar_op(op),
                    unequal=lambda n, m: match_shapes((n,), (m,)), always=op == "/", typed=True))
            return None
        kind, g, combine, init, names = shape[:5]
        functions = self.program.functions
        if min(ranks) < 2 or g not in functions:
            return None
        callee, scope = functions[g], fn.params + fn.closure_params
        if any(c not in scope for c in callee.closure_params):
            return None
        if kind in ("reduce", "dot"):
            fold = self._fold(f) if set(ranks) == {2} else None
            return fold and self._driven(fold[1]._replace(leaves=[(s, False) for s in fold[0]]))
        sources = _sources(fn, names)
        leaf = ir.body_shape(callee)
        if set(ranks) != {2} or not leaf or leaf[0] != "leaf" or len(callee.params) != len(names):
            # A map node runs a reduce node or a dot as its callee's fold.
            return self._node(fn, ranks, self._function(g), sources) if kind == "map" else None
        comb = self._function(combine) if combine in functions else None
        op = comb and comb.op
        shared, values = _leaf_values(callee, leaf[1], leaf[2])
        # A map's leaf may read closures of the node, not rows of its parameters.
        if (op is None or callee.closure_params) if kind == "scan" else set(shared) & set(fn.params):
            return None
        if kind == "scan":
            g_values = values

            def values(*columns):
                return itertools.islice(itertools.accumulate(g_values(*columns), op, initial=init),
                                        1, None)
        return self._driven(Kernel(
            [(s, False) for s in sources], 0, values, shared=shared,
            unequal=functools.partial(_differ, kind.capitalize()), operator=sources,
            always="/" in (leaf[1], op and comb.shape[1]) or type(init) is float))

    def _fold(self, f):
        """(sources, description) of `f`, a reduce node or a dot
        (`ir.body_shape`), whose G is a leaf without closure parameters
        that takes one parameter per operand of f's operator (one, the
        product, for a dot) and whose combine has an `op`; else None. The
        operands of f's operator come from `sources` (`_sources`); the
        description, without its leaves, folds each row (i, j) over k to
        one result: G's values of the row's operands, or of a dot's
        product `a OP b`, reduced by the combine. A reduce's rows of
        unequal extents raise; a dot's product would, so it declines."""
        if f.shape is None or f.shape[0] not in ("reduce", "dot"):
            return None
        kind, g, combine, init, names = f.shape[:5]
        functions = self.program.functions
        callee = functions.get(g)
        leaf = callee and ir.body_shape(callee)
        op = self._function(combine).op if combine in functions else None
        if (not leaf or leaf[0] != "leaf" or callee.closure_params or op is None
                or len(callee.params) != (1 if kind == "dot" else len(names))):
            return None
        dot = kind == "dot"
        return _sources(f.fn, names), Kernel(
            None, 1, _leaf_values(callee, *leaf[1:])[1], (op, init),
            scalar_op(f.shape[5]) if dot else None,
            unequal=None if dot else functools.partial(_differ, "Reduce"))

    def _node(self, fn, ranks, callee, sources):
        """The kernel of map node `fn` over operands of `ranks` whose callee,
        `callee`, is a reduce node or a dot that `_fold` describes, whose
        operator's operands come from `sources` (`_sources`); else None. An
        operand of the fold is a row of a parameter of rank 3 or a closure
        value of rank 2, stepped, or a closure of the callee, bound per
        row: a row of a parameter of rank 2 or a closure value of rank 1."""
        fold = self._fold(callee)
        if fold is None or len(sources) != len(callee.fn.params):
            return None
        inner, d = fold
        binds = dict(zip(callee.fn.closure_params, _sources(fn, callee.fn.closure_params)))
        leaves = [(sources[t], True) if type(t) is int else (binds[t], False) for t in inner]
        if any(ranks[s] != 2 + stepped for s, stepped in leaves if type(s) is int):
            return None
        return self._driven(d._replace(leaves=leaves, top=0, operator=sources))

    def _driven(self, d):
        """The kernel of description `d` (`Kernel`; see the module docstring)."""
        counters, trace, reduce = self.config.counters, self.config.trace, functools.reduce
        leaves, top, values, fold, product, shared, unequal, operator, always, typed = d
        op, init = fold or (None, None)
        # Per element of a row, the checks of row i's operator and of a fold's.
        arity_i, arity_j = len(operator or ()), 1 if product else len(leaves)

        def kernel(views, axes, extent, captured, at=None):
            spans, k, f64s = _spans(views, axes, captured, leaves, top) or (None, 0, False)
            if k == 0 or k is None and unequal is None:
                return None
            scalars = [captured[c] for c in shared] if shared else ()
            if scalars and any(isinstance(x, ArrayValue) for x in scalars):
                return None
            n = extent if top else k  # rows j of a fold, or else the elements of a row
            if fold and operator:  # a map node: its operator checks row 0's operands
                n = self._operand_views(
                    [views[s] if type(s) is int else captured[s] for s in operator],
                    [int(not axes[s]) if type(s) is int else 0 for s in operator], "Map")[1]
                if not n:
                    return None
            if k is None:  # a map node's operator counts its checks before its fold raises
                counters.bounds_checks += arity_i * n if fold else 0
                unequal(spans[0][5], next(s[5] for s in spans if s[5] != spans[0][5]))
            ci, cj, js = arity_i * n, arity_j * k if fold else 0, n if fold else 1
            f64 = typed and f64s
            look = not f64 and (always or not typed and (f64s or float in map(type, scalars)))
            out = None if at else [None] * extent
            buf, base, strides = at((extent,) if top else (extent, n)) if at else (out, 0, (1,))
            stride, step, rows = strides[0], strides[-1], 1 if top else extent
            broadcast = [repeat([x] * k) for x in scalars] if scalars else ()
            if not fold:  # each row's results, as the loop asks for them
                columns = _slices(spans, rows, k)
                results = map(list, map(map, repeat(product), *columns) if product
                              else map(values, *columns, *broadcast))
            blocks = effects = None
            if trace is not None:
                blocks = None if top else []
                effects = self._effects(spans, k, fold, product, js, blocks)
            for i in range(rows):
                try:
                    if fold:
                        columns = _slices(spans, n, k, i)
                        if product:
                            columns = [map(list, map(map, repeat(product), *columns))]
                        got = list(map(reduce, repeat(op), map(values, *columns), repeat(init)))
                    else:
                        got = next(results)
                except Exception:
                    J, E = _failed(d, zip(*_slices(spans, js, k, i), *broadcast))
                    counters.bounds_checks += (ci + cj * js) * i + ci + cj * (J + (E is not None))
                    if effects:
                        effects(i, J, E)
                    raise
                if effects:
                    effects(i, js)
                place = base + i * stride
                buf[place:place + n * step:step] = got
                if look and float in map(type, got):
                    look, f64 = False, True
            counters.bounds_checks += (ci + cj * js) * rows
            return out if out is not None else ("f64" if f64 else "i64", blocks)
        return kernel

    def _effects(self, spans, k, fold, product, js, blocks):
        """`(i, J, E=None) ->` report the trace of row i of a kernel over
        `spans` (`_driven`) as far as it ran: J of its rows j whole and,
        unless E is None, E elements of row J, which raised there. Without
        a product, one `R` run reads the rows' operands. A product's block
        is placed and written by an `RRW` run with its operands' reads; a
        fold's, a dot's, then dies after an `R` run reads it, and a row's,
        of a row map, is the row's block. A row that ran whole places its
        row block (`_row_block`) unless it has one."""
        trace, width = self.config.trace, js if fold else k
        reads = product is None and _row_reads(spans, k)
        ranges = product is not None and _row_ranges(spans, k)

        def effects(i, J, E=None):
            if product is None:
                rows = [reads(i, j) for j in range(J)]
                if E:
                    rows.append(_row_reads(spans, E)(i, J))
                trace.run(rows[0] if len(rows) == 1 else itertools.chain.from_iterable(rows), "R")
            for j in range(J + (E is not None) if product else 0):
                if fold:
                    start = self._placed(Block(k)).addr  # the block dies here
                else:
                    blocks.append(self._placed(Block(k)))
                    start = blocks[-1].addr
                block = range(start, start + k * ELEM_SIZE, ELEM_SIZE)
                trace.run(interleave(ranges(i, j) + [block]), "RRW")
                if fold:
                    trace.run(block if j < J else block[:E], "R")
            if J == js and blocks is not None and (fold or product is None):
                blocks.append(self._row_block(width))
        return effects

    def _row_block(self, size):
        """An address-only block of `size` elements, placed and written as
        a stack of scalars would be."""
        block = self._placed(Block(size))
        self._fill(block)
        return block
