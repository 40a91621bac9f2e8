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
  per row, and checks the row extents once. A map node's leaf may read
  the node's scalar closures, the same at every element. A reduce node
  gives one result per row;
- a dot, `p = a OP b` reduced by a leaf, over rank-2 operands, its
  parameters or rank-1 closure arrays read as rows of stride 0 as
  above, runs each row's product and fold without a frame or an array,
  one result per row;
- a map node whose callee is such a reduce node or dot (a fold) runs as
  one loop over two levels: i over the node's rows, j over the rows of
  the callee's operator, each (i, j) folded over k, without a frame, a
  View or a call of the callee's kernel. Each operand of the fold is one
  flat span with an i, a j and a k stride: an operand of the callee's
  operator is a row of the node's rank-3 parameter, or the node's rank-2
  closure value (i stride 0); a closure of the callee, bound per row, is
  a row of the node's rank-2 parameter (j stride 0), or the node's rank-1
  closure array (both strides 0). Any other map node, over a map or scan
  node or over a leaf whose rows are not rank 1, has no kernel.
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
run reads, and which dies before the next row's. A map node over a fold
reports, per row i, the fold's reads of its rows j as the fold does
alone, then places the row's block.
"""

from __future__ import annotations

import functools
import itertools

from . import ir
from .ndarray import (
    ELEM_SIZE, ArrayValue, Block, addresses, elementwise_dtype, interleave, match_shapes, scalar_op,
    span,
)


class EvalError(Exception):
    """An error of the program under evaluation."""


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


def _spans(views, axes, captured, leaves):
    """Each operand a node kernel reads, from `leaves`, as one flat span
    over three indices: i over the node's rows, j over the rows of its
    callee's operator (`Kernels._node`) and k over the elements of a row:
    (element list, offset of element (0, 0, 0), i stride, j stride, k
    stride, k extent, byte address of element (0, 0, 0)), strides in
    elements. A leaf is (source, stepped): the index of a parameter of the
    node or the name of one of its closure parameters (`_sources`), and
    whether the operand takes rows j or is the same at every j (j stride
    0). A parameter is a view: its axis in `axes` is i, and its other axes
    are j, if stepped, and k. A closure value is the same at every i (i
    stride 0): an array of rank 2, if stepped, else of rank 1, read in
    place. None when a value is of another rank or a closure value is not
    an array."""
    out = []
    for s, stepped in leaves:
        if type(s) is int:
            v, axis = views[s], axes[s]
            rank, i = 2 + stepped, v.strides[axis]
        else:
            v, axis, i = captured[s], None, 0
            if not isinstance(v, ArrayValue):
                return None
            rank = 1 + stepped
        if len(v.shape) != rank:
            return None
        # j and k are the first and the last axis other than i.
        k = rank - 1 if axis != rank - 1 else rank - 2
        j = v.strides[1 if axis == 0 else 0] if stepped else 0
        root = v.root
        out.append((root.data, v.offset, i, j, v.strides[k], v.shape[k],
                     root.addr + v.offset * ELEM_SIZE))
    return out


def _extent(spans, what):
    """The one k extent of `spans` (`_spans`). Unequal extents raise as
    `Interpreter._operand_views` does for operator `what`, or give None
    when `what` is None."""
    n = spans[0][5]
    for *_, m, _ in spans:
        if m != n:
            if what is None:
                return None
            raise EvalError(f"{what} sliced extents differ: {n} vs {m}")
    return n


def _row_ranges(spans, n):
    """`(i, j) ->` the byte addresses of row (i, j) of each of `spans`
    (`_spans`), every row of extent n: one range per span."""
    steps = [(addr, si * ELEM_SIZE, sj * ELEM_SIZE, sk * ELEM_SIZE)
             for _, _, si, sj, sk, _, addr in spans]
    return lambda i, j=0: [range(b := a + i * si + j * sj, b + n * sk, sk)
                           for a, si, sj, sk in steps]


def _row_reads(spans, n):
    """`(i, j) ->` the byte addresses a leaf reads at row (i, j) of `spans`
    (`_spans`), every row of extent n: per index, one per span in order
    (`ndarray.interleave`). One span's row is its range, with no list
    built per row: the hot case, as a traced row sum reads one operand."""
    if len(spans) == 1:
        (_, _, si, sj, sk, _, a), = spans
        si, sj, sk = si * ELEM_SIZE, sj * ELEM_SIZE, sk * ELEM_SIZE
        return lambda i, j=0: range(b := a + i * si + j * sj, b + n * sk, sk)
    ranges = _row_ranges(spans, n)
    return lambda i, j=0: interleave(ranges(i, j))


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
    `config` and `program`, and its `_function`, `_placed`, `_fill` and
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
        if kind in ("reduce", "dot"):
            fold = self._fold(f) if set(ranks) == {2} else None
            return fold and self._fold_node(*fold)
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
        return self._leaf_node(kind, values, op, init, sources, shared,
                               "/" in (leaf[1], op and comb.shape[1]))

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
            results = list(values(*columns))
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
        leaves = [(p, False) for p in picks]

        def rows(views, axes, extent, captured, at):
            spans = _spans(views, axes, captured, leaves)
            (da, oa, sa, _, ta, n, _), (db, ob, sb, _, tb, m, _) = spans
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

    def _leaf_node(self, kind, values, op, init, sources, shared, divides):
        """Kernel of a map or scan node over rank-2 operands whose callee is a
        leaf with `values` (`_leaf_values`): per row, the untiled operator
        without a frame. Its operator's operands come from `sources`
        (`_sources`), each read as a row span (`_spans`): a closure
        operand, a rank-1 array, is read in place as a row of stride 0,
        and any other closure value makes it decline. Row i of each
        operand is a slice of its flat buffer; no View is built for an
        operand or a row. The closures the leaf reads, the node's own
        closures `shared`, are scalars the same at every element; an array
        makes it decline. Row extents are checked once and raise as
        `Interpreter._operand_views` does, and rows of no element make it
        decline. It writes each row's results as it computes them and
        reports the row's reads as a run before the row's block takes the
        row's results. It looks at the dtypes of its operands' sources, a
        parameter's view or a closure array, and of `shared`. `divides`
        says whether the leaf or the combine is `/`."""
        what, counters, trace = kind.capitalize(), self.config.counters, self.config.trace
        arity, leaves = len(sources), [(s, False) for s in sources]
        if kind == "scan":
            def row(columns):
                return list(itertools.islice(itertools.accumulate(values(*columns), op,
                                                                  initial=init), 1, None))
        else:
            def row(columns):
                return list(values(*columns))
        # Whether the results must be looked at for a float whatever the
        # operands' dtypes (see the module docstring).
        look_always = divides or type(init) is float

        def node(views, axes, extent, captured, at):
            spans = _spans(views, axes, captured, leaves)
            if spans is None:
                return None
            n = _extent(spans, what)
            if not n:
                return None
            look = look_always or "f64" in [
                (views[s] if type(s) is int else captured[s]).dtype for s in sources]
            broadcast = []
            for c in shared:
                x = captured[c]
                if isinstance(x, ArrayValue):
                    return None
                look = look or type(x) is float
                broadcast.append([x] * n)
            reads = trace and _row_reads(spans, n)
            buf, base, (stride, step) = at((extent, n))
            width = n * step
            f64, blocks = False, [] if trace is not None else None
            try:
                for i in range(extent):
                    if trace is not None:
                        trace.run(reads(i), "R")
                    columns = [data[o + i * s:o + i * s + n * t:t]
                               for data, o, s, _, t, _, _ in spans]
                    columns += broadcast
                    got = row(columns)
                    o = base + i * stride
                    buf[o:o + width:step] = got
                    if look and float in map(type, got):
                        look, f64 = False, True
                    if blocks is not None:
                        blocks.append(self._row_block(n))
            finally:  # rows 0..i were checked and read, also when row i raised
                counters.bounds_checks += arity * n * (i + 1)
            return "f64" if f64 else "i64", blocks
        return node

    def _fold(self, f):
        """(sources, rows, strict) of `f`, a reduce node or a dot
        (`ir.body_shape`), whose G is a leaf without closure parameters
        that takes one parameter per operand of f's operator (one, the
        product, for a dot) and whose combine has an `op`; else None. The
        operands of f's operator come from `sources` (`_sources`).
        `rows(spans, k, n, i)` folds each of the rows (i, 0) to (i, n - 1)
        of `spans` (`_spans`), all of k elements, without a frame, and
        gives the n results. A reduce folds G's values of the rows; it
        counts a bounds check per operand and element of each row it folded
        and reports the reads of all those rows as one `R` run, also when a
        row raises. A dot's product `a OP b` of two rows is a block (see
        the module docstring), whose `RRW` run reads the rows as
        `_elementwise` does; the reduce over it counts a bounds check per
        element. `strict`: rows of unequal extents raise, as a reduce's do;
        a dot's product raises, so its kernel declines."""
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
        sources = _sources(f.fn, names)
        values = _leaf_values(callee, *leaf[1:])[1]
        counters, trace = self.config.counters, self.config.trace
        if kind == "dot":
            product = scalar_op(f.shape[5])

            def rows(spans, k, n, i):
                (da, oa, ia, sa, ta, _, _), (db, ob, ib, sb, tb, _, _) = spans
                oa, ob = oa + i * ia, ob + i * ib
                ranges = trace and _row_ranges(spans, k)
                out = []
                for j in range(n):
                    a, b = oa + j * sa, ob + j * sb
                    p = list(map(product, da[a:a + k * ta:ta], db[b:b + k * tb:tb]))
                    if trace is not None:
                        start = self._placed(Block(k)).addr  # the block dies here
                        block = range(start, start + k * ELEM_SIZE, ELEM_SIZE)
                        trace.run(interleave(ranges(i, j) + [block]), "RRW")
                        trace.run(block, "R")
                    counters.bounds_checks += k
                    out.append(functools.reduce(op, values(p), init))
                return out
            return sources, rows, False
        arity = len(sources)

        def rows(spans, k, n, i):
            # Per span: the element list, the first and the end offset of
            # row (i, 0), and the j and k strides.
            ends = [(data, o + i * si, o + i * si + k * sk, sj, sk)
                    for data, o, si, sj, sk, _, _ in spans]
            out = []
            try:
                if arity == 1:  # the hot case, a row sum: no list per row
                    (data, o, e, s, t), = ends
                    for j in range(n):
                        out.append(functools.reduce(op, values(data[o + j * s:e + j * s:t]), init))
                else:
                    for j in range(n):
                        out.append(functools.reduce(op, values(*[data[o + j * s:e + j * s:t]
                                                                 for data, o, e, s, t in ends]), init))
            finally:  # rows 0..j were checked and read, also when row j raised
                counters.bounds_checks += arity * k * (j + 1)
                if trace is not None:
                    trace.run(itertools.chain.from_iterable(map(
                        _row_reads(spans, k), itertools.repeat(i), range(j + 1))), "R")
            return out
        return sources, rows, True

    def _fold_node(self, sources, rows, strict):
        """Kernel of a reduce node or a dot with `_fold`'s `sources`, `rows`
        and `strict` over rank-2 operands, read as row spans (`_spans`):
        one result per row, written at `at` or, without one, given as a
        list. It declines on a closure operand that is not a rank-1 array,
        on rows of no element and, unless `strict`, on rows of unequal
        extents."""
        what, leaves = "Reduce" if strict else None, [(s, False) for s in sources]

        def fold(views, axes, extent, captured, at=None):
            spans = _spans(views, axes, captured, leaves)
            k = spans and _extent(spans, what)
            if not k:
                return None
            # The operator's rows are the fold's rows j, of one i.
            out = rows([(data, o, 0, si, sk, m, addr) for data, o, si, _, sk, m, addr in spans],
                       k, extent, 0)
            return out if at is None else _scalars(out, at)
        return fold

    def _node(self, fn, ranks, callee, sources):
        """Kernel of map node `fn` over operands of `ranks` whose callee,
        `callee`, is a reduce node or a dot that `_fold` runs; else None:
        one loop over the node's rows i and the rows j of the callee's
        operator, whose operands come from `sources` (`_sources`),
        each (i, j) folded over k by the fold's `rows`, with each operand
        of the fold one span (`_spans`; see the module docstring). Row 0's
        operands are checked once, as one call per row checks them
        (`Interpreter._operand_views`, then the fold's row extents). It
        declines before any side effect when a closure value is of another
        rank, the rows have no slice or the fold's rows no element. Per row
        it counts the checks of its operator, lets the fold count and
        report the row's reads, writes the row's scalars at the row's place
        and places the row's block (`_row_block`)."""
        fold = self._fold(callee)
        if fold is None or len(sources) != len(callee.fn.params):
            return None
        inner, rows, strict = fold
        binds = dict(zip(callee.fn.closure_params, _sources(fn, callee.fn.closure_params)))
        leaves = [(sources[t], True) if type(t) is int else (binds[t], False) for t in inner]
        # A parameter's rows are the fold's operands of rank 2, or the
        # callee's closures of rank 1.
        if any(ranks[s] != 2 + stepped for s, stepped in leaves if type(s) is int):
            return None
        arity, counters, trace = len(sources), self.config.counters, self.config.trace
        what = "Reduce" if strict else None

        def node(views, axes, extent, captured, at):
            # Axis 0 of a parameter's row is its axis 1 when it is sliced along 0.
            operands = [views[s] if type(s) is int else captured[s] for s in sources]
            n = self._operand_views(
                operands, [int(not axes[s]) if type(s) is int else 0 for s in sources], "Map")[1]
            spans = n and _spans(views, axes, captured, leaves)
            if not spans:
                return None
            counters.bounds_checks += arity * n  # row 0's, before the fold checks its extents
            k = _extent(spans, what)
            if not k:
                counters.bounds_checks -= arity * n
                return None
            buf, base, (stride, step) = at((extent, n))
            width = n * step
            f64, blocks = False, [] if trace is not None else None
            for i in range(extent):
                if i:
                    counters.bounds_checks += arity * n
                got = rows(spans, k, n, i)
                o = base + i * stride
                buf[o:o + width:step] = got
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
