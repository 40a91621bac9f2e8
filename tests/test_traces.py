"""Pinned address traces, dispatch counters and tiled IR.

Each case traces a small fixed-size program, untiled and tiled, and
compares the sha256 of each (address, kind) event stream, and its event
count, against pinned values; the tiled run's dispatch counters are
pinned too. A change that claims byte-identical traces must keep these; one
that moves addresses on purpose re-pins them and says why. The printed
IR of each case after the cache pass (and after the register pass, where
the case uses one) is pinned the same way: generated names and slot ids
depend on the order in which the tiler visits the program.
"""

import hashlib
import importlib.util
import itertools
import math
import random
import sys
from dataclasses import astuple, replace
from pathlib import Path

import pytest

from tilepar.autotuner import estimate_bounds
from tilepar.bench import MATMUL_SRC, SQDIST_SRC, SUM_ROWS_SRC
from tilepar.cachesim import CacheModel, Simulator, simulate, simulate_program, trace_program
from tilepar.ir import (
    TILED_OPS, Assign, BinOp, IRError, Map, Program, Reduce, Return, Scan, Var, body_shape,
    desugar_allpairs, parse_program, print_program, reachable, walk_exprs,
)
from tilepar.ndarray import ALIGN, ELEM_SIZE, Allocator, NdArray, ShapeError, View, slice_axis
from tilepar.semantics import EvalConfig, EvalError, Interpreter, TraceSink, eval_program
from tilepar.tiling import register_tile, tile_program

import programs
import randprog
from arrays import NoEmptyRunSink, counting_build


def digest(events):
    h = hashlib.sha256()
    for addr, kind in events:
        h.update(f"{addr}{kind}".encode())
    return h.hexdigest()


def matrix(rows, cols, dtype, layout):
    data = [(7 * i) % 11 - 5 for i in range(rows * cols)]
    if dtype == "f64":
        data = [x / 4 for x in data]
    return NdArray((rows, cols), dtype, layout, data)


def cube(*shape):
    return NdArray(shape, "i64", "col", [(7 * i) % 11 - 5 for i in range(math.prod(shape))])


SCAN_OF_ARRAY_STEPS = """
fn add2(a, b) { return a + b; }
fn g1(x) { return 2 max x max 2; }
fn f2(v) { return scan(g1, combine=add2, init=0, v; axes=[0]); }
fn main(X) { return map(f2, X; axes=[0]); }
"""

# Each element v becomes the literal pair [v, v * 2].
PAIRS = """
fn pair(v) { return [v, v * 2]; }
fn main(X) { return map(pair, X; axes=[0]); }
"""


def tile_case(src, inputs, registers):
    """The program after each tiling pass the case uses, and the final spec."""
    program = desugar_allpairs(parse_program(src))
    res = tile_program(program, arg_ranks=[x.rank for x in inputs])
    passes, spec = [res.program], res.spec
    if registers:
        tiled, spec = register_tile(res.program, spec, registers)
        passes.append(tiled)
    return passes, spec


def traced_run(program, inputs, tile_sizes=None):
    """(value, trace events, dispatch counters) of one traced evaluation."""
    sink = TraceSink()
    config = EvalConfig(tile_sizes=dict(tile_sizes or {}), trace=sink)
    value = eval_program(program, inputs, config)
    return value, sink.events, config.counters


def trace_case(src, inputs, registers, sizes):
    passes, spec = tile_case(src, inputs, registers)
    return traced_run(passes[-1], inputs, spec.sizes(overrides=sizes))


CASES = {
    # Column-major row sums, cache-tiled 3x4 over 7x9: stragglers on both axes.
    "sum_rows_col": (programs.SUM_ROWS, [matrix(7, 9, "f64", "col")], 0, {0: 3, 1: 4}),
    # Matmul, its product fused into the fold, cache-tiled 3x3x3 over 7x7
    # plus register tiles.
    "matmul_reg": (programs.MATMUL, [matrix(7, 7, "f64", "row"), matrix(7, 7, "f64", "row")],
                   16, {0: 3, 1: 3, 2: 3}),
    # Row prefix sums, tiled 4x3 over 6x8: the tiled scan fixes up carries.
    "row_scan": (programs.ROW_SCAN, [matrix(6, 8, "i64", "row")], 0, {0: 4, 1: 3}),
    # Prefix sums along axis 1 of a 5x7x3 input, tiled 2x3: each step the
    # tiled scan fixes up is a 2x3 (or 1x3) slice, whose rows are arrays:
    # the lifted combine's node kernel declines, and the combine is called
    # once per step.
    "scan_of_array_steps": (SCAN_OF_ARRAY_STEPS, [cube(5, 7, 3)], 0, {0: 2, 1: 3}),
    # Prefix sums of 10 scalars, tiled by 3: each tile's scan stacks its
    # scalars at the tile's place, and so does each fix-up, whose combine
    # `add2` is not lifted and so is called once per step.
    "prefix_sum": (programs.PREFIX_SUM, [NdArray((10,), "i64", "row", list(range(-4, 6)))], 0,
                   {0: 3}),
    # A map of 7 literal pairs, tiled by 3: each tile stacks its pairs at
    # the tile's place.
    "pairs": (PAIRS, [NdArray((7,), "i64", "row", list(range(7)))], 0, {0: 3}),
    # Row prefix sums of squares, tiled 2x2 over 5x7: each tile's emitted
    # steps, fresh arrays, are stacked at its place and then die.
    "row_scan_emit": (programs.ROW_SCAN_EMIT, [matrix(5, 7, "i64", "row")], 0, {0: 2, 1: 2}),
}

PINS = {
    "sum_rows_col": (140, "819cf44dd1adb577ba6e4393dc550363dd28a3abf9e3eaa43403d61f54ccf4d2"),
    "matmul_reg": (2401, "30c15572c1c34ec5e958f62a94a4db2e168625ccb56b7b03e5be2a45356b90bb"),
    "row_scan": (342, "f58e02f33c1c3ddc2ba49481844cfca1f6181f396ccddb733db06c8a3f2de50a"),
    "scan_of_array_steps": (
        1530, "1d8436b6489dffd549b7c5deda72bb9c8bf38bd5b87a350ac08d54f733ecb85b"),
    "prefix_sum": (38, "1f188dbd7c802ad7676f5186f0b05473a8c0bbd4cf545b6c38ae0e8ec2be6e8c"),
    "pairs": (49, "04851447698f6a60618351db07783c83ad69bd159923ddd6d2a0b79ef167304a"),
    "row_scan_emit": (405, "458545750e4b6c68eac4a9c4be31caf7f74b6bc989e9e2144937b476cdddb38f"),
}


UNTILED_PINS = {
    "sum_rows_col": (70, "3568e8e07678dee3a8391537435cbea55993186280a9b619af4286f06f3834c9"),
    "matmul_reg": (1519, "d72408e95f7feb78a6896e5804357c90c91e9145285cc0cb71365b2f9cacbbbf"),
    "row_scan": (192, "e7ab43c329870bd6bb59e98a1e6c6dc8381a6ea6b642075f20548b360383cea6"),
    "scan_of_array_steps": (
        1140, "423acc2749d36d72b5fdbe1667f73c35e94b1a42b9efa0f529ff096510629787"),
    "prefix_sum": (20, "c41e5bd7405d26d58eb6ee38f6478c87780cbd05de85523446d11d49e1a75161"),
    "pairs": (49, "0a70c278a574e109944aa6b8618c30ccbaf7b4f89e06a82950f4a5dbd2793c38"),
    "row_scan_emit": (140, "1d6c2dee47827b497a8cc726ea0f6c179c26a644031626e7900a319efb3d3a83"),
}

# Tiled run: (full-tile calls, straggler calls, bounds checks).
COUNTER_PINS = {
    "sum_rows_col": (8, 4, 112),
    "matmul_reg": (26, 112, 980),
    "row_scan": (5, 3, 126),
    "scan_of_array_steps": (8, 4, 90),
    "prefix_sum": (3, 1, 10),
    "pairs": (2, 1, 7),
    "row_scan_emit": (11, 4, 140),
}


@pytest.mark.parametrize("kinds, expected", [
    ("R", "RRRRRR"), ("W", "WWWWWW"), ("RW", "RWRWRW"), ("RRW", "RRWRRW"),
])
def test_trace_sink_run_expands_kinds(kinds, expected):
    """A run records the events that one-address runs would, in order:
    its kinds cycled over its addresses."""
    addrs = [0, 8, 64, 16, 1024, 72]
    run, singles = TraceSink(), TraceSink()
    run.run(iter(addrs), kinds)
    for addr, kind in zip(addrs, expected):
        singles.run((addr,), kind)
    assert run.events == singles.events == list(zip(addrs, expected))


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_pinned(name):
    _, events, counters = trace_case(*CASES[name])
    assert (len(events), digest(events)) == PINS[name]
    assert (counters.full_tile_calls, counters.straggler_calls,
            counters.bounds_checks) == COUNTER_PINS[name]


class CountingSink:
    """A trace sink that counts its runs and their events."""

    def __init__(self):
        self.runs = self.events = 0

    def run(self, addrs, kinds):
        self.runs += 1
        self.events += sum(1 for _ in addrs)

    def phase(self, label):
        pass


# Sink runs of the traced tiled run. A stack, a concat and a reduce node's
# reads are one run each; a map or scan node reports each row's reads.
RUN_PINS = {"matmul_reg": 271, "row_scan": 66}


@pytest.mark.parametrize("name", sorted(RUN_PINS))
def test_sink_runs_pinned(name):
    src, inputs, registers, sizes = CASES[name]
    passes, spec = tile_case(src, inputs, registers)
    sink = CountingSink()
    eval_program(passes[-1], inputs, EvalConfig(tile_sizes=spec.sizes(overrides=sizes),
                                                trace=sink))
    assert (sink.runs, sink.events) == (RUN_PINS[name], PINS[name][0])


@pytest.mark.parametrize("name", sorted(CASES))
def test_untiled_trace_pinned(name):
    src, inputs, _, _ = CASES[name]
    events = trace_program(desugar_allpairs(parse_program(src)), inputs)
    assert (len(events), digest(events)) == UNTILED_PINS[name]


@pytest.mark.parametrize("name, kernel", [("row_scan", True), ("scan_of_array_steps", False),
                                          ("prefix_sum", False)])
def test_scan_fix_ups_match_combine_calls(name, kernel, monkeypatch):
    """A tiled scan fixes up each tile in one call of the lifted combine's
    kernel where it has one, else by calling the combine once per step.
    The value is the untiled one, and calling the combine for every step
    gives the same value, trace and counters."""
    src, inputs, registers, sizes = CASES[name]
    passes, spec = tile_case(src, inputs, registers)
    tile_sizes = spec.sizes(overrides=sizes)
    untiled = eval_program(desugar_allpairs(parse_program(src)), inputs)
    tiled = eval_program(passes[-1], inputs, EvalConfig(tile_sizes=tile_sizes))
    assert tiled.to_nested() == untiled.to_nested()
    picked, fix_up = [], Interpreter._fix_up

    def spied(self, *args):
        found = fix_up(self, *args)
        picked.append(found is not None)
        return found
    monkeypatch.setattr(Interpreter, "_fix_up", spied)
    through_kernels = observed(passes[-1], inputs, tile_sizes)
    assert picked and set(picked) == {kernel}
    monkeypatch.setattr(Interpreter, "_fix_up", lambda self, *args: None)
    assert observed(passes[-1], inputs, tile_sizes) == through_kernels


# Tiled scans whose lifted combine is a map: (source, whether it is tiled
# IR already).
FIX_UP_PROGRAMS = {
    # Tiled at depth 1: each fix-up runs the combine's leaf node.
    "row_scan": (programs.ROW_SCAN, False),
    "row_scan_emit": (programs.ROW_SCAN_EMIT, False),
    "row_scan_f64_init": (programs.ROW_SCAN.replace("init=0", "init=0.0"), False),
    # A row scans as i64 up to its first negative element and as f64 after.
    "row_scan_relu": (programs.ROW_SCAN.replace("fn ident(x) { return x; }", "fn relu(x) { "
                      "return x max 0.0; }").replace("scan(ident", "scan(relu"), False),
    # Tiled at depth 0 by hand: the tiles scan rows with an elementwise
    # combine, the fix-up combines rows with a map.
    "rows_scan_depth0": ("""
fn add2(a, b) { return a + b; }
fn addv(a, b) { return map(add2, a, b; axes=[0, 0]); }
fn ident(r) { return r; }
fn tile(T) { return scan(ident, combine=add2, init=0, T; axes=[0]); }
fn main(X) { return tiledscan(tile, slot=0, depth=0, combine=addv, init=0, X; axes=[0]); }
""", True),
    # As above, but `add2` has no kernel: the map node's kernel declines at
    # row 0, and each fix-up calls the combine once per step.
    "rows_scan_depth0_no_leaf": ("""
fn add2(a, b) { s = a + b; return s; }
fn addv(a, b) { return map(add2, a, b; axes=[0, 0]); }
fn ident(r) { return r; }
fn tile(T) { return scan(ident, combine=add2, init=0, T; axes=[0]); }
fn main(X) { return tiledscan(tile, slot=0, depth=0, combine=addv, init=0, X; axes=[0]); }
""", True),
    # Tiled at depth 2 over rank-3 tiles: each fix-up's combine has no
    # node kernel, as its callee's kernel gives arrays, and each fix-up
    # calls the combine once per step.
    "cube_scan": ("""
fn ident(x) { return x; }
fn add2(a, b) { return a + b; }
fn sc(c) { return scan(ident, combine=add2, init=0, c; axes=[0]); }
fn mid(Y) { return map(sc, Y; axes=[0]); }
fn main(X) { return map(mid, X; axes=[0]); }
""", False),
}

# (program, input shape, dtype, layout); a rank-3 input is `cube`'s.
FIX_UP_INPUTS = [
    ("row_scan", (7, 8), "i64", "col"),
    ("row_scan", (7, 8), "f64", "row"),
    ("row_scan", (3, 0), "i64", "row"),
    ("row_scan", (0, 3), "i64", "row"),
    ("row_scan_emit", (7, 8), "i64", "col"),
    ("row_scan_f64_init", (7, 8), "i64", "col"),
    ("rows_scan_depth0", (8, 7), "i64", "row"),
    ("rows_scan_depth0", (8, 7), "f64", "col"),
    ("rows_scan_depth0", (3, 0), "i64", "row"),
    ("rows_scan_depth0", (0, 3), "i64", "row"),
    ("rows_scan_depth0_no_leaf", (8, 7), "i64", "row"),
    ("rows_scan_depth0_no_leaf", (8, 7), "f64", "col"),
    ("cube_scan", (3, 4, 8), "i64", "col"),
]


def fix_up_observed(program, inputs, tile_sizes):
    """Value (shape, dtype and element types) and dispatch counters of one
    run without a trace sink, one into a `TraceSink`, with its events, and
    one into a `NoEmptyRunSink`, with its run count."""
    seen = []
    for sink in (None, TraceSink(), NoEmptyRunSink()):
        config = EvalConfig(tile_sizes=dict(tile_sizes), trace=sink)
        value = eval_program(program, inputs, config)
        c = config.counters
        seen.append(((value.shape, value.dtype, [(type(x), x) for x in value.data]),
                     getattr(sink, "events", None), getattr(sink, "runs", None),
                     (c.full_tile_calls, c.straggler_calls, c.bounds_checks)))
    return seen


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("name, shape, dtype, layout", FIX_UP_INPUTS, ids=[
    f"{n}-{'x'.join(map(str, shape))}-{dtype}-{layout}" for n, shape, dtype, layout
    in FIX_UP_INPUTS])
def test_tile_fix_up_matches_combine_calls(name, shape, dtype, layout, k, monkeypatch):
    """Fixing up each tile in one call of the combine's kernel, or after
    that kernel declines, gives the value, dtype, element types, trace,
    sink runs and counters of one combine call per step, with and without
    a trace sink, and the value of the untiled scan."""
    src, internal = FIX_UP_PROGRAMS[name]
    inputs = [matrix(*shape, dtype, layout) if len(shape) == 2 else cube(*shape)]
    if internal:
        program = parse_program(src, allow_internal=True)
        untiled = parse_program(src.replace(
            "tiledscan(tile, slot=0, depth=0, combine=addv,", "scan(ident, combine=add2,"))
        sizes = {0: k}
    else:
        untiled = parse_program(src)
        res = tile_program(untiled, arg_ranks=[inputs[0].rank])
        program = res.program
        sizes = res.spec.sizes(overrides={s.id: k for s in res.spec.runtime_slots()})
    picked, fix_up = [], Interpreter._fix_up

    def spied(self, *args):
        found = fix_up(self, *args)
        picked.append(found is not None)
        return found
    monkeypatch.setattr(Interpreter, "_fix_up", spied)
    through_kernel = fix_up_observed(program, inputs, sizes)
    # The kernel declines for steps of no element, too.
    runs = not name.endswith("_no_leaf") and name != "cube_scan" and 0 not in shape
    assert set(picked) <= {runs}
    assert picked or 0 in shape
    monkeypatch.setattr(Interpreter, "_fix_up", lambda self, *args: None)
    assert fix_up_observed(program, inputs, sizes) == through_kernel
    reference = eval_program(untiled, inputs)
    assert through_kernel[0][0] == (reference.shape, reference.dtype,
                                    [(type(x), x) for x in reference.data])


def placed_outcome(program, inputs, tile_sizes=None):
    """(value with its dtype and element types, or the error text, and the
    dispatch counters) of `program`, the same without a trace sink, into
    a `TraceSink` and into a `NoEmptyRunSink`, which it checks."""
    seen = []
    for sink in (None, TraceSink(), NoEmptyRunSink()):
        config = EvalConfig(tile_sizes=dict(tile_sizes or {}), trace=sink)
        try:
            value = eval_program(program, inputs, config)
            out = (value.shape, value.dtype, [(type(x), x) for x in value.data])
        except (EvalError, ShapeError) as exc:
            out = f"{type(exc).__name__}: {exc}"
        c = config.counters
        seen.append((out, c.full_tile_calls, c.straggler_calls))
    assert seen[0] == seen[1] == seen[2]
    return seen[0]


# Hand-written tiled maps over 1..7 (X) whose tiles give their values in
# different ways: (source, the untiled program's source, or the value or
# error the join of the tiles gives at tile size k). The output is the
# tiled map's value only when every tile's value is at its place; else
# the tiles are joined.
PLACEMENT_CASES = {
    # Each tile's dtype is its own: f64 when a tile holds a 3, i64 else.
    # The output's dtype is f64 when any tile's is, as the join's would be.
    "dtype_per_tile": ("""
fn third(x) { if x - 3 { return x; } else { return x / 1; } }
fn tile(T) { return map(third, T; axes=[0]); }
fn main(X) { return tiledmap(tile, slot=0, depth=0, X; axes=[0]); }
""", """
fn third(x) { if x - 3 { return x; } else { return x / 1; } }
fn main(X) { return map(third, X; axes=[0]); }
"""),
    # A tile that returns a variable, its own input, is not at its place:
    # the tiles are joined, also those that built their value in place.
    "variable_return": ("""
fn ident(x) { return x; }
fn tile(T) { if T[0] - 3 { } else { return T; } return map(ident, T; axes=[0]); }
fn main(X) { return tiledmap(tile, slot=0, depth=0, X; axes=[0]); }
""", """
fn ident(x) { return x; }
fn main(X) { return map(ident, X; axes=[0]); }
"""),
    # A variable bound to an operator is returned only after another
    # statement: no tile takes its place, and the tiles are joined.
    "late_return": ("""
fn ident(x) { return x; }
fn tile(T) { y = map(ident, T; axes=[0]); z = 1; return y; }
fn main(X) { return tiledmap(tile, slot=0, depth=0, X; axes=[0]); }
""", """
fn ident(x) { return x; }
fn main(X) { return map(ident, X; axes=[0]); }
"""),
    # Every tile's value is `Y`'s two elements, the wrong extent for some
    # tiles or all: the tiles are joined.
    "wrong_extent": ("""
fn ident(x) { return x; }
fn tile(T) uses Y { return map(ident, Y; axes=[0]); }
fn main(X, Y) { return tiledmap(tile, slot=0, depth=0, X; axes=[0]); }
""", lambda k: ((2 * -(-7 // k),), "i64", [(int, 8), (int, 9)] * -(-7 // k))),
    # A tile starting at 5 gives a rank-2 value and one starting at 6 a
    # scalar: the join raises, after every tile ran and the others took
    # their places.
    "wrong_rank": ("""
fn ident(x) { return x; }
fn tile(T) {
  if T[0] - 5 { } else { return [T, T]; }
  if T[0] - 6 { } else { return T[0]; }
  return map(ident, T; axes=[0]);
}
fn main(X) { return tiledmap(tile, slot=0, depth=0, X; axes=[0]); }
""", lambda k: {1: "EvalError: tiled map tiles must produce arrays",
                2: "ShapeError: rank mismatch in concat",
                3: ((7,), "i64", [(int, x) for x in range(1, 8)])}[k]),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(PLACEMENT_CASES))
def test_tiles_take_their_places_or_are_copied(name, k):
    """A tiled map's tiles build their values at their places when they can,
    and are joined when one cannot, with the value, dtype, element types
    and error of the join, with and without a trace sink."""
    src, want = PLACEMENT_CASES[name]
    inputs = [NdArray((7,), "i64", "row", list(range(1, 8))), NdArray((2,), "i64", "col", [8, 9])]
    program = parse_program(src, allow_internal=True)
    inputs = inputs[:len(program.fn("main").params)]
    got, full, stragglers = placed_outcome(program, inputs, {0: k})
    if isinstance(want, str):
        want = placed_outcome(parse_program(want), inputs)[0]
    else:
        want = want(k)
    assert got == want
    assert (full, stragglers) == (7 // k, int(7 % k > 0))


def test_placement_does_not_depend_on_build_order():
    """Whether a tile takes its place follows from the program alone: a
    tile function first run as a plain callee takes its places when a
    tiled map runs it later, and both orders of the statements trace as
    many events and give the same value."""
    lib = """
fn ident(x) { return x; }
fn tile(T) { return map(ident, T; axes=[0]); }
fn inner(Y) { return tiledmap(tile, slot=0, depth=0, Y; axes=[0]); }
"""
    first, second = "a = map(tile, X; axes=[0]);", "b = map(inner, Z; axes=[0]);"
    inputs = [NdArray((4, 3), "i64", "row", list(range(12))),
              NdArray((2, 5, 3), "i64", "row", list(range(30)))]
    seen = []
    for body in (first + second, second + first):
        program = parse_program(f"{lib}fn main(X, Z) {{ {body} return b; }}", allow_internal=True)
        sink = TraceSink()
        value = eval_program(program, inputs, EvalConfig(tile_sizes={0: 2}, trace=sink))
        seen.append((len(sink.events), value.shape, value.dtype, value.data))
    assert seen[0] == seen[1]
    assert seen[0][0] == 168


def test_fixed_up_tile_takes_the_dtype_of_its_fix_up():
    """A tile whose own scan gives f64 and whose fix-up gives i64 leaves
    the tiled scan i64, as the untiled scan and the join are."""
    lib = """
fn ident(x) { return x; }
fn lo(a, b) { return a min b; }
fn tile(T) { return scan(ident, combine=lo, init=0.5, T; axes=[0]); }
"""
    tiled = parse_program(lib + "fn main(X) { return tiledscan(tile, slot=0, depth=0, "
                          "combine=lo, init=0.5, X; axes=[0]); }", allow_internal=True)
    untiled = parse_program(lib + "fn main(X) { return scan(ident, combine=lo, init=0.5, "
                            "X; axes=[0]); }")
    inputs = [NdArray((5,), "i64", "row", [-3, 5, 1, 2, 7])]
    got = placed_outcome(tiled, inputs, {0: 2})[0]
    assert got == placed_outcome(untiled, inputs)[0]
    assert got[1] == "i64"


@pytest.mark.parametrize("name, shape, dtype, layout", [
    ("row_scan_emit", (7, 8), "i64", "col"), ("row_scan_emit", (5, 4), "f64", "row"),
    ("cube_scan", (3, 4, 8), "i64", "col"), ("row_scan", (3, 0), "f64", "col"),
    ("row_scan", (3, 0), "i64", "row"), ("row_scan_f64_init", (4, 0), "i64", "col"),
    ("row_scan_relu", (5, 6), "i64", "row")])
def test_placed_nests_match_the_untiled_program(name, shape, dtype, layout):
    """Tiled scans whose emitted steps take the places, a rank-3 nest whose
    places are two deep, an empty straggler below depth 0, and rows whose
    dtypes differ, which retype the output of every nest around them, give
    the untiled program's value, dtype and element types with every slot
    at every tile size from 1 to 4."""
    src, _ = FIX_UP_PROGRAMS[name]
    inputs = [matrix(*shape, dtype, layout) if len(shape) == 2 else cube(*shape)]
    untiled = parse_program(src)
    want = placed_outcome(untiled, inputs)[0]
    res = tile_program(untiled, arg_ranks=[inputs[0].rank])
    slots = [s.id for s in res.spec.runtime_slots()]
    for sizes in itertools.product((1, 2, 3, 4), repeat=len(slots)):
        tile_sizes = res.spec.sizes(overrides=dict(zip(slots, sizes)))
        got, full, stragglers = placed_outcome(res.program, inputs, tile_sizes)
        assert got == want, sizes
        assert full + stragglers > 0


# Tiled maps and scans whose dtype their values decide, each tile built at
# its place: (source, inputs, the dtype).
VALUE_DTYPE_CASES = {
    # An f64 init makes every step of i64 rows a float.
    "scan_f64_init": (programs.ROW_SCAN.replace("init=0", "init=0.0"),
                      [matrix(7, 8, "i64", "col")], "f64"),
    # `/` makes floats of ints: by a scalar closure, and by a second operand.
    "halved": ("""
fn half(x) uses two { return x / two; }
fn halves(r) uses two { return map(half, r; axes=[0]); }
fn main(X, two) { return map(halves, X; axes=[0]); }
""", [matrix(7, 8, "i64", "row"), 2], "f64"),
    "divided": ("""
fn div(a, b) { return a / b; }
fn divs(r, d) { return map(div, r, d; axes=[0, 0]); }
fn main(X, D) { return map(divs, X, D; axes=[0, 0]); }
""", [matrix(7, 8, "i64", "row"), NdArray((7, 8), "i64", "col", [2] * 56)], "f64"),
    # f64 rows, all below 100, each element raised to at least the int 100:
    # every element is an int.
    "capped": ("""
fn cap(a, b) { return a max b; }
fn caps(r, c) { return map(cap, r, c; axes=[0, 0]); }
fn main(X, C) { return map(caps, X, C; axes=[0, 0]); }
""", [matrix(7, 8, "f64", "row"), NdArray((7, 8), "i64", "row", [100] * 56)], "i64"),
    # Rows of width 0: each row tile's scan runs one empty straggler.
    "empty_rows": (programs.ROW_SCAN, [matrix(7, 0, "i64", "row")], "i64"),
}


def dtype_outcome(program, inputs, tile_sizes, traced):
    """The value with its dtype and element types, the trace's length and
    digest (None without a trace sink), and every dispatch counter of one
    run."""
    sink = TraceSink() if traced else None
    config = EvalConfig(tile_sizes=dict(tile_sizes), trace=sink)
    value = eval_program(program, inputs, config)
    return ((value.shape, value.dtype, [(type(x), x) for x in value.data]),
            sink and (len(sink.events), digest(sink.events)), astuple(config.counters))


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(VALUE_DTYPE_CASES))
def test_values_decide_dtypes_at_places(name, traced):
    """A map or scan whose dtype its values decide, untiled and tiled at
    every tile size from 1 to 3, gives the value, dtype, element types,
    trace and counters of its twin whose nests take the generic call path,
    and the tiled program the untiled one's value, with and without a
    trace sink."""
    src, inputs, dtype = VALUE_DTYPE_CASES[name]
    untiled = parse_program(src)
    want = dtype_outcome(untiled, inputs, {}, traced)
    assert want == dtype_outcome(with_generic_bodies(untiled), inputs, {}, traced)
    assert want[0][1] == dtype
    res = tile_program(untiled, arg_ranks=[getattr(x, "rank", 0) for x in inputs])
    for k in (1, 2, 3):
        sizes = res.spec.sizes(overrides={s.id: k for s in res.spec.runtime_slots()})
        got = dtype_outcome(res.program, inputs, sizes, traced)
        assert got[0] == want[0], k
        assert got == dtype_outcome(with_generic_bodies(res.program), inputs, sizes, traced), k


# When a temporary dies decides which free block the allocator hands out
# next, so these untiled programs pin the evaluator's temporary lifetimes:
# a for loop's sequence lives until its block ends, and a scan releases its
# last accumulator before its other steps.
LIFETIME_CASES = {
    "for_over_temporaries": ("""
fn main(X) {
  s = 0;
  for r in X + 1 { for x in r * 2 { s = s + x; } q = r * 3; s = s + q[0]; }
  return s;
}
""", [matrix(3, 4, "i64", "row")], (87, "e81798849691e8a51720b54b0a4038de593bc034459adc707a1eca1ae0d8d2c7")),
    "scan_of_array_steps": ("""
fn add2(a, b) { return a + b; }
fn g1(x) { return 2 max x max 2; }
fn f2(v) { return scan(g1, combine=add2, init=0, v; axes=[0]); }
fn main(X) { return map(f2, X; axes=[0]); }
""", [NdArray((3, 4, 6), "i64", "col", [(7 * i) % 11 - 5 for i in range(72)])],
        (774, "77a80865f616f06128e1c6528d2f3e94a8414cb2c559cb61672debda6bbd5a0d")),
    # The generic fold loop over array slices: each step's accumulator and
    # callee result die before the next call.
    "reduce_of_array_rows": ("""
fn addv(a, b) { return a + b; }
fn inc(r) { return r + 1; }
fn main(X) { return reduce(inc, combine=addv, init=0, X; axes=[0]); }
""", [matrix(5, 6, "i64", "row")], (144, "42e5c8edb2c43f20864fde515542d65623f261fa28092d0d8090b912a2b5244f")),
    "scan_emit_of_array_rows": ("""
fn addv(a, b) { return a + b; }
fn dbl(v) { return v * 2; }
fn ident(r) { return r; }
fn main(X) { return scan(ident, combine=addv, emit=dbl, init=0, X; axes=[0]); }
""", [matrix(5, 6, "i64", "row")], (204, "414b148ec5664cb866d979355a1b4dfd0594cc4a9fbe83fc898cdf8ebc94c8f2")),
    "scan_emit_of_array_steps": ("""
fn add2(a, b) { return a + b; }
fn dbl(v) { return v * 2; }
fn g1(x) { return 2 max x max 2; }
fn f2(v) { return scan(g1, combine=add2, emit=dbl, init=0, v; axes=[0]); }
fn main(X) { return map(f2, X; axes=[0]); }
""", [NdArray((3, 4, 6), "i64", "col", [(7 * i) % 11 - 5 for i in range(72)])],
        (918, "9b8e51f22691a43d556079bdb22cc1145a93f98533ae539563cc6cf031717207")),
}


@pytest.mark.parametrize("name", sorted(LIFETIME_CASES))
def test_temporary_lifetimes_pinned(name):
    src, inputs, pin = LIFETIME_CASES[name]
    events = trace_program(parse_program(src), inputs)
    assert (len(events), digest(events)) == pin


MAP2 = """
fn add2(a, b) { return a + b; }
fn row_add(x, y) { return map(add2, x, y; axes=[0, 0]); }
fn main(Xs, Ys) { return map(row_add, Xs, Ys; axes=[0, 0]); }
"""


def with_generic_bodies(program):
    """`program` with every `return x`, `return a OP b` and single-operator
    `return map|reduce|scan(...)` body, and every body's last `return
    reduce(...)`, rewritten to bind a temporary before returning: the same
    values, through the evaluator's generic call path instead of its
    kernels."""
    table = dict(program.functions)
    for name, fn in program.functions.items():
        body = fn.body
        last = body[-1].value if body and isinstance(body[-1], Return) else None
        if (isinstance(last, Reduce)
                or len(body) == 1 and isinstance(last, (Var, BinOp, Map, Scan))):
            table[name] = replace(fn, body=body[:-1] + (Assign("t$g", last),
                                                        Return(Var("t$g"))))
    return Program(table)


GENERIC_CASES = {
    # Reduce over column-major row views, with straggler tiles on both axes.
    "sum_rows_col": (programs.SUM_ROWS, [matrix(7, 9, "i64", "col")], {0: 3, 1: 4}),
    "row_scan": (programs.ROW_SCAN, [matrix(6, 8, "i64", "col")], {0: 4, 1: 3}),
    "map2": (MAP2, [matrix(5, 7, "i64", "col"), matrix(5, 7, "i64", "row")], {0: 2, 1: 3}),
}


@pytest.mark.parametrize("name", sorted(GENERIC_CASES))
@pytest.mark.parametrize("tiled", [False, True])
def test_generic_callee_matches_elementary_one(name, tiled):
    """A callee whose body `ir.body_shape` does not describe gives the same
    value, trace and counters as the described one it computes."""
    src, inputs, sizes = GENERIC_CASES[name]
    program = desugar_allpairs(parse_program(src))
    if tiled:
        program = tile_program(program, arg_ranks=[x.rank for x in inputs]).program
    else:
        sizes = {}
    generic = with_generic_bodies(program)
    assert generic != program
    runs = []
    for p in (program, generic):
        value, events, c = traced_run(p, inputs, sizes)
        runs.append((value.to_nested(), len(events), digest(events),
                     (c.full_tile_calls, c.straggler_calls, c.bounds_checks)))
    assert runs[0] == runs[1]
    if tiled:
        assert runs[0][3][1] > 0  # straggler tiles ran


NODE_LIB = """
fn ident(x) { return x; }
fn add2(a, b) { return a + b; }
fn div(a, b) { return a / b; }
fn copied(x) { return map(ident, x; axes=[0]); }
fn scanned(x) { return scan(ident, combine=add2, init=0, x; axes=[0]); }
fn quotients(x) { return scan(ident, combine=div, init=1, x; axes=[0]); }
fn summed(x) { return reduce(ident, combine=add2, init=0, x; axes=[0]); }
fn added(x, y) { return map(add2, x, y; axes=[0, 0]); }
fn divided(x, y) { return map(div, x, y; axes=[0, 0]); }
fn copied2(x) { return map(copied, x; axes=[0]); }
fn scanned2(x) { return map(scanned, x; axes=[0]); }
fn summed2(x) { return map(summed, x; axes=[0]); }
fn added2(x, y) { return map(added, x, y; axes=[0, 0]); }
fn divided2(x, y) { return map(divided, x, y; axes=[0, 0]); }
"""


def divisors(shape, layout):
    """An i64 array of `shape` with no zero element."""
    return NdArray(shape, "i64", layout, [i % 3 + 1 for i in range(math.prod(shape))])


def matrix_1_to_12():
    """The 3 x 4 row-major i64 matrix of 1 to 12."""
    return NdArray((3, 4), "i64", "row", list(range(1, 13)))


def zero_at_1_1():
    """`matrix_1_to_12` with element (1, 1) set to 0: a `/` by it raises
    part way through row 1."""
    data = list(range(1, 13))
    data[5] = 0
    return NdArray((3, 4), "i64", "row", data)


def node_cases():
    """(callee, operand axes, inputs) of `map(callee, ...)` in `main`: map
    and scan nodes over rank-2 and rank-3 operands, i64 and f64, with rows
    of width 0, i64 inputs whose leaf or combine divides (by zero part way
    through a row, too), and two operands of mixed layouts sliced along
    different axes."""
    for fn in ("copied", "scanned"):
        for dtype in ("i64", "f64"):
            for axis in (0, 1):
                yield fn, (axis,), [matrix(4, 5, dtype, ("row", "col")[axis])]
            yield fn, (0,), [matrix(3, 0, dtype, "row")]
            yield fn, (1,), [matrix(0, 3, dtype, "col")]
    yield "added", (0, 1), [matrix(4, 5, "i64", "row"), matrix(5, 4, "f64", "col")]
    yield "added", (1, 0), [matrix(5, 4, "f64", "col"), matrix(4, 5, "i64", "row")]
    yield "added", (0, 0), [matrix(3, 0, "f64", "row"), matrix(3, 0, "i64", "col")]
    yield "divided", (0, 1), [matrix(4, 5, "i64", "col"), divisors((5, 4), "row")]
    yield "divided", (0, 0), [matrix(3, 0, "i64", "row"), divisors((3, 0), "col")]
    for fn in ("copied2", "scanned2", "summed2"):
        for dtype in ("i64", "f64"):
            for axis in (0, 1, 2):
                yield fn, (axis,), [cube(2, 3, 4) if dtype == "i64" else
                                    NdArray((2, 3, 4), "f64", "row", [i / 4 for i in range(24)])]
            yield fn, (0,), [NdArray((2, 3, 0), dtype, "col")]
            yield fn, (0,), [NdArray((2, 0, 3), dtype, "row")]
    yield "added2", (0, 2), [cube(2, 3, 4), NdArray((3, 4, 2), "f64", "row",
                                                     [i / 2 for i in range(24)])]
    yield "added2", (1, 1), [NdArray((3, 0, 2), "f64", "col"), NdArray((3, 0, 2), "i64", "row")]
    yield "divided2", (2, 0), [cube(3, 4, 2), divisors((2, 3, 4), "row")]
    yield "divided2", (0, 0), [NdArray((2, 3, 0), "i64", "col"), divisors((2, 3, 0), "row")]
    for axis in (0, 1):  # i64 rows whose combine divides
        yield "quotients", (axis,), [divisors((3, 4), ("row", "col")[axis])]
    # A zero part way through row 1: the leaf's or the combine's `/` raises there.
    yield "divided", (0, 0), [matrix_1_to_12(), zero_at_1_1()]
    yield "quotients", (0,), [zero_at_1_1()]


@pytest.mark.parametrize("fn, axes, inputs", list(node_cases()))
def test_node_values_match_generic_twins(fn, axes, inputs):
    """A map or scan node stacks its rows' results into one element list.
    The array built from it has the value, dtype (int and float elements
    included), trace and counters of one call per row, traced and not; a
    row that raises leaves the error, trace and counters of one call per
    row."""
    names = ", ".join(f"X{i}" for i in range(len(inputs)))
    program = parse_program(NODE_LIB + f"fn main({names}) {{ return map({fn}, {names}; "
                            f"axes=[{', '.join(map(str, axes))}]); }}")
    interp = Interpreter(program)
    kernel = interp._kernel(interp._function(fn), tuple(x.rank for x in inputs))
    # A map node over a map or scan nest has no kernel: its callee's gives arrays.
    assert (kernel is None) == (fn in ("copied2", "scanned2", "added2", "divided2"))
    for traced in (True, False):
        assert closure_run(program, inputs, traced) == \
            closure_run(with_generic_bodies(program), inputs, traced)


def test_empty_rows_take_the_dtype_of_their_own_maps():
    """A map node whose rows are maps over no element takes the dtype each
    row's own map gives, that of the operand that map names first, as one
    call per row does, traced and not."""
    program = parse_program("""
fn add2(p, q) { return p + q; }
fn g(a, b) { return map(add2, b, a; axes=[0, 0]); }
fn f(x, y) { return map(g, x, y; axes=[0, 0]); }
fn main(X, Y) { return map(f, X, Y; axes=[0, 0]); }
""")
    inputs = [NdArray((2, 3, 0), "i64", "row"), NdArray((2, 3, 0), "f64", "col")]
    for traced in (False, True):
        got = dtype_outcome(program, inputs, {}, traced)
        assert got == dtype_outcome(with_generic_bodies(program), inputs, {}, traced)
        assert got[0] == ((2, 3, 0), "f64", [])


# Kernels over closure operands and over rows of `a OP b`, each against
# the twin whose every function body takes the generic call path.
CLOSURE_LIB = """
fn add2(a, b) { return a + b; }
fn mul2(a, b) { return a * b; }
fn min2(a, b) { return a min b; }
fn div(a, b) { return a / b; }
fn dot(y) uses x { return reduce(mul2, combine=add2, init=0, x, y; axes=[0, 0]); }
fn dots(x) uses Y { return map(dot, Y; axes=[0]); }
fn ratio(y) uses x { return reduce(div, combine=add2, init=0, y, x; axes=[0, 0]); }
fn ratios(x) uses Y { return map(ratio, Y; axes=[0]); }
fn weighed(y) uses w { return reduce(mul2, combine=min2, init=99, w, y; axes=[0, 0]); }
fn weighs(x) uses w { return map(weighed, x; axes=[0]); }
fn scale(y) uses s { return y * s; }
fn scales(x) uses s { return map(scale, x; axes=[0]); }
fn scaled(y) uses x { return map(mul2, x, y; axes=[0, 0]); }
fn prefix(y) uses x { return scan(mul2, combine=add2, init=0, y, x; axes=[0, 0]); }
fn mins(a, b) { return map(min2, a, b; axes=[0, 0]); }
"""


def f64(*shape, layout="row"):
    return NdArray(shape, "f64", layout, [((5 * i) % 9 - 4) / 2 for i in range(math.prod(shape))])


def closure_cases():
    """(id, main, inputs, kernel): `main` maps a node whose operands
    include an array `uses` operand, a map node whose callee's closure is
    bound per row, or a binary leaf over rank-2 rows, over inputs of both
    dtypes and layouts (an f64 `uses` array over i64 rows among them),
    strided views and empty extents. A map node over a fold (`dots`,
    `ratios`, `weighs`) is one loop over its rows and its callee's: its
    callee's operands are rows of a rank-3 parameter or a rank-2 `uses`
    array, its callee's closure a row of a rank-2 parameter or a rank-1
    `uses` array. A closure of the wrong extent makes the kernel raise as
    the generic path does; a scalar or rank-2 closure makes it decline.
    A map node's leaf may read a scalar closure of the node (`scales`),
    whose dtype the results' follows; an array there makes it decline.
    `kernel` is (callee, operand ranks), whose kernel must exist, or
    (callee, operand ranks, None), whose kernel must be None, or None."""
    column = slice_axis(NdArray((3, 5), "i64", "col", list(range(15))), 1, 2)
    for fn in ("dot", "scaled", "prefix"):
        main = f"fn main(Y, x) {{ return map({fn}, Y; axes=[0]); }}"
        kernel = (fn, (2,))
        yield f"{fn}-f64", main, [f64(4, 5, layout="col"), cube(5)], kernel
        yield f"{fn}-f64-uses", main, [matrix(4, 5, "i64", "row"), f64(5)], kernel
        yield f"{fn}-strided", main, [matrix(4, 3, "i64", "row"), column], kernel
        yield f"{fn}-empty-rows", main, [matrix(3, 0, "f64", "row"), cube(0)], kernel
        yield f"{fn}-wrong-extent", main, [matrix(4, 5, "i64", "row"), cube(6)], kernel
        yield f"{fn}-scalar", main, [matrix(4, 5, "i64", "row"), 3], None
        yield f"{fn}-rank-2", main, [matrix(4, 5, "i64", "row"), matrix(5, 5, "i64", "col")], None
    main, kernel = "fn main(X, Y) { return map(dots, X; axes=[0]); }", ("dots", (2,))
    yield "dots", main, [f64(3, 4), matrix(5, 4, "i64", "col")], kernel
    yield "dots-wrong-extent", main, [f64(3, 4), matrix(5, 3, "i64", "col")], kernel
    yield "dots-empty", main, [f64(3, 4), matrix(0, 4, "i64", "col")], kernel
    yield "dots-rank-3", main, [f64(3, 4), cube(2, 5, 4)], kernel
    yield "dots-i64-rows-f64-uses", main, [matrix(3, 4, "i64", "col"), f64(5, 4)], kernel
    yield "dots-strided", main, [slice_axis(cube(3, 2, 4), 1, 1), slice_axis(cube(5, 3, 4), 1, 2)], \
        kernel
    yield "dots-one", main, [f64(1, 1), matrix(1, 1, "i64", "row")], kernel
    yield "dots-empty-rows", main, [f64(3, 0), matrix(5, 0, "i64", "col")], kernel
    yield "dots-columns", "fn main(X, Y) { return map(dots, X; axes=[1]); }", \
        [matrix(4, 3, "i64", "row"), f64(5, 4, layout="col")], kernel
    main, kernel = "fn main(X, Y) { return map(ratios, X; axes=[0]); }", ("ratios", (2,))
    yield "ratios", main, [divisors((3, 4), "col"), matrix(5, 4, "i64", "row")], kernel
    yield "ratios-f64", main, [NdArray((3, 4), "f64", "row", [(i % 7 + 1) / 2 for i in range(12)]),
                               f64(2, 4, layout="col")], kernel
    for axis in (0, 1, 2):
        main, kernel = f"fn main(X, w) {{ return map(weighs, X; axes=[{axis}]); }}", \
            ("weighs", (3,))
        k = (4, 4, 3)[axis]
        yield f"weighs-f64-uses-{axis}", main, [cube(2, 3, 4), f64(k)], kernel
        yield f"weighs-i64-uses-{axis}", main, [cube(2, 3, 4), cube(k)], kernel
        yield f"weighs-wrong-extent-{axis}", main, [cube(2, 3, 4), f64(k + 1)], kernel
        yield f"weighs-empty-rows-{axis}", main, [cube(2, 0, 0), f64(0)], kernel
    main, kernel = "fn main(X, s) { return map(scales, X; axes=[0]); }", ("scales", (2,))
    yield "scales-f64-scalar", main, [matrix(3, 4, "i64", "row"), 1.5], kernel
    yield "scales-i64-scalar", main, [matrix(3, 4, "i64", "col"), -2], kernel
    yield "scales-array", main, [matrix(3, 4, "i64", "row"), f64(4)], kernel
    main = "fn main(X, w) { return map(weighs, X; axes=[0]); }"
    yield "weighs-scalar", main, [cube(2, 3, 4), 3], ("weighs", (3,))
    yield "weighs-rank-2-uses", main, [cube(2, 3, 4), f64(4, 4)], ("weighs", (3,))
    for op in ("min2", "div"):
        main, kernel = f"fn main(A, B) {{ return map({op}, A, B; axes=[0, 1]); }}", (op, (2, 2))
        yield f"{op}-mixed", main, [matrix(4, 5, "i64", "row"), f64(5, 4, layout="col")], kernel
        yield f"{op}-wrong-extent", main, [matrix(4, 5, "i64", "row"), f64(6, 4)], kernel
    # Every minimum an int: the rows are still f64 arrays, as elementwise
    # gives for an f64 operand.
    yield "min2-ints-in-f64", "fn main(A, B) { return map(min2, A, B; axes=[0, 0]); }", \
        [NdArray((3, 4), "i64", "row", [-i for i in range(12)]),
         NdArray((3, 4), "f64", "row", [0.5] * 12)], ("min2", (2, 2))
    yield "div-by-zero", "fn main(A, B) { return map(div, A, B; axes=[0, 0]); }", \
        [f64(4, 5), NdArray((4, 5), "i64", "row", [1] * 12 + [0] * 8)], ("div", (2, 2))
    # A `/` that raises part way through the operator's elements, or through
    # row 1 of a two-level node's fold.
    yield "leaf-div-by-zero", "fn main(A, B) { return map(div, A, B; axes=[0, 0]); }", \
        [NdArray((4,), "i64", "row", [1, 2, 3, 4]), NdArray((4,), "i64", "row", [1, 0, 3, 4])], \
        ("div", (1, 1))
    yield "ratios-by-zero", "fn main(X, Y) { return map(ratios, X; axes=[0]); }", \
        [zero_at_1_1(), zero_at_1_1()], ("ratios", (2,))
    # Rows of rank 2 give arrays, which no map node kernel runs.
    yield "mins-rank-3", "fn main(A, B) { return map(mins, A, B; axes=[2, 0]); }", \
        [cube(3, 4, 2), NdArray((2, 3, 4), "f64", "row", [i / 3 for i in range(24)])], \
        ("mins", (3, 3), None)


def closure_run(program, inputs, traced):
    """Value (with element types) or error, trace length and digest, and
    counters of one run."""
    config = EvalConfig(trace=TraceSink() if traced else None)
    try:
        value = Interpreter(program, config).run(inputs)
        out = (value.shape, value.dtype, [(type(x), x) for x in value.data])
    except (EvalError, ShapeError) as exc:
        out = f"{type(exc).__name__}: {exc}"
    events = config.trace.events if traced else []
    c = config.counters
    return out, len(events), digest(events), (c.full_tile_calls, c.straggler_calls,
                                              c.bounds_checks)


@pytest.mark.parametrize("main, inputs, kernel",
                         [pytest.param(*case[1:], id=case[0]) for case in closure_cases()])
def test_closure_and_row_kernels_match_generic_twins(main, inputs, kernel):
    program = parse_program(CLOSURE_LIB + main)
    if kernel is not None:
        (name, ranks, *none), interp = kernel, Interpreter(program)
        built = interp._kernel(interp._function(name), ranks)
        assert built is None if none else built is not None
    for traced in (True, False):
        assert closure_run(program, inputs, traced) == \
            closure_run(with_generic_bodies(program), inputs, traced)


# Dots (`ir.body_shape`): `p = a OP b` reduced, each against the twin whose
# every function body takes the generic call path.
DOT_LIB = """
fn ident(x) { return x; }
fn sq(x) { return x * x; }
fn add2(a, b) { return a + b; }
fn max2(a, b) { return a max b; }
fn dot(x, y) { p = x * y; return reduce(ident, combine=add2, init=0.0, p; axes=[0]); }
fn sqdot(x, y) { p = x - y; return reduce(sq, combine=add2, init=0, p; axes=[0]); }
fn ratio(x, y) { p = x / y; return reduce(ident, combine=max2, init=-inf, p; axes=[0]); }
fn shifted(y) uses x { p = x - y; return reduce(sq, combine=add2, init=0, p; axes=[0]); }
"""

# Map nodes over a dot whose `x` each binds to its row.
DOT_NODES = """
fn shifts(x) uses Y { return map(shifted, Y; axes=[0]); }
fn quotient(y) uses x { p = y / x; return reduce(ident, combine=add2, init=0, p; axes=[0]); }
fn quotients(x) uses Y { return map(quotient, Y; axes=[0]); }
"""


def halves(rows, cols, layout):
    """An f64 matrix with no zero element."""
    return NdArray((rows, cols), "f64", layout, [(i % 7 + 1) / 2 for i in range(rows * cols)])


def dot_cases():
    """(id, main, inputs, kernels): `main` maps a dot over the rows of two
    matrices, of both dtypes and layouts, or over one matrix with a `uses`
    operand, or takes the allpairs of a dot, whose inner map runs the
    dot's kernel and whose outer map runs the inner's per row. `kernels`
    lists (function, operand ranks) whose kernel must exist. A `/` row
    that divides by zero raises; rows of different extents, rows of no
    element, a scalar or rank-2 `uses` operand make the kernel decline.
    A map node over a dot whose `x` is bound per row (`shifts`,
    `quotients`) is one loop over its rows and the dot's."""
    for fn in ("dot", "sqdot", "ratio"):
        main, kernel = f"fn main(A, B) {{ return map({fn}, A, B; axes=[0, 1]); }}", [(fn, (2, 2))]
        yield f"{fn}-f64", main, [f64(4, 5, layout="col"), halves(5, 4, "row")], kernel
        yield f"{fn}-i64", main, [matrix(4, 5, "i64", "row"), divisors((5, 4), "col")], kernel
        yield f"{fn}-mixed", main, [matrix(4, 5, "i64", "col"), halves(5, 4, "col")], kernel
        yield f"{fn}-unequal", main, [matrix(4, 5, "i64", "row"), f64(6, 4)], kernel
        yield f"{fn}-empty-rows", main, [matrix(3, 0, "i64", "row"), f64(0, 3)], kernel
    yield "ratio-by-zero", "fn main(A, B) { return map(ratio, A, B; axes=[0, 0]); }", \
        [f64(4, 5), NdArray((4, 5), "i64", "row", [1] * 12 + [0] * 8)], [("ratio", (2, 2))]
    main, kernel = "fn main(Y, x) { return map(shifted, Y; axes=[0]); }", [("shifted", (2,))]
    yield "shifted-f64", main, [f64(4, 5, layout="col"), cube(5)], kernel
    yield "shifted-f64-uses", main, [matrix(4, 5, "i64", "row"), f64(5)], kernel
    yield "shifted-i64", main, [matrix(4, 3, "i64", "row"),
                                slice_axis(NdArray((3, 5), "i64", "col", list(range(15))), 1, 2)], \
        kernel
    yield "shifted-unequal", main, [matrix(4, 5, "i64", "row"), cube(6)], kernel
    yield "shifted-scalar", main, [matrix(4, 5, "i64", "row"), 3], kernel
    yield "shifted-rank-2", main, [matrix(4, 5, "i64", "row"), matrix(5, 5, "i64", "col")], kernel
    for fn in ("dot", "sqdot", "ratio"):
        main = f"fn main(X, Y) {{ return allpairs({fn}, X, Y; axes=[1, 0]); }}"
        kernels = [(f"{fn}$apo", (2,)), (f"{fn}$api", (2,))]
        yield f"allpairs-{fn}", main, [f64(4, 3, layout="col"), divisors((5, 4), "row")], kernels
        yield f"allpairs-{fn}-unequal", main, [f64(4, 3), divisors((5, 5), "col")], kernels
    main = "fn main(X, Y) { return allpairs(ratio, X, Y; axes=[0, 0]); }"
    yield "allpairs-ratio-by-zero", main, \
        [f64(3, 4), NdArray((5, 4), "i64", "row", [1] * 14 + [0] + [2] * 5)], \
        [("ratio$apo", (2,)), ("ratio$api", (2,))]
    main, kernel = DOT_NODES + "fn main(X, Y) { return map(shifts, X; axes=[0]); }", \
        [("shifts", (2,))]
    yield "shifts-i64", main, [matrix(3, 4, "i64", "row"), matrix(5, 4, "i64", "col")], kernel
    yield "shifts-mixed", main, [f64(3, 4, layout="col"), matrix(2, 4, "i64", "row")], kernel
    yield "shifts-strided", main, [slice_axis(cube(3, 2, 4), 1, 1),
                                   slice_axis(cube(5, 3, 4), 1, 2)], kernel
    yield "shifts-columns", DOT_NODES + "fn main(X, Y) { return map(shifts, X; axes=[1]); }", \
        [matrix(4, 3, "i64", "col"), f64(5, 4)], kernel
    yield "shifts-unequal", main, [matrix(3, 4, "i64", "row"), f64(5, 3)], kernel
    yield "shifts-empty-rows", main, [matrix(3, 0, "i64", "row"), f64(5, 0)], kernel
    yield "shifts-no-rows", main, [matrix(3, 4, "i64", "row"), f64(0, 4)], kernel
    yield "shifts-rank-3", main, [matrix(3, 4, "i64", "row"), cube(2, 5, 4)], kernel
    main, kernel = DOT_NODES + "fn main(X, Y) { return map(quotients, X; axes=[0]); }", \
        [("quotients", (2,))]
    yield "quotients-i64", main, [divisors((3, 4), "col"), matrix(5, 4, "i64", "row")], kernel
    yield "quotients-by-zero", main, [NdArray((2, 3), "i64", "row", [1, 2, 3, 4, 0, 6]),
                                      matrix(3, 3, "f64", "col")], kernel


@pytest.mark.parametrize("main, inputs, kernels",
                         [pytest.param(*case[1:], id=case[0]) for case in dot_cases()])
def test_dot_kernels_match_generic_twins(main, inputs, kernels):
    program = desugar_allpairs(parse_program(DOT_LIB + main))
    interp = Interpreter(program)
    for name, ranks in kernels:
        assert interp._kernel(interp._function(name), ranks) is not None, name
    twin = with_generic_bodies(program)
    for traced in (True, False):
        assert closure_run(program, inputs, traced) == closure_run(twin, inputs, traced)


@pytest.mark.parametrize("lib, fn", [pytest.param(CLOSURE_LIB, "dot", id="leaf-node"),
                                     pytest.param(DOT_LIB, "shifted", id="dot")])
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_uses_operand_read_without_a_view(monkeypatch, lib, fn, traced):
    """A node kernel reads a rank-1 `uses` operand in place, as a row of
    stride 0: one call of a leaf node's kernel (`dot`, a reduce over `x`
    and its row) or of a dot's (`shifted`) builds no `View`."""
    program = parse_program(lib + "fn main(Y, x) { return map(%s, Y; axes=[0]); }" % fn)
    interp = Interpreter(program, EvalConfig(trace=TraceSink() if traced else None))
    kernel = interp._kernel(interp._function(fn), (2,))
    Y, x = matrix(4, 5, "i64", "col"), f64(5)
    if traced:
        interp._allocator = Allocator()
        for a in (Y, x):
            interp._allocator.allocate(a, reclaim=False)
    built, init = [], View.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(View, "__init__", counted)
    got = kernel([Y], (0,), 4, {"x": x}, None)
    monkeypatch.undo()
    assert (len(got), len(built)) == (4, 0)


def test_generic_twin_has_no_dot():
    """The twin of a program of dots describes none of its bodies as a dot,
    so the twins above compare the dot kernels with one call per row."""
    program = desugar_allpairs(parse_program(
        DOT_LIB + "fn main(X, Y) { return allpairs(dot, X, Y; axes=[0, 0]); }"))
    def dots(p):
        return {name for name, fn in p.functions.items() if (body_shape(fn) or "")[:1] == ("dot",)}
    assert dots(program) == {"sqdot", "ratio", "shifted", "dot$api"}
    assert dots(with_generic_bodies(program)) == set()


def test_no_sink_run_without_events():
    """A stack or a join of no element, and a node's rows of width 0, send
    no run to the sink: `map(copied, X)` over a 3 x 0 `X` makes no sink
    call, through the node's kernel or one call per row. No node case
    sends a run without events."""
    program = parse_program(NODE_LIB + "fn main(X) { return map(copied, X; axes=[0]); }")
    for p in (program, with_generic_bodies(program)):
        sink = NoEmptyRunSink()
        value = eval_program(p, [matrix(3, 0, "i64", "row")], EvalConfig(trace=sink))
        assert (value.shape, sink.runs) == ((3, 0), 0)
    for fn, axes, inputs in node_cases():
        names = ", ".join(f"X{i}" for i in range(len(inputs)))
        program = parse_program(NODE_LIB + f"fn main({names}) {{ return map({fn}, {names}; "
                                f"axes=[{', '.join(map(str, axes))}]); }}")
        for p in (program, with_generic_bodies(program)):
            try:
                eval_program(p, inputs, EvalConfig(trace=NoEmptyRunSink()))
            except EvalError:  # a case that divides by zero
                pass


def observed(program, inputs, tile_sizes):
    """Value (with element types), trace length and digest, and dispatch
    counters of one traced run."""
    value, events, c = traced_run(program, inputs, tile_sizes)
    if isinstance(value, NdArray):
        value = (value.shape, value.dtype, [(type(x), x) for x in value.data])
    else:
        value = (type(value), value)
    return value, len(events), digest(events), \
        (c.full_tile_calls, c.straggler_calls, c.bounds_checks)


def corpus_runs(seed, wide):
    """(inputs, [(program, tile sizes)]) of a random program: untiled,
    then, when the cache pass tiles it, the cache pass and the register
    pass at 16 registers, both at `sample_tile_sizes`."""
    program, inputs, arg_ranks = randprog.generate(seed, wide=wide)
    runs = [(program, {})]
    res = tile_program(program, arg_ranks=arg_ranks)
    if res.changed:
        reg_program, reg_spec = register_tile(res.program, res.spec, 16)
        sizes = randprog.sample_tile_sizes(res.spec, random.Random(seed))
        runs += [(res.program, res.spec.sizes(overrides=sizes)),
                 (reg_program, reg_spec.sizes(overrides=sizes))]
    return inputs, runs


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("chunk", range(4))
def test_random_programs_match_generic_twins(wide, chunk):
    """Every random program, untiled and after each tiling pass, gives the
    value, trace and counters of its twin whose nests all take the generic
    call path."""
    for seed in range(chunk * 50, chunk * 50 + 50):
        inputs, runs = corpus_runs(seed, wide)
        for p, tile_sizes in runs:
            twin = with_generic_bodies(p)
            assert twin != p
            assert observed(p, inputs, tile_sizes) == observed(twin, inputs, tile_sizes), seed


# One sha256 over `observed` of every run of `corpus_runs`, seeds 0-199,
# narrow then wide. The twins test compares two paths that can move
# together; this pins what both give. The second pin is over the same runs
# with f64 inputs (`as_f64`).
CORPUS_TRACES_PIN = "b056db1583defcb4d8e726fdd3d62f11d8047b4673fb347f33e581f56f61a50c"
CORPUS_F64_TRACES_PIN = "53b0fd0488a8cf559dc478996c651423c13bf7cd5a7e77066e9b7d20cff0cb9f"


def as_f64(inputs):
    """`inputs` with every array made f64, each element divided by 4 (exact
    for the generator's small ints); scalars as they are."""
    return [NdArray(x.shape, "f64", x.layout, [v / 4 for v in x.data])
            if isinstance(x, NdArray) else x for x in inputs]


def corpus_digest(convert):
    """One sha256 over `observed` of every run of `corpus_runs`, seeds
    0-199, narrow then wide, on the inputs `convert(inputs)`."""
    h = hashlib.sha256()
    for wide in (False, True):
        for seed in range(200):
            inputs, runs = corpus_runs(seed, wide)
            inputs = convert(inputs)
            for p, tile_sizes in runs:
                h.update(repr(observed(p, inputs, tile_sizes)).encode())
    return h.hexdigest()


def test_random_program_traces_pinned():
    """Values, traces and counters of the random corpus do not move:
    traced addresses depend on when temporaries die, which the twins test
    cannot see when both paths change alike."""
    assert corpus_digest(list) == CORPUS_TRACES_PIN


def test_random_program_f64_traces_pinned():
    """The same with f64 inputs, which the generator never makes: a tile's
    value and the output it takes a place in then carry f64."""
    assert corpus_digest(as_f64) == CORPUS_F64_TRACES_PIN


def random_outcomes(seed, wide, edge):
    """(run, value or error text, (full-tile calls, straggler calls,
    bounds checks)) of a random program: untiled, then, when the cache
    pass tiles it, the cache pass and the register pass at 16 and at 4
    registers. Runtime slots take `sample_tile_sizes`, register slots
    their fixed size."""
    program, inputs, arg_ranks = randprog.generate(seed, wide=wide, edge=edge)
    res = tile_program(program, arg_ranks=arg_ranks)
    runs = [("untiled", program, {})]
    if res.changed:
        runs.append(("cache", res.program, res.spec.sizes(
            randprog.sample_tile_sizes(res.spec, random.Random(seed)))))
        for registers in (16, 4):
            reg_program, spec = register_tile(res.program, res.spec, registers)
            runs.append((registers, reg_program, spec.sizes(
                randprog.sample_tile_sizes(spec, random.Random(seed)))))
    outcomes = []
    for name, p, sizes in runs:
        config = EvalConfig(tile_sizes=sizes)
        try:
            value = eval_program(p, inputs, config)
            out = (value.shape, value.dtype, value.data) if isinstance(value, NdArray) else value
        except (EvalError, ShapeError) as exc:
            out = f"{type(exc).__name__}: {exc}"
        c = config.counters
        outcomes.append((name, out, (c.full_tile_calls, c.straggler_calls, c.bounds_checks)))
    return outcomes


RANDOM_FLAVOURS = list(itertools.product((False, True), repeat=2))


def test_no_kernel_works_on_an_empty_extent_or_row(monkeypatch):
    """Over the random corpus, untiled and cache-tiled, no kernel is handed
    an extent of 0 and none asks `at` for a place whose shape holds a 0:
    an empty operator returns before its kernel, and rows of no element
    take the generic call path."""
    empty, kernel_of = [], Interpreter._kernel

    def watched_kernel(self, f, ranks):
        kernel = kernel_of(self, f, ranks)
        if kernel is None:
            return None

        def watched(views, axes, extent, captured, at=None):
            def watched_at(shape):
                if 0 in shape:
                    empty.append((f.fn.name, "at", shape))
                return at(shape)
            if not extent:
                empty.append((f.fn.name, "extent", 0))
            return kernel(views, axes, extent, captured, at and watched_at)
        return watched
    monkeypatch.setattr(Interpreter, "_kernel", watched_kernel)
    for seed in range(200):
        for wide, edge in RANDOM_FLAVOURS:
            program, inputs, arg_ranks = randprog.generate(seed, wide=wide, edge=edge)
            res = tile_program(program, arg_ranks=arg_ranks)
            runs = [(program, {})]
            if res.changed:
                runs.append((res.program, res.spec.sizes(
                    randprog.sample_tile_sizes(res.spec, random.Random(seed)))))
            for p, sizes in runs:
                try:
                    eval_program(p, inputs, EvalConfig(tile_sizes=sizes))
                except (EvalError, ShapeError):
                    pass
                assert not empty, (seed, wide, edge, empty)


def register_counters_digest():
    """One sha256 over (seed, flavour, registers, value or error text,
    full-tile calls, straggler calls, bounds checks) of every random
    program that both passes tile: seeds 0-199, narrow and wide, normal
    and edge extents, 16 and 4 registers (`random_outcomes`)."""
    h = hashlib.sha256()
    for seed in range(200):
        for wide, edge in RANDOM_FLAVOURS:
            for name, out, counters in random_outcomes(seed, wide, edge):
                if name in (16, 4):
                    h.update(repr((seed, wide, edge, name, out, *counters)).encode())
    return h.hexdigest()


REGISTER_COUNTERS_PIN = "bb19e332356e4de5fd216246e73f8cec7b2ca2cfe970ebfe69e16d0e4fe15033"


# Random programs (seed, wide, edge) whose outcomes producer fusion
# changes. The first tile only once a producer is fused; the others
# raised tiled unfused, and fused give the untiled value.
TILED_ONLY_FUSED = {(86, True, True), (93, True, False), (140, True, False),
                    (168, True, False), (168, True, True)}
RAISED_ONLY_UNFUSED = {(494, False, True): "EvalError: TiledReduce axis 2 out of range for rank 2",
                       (687, False, True): "EvalError: TiledReduce axis 2 out of range for rank 2"}


def test_fusion_keeps_random_program_outcomes(monkeypatch):
    """Fused against unfused, over the programs of
    `register_counters_digest` and the seeds above: every untiled and
    tiled value and error is the same, but for the programs listed above.
    Only counters move, which `REGISTER_COUNTERS_PIN` pins fused."""
    cases = [(seed, wide, edge) for seed in range(200) for wide, edge in RANDOM_FLAVOURS]
    cases += sorted(RAISED_ONLY_UNFUSED)
    fused = {case: [out for _, out, _ in random_outcomes(*case)] for case in cases}
    monkeypatch.setattr("tilepar.tiling.fuse_producers", lambda program, arg_ranks: program)
    only_fused = set()
    for case in cases:
        f, u = fused[case], [out for _, out, _ in random_outcomes(*case)]
        if len(u) == 1 < len(f):
            only_fused.add(case)
            u = u * len(f)
        if case in RAISED_ONLY_UNFUSED:
            assert u[1:] == [RAISED_ONLY_UNFUSED[case]] * 3
            u = u[:1] * len(u)
        assert f == u, case
    assert only_fused == TILED_ONLY_FUSED


def test_register_tiled_counters_pinned():
    """Values, errors and dispatch counters of register-tiled random runs,
    at 16 registers and at 4, where edge extents meet full register tiles
    with inner operators of every extent."""
    assert register_counters_digest() == REGISTER_COUNTERS_PIN


SIM_MODEL = CacheModel(1024, 64, 2)

# (accesses, hits, misses, evictions) under SIM_MODEL: untiled, then tiled.
SIM_PINS = {
    "sum_rows_col": ((70, 61, 9, 0), (140, 125, 15, 0)),
    "matmul_reg": ((1519, 1487, 32, 16), (2401, 2233, 168, 152)),
    "row_scan": ((192, 174, 18, 2), (342, 326, 16, 0)),
    "scan_of_array_steps": ((1140, 998, 142, 126), (1530, 1419, 111, 95)),
    "prefix_sum": ((20, 16, 4, 0), (38, 34, 4, 0)),
    "pairs": ((49, 39, 10, 0), (49, 43, 6, 0)),
    "row_scan_emit": ((140, 125, 15, 0), (405, 380, 25, 9)),
}


def totals(stats):
    return (stats.accesses, stats.hits, stats.misses, stats.evictions)


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulated_totals_pinned(name):
    src, inputs, registers, sizes = CASES[name]
    passes, spec = tile_case(src, inputs, registers)
    untiled, _ = simulate_program(desugar_allpairs(parse_program(src)), inputs, SIM_MODEL)
    tiled, _ = simulate_program(passes[-1], inputs, SIM_MODEL,
                                tile_sizes=spec.sizes(overrides=sizes))
    assert (totals(untiled), totals(tiled)) == SIM_PINS[name]


def benchmark_workloads():
    """`benchmarks/workloads.py`, loaded from its file: the benchmark's
    workloads, inputs and modelled hardware."""
    module = sys.modules.get("benchmark_workloads")
    if module is None:
        path = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
        spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


# The traced tiled run of each benchmark workload at the midpoint of its
# bounds, compiled as `benchmarks/run.py` compiles it (`--trace 1` reports
# the same event count and digest): (events, sha256).
BENCHMARK_PINS = {
    "rowsum-col256-tune": (
        77568, "66b57a722d807c33ec543a602441fd2e0eeb211f4f8e48f2a4ba66a0fbed9e86"),
    "matmul32-reg": (
        146432, "6c7d4daec135ab00eed93cc93010e6e2cfa193e529ffcc72b5de0b857e45604a"),
    "prefixscan-col192": (
        309696, "a636c14f124d2f91af375d1a86439197055ec0478f46d755fbaea9d348d1dd69"),
}

# (full-tile calls, straggler calls, bounds checks) of each midpoint run.
BENCHMARK_COUNTER_PINS = {
    "rowsum-col256-tune": (143, 13, 74240),
    "matmul32-reg": (1076, 0, 75776),
    "prefixscan-col192": (80, 10, 103488),
}

# Built-function calls of each workload's untiled eval and of its midpoint
# tiled eval, the same traced and untraced: a kernel path a workload loses
# shows as more calls. The untiled matmul is one call of `main`: its map
# runs `dot$apo` through the kernel of `dot$api`, a dot (`ir.body_shape`),
# which took 1,056 calls before dots had kernels.
BENCHMARK_CALL_PINS = {
    "rowsum-col256-tune": (1, 289),
    "matmul32-reg": (1, 1381),
    "prefixscan-col192": (1, 91),
}

# The tiles each midpoint run gathers at their places (`Counters.tiles_placed`).
BENCHMARK_PLACED_PINS = {
    "rowsum-col256-tune": 0,
    "matmul32-reg": 96,
    "prefixscan-col192": 90,
}

# (accesses, hits, misses, evictions) of each midpoint trace under the
# benchmark's cache model.
BENCHMARK_SIM_PINS = {
    "rowsum-col256-tune": (77568, 12449, 65119, 64607),
    "matmul32-reg": (146432, 145828, 604, 92),
    "prefixscan-col192": (309696, 295162, 14534, 14022),
}


def benchmark_case(name):
    """(untiled program, tiled program, midpoint tile sizes, inputs) of a
    benchmark workload, compiled as `benchmarks/run.py` compiles it."""
    bench = benchmark_workloads()
    wl = bench.WORKLOADS[name]
    program = desugar_allpairs(parse_program(wl.src))
    res = tile_program(program, arg_ranks=[2] * wl.operands)
    tiled, spec = res.program, res.spec
    if wl.registers:
        tiled, spec = register_tile(tiled, spec, bench.HW)
    space = estimate_bounds(tiled, spec, bench.HW, extents=wl.extents)
    sizes = spec.sizes(overrides=dict(zip(space.slot_ids, space.midpoint())))
    return program, tiled, sizes, wl.make_inputs(0)[1]


@pytest.mark.parametrize("name", sorted(BENCHMARK_PINS))
def test_benchmark_trace_pinned(name):
    _, tiled, sizes, inputs = benchmark_case(name)
    _, events, counters = traced_run(tiled, inputs, sizes)
    assert (len(events), digest(events)) == BENCHMARK_PINS[name]
    assert (counters.full_tile_calls, counters.straggler_calls,
            counters.bounds_checks) == BENCHMARK_COUNTER_PINS[name]
    assert counters.tiles_placed == BENCHMARK_PLACED_PINS[name]
    assert totals(simulate(events, benchmark_workloads().MODEL)) == BENCHMARK_SIM_PINS[name]


# (entries, sha256) of the allocation log of each workload's traced midpoint
# run: every (alloc or free, bytes, address) in the order the allocator
# sees them. A refactor that moves a free, and so perhaps no miss, fails here.
BENCHMARK_ALLOCATION_PINS = {
    "rowsum-col256-tune": (
        555, "079ad900a2793a4ae9ca96dc3fa9def5a3c1a92bbeaf214789cabc274498288b"),
    "matmul32-reg": (
        8940, "869ef597566295685808ce57bdbd921f8be5f373e66668216b823f4ff3af80b7"),
    "prefixscan-col192": (
        6501, "5c2c5141c603483f2a6d46fe69a63f16ed41d8059867242a54978dc3d232f449"),
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_ALLOCATION_PINS))
def test_benchmark_allocations_pinned(name, monkeypatch):
    _, tiled, sizes, inputs = benchmark_case(name)
    log, allocate, release = [], Allocator.allocate, Allocator._release

    def allocated(self, arr, reclaim=True):
        allocate(self, arr, reclaim)
        log.append(("alloc", (max(1, arr.size) * ELEM_SIZE + ALIGN - 1) // ALIGN * ALIGN,
                    arr.addr))
        return arr

    def released(self, ref):
        log.append(("free", *self.live[ref]))
        release(self, ref)
    monkeypatch.setattr(Allocator, "allocate", allocated)
    monkeypatch.setattr(Allocator, "_release", released)
    traced_run(tiled, inputs, sizes)
    got = (len(log), hashlib.sha256(repr(log).encode()).hexdigest())
    monkeypatch.undo()
    assert got == BENCHMARK_ALLOCATION_PINS[name]


@pytest.mark.parametrize("name", sorted(BENCHMARK_CALL_PINS))
def test_benchmark_calls_pinned(name, monkeypatch):
    program, tiled, sizes, inputs = benchmark_case(name)
    calls = counting_build(monkeypatch)
    for traced in (False, True):
        seen = []
        for p, tile_sizes in ((program, {}), (tiled, sizes)):
            calls.clear()
            eval_program(p, inputs, EvalConfig(tile_sizes=dict(tile_sizes),
                                               trace=TraceSink() if traced else None))
            seen.append(sum(calls.values()))
        assert tuple(seen) == BENCHMARK_CALL_PINS[name]


def test_matmul_builds_no_view_per_node_row(monkeypatch):
    """A map node over a fold builds no View per row: the untiled matmul's
    map over `dot$apo` builds none (32, one per row of `Xs`, when each row
    called the dot's kernel), and its midpoint tiled eval, cache tiles of
    8 x 8 x 8, 1,844 (at 6 x 6 x 6, whose cache tiles end in register
    stragglers, 5,248, and 9,120 when each register tile's row called its
    reduce's kernel)."""
    program, tiled, sizes, inputs = benchmark_case("matmul32-reg")
    built, init = [], View.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(View, "__init__", counted)
    seen = []
    for p, tile_sizes in ((program, {}), (tiled, sizes)):
        built.clear()
        eval_program(p, inputs, EvalConfig(tile_sizes=dict(tile_sizes)))
        seen.append(len(built))
    monkeypatch.undo()
    assert seen == [0, 1844]


# Every statement of the entry function is a phase, also one inside an if.
PHASED = """
fn ident(x) { return x; }
fn add2(a, b) { return a + b; }
fn sum_row(row) { return reduce(ident, combine=add2, init=0, row; axes=[0]); }
fn main(X) {
  Y = X * 2;
  s = map(sum_row, Y; axes=[0]);
  if s[0] { t = s + 1; } else { t = s; }
  return t;
}
"""


def test_phase_stats_pinned():
    sim = Simulator(SIM_MODEL)
    stats, value = simulate_program(parse_program(PHASED), [matrix(7, 9, "i64", "col")],
                                    SIM_MODEL, simulator=sim)
    assert value.to_nested() == [7, 1, -5, 11, 5, -1, -7]
    assert totals(stats) == (211, 193, 18, 2)
    assert [(label, *totals(ph)) for label, ph in sim.phase_stats] == [
        ("Y =", 126, 110, 16, 0),
        ("s =", 71, 70, 1, 1),
        ("t =", 14, 13, 1, 1),
        ("return", 0, 0, 0, 0),
    ]


IR_PINS = {
    "sum_rows_col": ("14c1d0c5804793911702139447aff043ae7001d170c929a8d08226f9f48fc1f2",),
    "matmul_reg": ("0982ec10c54e42e574828f19cffa3342e8e58bdbedad90699333e92a0c4b0425",
                   "0866df7ae4eb09c86551285003b44b1cfa084137ceb62c8b69c7f4e0811f39ac"),
    "row_scan": ("20ee8dc7902b058dec212cd6fd930dde79d5a0a3e8bce78938bce9dfe6a2fb7a",),
    "scan_of_array_steps": ("da98c23f366196b927166437b73cf84f616d79e8f7794c8a502515ed5fad1c01",),
    "prefix_sum": ("ec53dee07a9f86694ac14292ef3cc01cb599f639362d8867e741340b718771e0",),
    "pairs": ("f9bb8efeea3faebe9d24e5a8b431cdf3b0df89f3cc5b7ee6ec2d622e07afd532",),
    "row_scan_emit": ("134e531ff1d9c2e176864dc3fc5b01edc60111385bcea410924af578176fd3f2",),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_tiled_ir_pinned(name):
    src, inputs, registers, _ = CASES[name]
    passes, _ = tile_case(src, inputs, registers)
    texts = tuple(hashlib.sha256(print_program(p).encode()).hexdigest() for p in passes)
    assert texts == IR_PINS[name]


def test_truncated_tiled_ir_raises_only_ir_errors():
    """Every proper prefix of printed tiled IR either parses or raises an
    IRError: matmul after both passes (`fixed=N`), row sums, and a row
    scan with `emit`."""
    cases = (CASES["matmul_reg"][:3], CASES["sum_rows_col"][:3],
             (programs.ROW_SCAN_EMIT, [matrix(6, 8, "i64", "row")], 0))
    texts = [print_program(tile_case(*case)[0][-1]) for case in cases]
    assert "fixed=" in texts[0] and "emit=" in texts[2]
    for text in texts:
        for end in range(len(text)):
            try:
                parse_program(text[:end], allow_internal=True)
            except IRError:
                pass


def tiling_passes(cases, registers=16):
    """For every (program, entry ranks) case: the bail-out reason and no
    passes, or None and the (program, spec) after each tiling pass."""
    for program, arg_ranks in cases:
        res = tile_program(program, arg_ranks=arg_ranks)
        if not res.changed:
            yield res.reason, ()
        else:
            yield None, ((res.program, res.spec),
                         register_tile(res.program, res.spec, registers))


def randprog_cases(**flavour):
    """(program, entry ranks) of randprog seeds 0-199 in one flavour."""
    for seed in range(200):
        program, _, arg_ranks = randprog.generate(seed, **flavour)
        yield program, arg_ranks


def corpus_passes():
    """`tiling_passes` over the corpus: randprog seeds 0-199, narrow and
    wide, and the benchmark sources."""
    cases = []
    for seed in range(200):
        for wide in (False, True):
            program, _, arg_ranks = randprog.generate(seed, wide=wide)
            cases.append((program, arg_ranks))
    for src, arg_ranks in ((MATMUL_SRC, [2, 2]), (SUM_ROWS_SRC, [2]), (SQDIST_SRC, [2, 2])):
        cases.append((desugar_allpairs(parse_program(src)), arg_ranks))
    return tiling_passes(cases)


def tiling_digest(passes):
    """One sha256 over the printed IR and slot table after each tiling
    pass, or the bail-out reason, for every program of `passes`."""
    h = hashlib.sha256()
    for reason, programs_and_specs in passes:
        if reason is not None:
            h.update(f"untiled: {reason}\n".encode())
        for p, spec in programs_and_specs:
            h.update(print_program(p).encode())
            h.update(spec.table().encode())
    return h.hexdigest()


CORPUS_PIN = "288c3441fd03f5894288c1ddaac7bfc4b3ac15cb66514868f194e6666c92ee92"


def test_tiled_ir_corpus_pinned():
    """Both tiling passes print the same IR and slot tables over the
    random-program corpus and the benchmark sources."""
    assert tiling_digest(corpus_passes()) == CORPUS_PIN


# Randprog edge programs (input extents 0-3 change the random stream, and
# so the programs), narrow and wide, at 16 registers; and the corpus's
# narrow and wide programs at 4 registers, where register tiles are
# smaller.
OTHER_PROGRAMS_PIN = "8be3c823228de3b8c58e0736498148127fb2015e28376f200c7fec8fdd64b63b"


def other_programs_digest():
    return tiling_digest(itertools.chain(
        tiling_passes(randprog_cases(edge=True)),
        tiling_passes(randprog_cases(edge=True, wide=True)),
        tiling_passes(randprog_cases(), registers=4),
        tiling_passes(randprog_cases(wide=True), registers=4)))


def test_tiled_ir_edge_and_few_registers_pinned():
    """Both tiling passes print the same IR and slot tables, or give the
    same bail-out reason, beyond the corpus: over randprog edge programs
    and at 4 registers."""
    assert other_programs_digest() == OTHER_PROGRAMS_PIN


def corpus_content_digest():
    """`tiling_digest` of the corpus, blind to the order of the function
    table and to functions `main` does not reach: after each tiling pass,
    the printed functions reachable from `main`, sorted, and the slot
    table."""
    h = hashlib.sha256()
    for reason, passes in corpus_passes():
        if reason is not None:
            h.update(f"untiled: {reason}\n".encode())
        for p, spec in passes:
            texts = sorted(print_program(Program({n: p.functions[n]}))
                           for n in reachable(p, ["main"]))
            h.update("".join(texts).encode())
            h.update(spec.table().encode())
    return h.hexdigest()


CORPUS_CONTENT_PIN = "bea23ae9c6efed1be0aa3e1e393cdee42a872c8e6b104d99def948cb6d390e56"


def test_tiled_ir_corpus_content_pinned():
    """Both tiling passes build the same reachable functions and slot
    tables over the corpus, whatever order the table keeps them in and
    whatever dead functions it holds."""
    assert corpus_content_digest() == CORPUS_CONTENT_PIN


# The digests above as they were before the cache pass fused producers.
UNFUSED_PINS = {
    "register counters": "6716f4592d7960266c78b3f8ac57459ef80f637849211501cb5eaa91a53717ac",
    "corpus": "b9d37cf2ab82bba5afe7007a3800e6a4c1489ff51fe1e8ef7d62b9199e4681f3",
    "other programs": "e5582b0705269497e46b361edbb5a7671a84ffa74da32c51740c698ac3cfce6a",
    "corpus content": "e79c4bedd33799aaab8859d714ec630137ab8c480bf977d149d88aa66d61d02b",
}


def test_unfused_digests_are_those_before_fusion(monkeypatch):
    """With producer fusion off, tiling, values, errors and counters are
    those before fusion: the re-pinned digests move only by fusion, whose
    outcomes `test_fusion_keeps_random_program_outcomes` checks."""
    monkeypatch.setattr("tilepar.tiling.fuse_producers", lambda program, arg_ranks: program)
    assert {"register counters": register_counters_digest(),
            "corpus": tiling_digest(corpus_passes()),
            "other programs": other_programs_digest(),
            "corpus content": corpus_content_digest()} == UNFUSED_PINS


def test_tiled_corpus_invariants():
    """After each tiling pass over the corpus, `main` reaches every function
    of the table, no function is a fixed-size copy (`$k` in its name), and
    every tiled operator says its slot's fixed size: `fixed` is the size of
    a register slot and None for a runtime-tunable one."""
    for _, passes in corpus_passes():
        for p, spec in passes:
            assert set(p.functions) == set(reachable(p, ["main"]))
            assert not any("$k" in name for name in p.functions)
            sizes = {s.id: s.size for s in spec.slots}
            ops = [e for fn in p.functions.values() for e in walk_exprs(fn.body)
                   if isinstance(e, TILED_OPS)]
            assert all(e.fixed == sizes[e.slot] for e in ops)


def test_tiled_ir_corpus_round_trips():
    """Every program both tiling passes produce over the corpus, and a
    row scan whose tiled scan keeps an emit, parses back in the debug
    dialect to the same program and prints the same text."""
    tiled = [p for _, passes in corpus_passes() for p, _ in passes]
    tiled += tile_case(programs.ROW_SCAN_EMIT, [matrix(6, 8, "i64", "row")], 16)[0]
    assert any("emit=" in print_program(p) for p in tiled[-2:])
    for p in tiled:
        text = print_program(p)
        again = parse_program(text, allow_internal=True)
        assert again == p
        assert print_program(again) == text
