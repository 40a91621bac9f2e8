"""Acceptance suite: one test per top-level requirement, each printing a
PASS line (visible with -v / -s) and pinned to its stated tolerance.

Covered here:
  1. tiled/untiled oracle equivalence over 200 random programs
  2. golden tiled structure for 2-D row sums
  3. local-to-global axis remapping of the inner reduction
  4. control-flow bail-out with byte-identical reprint
  5. exhaustive straggler semantics and dispatch counts for 1 <= k <= L <= 64
  6. locality: miss behaviour of tiled vs untiled column-major row sums
  7. tuner convergence on the synthetic bowl surface
  8. benchmark correctness (matmul vs naive reference; k-means labels)
  9. register pass preserves the oracle; fixed sizes respect the budget;
     on the fused matmul it reorders input reads and tiling beats untiled
 10. the package imports only the standard library and itself
"""

import ast
import collections
import itertools
import json
import random
import sys
import time
from pathlib import Path

import pytest

import tilepar
from tilepar import ir
from tilepar.autotuner import (
    CostProbe, SearchConfig, SearchSpace, autotune, estimate_bounds, format_log, run_search,
)
from tilepar.bench import (
    MATMUL_SRC, generate_array, kmeans_reference, make_ir_distance,
    values_close,
)
from tilepar.cachesim import CacheModel, HardwareInfo, Simulator, simulate_program
from tilepar.ir import desugar_allpairs, parse_program, print_program
from tilepar.ndarray import ArrayValue, NdArray, ShapeError
from tilepar.semantics import EvalConfig, EvalError, TraceSink, eval_program
from tilepar.tiling import REGISTER_BUDGET, REGISTER_TILE_MIN, register_tile, tile_program

import programs
import randprog
from arrays import NoEmptyRunSink, naive_matmul

DATA = Path(__file__).parent / "data"


def norm_value(v):
    if isinstance(v, ArrayValue):
        items = tuple(v.get(i) for i in itertools.product(*(range(s) for s in v.shape)))
        return ("array", v.shape, items)
    return ("scalar", v)


# -- 1: oracle equivalence ------------------------------------------------------


def test_oracle_equivalence_200_random_programs():
    start = time.time()
    for seed in range(200):
        program, inputs, arg_ranks = randprog.generate(seed)
        base = norm_value(eval_program(program, inputs))
        result = tile_program(program, arg_ranks=arg_ranks)
        assert result.changed, f"seed {seed}: {result.reason}"
        rng = random.Random(seed * 7919 + 1)
        for _ in range(3):
            sizes = randprog.sample_tile_sizes(result.spec, rng)
            out = norm_value(eval_program(result.program, inputs,
                                          EvalConfig(tile_sizes=sizes)))
            assert out == base, f"seed {seed}, tile sizes {sizes}"
    elapsed = time.time() - start
    assert elapsed < 120, f"oracle suite took {elapsed:.1f}s"
    print(f"ACCEPTANCE oracle-equivalence (200 programs, {elapsed:.1f}s): PASS")


# -- 2: golden structure ---------------------------------------------------------


def test_row_sum_golden_tiled_structure():
    result = tile_program(parse_program(programs.SUM_ROWS))
    assert result.changed
    prog = result.program

    outer = prog.fn("main").body[-1].value
    assert isinstance(outer, ir.TiledMap) and outer.axes == (0,)
    mid = prog.fn(outer.fn).body[-1].value
    assert isinstance(mid, ir.TiledReduce)
    assert mid.init == ir.Const(0)  # init forwarded unchanged

    rebuilt_map = prog.fn(mid.fn).body[-1].value
    assert isinstance(rebuilt_map, ir.Map) and rebuilt_map.axes == (0,)
    rebuilt_reduce = prog.fn(rebuilt_map.fn).body[-1].value
    assert isinstance(rebuilt_reduce, ir.Reduce) and rebuilt_reduce.axes == (0,)
    assert rebuilt_reduce.combine == "add2"

    lifted = prog.fn(mid.combine).body[-1].value
    assert isinstance(lifted, ir.Map) and lifted.axes == (0, 0)
    assert prog.fn(lifted.fn).body[-1].value == ir.BinOp("+", ir.Var("a"), ir.Var("b"))
    print("ACCEPTANCE golden-structure: PASS")


# -- 3: axis remap ----------------------------------------------------------------


def test_inner_reduce_axis_remapped_to_global_axis_1():
    result = tile_program(parse_program(programs.SUM_ROWS))
    prog = result.program
    outer = prog.fn("main").body[-1].value
    mid = prog.fn(outer.fn).body[-1].value
    assert mid.axes == (1,)  # source reduce sliced local axis 0 of the row
    print("ACCEPTANCE axis-remap: PASS")


# -- 4: control-flow bail-out -------------------------------------------------------


@pytest.mark.parametrize("stmt", ["if v { return v; } else { return v + 1; }",
                                  "s = 0; for i in v { s = s + i; } return s;"])
def test_control_flow_bailout_byte_identical(stmt):
    src = f"""
    fn leaf(v) {{ {stmt} }}
    fn mid(row) {{ return map(leaf, row; axes=[0]); }}
    fn main(xs) {{ return map(mid, xs; axes=[0]); }}
    """
    p = parse_program(src)
    before = print_program(p)
    result = tile_program(p)
    assert not result.changed
    assert result.spec is None
    assert print_program(result.program) == before  # byte-identical reprint
    print("ACCEPTANCE control-flow-bailout: PASS")


# -- 5: straggler semantics ----------------------------------------------------------

TILED_MAP_SRC = """
fn add1(x) { return x + 1; }
fn tile_map(t) { return map(add1, t; axes=[0]); }
fn main(xs) { return tiledmap(tile_map, slot=0, depth=0, xs; axes=[0]); }
"""

TILED_SUM_SRC = """
fn ident(x) { return x; }
fn add2(a, b) { return a + b; }
fn tile_sum(t) { return reduce(ident, combine=add2, init=0, t; axes=[0]); }
fn main(xs) { return tiledreduce(tile_sum, slot=0, depth=0, combine=add2, init=0, xs; axes=[0]); }
"""

TILED_SCAN_SRC = """
fn ident(x) { return x; }
fn add2(a, b) { return a + b; }
fn tile_scan(t) { return scan(ident, combine=add2, init=0, t; axes=[0]); }
fn main(xs) { return tiledscan(tile_scan, slot=0, depth=0, combine=add2, init=0, xs; axes=[0]); }
"""


def _with_fixed_size(src, nested, k):
    """`src` with the slot of its tiled operator over `nested` of fixed size k."""
    return parse_program(src.replace(f"({nested}, slot=", f"({nested}, fixed={k}, slot="),
                         allow_internal=True)


def test_straggler_semantics_exhaustive():
    start = time.time()
    rng = random.Random(99)
    data = [rng.randrange(-50, 50) for _ in range(64)]
    for length in range(1, 65):
        xs = data[:length]
        arr = NdArray((length,), "i64", "row", xs)
        # Independent oracles: plain Python.
        expect_map = [x + 1 for x in xs]
        expect_sum = sum(xs)
        expect_scan = list(itertools.accumulate(xs))
        for k in range(1, length + 1):
            full, strag = length // k, (1 if length % k else 0)
            for src, nested, expected in (
                    (TILED_MAP_SRC, "tile_map", expect_map),
                    (TILED_SUM_SRC, "tile_sum", expect_sum),
                    (TILED_SCAN_SRC, "tile_scan", expect_scan)):
                p = _with_fixed_size(src, nested, k)
                cfg = EvalConfig(tile_sizes={0: k})
                out = eval_program(p, [arr], cfg)
                got = out.to_nested() if isinstance(out, ArrayValue) else out
                assert got == expected, (nested, length, k)
                assert cfg.counters.full_tile_calls == full, (nested, length, k)
                assert cfg.counters.straggler_calls == strag, (nested, length, k)
    elapsed = time.time() - start
    assert elapsed < 30, f"straggler sweep took {elapsed:.1f}s"
    print(f"ACCEPTANCE straggler-semantics (exhaustive L,k <= 64, {elapsed:.1f}s): PASS")


# -- 6: locality ------------------------------------------------------------------------

LOCALITY_MODEL = CacheModel(32 * 1024, 64, 8)


def _row_sum_case(n=256):
    p = parse_program(programs.SUM_ROWS)
    m = generate_array((n, n), "f64", "col", seed=0)
    result = tile_program(p)
    return p, result, m


def test_locality_strict_for_every_fitting_tile_pair():
    """Strong form of the locality claim: strictly fewer misses than the
    untiled run for EVERY tile pair whose working set fits the cache.

    This form is falsifiable on this machine model: single-row tiles and
    full-width column tiles reproduce the untiled visit order exactly
    (equal read misses, plus partial-result traffic), and 2048-byte stride
    aliasing makes wide column tiles thrash two sets just like the untiled
    loop. The sweep stops at the first counterexample.
    """
    n = 256
    untiled_prog, result, m = _row_sum_case(n)
    untiled, _ = simulate_program(untiled_prog, [m], LOCALITY_MODEL)
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            if r * c * 8 > LOCALITY_MODEL.capacity:
                continue
            tiled, _ = simulate_program(result.program, [m], LOCALITY_MODEL,
                                        tile_sizes={0: r, 1: c})
            assert tiled.misses < untiled.misses, (
                f"tile pair ({r},{c}): tiled misses {tiled.misses} not strictly "
                f"fewer than untiled {untiled.misses} (working set {r*c*8}B)")
    print("ACCEPTANCE locality-strict-sweep: PASS")


def test_locality_autotuned_miss_ratio_reduction():
    fixture = json.loads((DATA / "locality_fixture.json").read_text())
    n = 256
    untiled_prog, result, m = _row_sum_case(n)
    untiled, _ = simulate_program(untiled_prog, [m], LOCALITY_MODEL)
    assert untiled.misses == fixture["untiled_misses"]

    def probe_fn(sizes):
        stats, _ = simulate_program(result.program, [m], LOCALITY_MODEL,
                                    tile_sizes=dict(zip((0, 1), sizes)))
        return float(stats.misses)

    tuned, state = autotune(result.program, result.spec, CostProbe(probe_fn),
                            HardwareInfo(),
                            SearchConfig(batch_size=4, max_evaluations=16,
                                         seed=fixture["autotune_seed"]),
                            extents={0: n, 1: n})
    sizes = tuned.sizes()
    assert sizes == {int(k): v for k, v in fixture["tuned_sizes"].items()}
    stats_t, _ = simulate_program(result.program, [m], LOCALITY_MODEL, tile_sizes=sizes)
    assert stats_t.misses == fixture["tuned_misses"]
    reduction = untiled.miss_ratio / stats_t.miss_ratio
    assert reduction >= 2.0, f"miss ratio reduced only {reduction:.2f}x"
    assert abs(reduction - fixture["ratio_reduction"]) < 1e-9
    print(f"ACCEPTANCE locality-autotuned ({reduction:.1f}x miss-ratio reduction): PASS")


# -- 7: tuner convergence -----------------------------------------------------------------


def _bowl(sizes):
    x, y = sizes
    return 1.0 + ((x - 64) ** 2 + (y - 64) ** 2) / 32768.0


def test_bowl_convergence_fixed_seed():
    start = time.time()
    space = SearchSpace((0, 1), ((8, 256), (8, 256)))
    cfg = SearchConfig(batch_size=4, max_evaluations=20, no_improve_limit=10, seed=42)
    state = run_search(space, CostProbe(_bowl), cfg)

    best_within_20 = min(r.cost for r in state.log[:20] if r.cost is not None)
    assert best_within_20 <= 1.1  # within 10% of the optimum cost 1.0

    costs = [r.best_cost for r in state.log]
    assert all(a >= b for a, b in zip(costs, costs[1:]))  # non-increasing

    again = run_search(space, CostProbe(_bowl), cfg)
    assert format_log(state) == format_log(again)  # identical logs

    golden = (DATA / "bowl_seed42.log").read_text().strip()
    assert format_log(state) == golden

    elapsed = time.time() - start
    assert elapsed < 5
    print(f"ACCEPTANCE tuner-convergence (best {best_within_20:.4f} in <=20 evals): PASS")


# -- 8: benchmark correctness ----------------------------------------------------------


def test_matmul_variants_match_naive_reference():
    start = time.time()
    n = 64
    a = generate_array((n, n), "f64", "row", seed=0)
    b = generate_array((n, n), "f64", "row", seed=1)
    reference = naive_matmul(a, b)

    program = desugar_allpairs(parse_program(MATMUL_SRC))
    untiled = eval_program(program, [a, b])
    assert values_close(untiled, reference, rtol=1e-9)

    result = tile_program(program, arg_ranks=[2, 2])
    cache_sizes = {s.id: 16 for s in result.spec.runtime_slots()}
    cache_tiled = eval_program(result.program, [a, b],
                               EvalConfig(tile_sizes=cache_sizes))
    assert values_close(cache_tiled, reference, rtol=1e-9)

    reg_prog, reg_spec = register_tile(result.program, result.spec, 16)
    sizes = reg_spec.sizes(overrides=cache_sizes)
    both = eval_program(reg_prog, [a, b], EvalConfig(tile_sizes=sizes))
    assert values_close(both, reference, rtol=1e-9)
    elapsed = time.time() - start
    assert elapsed < 60, f"matmul correctness took {elapsed:.1f}s"
    print(f"ACCEPTANCE benchmark-matmul (64x64, {elapsed:.1f}s): PASS")


def test_kmeans_tiled_untiled_identical_labels():
    start = time.time()
    hw = HardwareInfo()
    data = generate_array((500, 16), "f64", "row", seed=0)
    labels_u, _ = kmeans_reference(data, 8, 3, seed=0, assign=make_ir_distance(hw))
    labels_t, _ = kmeans_reference(data, 8, 3, seed=0,
                                   assign=make_ir_distance(hw, tiled=True))
    assert labels_u == labels_t  # exact integer label comparison
    elapsed = time.time() - start
    assert elapsed < 60
    print(f"ACCEPTANCE benchmark-kmeans (500x16, 3 iters, {elapsed:.1f}s): PASS")


# -- 9: two-pass tiling -------------------------------------------------------------------


def test_register_pass_preserves_oracle_50_programs():
    registers = 16
    for seed in range(50):
        program, inputs, arg_ranks = randprog.generate(seed)
        base = norm_value(eval_program(program, inputs))
        result = tile_program(program, arg_ranks=arg_ranks)
        assert result.changed
        reg_prog, reg_spec = register_tile(result.program, result.spec, registers)
        # Fixed constants respect the register budget (or the floor).
        for slot in reg_spec.slots:
            if slot.kind != "register":
                continue
            node = _node_for_slot(reg_prog, slot.id)
            operands = len(node.args) + 1
            assert (operands * slot.size <= REGISTER_BUDGET * registers
                    or slot.size == REGISTER_TILE_MIN), slot
        rng = random.Random(seed * 31 + 5)
        for _ in range(2):
            overrides = randprog.sample_tile_sizes(reg_spec, rng)
            sizes = reg_spec.sizes(overrides=overrides)
            out = norm_value(eval_program(reg_prog, inputs,
                                          EvalConfig(tile_sizes=sizes)))
            assert out == base, f"seed {seed}, sizes {overrides}"
    print("ACCEPTANCE two-pass-tiling (50 programs): PASS")


@pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])
def test_edge_shape_oracle_both_passes(wide):
    # Input extents from 0-3: empty operands, single elements and tiles
    # wider than their operand. A tiled run must reproduce the untiled
    # value, shape and dtype, or fail with an evaluation or shape error;
    # any other outcome is a bug. Every run is traced into a sink that
    # raises on a run without events. An untiled Map over zero slices gives a
    # rank-1 result whatever its callee returns, which some tiled nests
    # cannot join along their depth: those raise, and must not grow.
    raised = []
    for seed in range(1000):
        program, inputs, arg_ranks = randprog.generate(seed, wide=wide, edge=True)
        base = eval_program(program, inputs, EvalConfig(trace=NoEmptyRunSink()))
        result = tile_program(program, arg_ranks=arg_ranks)
        if not result.changed:
            continue
        reg_prog, reg_spec = register_tile(result.program, result.spec, 16)
        sizes = randprog.sample_tile_sizes(result.spec, random.Random(seed))
        for tiled, tile_sizes in ((result.program, sizes),
                                  (reg_prog, reg_spec.sizes(overrides=sizes))):
            try:
                out = eval_program(tiled, inputs, EvalConfig(tile_sizes=tile_sizes,
                                                             trace=NoEmptyRunSink()))
            except (EvalError, ShapeError):
                raised.append(seed)
                continue
            assert (norm_value(out), _dtype(out)) == (norm_value(base), _dtype(base)), \
                (seed, tile_sizes)
    assert len(raised) <= (42 if not wide else 20), sorted(set(raised))
    print(f"ACCEPTANCE edge-shape-oracle ({'wide' if wide else 'narrow'}): "
          f"{len(raised)} tiled runs raise")


# The machine `benchmarks/workloads.py` models: 32 KB, 64-byte lines, 8
# ways, 16 registers.
MATMUL_HW = HardwareInfo(l1_bytes=32 * 1024, line_bytes=64, cores=1, registers=16,
                         provenance="configured")


def _matmul_runs(n, cache_sizes=None):
    """Matmul as written, n x n f64 inputs, and its cache-tiled and its
    cache+register-tiled programs with the runtime slot sizes of each at
    `cache_sizes` (slot id -> size), else at the midpoint of its bounds."""
    program = desugar_allpairs(parse_program(MATMUL_SRC))
    inputs = [generate_array((n, n), "f64", "row", seed) for seed in (1, 2)]
    result = tile_program(program, arg_ranks=[2, 2])
    runs = []
    for tiled, spec in ((result.program, result.spec),
                        register_tile(result.program, result.spec, MATMUL_HW)):
        space = estimate_bounds(tiled, spec, MATMUL_HW)
        sizes = cache_sizes or dict(zip(space.slot_ids, space.midpoint()))
        runs.append((tiled, spec.sizes(overrides=sizes)))
    return program, inputs, runs


def test_register_tiles_reorder_input_reads():
    # The product fused into the fold, the register tiles cut the k loop
    # of every cache tile: fewer input reads miss a 16-entry element LRU
    # (the registers) than in cache-tiled order. Inputs are placed first,
    # so a read below their end reads an input. Both runs use cache tiles
    # of 6 x 6 x 6, the midpoint without registers: each then ends in a
    # 2-wide register straggler, whose 2 x 2 x 2 blocks fit 16 registers.
    # In whole register tiles (4 x 4 x 4 or 8 x 8 x 8, where the bounds
    # with registers put the midpoint) the register-tiled reads miss
    # 40,960 times, against 40,960 and 36,864 cache-tiled at those sizes:
    # a 4-wide register tile's blocks of X and Y (32 elements) do not fit.
    _, inputs, runs = _matmul_runs(32, cache_sizes={0: 6, 1: 6, 2: 6})
    missed = []
    for tiled, sizes in runs:
        sink = TraceSink()
        eval_program(tiled, inputs, EvalConfig(tile_sizes=sizes, trace=sink))
        end = max(a.addr + a.size * 8 for a in inputs)
        lru, misses = collections.OrderedDict(), 0
        for addr, kind in sink.events:
            if kind != "R" or addr >= end:
                continue
            if addr in lru:
                lru.move_to_end(addr)
                continue
            misses += 1
            lru[addr] = None
            if len(lru) > 16:
                lru.popitem(last=False)
        missed.append(misses)
    cache_only, cache_and_registers = missed
    assert cache_and_registers < cache_only
    assert (cache_only, cache_and_registers) == (37248, 30688)
    print(f"ACCEPTANCE register-tile-locality: {cache_only} -> {cache_and_registers}: PASS")


def test_tiled_matmul_64_misses_below_untiled():
    # 64 KB of inputs against a 32 KB L1: at the midpoint sizes (cache
    # tiles of 8 x 8 x 8, whole register tiles), cache and register tiles
    # miss less than the untiled program as written.
    program, inputs, runs = _matmul_runs(64)
    untiled, _ = simulate_program(program, inputs, LOCALITY_MODEL)
    tiled, sizes = runs[1]
    stats, _ = simulate_program(tiled, inputs, LOCALITY_MODEL, tile_sizes=sizes)
    assert stats.misses < untiled.misses
    assert (untiled.misses, stats.misses) == (10624, 6676)
    print(f"ACCEPTANCE matmul-64-misses: {untiled.misses} -> {stats.misses}: PASS")


def _dtype(v):
    return v.dtype if isinstance(v, ArrayValue) else type(v).__name__


def _node_for_slot(program, slot_id):
    for fn in program.functions.values():
        for e in ir.walk_exprs(fn.body):
            if isinstance(e, ir.TILED_OPS) and e.slot == slot_id:
                return e
    raise AssertionError(f"slot {slot_id} not found")


class _InputMissSink:
    """A trace sink that replays each access through a `Simulator` of
    `model` on its own and counts, in `on_inputs`, the misses below `end`:
    the allocator places the inputs first, from address 0, and never
    reuses their blocks, so those are the misses on inputs."""

    def __init__(self, model, end):
        self.sim, self.end, self.on_inputs = Simulator(model), end, 0

    def run(self, addrs, kinds):
        stats, run = self.sim.stats, self.sim.run
        for addr, kind in zip(addrs, itertools.cycle(kinds)):
            before = stats.misses
            run((addr,), kind)
            if stats.misses > before and addr < self.end:
                self.on_inputs += 1

    def phase(self, label):
        pass


def test_tiled_prefix_scan_builds_tiles_in_place():
    # The benchmark's row prefix scan: 192 x 192 i64, column-major, at the
    # midpoint sizes. Each tile's scan and its carry fix-up write the tile's
    # place in the output, so tiling adds few misses on temporaries and the
    # output (31,938 when the tiles' results were concatenated) to the
    # input misses it removes (36,864 untiled).
    program = parse_program(programs.ROW_SCAN)
    inputs = [generate_array((192, 192), "i64", "col", 0)]
    res = tile_program(program, arg_ranks=[2])
    space = estimate_bounds(res.program, res.spec, MATMUL_HW)  # the benchmark's machine
    sizes = res.spec.sizes(overrides=dict(zip(space.slot_ids, space.midpoint())))
    untiled, _ = simulate_program(program, inputs, LOCALITY_MODEL)
    sink = _InputMissSink(LOCALITY_MODEL, 192 * 192 * 8)
    eval_program(res.program, inputs, EvalConfig(tile_sizes=sizes, trace=sink))
    tiled = sink.sim.stats.misses
    on_others = tiled - sink.on_inputs
    assert untiled.misses == 50688
    assert sink.on_inputs == 5952
    assert on_others * 3 <= 31938
    assert tiled * 2 < untiled.misses
    print(f"ACCEPTANCE prefix-scan-in-place: {untiled.misses} -> {tiled} "
          f"({sink.on_inputs} on inputs, {on_others} on temporaries and output): PASS")


def test_package_imports_only_the_standard_library():
    # The north star's "pure standard library": every module of the package
    # imports only standard modules, its own (relative) ones, or `tilepar`.
    outside = []
    for path in sorted(Path(tilepar.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {n}" for n in names
                        if n.split(".")[0] not in sys.stdlib_module_names | {"tilepar"}]
    assert not outside
    print("ACCEPTANCE standard library only: PASS")
