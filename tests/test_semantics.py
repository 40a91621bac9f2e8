import gc
import random
import weakref

import pytest

from tilepar.bench import MATMUL_SRC
from tilepar.cachesim import CacheModel, Simulator
from tilepar.ir import ValidationError, parse_program
from tilepar.ndarray import NdArray
from tilepar.semantics import EvalConfig, EvalError, TraceSink, eval_program

import programs


def vec(values):
    return NdArray.from_nested(list(values))


def run(src, args, allow_internal=False, config=None):
    p = parse_program(src, allow_internal=allow_internal)
    return eval_program(p, args, config)


# -- plain functions ----------------------------------------------------------


def test_scalar_function():
    assert run("fn main(x) { return x + 1; }", [41]) == 42


def test_index():
    assert run("fn main(xs) { return xs[1]; }", [vec([10, 20, 30])]) == 20


def test_index_out_of_bounds():
    with pytest.raises(EvalError, match="out of bounds"):
        run("fn main(xs) { return xs[5]; }", [vec([1, 2])])


def test_arity_mismatch():
    p = parse_program("fn main(x) { return x; }")
    with pytest.raises(EvalError, match="takes 1 argument"):
        eval_program(p, [])


def test_for_loop_sum():
    src = """
    fn main(xs) {
      s = 0;
      for x in xs { s = s + x; }
      return s;
    }
    """
    assert run(src, [vec([1, 2, 3])]) == 6


def test_return_inside_for_body():
    # The loop's body returns on its first row, which ends the function.
    src = "fn main(X) { for r in X { return r; } return X; }"
    X = NdArray.from_nested([[1, 2], [3, 4], [5, 6]])
    for sink in (None, TraceSink()):
        assert run(src, [X], config=EvalConfig(trace=sink)).to_nested() == [1, 2]


def test_if_branches():
    src = "fn main(x) { if x { return 1; } else { return 2; } }"
    assert run(src, [5]) == 1
    assert run(src, [0]) == 2


def test_array_literal_and_arith():
    src = "fn main(x) { ys = [1, 2, 3]; return ys[2] * x; }"
    assert run(src, [7]) == 21


def test_int_float_promotion():
    assert run("fn main(x) { return x + 1; }", [1.5]) == 2.5
    assert run("fn main(x) { return x / 2; }", [5]) == 2.5


# -- untiled operators ---------------------------------------------------------


def test_map_add1():
    out = run(programs.ADD1_MAP, [vec([1, 2, 3])])
    assert out.to_nested() == [2, 3, 4]


def test_map_empty_axis():
    out = run(programs.ADD1_MAP, [NdArray((0,), "i64")])
    assert out.shape == (0,)


def test_map_two_args():
    src = """
    fn add2(a, b) { return a + b; }
    fn main(xs, ys) { return map(add2, xs, ys; axes=[0, 0]); }
    """
    assert run(src, [vec([1, 2]), vec([10, 20])]).to_nested() == [11, 22]


def test_map_extent_mismatch():
    src = """
    fn add2(a, b) { return a + b; }
    fn main(xs, ys) { return map(add2, xs, ys; axes=[0, 0]); }
    """
    with pytest.raises(EvalError, match="extents differ"):
        run(src, [vec([1, 2]), vec([10, 20, 30])])


def test_reduce_sum():
    src = """
    fn ident(x) { return x; }
    fn add2(a, b) { return a + b; }
    fn main(xs) { return reduce(ident, combine=add2, init=0, xs; axes=[0]); }
    """
    assert run(src, [vec([1, 2, 3, 4])]) == 10


def test_reduce_empty_gives_init():
    src = """
    fn ident(x) { return x; }
    fn add2(a, b) { return a + b; }
    fn main(xs) { return reduce(ident, combine=add2, init=42, xs; axes=[0]); }
    """
    assert run(src, [NdArray((0,), "i64")]) == 42


def test_reduce_max():
    src = """
    fn ident(x) { return x; }
    fn max2(a, b) { return a max b; }
    fn main(xs) { return reduce(ident, combine=max2, init=-inf, xs; axes=[0]); }
    """
    assert run(src, [NdArray.from_nested([3.0, 1.0, 4.0, 1.0, 5.0])]) == 5.0


def test_sum_rows():
    m = NdArray.from_nested([[1, 2, 3], [4, 5, 6]])
    assert run(programs.SUM_ROWS, [m]).to_nested() == [6, 15]


def test_scan_prefix_sum():
    assert run(programs.PREFIX_SUM, [vec([1, 2, 3])]).to_nested() == [1, 3, 6]


def test_scan_single_element():
    assert run(programs.PREFIX_SUM, [vec([7])]).to_nested() == [7]


def test_scan_matches_reduce_tail():
    reduce_src = """
    fn ident(x) { return x; }
    fn add2(a, b) { return a + b; }
    fn main(xs) { return reduce(ident, combine=add2, init=0, xs; axes=[0]); }
    """
    rng = random.Random(7)
    for _ in range(50):
        xs = vec([rng.randrange(-50, 50) for _ in range(rng.randrange(1, 12))])
        scan_out = run(programs.PREFIX_SUM, [xs]).to_nested()
        total = run(reduce_src, [xs])
        assert scan_out[-1] == total


def test_scan_emit_function():
    src = """
    fn ident(x) { return x; }
    fn add2(a, b) { return a + b; }
    fn double(x) { return x * 2; }
    fn main(xs) { return scan(ident, combine=add2, emit=double, init=0, xs; axes=[0]); }
    """
    assert run(src, [vec([1, 2, 3])]).to_nested() == [2, 6, 12]


def test_closure_parameters_bind_at_site():
    src = """
    fn scale(x) uses c { return x * c; }
    fn main(xs, c) { return map(scale, xs; axes=[0]); }
    """
    assert run(src, [vec([1, 2, 3]), 10]).to_nested() == [10, 20, 30]


def test_map_axis1():
    src = """
    fn ident(x) { return x; }
    fn add2(a, b) { return a + b; }
    fn sum_col(col) { return reduce(ident, combine=add2, init=0, col; axes=[0]); }
    fn main(Xs) { return map(sum_col, Xs; axes=[1]); }
    """
    m = NdArray.from_nested([[1, 2, 3], [4, 5, 6]])
    assert run(src, [m]).to_nested() == [5, 7, 9]


# -- tiled operators -------------------------------------------------------------

TILED_MAP = """
fn add1(x) { return x + 1; }
fn tile_map(t) { return map(add1, t; axes=[0]); }
fn main(xs) { return tiledmap(tile_map, slot=0, depth=0, xs; axes=[0]); }
"""

TILED_SUM = """
fn ident(x) { return x; }
fn add2(a, b) { return a + b; }
fn tile_sum(t) { return reduce(ident, combine=add2, init=0, t; axes=[0]); }
fn main(xs) { return tiledreduce(tile_sum, slot=0, depth=0, combine=add2, init=0, xs; axes=[0]); }
"""

TILED_SCAN = """
fn ident(x) { return x; }
fn add2(a, b) { return a + b; }
fn tile_scan(t) { return scan(ident, combine=add2, init=0, t; axes=[0]); }
fn main(xs) { return tiledscan(tile_scan, slot=0, depth=0, combine=add2, init=0, xs; axes=[0]); }
"""


def tiled_config(k, **kw):
    return EvalConfig(tile_sizes={0: k}, **kw)


@pytest.mark.parametrize("divisor", ["0", "0.0"])
@pytest.mark.parametrize("tiled", [False, True], ids=["untiled", "tiled"])
def test_division_by_zero_is_an_eval_error(tiled, divisor):
    src = (TILED_MAP if tiled else programs.ADD1_MAP).replace("x + 1", f"x / {divisor}")
    with pytest.raises(EvalError, match="arithmetic error: .*division by zero"):
        run(src, [vec([1, 2, 3])], allow_internal=tiled, config=tiled_config(2))


def test_tiled_map_matches_untiled():
    xs = vec(range(1, 11))
    out = run(TILED_MAP, [xs], allow_internal=True, config=tiled_config(4))
    assert out.to_nested() == list(range(2, 12))


def test_tiled_map_single_full_tile():
    xs = vec(range(1, 11))
    cfg = tiled_config(10)
    out = run(TILED_MAP, [xs], allow_internal=True, config=cfg)
    assert out.to_nested() == list(range(2, 12))
    assert cfg.counters.full_tile_calls == 1
    assert cfg.counters.straggler_calls == 0


def test_tiled_map_dispatch_counts():
    xs = vec(range(1, 11))
    cfg = tiled_config(3)
    run(TILED_MAP, [xs], allow_internal=True, config=cfg)
    assert cfg.counters.full_tile_calls == 3
    assert cfg.counters.straggler_calls == 1


def test_tiled_sum():
    xs = vec(range(1, 11))
    assert run(TILED_SUM, [xs], allow_internal=True, config=tiled_config(4)) == 55


def test_tiled_sum_straggler_only():
    xs = vec([3, 4])
    cfg = tiled_config(5)
    assert run(TILED_SUM, [xs], allow_internal=True, config=cfg) == 7
    assert cfg.counters.full_tile_calls == 0
    assert cfg.counters.straggler_calls == 1


def test_tiled_scan():
    xs = vec(range(1, 11))
    out = run(TILED_SCAN, [xs], allow_internal=True, config=tiled_config(4))
    assert out.to_nested() == [1, 3, 6, 10, 15, 21, 28, 36, 45, 55]


def test_tiled_scan_k_at_least_extent():
    xs = vec(range(1, 6))
    out = run(TILED_SCAN, [xs], allow_internal=True, config=tiled_config(9))
    assert out.to_nested() == [1, 3, 6, 10, 15]


def test_tiled_scan_random_against_untiled():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randrange(1, 20)
        xs = [rng.randrange(-30, 30) for _ in range(n)]
        k = rng.randrange(1, n + 1)
        tiled = run(TILED_SCAN, [vec(xs)], allow_internal=True, config=tiled_config(k))
        untiled = run(programs.PREFIX_SUM, [vec(xs)])
        assert tiled.to_nested() == untiled.to_nested()


def test_tiled_missing_slot_size():
    with pytest.raises(EvalError, match="no tile size"):
        run(TILED_MAP, [vec([1, 2, 3])], allow_internal=True, config=EvalConfig())


def fixed_map(k):
    """TILED_MAP with its slot of fixed size k."""
    return TILED_MAP.replace("tiledmap(tile_map, ", f"tiledmap(tile_map, fixed={k}, ")


def test_fixed_size_full_tiles_skip_checks():
    cfg = tiled_config(4)
    out = run(fixed_map(4), [vec(range(1, 11))], allow_internal=True, config=cfg)
    assert out.to_nested() == list(range(2, 12))
    # The operators of two full tiles had extent 4 and counted no check;
    # the straggler's (extent 2) counted 2.
    assert (cfg.counters.full_tile_calls, cfg.counters.straggler_calls) == (2, 1)
    assert cfg.counters.bounds_checks == 2


def test_fixed_size_rejects_another_tile_size():
    with pytest.raises(EvalError, match="specialised for fixed size 3, dispatched with k=4"):
        run(fixed_map(3), [vec(range(1, 11))], allow_internal=True, config=tiled_config(4))
    # Without a full tile the fixed size is never relied on, and nothing is wrong.
    cfg = tiled_config(4)
    out = run(fixed_map(3), [vec(range(1, 4))], allow_internal=True, config=cfg)
    assert out.to_nested() == [2, 3, 4]
    assert cfg.counters.bounds_checks == 3


def test_generic_path_counts_bounds_checks():
    cfg = EvalConfig()
    run(programs.ADD1_MAP, [vec([1, 2, 3, 4])], config=cfg)
    assert cfg.counters.bounds_checks == 4


@pytest.mark.parametrize("op", [
    "map(ident, t; axes=[0])",
    "reduce(ident, combine=add2, init=0, t; axes=[0])",
    "scan(ident, combine=add2, init=0, t; axes=[0])",
])
def test_fixed_size_checks_go_by_extent_on_fused_loops(op):
    # The operator's callee and combine are elementary, so it runs as one
    # fused loop; in a full tile it still counts checks by its extent. A
    # full tile is k long along the tiled axis, so the tile function
    # rebinds its parameter to slice it there at another extent.
    src = f"""
    fn ident(x) {{ return x; }}
    fn add2(a, b) {{ return a + b; }}
    fn row_op(t) {{ t = t[0]; return {op}; }}
    fn main(Xs) {{
      return tiledreduce(row_op, fixed=3, slot=0, depth=0, combine=add2, init=0, Xs; axes=[0]);
    }}
    """
    p = parse_program(src, allow_internal=True)
    for k, row, checks in ((3, [1, 2, 3], 0),  # one full tile, its operator of extent 3
                           (3, [1, 2, 3, 4], 4),  # one full tile, its operator of extent 4
                           (4, [1, 2, 3, 4], 4)):  # one straggler
        cfg = tiled_config(k)
        eval_program(p, [NdArray.from_nested([row] * 3)], cfg)
        assert cfg.counters.bounds_checks == checks, (k, row)


def test_fixed_size_rule_stays_in_the_tile_functions_frame():
    # The tile function's own map has extent 4 and counts no check, but
    # the reduce in its callee does, although it reads the same tile
    # through `uses t` at extent 4: 4 rows of 4 checks in each of 2 tiles.
    src = """
    fn ident(x) { return x; }
    fn add2(a, b) { return a + b; }
    fn col_sums(r) uses t { return reduce(ident, combine=add2, init=0, t; axes=[0]); }
    fn tile(t) { return map(col_sums, t; axes=[0]); }
    fn main(X) { return tiledmap(tile, fixed=4, slot=0, depth=0, X; axes=[0]); }
    """
    cfg = tiled_config(4)
    xs = NdArray.from_nested([[4 * i + j for j in range(4)] for i in range(8)])
    out = run(src, [xs], allow_internal=True, config=cfg)
    assert out.to_nested() == [[24, 28, 32, 36]] * 4 + [[88, 92, 96, 100]] * 4
    assert (cfg.counters.full_tile_calls, cfg.counters.bounds_checks) == (2, 32)


def test_fixed_size_rule_stays_out_of_an_inner_straggler():
    # An inner tiled operator over an empty axis runs its one empty
    # straggler, the whole full tile, through its own tile function, whose
    # map of extent 2 counts its checks: 2 in each of the 2 full tiles.
    src = """
    fn add1(x) { return x + 1; }
    fn rows(s) { return map(add1, s; axes=[0]); }
    fn tile(t) { return tiledmap(rows, slot=1, depth=1, t; axes=[1]); }
    fn main(X) { return tiledmap(tile, fixed=2, slot=0, depth=0, X; axes=[0]); }
    """
    cfg = EvalConfig(tile_sizes={0: 2, 1: 3})
    out = run(src, [NdArray((4, 0), "i64", "row", [])], allow_internal=True, config=cfg)
    assert out.shape == (4, 0)
    assert (cfg.counters.full_tile_calls, cfg.counters.straggler_calls) == (2, 2)
    assert cfg.counters.bounds_checks == 4


def test_missing_function_raises_only_when_reached():
    p = parse_program("""
    fn ident(x) { return x; }
    fn main(c, xs) { if c { return map(ident, xs; axes=[0]); } else { return 0; } }
    """)
    del p.functions["ident"]
    assert eval_program(p, [0, vec([1, 2])]) == 0
    with pytest.raises(ValidationError, match="no function named 'ident'"):
        eval_program(p, [1, vec([1, 2])])


def test_allpairs_must_be_desugared():
    p = parse_program(MATMUL_SRC)
    xs = NdArray.from_nested([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(EvalError, match="^AllPairs must be desugared before evaluation$"):
        eval_program(p, [xs, xs])


@pytest.mark.parametrize("make_sink", [TraceSink, lambda: Simulator(CacheModel(1024, 64, 2))],
                         ids=["TraceSink", "Simulator"])
def test_finished_run_is_freed_without_the_cycle_collector(make_sink):
    # The built closures refer back to the interpreter; a finished run
    # must not keep it, its config and its trace sink alive in a cycle.
    sink = make_sink()
    ref = weakref.ref(sink)
    config = EvalConfig(trace=sink)
    gc.disable()
    try:
        assert run(programs.SUM_ROWS, [NdArray.from_nested([[1, 2], [3, 4]])],
                   config=config).to_nested() == [3, 7]
        del sink, config
        assert ref() is None
    finally:
        gc.enable()
