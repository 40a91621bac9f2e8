import hashlib
import itertools
import json
import math
import random

import pytest

from tilepar.autotuner import (
    AutotuneError, CostProbe, SearchConfig, SearchSpace, autotune,
    default_estimator, estimate_bounds, format_log, run_search,
)
from tilepar.cachesim import CacheModel, HardwareInfo, simulate_program
from tilepar.ir import parse_program
from tilepar.ndarray import NdArray
from tilepar.tiling import tile_program

import programs

BOWL_OPT = (64, 64)


def bowl(sizes):
    x, y = sizes
    return 1.0 + ((x - BOWL_OPT[0]) ** 2 + (y - BOWL_OPT[1]) ** 2) / 32768.0


def bowl_space():
    return SearchSpace((0, 1), ((8, 256), (8, 256)))


# -- bounds ---------------------------------------------------------------------


def test_estimator_monotone_and_bounded():
    lo, hi = default_estimator(2, 3, 32 * 1024)
    assert 1 <= lo <= hi
    assert 3 * (hi ** 2) * 8 <= 32 * 1024 * 3  # square tiles fill at most L1 per array
    lo2, hi2 = default_estimator(2, 3, 64 * 1024)
    assert hi2 >= hi


def test_estimate_bounds_row_sum():
    p = parse_program(programs.SUM_ROWS)
    res = tile_program(p)
    space = estimate_bounds(res.program, res.spec, HardwareInfo())
    assert space.slot_ids == (0, 1)
    for lo, hi in space.bounds:
        assert 1 <= lo <= hi


def test_estimate_bounds_clamps_to_extent():
    p = parse_program(programs.SUM_ROWS)
    res = tile_program(p)
    space = estimate_bounds(res.program, res.spec, HardwareInfo(),
                            extents={0: 5, 1: 5})
    for lo, hi in space.bounds:
        assert hi <= 5
        assert lo >= 1


def test_estimate_bounds_tiny_cache_floors_at_one():
    p = parse_program(programs.SUM_ROWS)
    res = tile_program(p)
    space = estimate_bounds(res.program, res.spec, HardwareInfo(l1_bytes=16))
    for lo, hi in space.bounds:
        assert lo == 1


def test_matmul_bounds_working_set():
    from tilepar.ir import desugar_allpairs
    p = desugar_allpairs(parse_program(programs.MATMUL))
    res = tile_program(p, arg_ranks=[2, 2])
    space = estimate_bounds(res.program, res.spec, HardwareInfo())
    assert len(space.slot_ids) == 3
    for lo, hi in space.bounds:
        assert lo <= hi
        # Optimistic square tiles keep the estimated working set within L1.
        assert 3 * (hi ** 3) * 8 <= 32 * 1024 * (hi ** 2) * 3


def matmul_space(registers, extents=None):
    """The bounds of 32 x 32 matmul on the benchmark's machine (32 KB L1,
    16 registers), cache-tiled and, when `registers`, register-tiled."""
    from tilepar.ir import desugar_allpairs
    from tilepar.tiling import register_tile
    hw = HardwareInfo(l1_bytes=32 * 1024, registers=16)
    res = tile_program(desugar_allpairs(parse_program(programs.MATMUL)), arg_ranks=[2, 2])
    tiled, spec = register_tile(res.program, res.spec, hw) if registers else (res.program, res.spec)
    return estimate_bounds(tiled, spec, hw, extents=extents or {0: 32, 1: 32, 2: 32})


def test_matmul_bounds_in_whole_register_tiles():
    """Register tiles of 4 sit in the nest's tile functions, so every cache
    slot is bounded and centred in multiples of 4: 3-9 rounds inward to
    4-8, and 6 goes to 8, the larger of the two nearest multiples."""
    with_registers = matmul_space(True)
    assert with_registers.bounds == ((4, 8),) * 3
    assert with_registers.steps == (4, 4, 4)
    assert with_registers.midpoint() == (8, 8, 8)
    cache_only = matmul_space(False)
    assert cache_only.bounds == ((3, 9),) * 3
    assert cache_only.steps == (1, 1, 1)
    assert cache_only.midpoint() == (6, 6, 6)


@pytest.mark.parametrize("seed", range(8))
def test_stepped_candidates_are_whole_register_tiles(seed):
    """Every candidate of a stepped slot is a multiple of its step within
    its bounds: on matmul's space and on a wider one with mixed steps."""
    cfg = SearchConfig(batch_size=4, max_evaluations=40, no_improve_limit=100, seed=seed)
    for space in (matmul_space(True),
                  SearchSpace((0, 1, 2), ((4, 32), (8, 16), (3, 20)), (4, 8, 1))):
        state = run_search(space, CostProbe(lambda s: float(sum(s))), cfg)
        for rec in state.log:
            for s, (lo, hi), r in zip(rec.candidate, space.bounds, space.steps):
                assert s % r == 0 and lo <= s <= hi
        assert len({rec.candidate for rec in state.log}) > 4


def test_slot_with_no_whole_register_tile_keeps_its_bounds():
    """Extents of 3 and 2 hold no multiple of 4: those slots keep their
    bounds with step 1, and the third slot is still stepped."""
    space = matmul_space(True, extents={0: 3, 1: 2, 2: 32})
    assert space.bounds == ((3, 3), (2, 2), (4, 8))
    assert space.steps == (1, 1, 4)
    assert space.midpoint() == (3, 2, 8)


@pytest.mark.parametrize("bounds, step, mid", [((4, 8), 4, 8), ((4, 12), 4, 8),
                                               ((8, 16), 8, 16), ((3, 9), 3, 6), ((4, 4), 4, 4)])
def test_midpoint_is_the_nearest_multiple_ties_up(bounds, step, mid):
    assert SearchSpace((0,), (bounds,), (step,)).midpoint() == (mid,)


def test_stepped_bounds_must_be_multiples():
    with pytest.raises(AutotuneError):
        SearchSpace((0,), ((3, 8),), (4,))


def test_bare_space_logs_unstepped_candidates():
    """A SearchSpace given no steps draws as with step 1 everywhere, and
    logs the candidates it logged before slots had steps."""
    def smooth(sizes):
        return 1.0 + sum((s - 40) ** 2 for s in sizes) / 4096.0

    cfg = SearchConfig(batch_size=4, max_evaluations=13, no_improve_limit=100, seed=11)
    logs = [[r.candidate for r in run_search(space, CostProbe(smooth), cfg).log]
            for space in (SearchSpace((0, 1), ((3, 90), (5, 5))),
                          SearchSpace((0, 1), ((3, 90), (5, 5)), (1, 1)))]
    assert logs[0] == logs[1] == [
        (46, 5), (3, 5), (89, 5), (3, 5), (67, 5), (3, 5), (77, 5), (90, 5),
        (42, 5), (90, 5), (8, 5), (46, 5), (27, 5)]


# -- search mechanics --------------------------------------------------------------


def test_best_cost_non_increasing():
    cfg = SearchConfig(batch_size=4, max_evaluations=40, no_improve_limit=100, seed=7)
    state = run_search(bowl_space(), CostProbe(bowl), cfg)
    costs = [r.best_cost for r in state.log]
    assert all(a >= b for a, b in zip(costs, costs[1:]))


def test_candidates_stay_in_bounds():
    cfg = SearchConfig(batch_size=8, max_evaluations=60, no_improve_limit=100, seed=5)
    state = run_search(bowl_space(), CostProbe(bowl), cfg)
    for rec in state.log:
        for s, (lo, hi) in zip(rec.candidate, state.space.bounds):
            assert lo <= s <= hi


def test_budget_safety():
    cfg = SearchConfig(batch_size=4, max_evaluations=10, no_improve_limit=1000, seed=1)
    state = run_search(bowl_space(), CostProbe(bowl), cfg)
    assert state.evaluations <= cfg.max_evaluations + cfg.batch_size


@pytest.mark.parametrize("budget, batch, logged", [(6, 4, 9), (2, 4, 5), (5, 4, 5), (1, 4, 1)])
def test_budget_is_checked_before_each_round(budget, batch, logged):
    """The budget stops the search only between rounds: the midpoint and
    every round's whole batch are logged, so the last round may pass it."""
    cfg = SearchConfig(batch_size=batch, max_evaluations=budget, no_improve_limit=1000, seed=1)
    state = run_search(bowl_space(), CostProbe(bowl), cfg)
    assert (len(state.log), state.evaluations) == (logged, logged)
    assert logged == 1 + batch * math.ceil((budget - 1) / batch)


def test_zero_sigma_terminates_by_no_improvement():
    space = SearchSpace((0,), ((16, 16),))
    cfg = SearchConfig(batch_size=2, max_evaluations=100, no_improve_limit=3, seed=0)
    state = run_search(space, CostProbe(lambda s: float(s[0])), cfg)
    assert state.best == (16,)
    assert state.no_improve_rounds >= 3
    assert state.evaluations < 100


def test_probe_failures_discarded():
    calls = []

    def flaky(sizes):
        calls.append(sizes)
        if sizes[0] % 2:
            raise RuntimeError("boom")
        return float(sizes[0])

    space = SearchSpace((0,), ((8, 64),))
    cfg = SearchConfig(batch_size=4, max_evaluations=20, no_improve_limit=50, seed=3)
    state = run_search(space, CostProbe(flaky), cfg)
    failed = [r for r in state.log if r.cost is None]
    assert failed, "expected some candidates to fail"
    assert not math.isinf(state.best_cost)
    assert state.best[0] % 2 == 0


def test_all_probes_failing_falls_back_to_midpoint():
    space = SearchSpace((0, 1), ((8, 16), (8, 16)))

    def dead(sizes):
        raise RuntimeError("nope")

    cfg = SearchConfig(batch_size=2, max_evaluations=6, no_improve_limit=2, seed=0)
    state = run_search(space, CostProbe(dead), cfg)
    assert state.best == space.midpoint()


def test_deterministic_logs_for_fixed_seed():
    cfg = SearchConfig(batch_size=4, max_evaluations=20, no_improve_limit=3, seed=42)
    a = run_search(bowl_space(), CostProbe(bowl), cfg)
    b = run_search(bowl_space(), CostProbe(bowl), cfg)
    assert format_log(a) == format_log(b)


def test_bowl_convergence_seed42():
    cfg = SearchConfig(batch_size=4, max_evaluations=20, no_improve_limit=10, seed=42)
    state = run_search(bowl_space(), CostProbe(bowl), cfg)
    best_within_20 = min(r.cost for r in state.log[:20] if r.cost is not None)
    assert best_within_20 <= 1.1  # within 10% of the bowl optimum (1.0)


def search_grid():
    """Searches over spaces with wide, zero and mixed sigmas and with
    mostly duplicate candidates, probes that succeed, sometimes raise or
    always raise, and a range of seeds, batch sizes, no-improvement limits
    and budgets."""
    spaces = (bowl_space(), SearchSpace((0,), ((16, 16),)),
              SearchSpace((0, 1), ((1, 3), (1, 3))), SearchSpace((0, 1), ((8, 64), (5, 5))))

    def smooth(sizes):
        return 1.0 + sum((s - 40) ** 2 for s in sizes) / 4096.0

    def flaky(sizes):
        if sizes[0] % 2:
            raise RuntimeError("odd")
        return smooth(sizes)

    def dead(sizes):
        raise RuntimeError("nope")

    for space, fn, seed, batch, limit, budget in itertools.product(
            spaces, (smooth, flaky, dead), range(5), (1, 3, 4), (1, 3, 10), (6, 20)):
        cfg = SearchConfig(batch_size=batch, max_evaluations=budget,
                           no_improve_limit=limit, seed=seed)
        yield run_search(space, CostProbe(fn), cfg)


# sha256 of `search_grid`'s logs and final states.
SEARCH_PIN = "4056ced4f6f6982a81764d4ffa55695aebaca54fcb23fc6cef87cfce4f8386d0"


def test_search_grid_pinned():
    """Every search of the grid logs the same candidates and costs, and
    ends in the same state."""
    h = hashlib.sha256()
    for state in search_grid():
        h.update(format_log(state).encode())
        h.update(repr((state.best, state.best_cost, state.evaluations,
                       state.no_improve_rounds)).encode())
    assert h.hexdigest() == SEARCH_PIN


# -- end-to-end autotune -------------------------------------------------------------


def test_autotune_row_sum_beats_midpoint_misses():
    p = parse_program(programs.SUM_ROWS)
    res = tile_program(p)
    n = 64
    rng = random.Random(0)
    m = NdArray((n, n), "f64", "col", [float(rng.randrange(100)) for _ in range(n * n)])
    model = CacheModel(2048, 64, 8)
    hw = HardwareInfo(l1_bytes=2048)
    space = estimate_bounds(res.program, res.spec, hw, extents={0: n, 1: n})

    def probe_fn(sizes):
        ts = dict(zip(space.slot_ids, sizes))
        stats, _ = simulate_program(res.program, [m], model, tile_sizes=ts)
        return float(stats.misses)

    midpoint_cost = probe_fn(space.midpoint())
    tuned, state = autotune(res.program, res.spec, CostProbe(probe_fn), hw,
                            SearchConfig(batch_size=4, max_evaluations=12, seed=0),
                            extents={0: n, 1: n})
    assert state.best_cost <= midpoint_cost
    assert all(s.size is not None for s in tuned.slots)


def test_autotune_matmul_misses_beat_initial_point():
    # Matmul's materialized temporaries put a miss floor under every tiled
    # variant, so the meaningful guarantee is the search one: tuned sizes
    # never cost more than the analytic starting point.
    from tilepar.ir import desugar_allpairs
    hw = HardwareInfo(l1_bytes=2048)
    n = 24
    a = NdArray((n, n), "f64", "row", [float((i * 7) % 19) for i in range(n * n)])
    b = NdArray((n, n), "f64", "row", [float((i * 5) % 23) for i in range(n * n)])
    p = desugar_allpairs(parse_program(programs.MATMUL))
    res = tile_program(p, arg_ranks=[2, 2])
    model = CacheModel(2048, 64, 8)
    space = estimate_bounds(res.program, res.spec, hw, extents={0: n, 1: n, 2: n})

    def probe_fn(sizes):
        ts = dict(zip(space.slot_ids, sizes))
        stats, _ = simulate_program(res.program, [a, b], model, tile_sizes=ts)
        return float(stats.misses)

    initial_cost = probe_fn(space.midpoint())
    _, state = autotune(res.program, res.spec, CostProbe(probe_fn), hw,
                        SearchConfig(batch_size=3, max_evaluations=7, seed=1),
                        extents={0: n, 1: n, 2: n})
    assert state.best_cost <= initial_cost


def test_cached_sizes_round_trip(tmp_path):
    from tilepar.autotuner import cache_key, load_cached_sizes, store_cached_sizes
    p = parse_program(programs.SUM_ROWS)
    res = tile_program(p)
    key = cache_key(res.program, [(32, 32)], HardwareInfo())
    path = str(tmp_path / "tiles.json")
    assert load_cached_sizes(path, key) is None
    store_cached_sizes(path, key, {0: 8, 1: 16})
    assert load_cached_sizes(path, key) == {0: 8, 1: 16}
    # Different hardware or shapes change the key.
    other = cache_key(res.program, [(32, 32)], HardwareInfo(l1_bytes=1024))
    assert other != key
    assert load_cached_sizes(path, other) is None


def test_cache_key_includes_associativity():
    from tilepar.autotuner import cache_key
    p = tile_program(parse_program(programs.SUM_ROWS)).program
    assert (cache_key(p, [(32, 32)], HardwareInfo(associativity=12))
            != cache_key(p, [(32, 32)], HardwareInfo()))


@pytest.mark.parametrize("entry", [[8, 16], {"a": 8}, {"0": "8"}, {"0": 8.5}, {"0": True}],
                         ids=["list", "slot", "str-size", "float-size", "bool-size"])
def test_unusable_cached_entry_is_a_miss(entry, tmp_path):
    from tilepar.autotuner import load_cached_sizes
    path = tmp_path / "tiles.json"
    path.write_text(json.dumps({"k": entry}))
    assert load_cached_sizes(str(path), "k") is None


def test_cli_autotune_cache_file_not_an_object(tmp_path, capsys):
    from tilepar.cli import main
    prog = tmp_path / "p.ir"
    prog.write_text(programs.SUM_ROWS)
    cache = tmp_path / "cache.json"
    cache.write_text("[]")
    argv = ["autotune", "--program", str(prog), "--gen", "shape=16x16,dtype=f64,layout=col",
            "--budget", "4", "--batch", "2", "--cache", str(cache)]
    assert main(argv) == 0
    table = json.loads(cache.read_text())
    assert isinstance(table, dict) and len(table) == 1
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("cached sizes:")


def test_cli_autotune_cache_hit(tmp_path, capsys):
    from tilepar.cli import main
    prog = tmp_path / "p.ir"
    prog.write_text(programs.SUM_ROWS)
    cache = str(tmp_path / "cache.json")
    argv = ["autotune", "--program", str(prog), "--gen", "shape=16x16,dtype=f64,layout=col",
            "--budget", "4", "--batch", "2", "--cache", cache]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("cached sizes:")


def test_autotune_identical_logs_same_seed():
    p = parse_program(programs.SUM_ROWS)
    res = tile_program(p)
    n = 32
    m = NdArray((n, n), "f64", "col", [float(i % 7) for i in range(n * n)])
    model = CacheModel(1024, 64, 4)
    hw = HardwareInfo(l1_bytes=1024)

    def probe_fn(sizes):
        stats, _ = simulate_program(res.program, [m], model,
                                    tile_sizes=dict(zip((0, 1), sizes)))
        return float(stats.misses)

    cfg = SearchConfig(batch_size=3, max_evaluations=10, seed=9)
    _, s1 = autotune(res.program, res.spec, CostProbe(probe_fn), hw, cfg,
                     extents={0: n, 1: n})
    _, s2 = autotune(res.program, res.spec, CostProbe(probe_fn), hw, cfg,
                     extents={0: n, 1: n})
    assert format_log(s1) == format_log(s2)


def test_duplicate_candidates_probed_once():
    # A 3x3 space makes most candidates duplicates; odd sizes fail.
    calls = []

    def counting(sizes):
        calls.append(sizes)
        if sizes[0] % 2:
            raise RuntimeError("odd")
        return bowl(sizes)

    space = SearchSpace((0, 1), ((1, 3), (1, 3)))
    cfg = SearchConfig(batch_size=4, max_evaluations=24, no_improve_limit=50, seed=5)
    state = run_search(space, CostProbe(counting), cfg)
    candidates = [r.candidate for r in state.log]
    assert len(candidates) == state.evaluations > len(set(candidates))
    assert sorted(calls) == sorted(set(candidates))
    first = {}
    for r in state.log:
        assert first.setdefault(r.candidate, r.cost) == r.cost
    assert any(r.cost is None for r in state.log)
