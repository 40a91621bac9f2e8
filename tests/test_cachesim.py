import gc
import itertools
import json
import random
import weakref

import pytest

from tilepar.cachesim import (
    CacheConfigError, CacheModel, HardwareInfo, Simulator, TraceStats, probe_hardware,
    simulate, simulate_program, trace_program,
)
from tilepar.ir import parse_program
from tilepar.ndarray import Allocator, NdArray
from tilepar.semantics import EvalConfig, Interpreter
from tilepar.tiling import tile_program

import programs


def test_model_validation():
    CacheModel(32 * 1024, 64, 8)
    with pytest.raises(CacheConfigError):
        CacheModel(1000, 64, 8)  # not divisible
    with pytest.raises(CacheConfigError):
        CacheModel(0, 64, 8)


def test_hit_after_miss():
    stats = simulate([0, 0], CacheModel(4096, 64, 8))
    assert stats.accesses == 2
    assert stats.misses == 1
    assert stats.hits == 1


def test_sequential_scan_compulsory_misses():
    n = 4096
    stats = simulate(range(0, n, 8), CacheModel(32 * 1024, 64, 8))
    assert stats.misses == n // 64
    assert stats.hits == n // 8 - n // 64


def test_lru_eviction_within_set():
    # Direct-mapped-as-1-set model: 2 ways, addresses mapping to one set.
    model = CacheModel(128, 64, 2)  # 1 set, 2 ways
    sim = Simulator(model)
    for addr in (0, 64, 128, 0):
        sim.access(addr)
    # 0 evicted by 128 (LRU), so the final 0 misses again.
    assert sim.stats.misses == 4
    assert sim.stats.evictions == 2


def test_determinism():
    rng = random.Random(3)
    trace = [rng.randrange(1 << 20) for _ in range(5000)]
    model = CacheModel(8192, 64, 4)
    a = simulate(trace, model)
    b = simulate(trace, model)
    assert a == b


@pytest.mark.parametrize("seed", range(5))
def test_capacity_monotonicity(seed):
    rng = random.Random(seed)
    trace = [rng.randrange(1 << 16) for _ in range(4000)]
    small = simulate(trace, CacheModel(8 * 1024, 64, 8))
    large = simulate(trace, CacheModel(16 * 1024, 64, 8))
    assert large.misses <= small.misses


def test_write_accesses_counted():
    stats = simulate([(0, "R"), (0, "W"), (64, "W")], CacheModel(4096, 64, 8))
    assert stats.accesses == 3
    assert stats.misses == 2


class ReferenceLRU:
    """Plain per-address LRU: each set a list of lines, least recent first.
    Each phase counts its own accesses."""

    def __init__(self, model):
        self.model = model
        self.sets = [[] for _ in range(model.num_sets)]
        self.stats = TraceStats()
        self.phase_stats = []

    def phase(self, label):
        self.phase_stats.append((label, TraceStats()))

    def access(self, addr):
        line = addr // self.model.line_size
        s = self.sets[line % self.model.num_sets]
        hit = line in s
        evicted = not hit and len(s) == self.model.associativity
        if hit:
            s.remove(line)
        elif evicted:
            del s[0]
        s.append(line)
        for stats in [self.stats] + [st for _, st in self.phase_stats[-1:]]:
            stats.accesses += 1
            stats.hits += hit
            stats.misses += not hit
            stats.evictions += evicted


def random_stream(rng, model):
    """Addresses mixing random ones, long runs within one line, sequential
    sweeps, two or more lines of one set taking turns, and more lines of
    one set than it has ways visited in strict rotation, so that every
    access past the first round misses and evicts."""
    stream = []
    line_size, num_sets, ways = model.line_size, model.num_sets, model.associativity
    while len(stream) < 3000:
        shape = rng.randrange(5)
        if shape == 0:
            stream += [rng.randrange(1 << 16) for _ in range(rng.randrange(1, 40))]
        elif shape == 1:
            base = rng.randrange(1 << 10) * line_size
            stream += [base + rng.randrange(line_size) for _ in range(rng.randrange(20, 120))]
        elif shape == 2:
            start = rng.randrange(1 << 16)
            stream += range(start, start + 8 * rng.randrange(1, 100), 8)
        elif shape == 3:
            k = rng.randrange(num_sets)
            lines = [rng.randrange(64) * num_sets + k
                     for _ in range(rng.randrange(2, ways + 3))]
            for _ in range(rng.randrange(10, 60)):
                stream += [line * line_size + rng.randrange(line_size) for line in lines[:2]]
                if rng.random() < 0.2:
                    stream.append(rng.choice(lines) * line_size)
        else:
            k = rng.randrange(num_sets)
            lines = [n * num_sets + k
                     for n in rng.sample(range(4 * ways), rng.randrange(ways + 1, 2 * ways + 1))]
            for _ in range(rng.randrange(2, 6)):
                stream += [line * line_size + rng.randrange(line_size) for line in lines]
    return stream


@pytest.mark.parametrize("model", [CacheModel(128, 64, 2), CacheModel(8 * 1024, 64, 4),
                                   CacheModel(32 * 1024, 64, 8), CacheModel(1024, 64, 1),
                                   CacheModel(384, 64, 2), CacheModel(4 * 1024, 32, 4),
                                   CacheModel(64 * 64, 64, 64)],
                         ids=["1set-2way", "8K-4way", "32K-8way", "direct-mapped",
                              "3sets-2way", "32B-lines", "1set-64way"])
@pytest.mark.parametrize("seed", range(4))
def test_run_matches_per_address_access(model, seed):
    rng = random.Random(seed)
    stream = random_stream(rng, model)
    sim, ref = Simulator(model), ReferenceLRU(model)
    pos = 0
    while pos < len(stream):
        if rng.random() < 0.3:
            label = f"phase {pos}"
            sim.phase(label)
            ref.phase(label)
        n = rng.randrange(1, 200)
        addrs = stream[pos:pos + n]
        pos += len(addrs)
        kinds = rng.choice(["R", "W", "RW", "RRW"])
        sim.run(rng.choice([list, tuple, iter])(addrs), kinds)
        for addr in addrs:
            ref.access(addr)
    assert sim.stats == ref.stats
    assert sim.stats.check().misses > 0 and sim.stats.hits > 0
    assert sim.phase_stats == ref.phase_stats
    assert [list(s) for s in sim._sets] == ref.sets


def test_run_stops_at_a_negative_address_and_keeps_the_counts_before_it():
    sim = Simulator(CacheModel(128, 64, 2))
    sim.run([0, 8], "R")
    with pytest.raises(CacheConfigError, match="negative address -8"):
        sim.run(iter([64, 64, 0, -8, 128]), "RW")
    assert sim.stats == TraceStats(accesses=5, hits=3, misses=2, evictions=0)
    assert [list(s) for s in sim._sets] == [[1, 0]]
    with pytest.raises(CacheConfigError):
        sim.access(-1)
    assert sim.stats.accesses == 5


def test_stats_check_raises_on_inconsistent_counts():
    # An explicit raise, not an assert, so that `python -O` keeps it.
    stats = TraceStats(accesses=5, hits=3, misses=2)
    assert stats.check() is stats
    bad = TraceStats(accesses=5, hits=3, misses=1)
    with pytest.raises(ValueError, match="3 hits \\+ 1 misses != 5 accesses"):
        bad.check()


# -- hardware probing -------------------------------------------------------------


def test_probe_defaults_when_nothing_available(tmp_path, monkeypatch):
    monkeypatch.setattr("tilepar.cachesim.SYSFS_CACHE_DIR", str(tmp_path / "absent"))
    info = probe_hardware(env={})
    assert info.provenance == "default"
    assert info.l1_bytes == 32 * 1024
    assert info.line_bytes == 64
    assert info.cores == 4
    assert info.registers == 16


def test_probe_config_file_overrides(tmp_path):
    cfg = tmp_path / "hw.json"
    cfg.write_text(json.dumps({"line_bytes": 128, "l1_bytes": 65536}))
    info = probe_hardware(config_path=str(cfg), env={})
    assert info.provenance == "configured"
    assert info.line_bytes == 128
    assert info.l1_bytes == 65536
    assert info.cores == 4  # unset fields fall back to defaults


def test_probe_invalid_values_replaced_per_field(tmp_path):
    cfg = tmp_path / "hw.json"
    cfg.write_text(json.dumps({"line_bytes": -4, "cores": 2}))
    info = probe_hardware(config_path=str(cfg), env={})
    assert info.line_bytes == 64  # invalid -> default
    assert info.cores == 2


def test_probe_env_var_config(tmp_path):
    cfg = tmp_path / "hw.json"
    cfg.write_text(json.dumps({"registers": 32}))
    info = probe_hardware(env={"TILEPAR_HW_CONFIG": str(cfg)})
    assert info.registers == 32
    assert info.provenance == "configured"


def test_probe_never_fails_on_garbage_config(tmp_path, monkeypatch):
    monkeypatch.setattr("tilepar.cachesim.SYSFS_CACHE_DIR", str(tmp_path / "absent"))
    cfg = tmp_path / "hw.json"
    cfg.write_text("{not json")
    info = probe_hardware(config_path=str(cfg), env={})
    assert info.l1_bytes == 32 * 1024
    assert info.provenance == "default"


@pytest.mark.parametrize("content", [
    "[1,2]", '"str"', '{"l1_bytes": null}', "[1]", "{}", '{"l1_bytes": 1e400}',
    "[" * 100000,
], ids=["list", "string", "null-field", "one-item-list", "empty-object",
        "infinite-field", "deeply-nested"])
def test_probe_never_fails_on_malformed_config(tmp_path, monkeypatch, content):
    monkeypatch.setattr("tilepar.cachesim.SYSFS_CACHE_DIR", str(tmp_path / "absent"))
    cfg = tmp_path / "hw.json"
    cfg.write_text(content)
    info = probe_hardware(config_path=str(cfg), env={})
    assert info.l1_bytes == 32 * 1024
    assert info.line_bytes == 64
    assert info.provenance == "default"


def test_probe_drops_non_integer_fields_per_field(tmp_path, monkeypatch):
    monkeypatch.setattr("tilepar.cachesim.SYSFS_CACHE_DIR", str(tmp_path / "absent"))
    cfg = tmp_path / "hw.json"
    cfg.write_text('{"l1_bytes": 1e400, "line_bytes": "128", "cores": true,'
                   ' "registers": 32.0}')
    info = probe_hardware(config_path=str(cfg), env={})
    assert (info.l1_bytes, info.line_bytes, info.cores, info.registers) == (
        32 * 1024, 64, 4, 32)
    assert info.provenance == "configured"


def _fake_cache_tree(root, l1d_size, l1d_ways=None):
    """A cpu0/cache directory with an L1 instruction and an L1 data entry;
    the data entry has a way count file only when `l1d_ways` is given."""
    for index, ctype, size in (("index0", "Instruction", "32K"),
                               ("index1", "Data", l1d_size)):
        entry = root / index
        entry.mkdir(parents=True)
        files = [("level", "1"), ("type", ctype), ("size", size),
                 ("coherency_line_size", "64")]
        if l1d_ways is not None:
            files.append(("ways_of_associativity", l1d_ways if ctype == "Data" else "4"))
        for name, text in files:
            (entry / name).write_text(text + "\n")
    return str(root)


def test_probe_reads_l1_data_cache_from_sysfs(tmp_path, monkeypatch):
    monkeypatch.setattr("tilepar.cachesim.SYSFS_CACHE_DIR",
                        _fake_cache_tree(tmp_path / "cache", "48K"))
    cfg = tmp_path / "hw.json"
    cfg.write_text("{not json")
    info = probe_hardware(config_path=str(cfg), env={})
    assert info.l1_bytes == 49152
    assert info.line_bytes == 64
    assert info.provenance == "probed"


@pytest.mark.parametrize("ways, expected", [("12", 12), (None, 8), ("many", 8), ("0", 8)])
def test_probe_reads_l1_associativity_from_sysfs(tmp_path, monkeypatch, ways, expected):
    monkeypatch.setattr("tilepar.cachesim.SYSFS_CACHE_DIR",
                        _fake_cache_tree(tmp_path / "cache", "48K", ways))
    info = probe_hardware(env={})
    assert (info.l1_bytes, info.line_bytes, info.provenance) == (49152, 64, "probed")
    assert info.associativity == expected
    model = info.l1_model()
    assert (model.capacity, model.line_size, model.associativity) == (49152, 64, expected)
    assert model.num_sets == 49152 // (64 * expected)


def test_probe_garbage_sysfs_size_falls_back_to_defaults(tmp_path, monkeypatch):
    monkeypatch.setattr("tilepar.cachesim.SYSFS_CACHE_DIR",
                        _fake_cache_tree(tmp_path / "cache", "lots"))
    info = probe_hardware(env={})
    assert info.l1_bytes == 32 * 1024
    assert info.line_bytes == 64
    assert info.provenance == "default"


# -- program traces ----------------------------------------------------------------


def test_untiled_row_sum_trace_is_sequential():
    p = parse_program(programs.SUM_ROWS)
    m = NdArray((2, 2), "i64", "row", [1, 2, 3, 4])
    trace = trace_program(p, [m])
    reads = [a for a, k in trace if k == "R"]
    assert reads == [0, 8, 16, 24]


def test_column_major_row_sum_trace_strides():
    p = parse_program(programs.SUM_ROWS)
    m = NdArray((2, 2), "i64", "col", [1, 3, 2, 4])
    trace = trace_program(p, [m])
    reads = [a for a, k in trace if k == "R"]
    assert reads == [0, 16, 8, 24]


def test_tiled_row_sum_trace_is_blocked():
    p = parse_program(programs.SUM_ROWS)
    res = tile_program(p)
    m = NdArray((4, 4), "i64", "row", list(range(16)))
    trace = trace_program(res.program, [m], tile_sizes={0: 2, 1: 2})
    input_reads = [a for a, k in trace if k == "R" and a < 16 * 8]
    # Element visits grouped 2x2 block by block, rows inside each block.
    expected = []
    for br in range(2):
        for bc in range(2):
            for r in range(2):
                for c in range(2):
                    expected.append(((br * 2 + r) * 4 + (bc * 2 + c)) * 8)
    assert input_reads == expected


def test_matmul_trace_input_read_count():
    from tilepar.ir import desugar_allpairs
    p = desugar_allpairs(parse_program(programs.MATMUL))
    n = 4
    A = NdArray((n, n), "f64", "row", [float(i) for i in range(n * n)])
    B = NdArray((n, n), "f64", "row", [float(i) for i in range(n * n)])
    trace = trace_program(p, [A, B])
    input_bytes = 2 * n * n * 8
    input_reads = sum(1 for a, k in trace if k == "R" and a < input_bytes)
    # Every element of each operand is read once per output cell row/column:
    # n * n cells * n elements * 2 operands.
    assert input_reads == n * n * n * 2
    writes = sum(1 for _, k in trace if k == "W")
    assert writes > 0
    stats = simulate(trace, CacheModel(4096, 64, 8))
    assert stats.accesses == len(trace)


def test_elementwise_result_written_where_it_is_read():
    p = parse_program("fn main(X, Y) { t = X * Y; return t + X; }")
    X = NdArray((4,), "i64", "row", [1, 2, 3, 4])
    Y = NdArray((4,), "i64", "row", [5, 6, 7, 8])
    trace = trace_program(p, [X, Y])
    # t = X * Y: per element R X, R Y, W t; then t + X: R t, R X, W result.
    t_writes = [a for a, k in trace[:12] if k == "W"]
    t_reads = [a for a, k in trace[12:] if k == "R"][0::2]
    assert t_writes == t_reads
    assert min(t_writes) >= 128  # past the 64-byte blocks of X and Y


def test_locality_row_sum_column_major():
    # The motivating scenario: column-major layout, long rows. Tiling with
    # a conflict-free working set turns the untiled thrash into line reuse.
    p = parse_program(programs.SUM_ROWS)
    res = tile_program(p)
    n = 128
    rng = random.Random(1)
    m = NdArray((n, n), "f64", "col", [float(rng.randrange(50)) for _ in range(n * n)])
    model = CacheModel(8 * 1024, 64, 8)  # 128 sets... 16 sets of 8 ways
    untiled, base_val = simulate_program(p, [m], model)
    tiled, tiled_val = simulate_program(res.program, [m], model,
                                        tile_sizes={0: 8, 1: 8})
    assert tiled_val.to_nested() == base_val.to_nested()
    assert tiled.misses < untiled.misses
    assert untiled.miss_ratio / tiled.miss_ratio >= 2.0


def test_traced_runs_do_not_leak_allocators():
    # Each run gets its own Allocator; reusing one input across runs must
    # not keep them alive.
    p = parse_program(programs.SUM_ROWS)
    m = NdArray((4, 4), "i64", "row", list(range(16)))
    model = CacheModel(1024, 64, 2)

    def live_allocators():
        gc.collect()
        return sum(isinstance(o, Allocator) for o in gc.get_objects())

    simulate_program(p, [m], model)
    before = live_allocators()
    for _ in range(50):
        simulate_program(p, [m], model)
    assert live_allocators() == before


def test_traced_run_frees_every_block_and_its_sink():
    # With the garbage collector off, reference counting alone must free
    # the sink once the run is over and every temporary block once the
    # result is gone; only the input's block stays taken.
    program = tile_program(parse_program(programs.ROW_SCAN), arg_ranks=[2]).program
    m = NdArray((6, 8), "i64", "row", list(range(48)))
    gc.disable()
    try:
        sim = Simulator(CacheModel(1024, 64, 2))
        interp = Interpreter(program, EvalConfig(tile_sizes={0: 4, 1: 3}, trace=sim))
        value, alloc, sink = interp.run([m]), interp._allocator, weakref.ref(sim)
        del interp, sim
        assert sink() is None
        assert alloc.live
        del value
        assert alloc.live == {}
        blocks = sorted([(m.addr, 384)] + [(addr, size) for size, addrs in
                                           alloc.free_blocks.items() for addr in addrs])
        assert [a for a, _ in blocks] == [0] + list(itertools.accumulate(s for _, s in blocks))[:-1]
        assert sum(size for _, size in blocks) == alloc.next
    finally:
        gc.enable()


def test_streaming_matches_materialized():
    p = parse_program(programs.SUM_ROWS)
    m = NdArray((8, 8), "i64", "row", list(range(64)))
    model = CacheModel(1024, 64, 2)
    trace = trace_program(p, [m])
    stats_stream, _ = simulate_program(p, [m], model)
    assert simulate(trace, model) == stats_stream
