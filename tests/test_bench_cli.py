import random

import pytest

from tilepar import bench
from tilepar.bench import (
    checksum, generate_array, kmeans_reference, make_ir_distance,
    values_close,
)
from tilepar.cachesim import HardwareInfo, probe_hardware
from tilepar.cli import main
from tilepar.ir import parse_program
from tilepar.ndarray import NdArray

import programs
from arrays import dump_array, naive_matmul

HW = HardwareInfo()


@pytest.fixture
def program_file(tmp_path):
    def write(src, name="prog.ir"):
        path = tmp_path / name
        path.write_text(src)
        return str(path)
    return write


@pytest.fixture
def array_file(tmp_path):
    def write(arr, name="input.arr"):
        path = tmp_path / name
        path.write_text(dump_array(arr))
        return str(path)
    return write


# -- input generation ---------------------------------------------------------


def test_generate_array_reproducible():
    a = generate_array((4, 5), "f64", "row", seed=7)
    b = generate_array((4, 5), "f64", "row", seed=7)
    assert a.data == b.data
    c = generate_array((4, 5), "f64", "row", seed=8)
    assert a.data != c.data


def test_values_close_semantics():
    a = NdArray((2,), "i64", "row", [1, 2])
    b = NdArray((2,), "i64", "row", [1, 2])
    assert values_close(a, b)
    x = NdArray((1,), "f64", "row", [1.0])
    y = NdArray((1,), "f64", "row", [1.0 + 5e-10])
    assert values_close(x, y)
    z = NdArray((1,), "f64", "row", [1.0 + 5e-8])
    assert not values_close(x, z)


# -- benchmarks ------------------------------------------------------------------


def test_matmul_variants_agree_and_match_naive():
    results = bench.bench_matmul(HW, n=12, seed=3, registers=True, tune_evals=4)
    assert [r.variant for r in results] == list(bench.VARIANTS)
    assert len({r.checksum for r in results}) == 1

    a = generate_array((12, 12), "f64", "row", 3)
    b = generate_array((12, 12), "f64", "row", 4)
    prepared = bench.prepare(parse_program(bench.MATMUL_SRC), [2, 2], HW, registers=False)
    value, _, _ = bench.run_variant(prepared, "untiled", [a, b])
    assert values_close(value, naive_matmul(a, b))


def test_matmul_identity():
    n = 8
    ident = NdArray((n, n), "f64")
    for i in range(n):
        ident.set((i, i), 1.0)
    a = generate_array((n, n), "f64", "row", 5)
    prepared = bench.prepare(parse_program(bench.MATMUL_SRC), [2, 2], HW, registers=False)
    # identity * A^T (second operand arrives pre-transposed) gives A^T rows.
    value, _, _ = bench.run_variant(prepared, "untiled", [ident, a])
    expected = [[a.get((j, i)) for j in range(n)] for i in range(n)]
    assert value.to_nested() == expected


def test_prepared_sizes_put_candidate_on_runtime_slots():
    prepared = bench.prepare(parse_program(bench.MATMUL_SRC), [2, 2], HW, registers=True)
    assert prepared.space.slot_ids == (0, 1, 2)
    registers = {slot: 4 for slot in range(3, 9)}
    assert prepared.sizes((5, 6, 7)) == {0: 5, 1: 6, 2: 7, **registers}
    mid = prepared.space.midpoint()
    assert prepared.sizes() == {0: mid[0], 1: mid[1], 2: mid[2], **registers}


def test_prepare_leaves_untileable_program_with_reason():
    prepared = bench.prepare(parse_program("fn main(x) { return x + 1; }"), [1], HW)
    assert prepared.tiled is None and prepared.space is None
    assert prepared.reason == "no data-parallel operators"


def test_sum_rows_variants_agree_with_misses():
    results = bench.bench_sum_rows(HW, rows=32, cols=32, misses=True, tune_evals=4)
    assert len({r.checksum for r in results}) == 1
    assert all(r.misses is not None for r in results)


def test_checksum_distinguishes_order():
    a = NdArray((3,), "i64", "row", [1, 2, 3])
    b = NdArray((3,), "i64", "row", [3, 2, 1])
    assert checksum(a) != checksum(b)


# -- k-means -------------------------------------------------------------------------


def test_kmeans_two_blobs():
    rng = random.Random(0)
    pts = [[rng.gauss(0, 0.3), rng.gauss(0, 0.3)] for _ in range(20)]
    pts += [[rng.gauss(10, 0.3), rng.gauss(10, 0.3)] for _ in range(20)]
    labels, centroids = kmeans_reference(pts, 2, 5, seed=1)
    first, second = set(labels[:20]), set(labels[20:])
    assert len(first) == 1 and len(second) == 1
    assert first != second


def test_kmeans_k_equals_points():
    pts = [[float(i), 0.0] for i in range(5)]
    labels, centroids = kmeans_reference(pts, 5, 1, seed=0)
    assert sorted(labels) == list(range(5))
    assert sorted(c[0] for c in centroids) == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_kmeans_zero_iters_labels_from_initial_centroids():
    pts = [[0.0], [1.0], [10.0], [11.0]]
    labels, centroids = kmeans_reference(pts, 2, 0, seed=3)
    # Labels computed once from the initial centroids, no update step.
    init = centroids
    for p, label in zip(pts, labels):
        dists = [sum((x - c) ** 2 for x, c in zip(p, cent)) for cent in init]
        assert dists[label] == min(dists)


def test_kmeans_zero_iters_assigns_once():
    calls = []

    def assign(pts, centroids):
        calls.append(len(centroids))
        return [[sum((x - c) ** 2 for x, c in zip(p, cent)) for cent in centroids]
                for p in pts]

    kmeans_reference([[0.0], [1.0], [10.0], [11.0]], 2, 0, seed=3, assign=assign)
    assert calls == [2]


def test_kmeans_k_too_large():
    with pytest.raises(ValueError):
        kmeans_reference([[0.0]], 2, 1, seed=0)


def test_kmeans_ir_distances_match_host():
    data = generate_array((30, 4), "f64", "row", 2)
    labels_host, _ = kmeans_reference(data, 3, 2, seed=0)
    labels_ir, _ = kmeans_reference(data, 3, 2, seed=0, assign=make_ir_distance(HW))
    assert labels_host == labels_ir


def test_kmeans_empty_cluster_keeps_centroid():
    # Two far blobs and k=3: one centroid starts between the blobs and can
    # lose all members; the run must stay deterministic and keep it.
    pts = [[0.0, 0.0]] * 6 + [[100.0, 100.0]] * 6
    labels, centroids = kmeans_reference(pts, 3, 4, seed=2)
    assert len(centroids) == 3
    assert len(labels) == 12


def test_bench_kmeans_tiled_untiled_labels():
    rows = bench.bench_kmeans(HW, points=60, features=5, k=4, iters=2, seed=4)
    assert rows[0].checksum == rows[1].checksum


# -- CLI -------------------------------------------------------------------------------


def test_cli_run_untiled_vs_tiled_same_output(program_file, array_file, capsys):
    prog = program_file(programs.SUM_ROWS)
    arr = array_file(generate_array((3, 4), "i64", "row", 1))
    assert main(["run", "--program", prog, "--input", arr]) == 0
    out_plain = capsys.readouterr().out.splitlines()[0]
    assert main(["run", "--program", prog, "--input", arr,
                 "--tiling", "cache", "--tile-sizes", "2,3"]) == 0
    out_tiled = capsys.readouterr().out.splitlines()[0]
    assert out_plain == out_tiled


def test_cli_run_register_tiling_defaults_to_midpoint(program_file, capsys):
    prog = program_file(bench.MATMUL_SRC)
    mid = bench.prepare(parse_program(bench.MATMUL_SRC), [2, 2], probe_hardware(),
                        registers=True).space.midpoint()
    mid = ",".join(map(str, mid))

    def out(command, *sizes):
        assert main([command, "--program", prog, "--gen", "shape=12x12",
                     "--gen", "shape=12x12,seed=1", "--tiling", "cache+register",
                     *sizes]) == 0
        return capsys.readouterr().out

    # `run` prints the value, then a wall time that differs between runs.
    assert out("run").splitlines()[0] == out("run", "--tile-sizes", mid).splitlines()[0]
    assert out("cachesim") == out("cachesim", "--tile-sizes", mid)
    # Misses depend on the sizes, so the match above is not vacuous.
    assert out("cachesim") != out("cachesim", "--tile-sizes", "3,3,3")


def test_cli_run_bad_program_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.ir"
    bad.write_text("fn main(x) { return x }")
    assert main(["run", "--program", str(bad), "--gen", "shape=4"]) == 1
    err = capsys.readouterr().err
    assert "expected ';'" in err


def test_cli_run_missing_file_exit_1(capsys):
    assert main(["run", "--program", "/nonexistent.ir", "--gen", "shape=4"]) == 1


def test_cli_run_runtime_error_exit_2(program_file, capsys):
    prog = program_file("fn main(xs) { return xs[99]; }")
    assert main(["run", "--program", prog, "--gen", "shape=4,dtype=i64"]) == 2


@pytest.mark.parametrize("argv", [
    ["--gen", "shape=4,dtype=i64"],
    ["--gen", "shape=4,dtype=f64"],
    ["--gen", "shape=40,dtype=f64", "--tiling", "cache"],
], ids=["i64", "f64", "tiled"])
def test_cli_run_division_by_zero_is_an_error_line(argv, program_file, capsys):
    prog = program_file("fn div(a) { return a / 0; }\nfn main(X) { return map(div, X; axes=[0]); }")
    assert main(["run", "--program", prog, *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: arithmetic error")
    assert "Traceback" not in err


def test_cli_tile_prints_slot_table(program_file, capsys):
    prog = program_file(programs.SUM_ROWS)
    assert main(["tile", "--program", prog]) == 0
    out = capsys.readouterr().out
    assert "tiledmap" in out
    assert "tiledreduce" in out
    assert "slot" in out
    assert "tunable" in out


def test_cli_tile_infers_matmul_ranks(program_file, capsys):
    # `p = x * y` passes the rank its reduction needs back to x and y.
    prog = program_file(bench.MATMUL_SRC)
    assert main(["tile", "--program", prog, "--ranks", "2,2"]) == 0
    given = capsys.readouterr().out
    assert main(["tile", "--program", prog]) == 0
    assert capsys.readouterr().out == given
    assert "tiledreduce" in given


def test_cli_tile_unchanged_program(program_file, capsys):
    prog = program_file("fn main(x) { return x + 1; }")
    assert main(["tile", "--program", prog]) == 0
    out = capsys.readouterr().out
    assert out.startswith("unchanged:")


def test_cli_tile_size_override_requires_tiling(program_file, array_file):
    prog = program_file(programs.SUM_ROWS)
    arr = array_file(generate_array((3, 4), "i64", "row", 1))
    assert main(["run", "--program", prog, "--input", arr,
                 "--tile-sizes", "2,2"]) == 1


def test_cli_cachesim_tile_size_override_requires_tiling(program_file, capsys):
    assert main(["cachesim", "--program", program_file(programs.SUM_ROWS),
                 "--gen", "shape=4x4", "--tile-sizes", "3,4"]) == 1
    assert capsys.readouterr().err == (
        "error: --tile-sizes requires --tiling cache or cache+register\n")


def test_cli_cachesim_csv_per_phase(program_file, capsys):
    prog = program_file(programs.SUM_ROWS)
    assert main(["cachesim", "--program", prog, "--gen", "shape=16x16,dtype=f64,layout=col",
                 "--capacity", "1024", "--line", "64", "--assoc", "4",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "phase,accesses,hits,misses,evictions,miss_ratio"
    assert lines[-1].startswith("total,")
    total = lines[-1].split(",")
    assert int(total[1]) == int(total[2]) + int(total[3])
    # Per-phase rows sum to the totals.
    phase_rows = [line.split(",") for line in lines[1:-1]]
    assert phase_rows, "expected at least one phase row"
    assert sum(int(r[3]) for r in phase_rows) == int(total[3])


def test_cli_cachesim_csv_for_loop_is_one_phase(program_file, capsys):
    prog = program_file("fn main(X) { s = 0; for r in X { s = s + r[0]; } return s; }")
    assert main(["cachesim", "--program", prog, "--gen", "shape=6x4",
                 "--format", "csv"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:-1]]
    assert [(r[0], *map(int, r[1:5])) for r in rows] == [
        ('"s ="', 0, 0, 0, 0),
        ('"for r"', 6, 3, 3, 0),
        ('"return"', 0, 0, 0, 0),
    ]


def test_cli_autotune_deterministic(program_file, capsys):
    prog = program_file(programs.SUM_ROWS)
    argv = ["autotune", "--program", prog, "--gen", "shape=24x24,dtype=f64,layout=col",
            "--budget", "6", "--batch", "2", "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "chosen sizes" in first


def test_cli_tile_register_pass(program_file, capsys):
    prog = program_file(programs.SUM_ROWS)
    assert main(["tile", "--program", prog, "--register"]) == 0
    out = capsys.readouterr().out
    assert "register" in out
    assert "fixed=" in out  # specialised clones attached in the printed IR


def test_cli_autotune_walltime_probe(program_file, capsys):
    prog = program_file(programs.SUM_ROWS)
    assert main(["autotune", "--program", prog,
                 "--gen", "shape=12x12,dtype=f64,layout=col",
                 "--probe", "walltime", "--budget", "4", "--batch", "2"]) == 0
    out = capsys.readouterr().out
    assert "chosen sizes" in out


def test_cli_autotune_unwritable_cache_is_a_usage_error(program_file, tmp_path, capsys):
    prog = program_file(programs.SUM_ROWS)
    cache = tmp_path / "missing" / "sizes.json"
    assert main(["autotune", "--program", prog, "--gen", "shape=12x12,layout=col",
                 "--budget", "2", "--batch", "2", "--cache", str(cache)]) == 1
    captured = capsys.readouterr()
    assert "chosen sizes" in captured.out
    assert captured.err.startswith("error: cannot write --cache file")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_cli_autotune_budget_below_one_is_a_usage_error(budget, program_file, capsys):
    # No probe runs: the midpoint alone would be one beyond the budget.
    prog = program_file(programs.SUM_ROWS)
    assert main(["autotune", "--program", prog, "--gen", "shape=12x12,layout=col",
                 "--budget", budget]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --budget must be >= 1")


@pytest.mark.parametrize("points, k", [(2, 5), (5, 0)], ids=["k-above-points", "k-zero"])
def test_cli_bench_kmeans_k_out_of_range_is_a_usage_error(points, k, capsys):
    assert main(["bench", "--name", "kmeans", "--points", str(points), "--k", str(k)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --k must be between 1 and --points")
    assert "Traceback" not in err


@pytest.mark.parametrize("tiling", ["cache", "cache+register"])
def test_cli_run_tiled_sqdist_on_zero_width_rows(tiling, program_file, capsys):
    # Each distance reduces an empty row: the tiled reduce runs one empty
    # straggler and every distance is its init.
    prog = program_file(bench.SQDIST_SRC)
    gen = ["--gen", "shape=5x0", "--gen", "shape=2x0"]
    assert main(["run", "--program", prog, *gen]) == 0
    untiled = capsys.readouterr().out.splitlines()[0]
    assert untiled == str([[0.0, 0.0]] * 5)
    assert main(["run", "--program", prog, *gen, "--tiling", tiling]) == 0
    assert capsys.readouterr().out.splitlines()[0] == untiled


def test_cli_bench_kmeans_without_features(capsys):
    assert main(["bench", "--name", "kmeans", "--points", "5", "--k", "2",
                 "--features", "0"]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_cli_bench_csv_schema(capsys):
    assert main(["bench", "--name", "sum_rows", "--size", "24",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "benchmark,variant,wall_seconds,misses,checksum"
    assert len(lines) == 4
    assert len({line.split(",")[4] for line in lines[1:]}) == 1


@pytest.mark.parametrize("rows, cols", [(3, 0), (0, 3)])
def test_cli_bench_zero_rows_or_cols_is_not_the_default(rows, cols, capsys):
    assert main(["bench", "--name", "sum_rows", "--rows", str(rows), "--cols", str(cols),
                 "--format", "csv"]) == 0
    checksums = {line.split(",")[4] for line in capsys.readouterr().out.strip().splitlines()[1:]}
    expected = {r.checksum for r in bench.bench_sum_rows(HW, rows=rows, cols=cols)}
    assert checksums == expected == {f"{rows}:0.0000000000e+00"}


def test_cli_run_cache_register_matches_untiled(program_file, array_file, capsys):
    prog = program_file(programs.SUM_ROWS)
    arr = array_file(generate_array((6, 7), "i64", "row", 2))
    assert main(["run", "--program", prog, "--input", arr]) == 0
    plain = capsys.readouterr().out.splitlines()[0]
    assert main(["run", "--program", prog, "--input", arr,
                 "--tiling", "cache+register"]) == 0
    both = capsys.readouterr().out.splitlines()[0]
    assert plain == both


def test_cli_env_overrides_hardware(program_file, capsys, monkeypatch):
    monkeypatch.setenv("TILEPAR_L1_BYTES", "2048")
    prog = program_file(programs.SUM_ROWS)
    assert main(["cachesim", "--program", prog, "--gen", "shape=8x8"]) == 0
    out = capsys.readouterr().out
    assert "capacity=2048" in out


@pytest.mark.parametrize("l1_bytes, argv", [
    ("40000", ["autotune", "--gen", "shape=16x16"]),
    ("40000", ["cachesim", "--gen", "shape=16x16"]),
    ("40000", ["bench", "--name", "sum_rows", "--rows", "16", "--cols", "16", "--misses"]),
    (None, ["cachesim", "--gen", "shape=16x16", "--capacity", "1000"]),
    (None, ["cachesim", "--gen", "shape=16x16", "--capacity", "0"]),
    (None, ["cachesim", "--gen", "shape=16x16", "--line", "0"]),
    (None, ["cachesim", "--gen", "shape=16x16", "--assoc", "0"]),
], ids=["autotune", "cachesim", "bench", "cachesim-capacity", "cachesim-capacity-0",
        "cachesim-line-0", "cachesim-assoc-0"])
def test_cli_invalid_cache_geometry_is_an_error_line(l1_bytes, argv, program_file, capsys,
                                                     monkeypatch):
    if l1_bytes is not None:
        monkeypatch.setenv("TILEPAR_L1_BYTES", l1_bytes)
    if argv[0] != "bench":
        argv = argv[:1] + ["--program", program_file(programs.SUM_ROWS)] + argv[1:]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["run", "--gen", "shape=8x8", "--tiling", "cache", "--tile-sizes", "a,b"],
    ["run", "--gen", "shape=8xq"],
    ["run", "--gen", "shape=8x8,seed=z"],
    ["tile", "--ranks", "x"],
], ids=["tile-sizes", "gen-shape", "gen-seed", "ranks"])
def test_cli_non_integer_argument_is_a_usage_error(argv, program_file, capsys):
    argv = argv[:1] + ["--program", program_file(programs.SUM_ROWS)] + argv[1:]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("text", [
    "shape: 2 q\ndtype: i64\nlayout: row\n1 2\n",
    "shape: 4\ndtype: i64\nlayout: row\n1 2 x 4\n",
], ids=["shape", "element"])
def test_cli_array_file_not_numbers_is_a_usage_error(text, program_file, tmp_path, capsys):
    arr = tmp_path / "bad.arr"
    arr.write_text(text)
    assert main(["run", "--program", program_file(programs.SUM_ROWS), "--input", str(arr)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
