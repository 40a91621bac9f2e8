"""Benchmark corpus: matrix multiply, row sums, and k-means clustering.

Matrix multiply and row sums run as three variants -- untiled,
cache-tiled with the midpoint of the analytic bounds, and
cache(+register)-tiled with sizes found by the miss-count autotuner --
over seeded, reproducible inputs. K-means runs two: untiled and
cache-tiled at the midpoint. Variants must agree on their outputs
(exactly for int64, within 1e-9 relative for float64; k-means on its
labels); wall times are reported but never asserted.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .autotuner import CostProbe, SearchConfig, autotune, estimate_bounds
from .cachesim import simulate_program
from .ir import desugar_allpairs, parse_program
from .ndarray import ArrayValue, NdArray, elements
from .semantics import EvalConfig, eval_program
from .tiling import register_tile, tile_program

MATMUL_SRC = """
fn ident(x) { return x; }
fn add2(a, b) { return a + b; }
fn dot(x, y) {
  p = x * y;
  return reduce(ident, combine=add2, init=0.0, p; axes=[0]);
}
fn main(Xs, Ys) { return allpairs(dot, Xs, Ys; axes=[0, 0]); }
"""

SUM_ROWS_SRC = """
fn ident(x) { return x; }
fn add2(a, b) { return a + b; }
fn sum_row(row) { return reduce(ident, combine=add2, init=0, row; axes=[0]); }
fn main(Xs) { return map(sum_row, Xs; axes=[0]); }
"""

# Squared euclidean distances of every point against every centroid; the
# heavy, tilable part of a k-means iteration.
SQDIST_SRC = """
fn ident(x) { return x; }
fn add2(a, b) { return a + b; }
fn sqdist(p, c) {
  d = p - c;
  s = d * d;
  return reduce(ident, combine=add2, init=0.0, s; axes=[0]);
}
fn main(P, C) { return allpairs(sqdist, P, C; axes=[0, 0]); }
"""

BENCHMARKS = ("matmul", "sum_rows", "kmeans")
VARIANTS = ("untiled", "tiled", "tiled+autotuned")


class CorrectnessError(Exception):
    """Benchmark variants disagreed on their outputs."""


@dataclass
class BenchmarkResult:
    name: str
    variant: str
    wall_time: float
    misses: int | None
    checksum: str


def generate_array(shape, dtype="f64", layout="row", seed=0, span=100):
    """Seeded input generator, reproducible bit-for-bit."""
    rng = random.Random(seed)
    size = 1
    for s in shape:
        size *= s
    if dtype == "i64":
        data = [rng.randrange(-span, span) for _ in range(size)]
    else:
        data = [float(rng.randrange(-span * 8, span * 8)) / 8.0 for _ in range(size)]
    return NdArray(shape, dtype, layout, data)


def checksum(value):
    """Order-sensitive digest of a result for display and CSV output."""
    if not isinstance(value, ArrayValue):
        return f"scalar:{value!r}"
    acc = 0.0
    weight = 1.0
    for x in elements(value):
        acc += weight * float(x)
        weight = weight * 1.000000119 % 1e9
    return f"{'x'.join(map(str, value.shape))}:{acc:.10e}"


def values_close(a, b, rtol=1e-9):
    """Exact for scalars/int arrays; per-element relative for float."""
    a_arr, b_arr = isinstance(a, ArrayValue), isinstance(b, ArrayValue)
    if a_arr != b_arr:
        return False
    if not a_arr:
        return _close(a, b, rtol)
    if a.shape != b.shape:
        return False
    return all(_close(x, y, rtol) for x, y in zip(elements(a), elements(b)))


def _close(x, y, rtol):
    if isinstance(x, int) and isinstance(y, int):
        return x == y
    return abs(x - y) <= rtol * max(1.0, abs(x), abs(y))


# ---------------------------------------------------------------------------
# Variant plumbing
# ---------------------------------------------------------------------------

@dataclass
class PreparedProgram:
    untiled: object
    tiled: object
    spec: object
    midpoint_sizes: dict
    tuned_sizes: dict | None = None


def prepare(src, arg_ranks, hw, extents=None, registers=False):
    program = desugar_allpairs(parse_program(src))
    result = tile_program(program, arg_ranks=arg_ranks)
    if not result.changed:
        raise CorrectnessError(f"benchmark program did not tile: {result.reason}")
    tiled, spec = result.program, result.spec
    if registers:
        tiled, spec = register_tile(tiled, spec, hw)
    space = estimate_bounds(tiled, spec, hw, extents=extents)
    midpoint = dict(zip(space.slot_ids, space.midpoint()))
    return PreparedProgram(program, tiled, spec, midpoint)


def miss_probe(tiled, spec, slot_ids, inputs, model):
    """Tuner cost function: the simulated misses of `tiled` on `inputs`
    with the runtime slots `slot_ids` set to a candidate's sizes."""
    def misses(sizes):
        stats, _ = simulate_program(tiled, inputs, model,
                                    tile_sizes=spec.sizes(overrides=dict(zip(slot_ids, sizes))))
        return float(stats.misses)
    return misses


def tune(prepared, inputs, hw, model=None, seed=0, max_evaluations=12, batch=4,
         extents=None):
    model = model or hw.l1_model()
    slot_ids = estimate_bounds(prepared.tiled, prepared.spec, hw,
                               extents=extents).slot_ids

    probe_fn = miss_probe(prepared.tiled, prepared.spec, slot_ids, inputs, model)
    tuned_spec, state = autotune(prepared.tiled, prepared.spec, CostProbe(probe_fn),
                                 hw, SearchConfig(batch_size=batch,
                                                  max_evaluations=max_evaluations,
                                                  seed=seed),
                                 extents=extents)
    prepared.tuned_sizes = tuned_spec.sizes()
    return state


def run_variant(prepared, variant, inputs, model=None):
    """Evaluate one variant; returns (value, wall seconds, misses or None)."""
    if variant == "untiled":
        program, sizes = prepared.untiled, {}
    elif variant == "tiled":
        program = prepared.tiled
        sizes = prepared.spec.sizes(overrides=prepared.midpoint_sizes)
    elif variant == "tiled+autotuned":
        if prepared.tuned_sizes is None:
            raise CorrectnessError("autotuned sizes not prepared")
        program, sizes = prepared.tiled, dict(prepared.tuned_sizes)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    start = time.perf_counter()
    if model is not None:
        stats, value = simulate_program(program, inputs, model, tile_sizes=sizes)
        misses = stats.misses
    else:
        value = eval_program(program, inputs, EvalConfig(tile_sizes=sizes))
        misses = None
    return value, time.perf_counter() - start, misses


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------

def bench_matmul(hw, n=64, seed=0, misses=False, variants=VARIANTS, registers=True,
                 tune_evals=8):
    a = generate_array((n, n), "f64", "row", seed)
    b = generate_array((n, n), "f64", "row", seed + 1)
    prepared = prepare(MATMUL_SRC, [2, 2], hw, registers=registers)
    model = hw.l1_model() if misses else None
    if "tiled+autotuned" in variants:
        tune(prepared, [a, b], hw, seed=seed, max_evaluations=tune_evals)
    return _run_all("matmul", prepared, [a, b], variants, model)


def bench_sum_rows(hw, rows=256, cols=256, layout="col", seed=0, misses=False,
                   variants=VARIANTS, tune_evals=12):
    m = generate_array((rows, cols), "f64", layout, seed)
    extents = {0: rows, 1: cols}
    prepared = prepare(SUM_ROWS_SRC, [2], hw, extents=extents)
    model = hw.l1_model() if misses else None
    if "tiled+autotuned" in variants:
        tune(prepared, [m], hw, seed=seed, max_evaluations=tune_evals, extents=extents)
    return _run_all("sum_rows", prepared, [m], variants, model)


def _run_all(name, prepared, inputs, variants, model):
    results = []
    baseline = None
    for variant in variants:
        value, wall, miss = run_variant(prepared, variant, inputs, model)
        results.append(BenchmarkResult(name, variant, wall, miss, checksum(value)))
        if baseline is None:
            baseline = value
        elif not values_close(baseline, value):
            raise CorrectnessError(f"{name}: variant {variant!r} output disagrees")
    return results


# ---------------------------------------------------------------------------
# K-means
# ---------------------------------------------------------------------------

def kmeans_reference(points, k, iters, seed, assign=None):
    """Lloyd iterations over an n x f point matrix.

    Initial centroids are the first k points after a seeded shuffle.
    Assignment uses squared euclidean distance with ties broken toward the
    lowest centroid index; a cluster that loses all members keeps its
    previous centroid. `assign` computes the n x k distance matrix (the
    IR-driven benchmark passes the untiled or tiled distance program);
    the default is a host-side loop, which doubles as the oracle.
    """
    if isinstance(points, NdArray):
        pts = [[points.get((i, j)) for j in range(points.shape[1])]
               for i in range(points.shape[0])]
    else:
        pts = [list(row) for row in points]
    n = len(pts)
    if k > n:
        raise ValueError(f"k={k} exceeds point count {n}")
    order = list(range(n))
    random.Random(seed).shuffle(order)
    centroids = [list(pts[i]) for i in order[:k]]
    labels = [0] * n
    assign = assign or _host_distances

    for _ in range(max(iters, 1)):
        dist = assign(pts, centroids)
        labels = [_argmin(row) for row in dist]
        if iters == 0:
            break
        sums = [[0.0] * len(pts[0]) for _ in range(k)]
        counts = [0] * k
        for label, p in zip(labels, pts):
            counts[label] += 1
            for j, x in enumerate(p):
                sums[label][j] += x
        for c in range(k):
            if counts[c]:
                centroids[c] = [s / counts[c] for s in sums[c]]
            # else: keep the previous centroid
    if iters == 0:
        dist = assign(pts, centroids)
        labels = [_argmin(row) for row in dist]
    return labels, centroids


def _argmin(row):
    best = 0
    for j in range(1, len(row)):
        if row[j] < row[best]:
            best = j
    return best


def _host_distances(pts, centroids):
    return [[sum((x - c) ** 2 for x, c in zip(p, cent)) for cent in centroids]
            for p in pts]


def make_ir_distance(hw, tile_sizes=None):
    """Distance-matrix evaluator backed by the IR program; `tile_sizes`
    None runs it untiled, otherwise cache-tiled with the given sizes (a
    dict, or 'midpoint' for the analytic default)."""
    program = desugar_allpairs(parse_program(SQDIST_SRC))
    tiled = spec = None
    if tile_sizes is not None:
        result = tile_program(program, arg_ranks=[2, 2])
        tiled, spec = result.program, result.spec
        if tile_sizes == "midpoint":
            space = estimate_bounds(tiled, spec, hw)
            tile_sizes = dict(zip(space.slot_ids, space.midpoint()))

    def assign(pts, centroids):
        P = NdArray.from_nested([list(map(float, p)) for p in pts])
        C = NdArray.from_nested([list(map(float, c)) for c in centroids])
        if tiled is None:
            out = eval_program(program, [P, C])
        else:
            out = eval_program(tiled, [P, C], EvalConfig(tile_sizes=tile_sizes))
        return out.to_nested()

    return assign


def bench_kmeans(hw, points=500, features=16, k=8, iters=3, seed=0):
    data = generate_array((points, features), "f64", "row", seed)
    t0 = time.perf_counter()
    labels_u, cent_u = kmeans_reference(data, k, iters, seed,
                                        assign=make_ir_distance(hw))
    t_untiled = time.perf_counter() - t0
    t0 = time.perf_counter()
    labels_t, cent_t = kmeans_reference(data, k, iters, seed,
                                        assign=make_ir_distance(hw, "midpoint"))
    t_tiled = time.perf_counter() - t0
    if labels_u != labels_t:
        raise CorrectnessError("kmeans: tiled and untiled label vectors differ")
    digest_u = checksum(NdArray((len(labels_u),), "i64", "row", labels_u))
    digest_t = checksum(NdArray((len(labels_t),), "i64", "row", labels_t))
    return [
        BenchmarkResult("kmeans", "untiled", t_untiled, None, digest_u),
        BenchmarkResult("kmeans", "tiled", t_tiled, None, digest_t),
    ]
