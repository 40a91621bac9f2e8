"""Command-line interface.

Subcommands: run (evaluate a program), tile (print the tiled IR and slot
table), autotune (search tile sizes), cachesim (trace + simulate), bench
(run the benchmark corpus). Exit codes: 0 success, 1 usage or parse
error, 2 runtime error (an invalid cache geometry too), 3 correctness-check
failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .autotuner import (
    AutotuneError, CostProbe, SearchConfig, cache_key, format_log, load_cached_sizes,
    run_search, store_cached_sizes,
)
from .bench import (
    BENCHMARKS, CorrectnessError, bench_kmeans, bench_matmul, bench_sum_rows,
    checksum, generate_array, prepare,
)
from .cachesim import CacheConfigError, CacheModel, Simulator, probe_hardware, simulate_program
from .ir import IRError, desugar_allpairs, parse_program, print_program
from .ndarray import ArrayValue, ShapeError, load_array
from .semantics import Counters, EvalConfig, EvalError, eval_program
from .tiling import TilingError, register_tile, tile_program

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_CORRECTNESS = 3


class UsageError(Exception):
    pass


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (UsageError, IRError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: program nests too deeply", file=sys.stderr)
        return EXIT_USAGE
    except (EvalError, TilingError, AutotuneError, CacheConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except CorrectnessError as exc:
        print(f"correctness failure: {exc}", file=sys.stderr)
        return EXIT_CORRECTNESS


def build_parser():
    parser = argparse.ArgumentParser(prog="tilepar")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate a program on inputs")
    _program_args(run)
    run.add_argument("--tiling", choices=["off", "cache", "cache+register"], default="off")
    run.add_argument("--tile-sizes", help="comma-separated sizes for runtime slots")
    run.add_argument("--format", choices=["human", "csv"], default="human")
    run.set_defaults(handler=cmd_run)

    tile = sub.add_parser("tile", help="print the tiled IR and tile-slot table")
    _program_args(tile)
    tile.add_argument("--ranks", help="comma-separated entry argument ranks")
    tile.add_argument("--register", action="store_true", help="apply the register pass too")
    tile.set_defaults(handler=cmd_tile)

    tune = sub.add_parser("autotune", help="search tile sizes for a program")
    _program_args(tune)
    tune.add_argument("--probe", choices=["misses", "walltime"], default="misses")
    tune.add_argument("--batch", type=int, default=SearchConfig.batch_size,
                      help="candidates per round")
    tune.add_argument("--budget", type=int, default=16,
                      help="candidates, the midpoint included, after which no new round "
                           "starts; the last round's batch may pass it by up to --batch - 1")
    tune.add_argument("--cache", help="best-sizes cache file (skips the search on a hit)")
    tune.add_argument("--format", choices=["human", "csv"], default="human")
    tune.set_defaults(handler=cmd_autotune)

    sim = sub.add_parser("cachesim", help="trace a program through a cache model")
    _program_args(sim)
    sim.add_argument("--capacity", type=int, help="bytes (default: probed L1)")
    sim.add_argument("--line", type=int, help="line size bytes (default: probed)")
    sim.add_argument("--assoc", type=int, help="ways (default: probed L1)")
    sim.add_argument("--tiling", choices=["off", "cache", "cache+register"], default="off")
    sim.add_argument("--tile-sizes", help="comma-separated sizes for runtime slots")
    sim.add_argument("--format", choices=["human", "csv"], default="human")
    sim.set_defaults(handler=cmd_cachesim)

    bench = sub.add_parser("bench", help="run a corpus benchmark over all variants")
    bench.add_argument("--name", choices=BENCHMARKS, required=True)
    bench.add_argument("--size", type=int, default=64, help="matrix dimension")
    bench.add_argument("--rows", type=int, help="sum_rows rows (default: --size)")
    bench.add_argument("--cols", type=int, help="sum_rows columns (default: --size)")
    bench.add_argument("--layout", choices=["row", "col"], default="col")
    bench.add_argument("--points", type=int, default=500)
    bench.add_argument("--features", type=int, default=16)
    bench.add_argument("--k", type=int, default=8)
    bench.add_argument("--iters", type=int, default=3)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--misses", action="store_true", help="include simulated miss counts")
    bench.add_argument("--format", choices=["human", "csv"], default="human")
    bench.set_defaults(handler=cmd_bench)
    return parser


def _program_args(sub):
    sub.add_argument("--program", required=True, help="IR source file")
    sub.add_argument("--input", action="append", default=[],
                     help="array file (repeatable, one per entry argument)")
    sub.add_argument("--gen", action="append", default=[],
                     help="generated input spec: shape=RxC,dtype=f64,layout=row,seed=0")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--internal-dialect", action="store_true",
                     help="accept tiled operators and generated names in the source")


def _hardware():
    """Probed hardware with environment-variable overrides."""
    info = probe_hardware()
    overrides = {
        "l1_bytes": os.environ.get("TILEPAR_L1_BYTES"),
        "line_bytes": os.environ.get("TILEPAR_LINE_BYTES"),
        "cores": os.environ.get("TILEPAR_CORES"),
        "registers": os.environ.get("TILEPAR_REGISTERS"),
    }
    for key, value in overrides.items():
        if value is None:
            continue
        n = _int(value, f"environment override {key}")
        if n >= 1:
            setattr(info, key, n)
            info.provenance = "configured"
    return info


def _int(text, what, least=None):
    """`text` as an integer of at least `least` (any when None)."""
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {text!r}") from None
    if least is not None and value < least:
        raise UsageError(f"{what} must be >= {least}, got {value}")
    return value


def _load_program(args):
    try:
        with open(args.program) as f:
            text = f.read()
    except OSError as exc:
        raise UsageError(f"cannot read program: {exc}")
    return parse_program(text, allow_internal=getattr(args, "internal_dialect", False))


def _load_inputs(args):
    values = []
    for path in args.input:
        try:
            with open(path) as f:
                values.append(load_array(f.read()))
        except OSError as exc:
            raise UsageError(f"cannot read input: {exc}")
    for spec in args.gen:
        values.append(_generated_input(spec, args.seed))
    return values


_GEN_FIELDS = ("shape", "dtype", "layout", "seed")


def _generated_input(spec, default_seed):
    fields = {"dtype": "f64", "layout": "row", "seed": str(default_seed)}
    for part in spec.split(","):
        if "=" not in part:
            raise UsageError(f"bad --gen field {part!r}")
        key, value = (x.strip() for x in part.split("=", 1))
        if key not in _GEN_FIELDS:
            raise UsageError(f"unknown --gen field {key!r}")
        fields[key] = value
    if "shape" not in fields:
        raise UsageError("--gen needs shape=DIMxDIM...")
    shape = tuple(_int(d, "--gen shape dimension") for d in fields["shape"].lower().split("x"))
    return generate_array(shape, fields["dtype"], fields["layout"],
                          _int(fields["seed"], "--gen seed"))


def _arg_ranks(inputs):
    return [v.rank if isinstance(v, ArrayValue) else 0 for v in inputs]


def _prepare(program, inputs, hw, registers=False):
    """`bench.prepare` on the entry arguments' ranks; notes on stderr when
    the cache pass leaves the program untiled."""
    prepared = prepare(program, _arg_ranks(inputs) if inputs else None, hw,
                       registers=registers)
    if prepared.tiled is None:
        print(f"note: program left untiled ({prepared.reason})", file=sys.stderr)
    return prepared


def _tiled_with_sizes(args, program, inputs, hw):
    """The program tiled as `--tiling` asks, and its slot sizes: the
    runtime slots take `--tile-sizes`, else the midpoint of their
    estimated bounds. Untiled, the sizes are empty."""
    if args.tile_sizes and args.tiling == "off":
        raise UsageError("--tile-sizes requires --tiling cache or cache+register")
    if args.tiling == "off":
        return desugar_allpairs(program), {}
    candidate = None
    if args.tile_sizes:
        candidate = [_int(t, "tile size", 1) for t in args.tile_sizes.split(",")]
    prepared = _prepare(program, inputs, hw, registers=args.tiling == "cache+register")
    if prepared.tiled is None:
        return prepared.untiled, {}
    if candidate is not None:
        slots = len(prepared.space.slot_ids)
        if len(candidate) != slots:
            raise UsageError(f"{slots} runtime slot(s) but {len(candidate)} size(s) given")
    return prepared.tiled, prepared.sizes(candidate)


def _render_value(value):
    if not isinstance(value, ArrayValue):
        return str(value)
    if value.size <= 64:
        return str(value.to_nested())
    return checksum(value)


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------

def cmd_run(args):
    program = _load_program(args)
    inputs = _load_inputs(args)
    tiled, sizes = _tiled_with_sizes(args, program, inputs, _hardware())
    config = EvalConfig(tile_sizes=sizes)
    start = time.perf_counter()
    value = eval_program(tiled, inputs, config)
    wall = time.perf_counter() - start
    if args.format == "csv":
        print("result,wall_seconds")
        print(f"\"{_render_value(value)}\",{wall:.6f}")
    else:
        print(_render_value(value))
        print(f"wall: {wall:.6f}s")
    return EXIT_OK


def cmd_tile(args):
    program = _load_program(args)
    program = desugar_allpairs(program)
    ranks = None
    if args.ranks:
        ranks = [_int(t, "rank", 0) for t in args.ranks.split(",")]
    elif args.input or args.gen:
        ranks = _arg_ranks(_load_inputs(args))
    params = program.fn("main").params
    if ranks is not None and len(ranks) != len(params):
        raise UsageError(f"main has {len(params)} parameter(s), got {len(ranks)} ranks")
    result = tile_program(program, arg_ranks=ranks)
    if not result.changed:
        print(f"unchanged: {result.reason}")
        print(print_program(result.program), end="")
        return EXIT_OK
    tiled, spec = result.program, result.spec
    if args.register:
        tiled, spec = register_tile(tiled, spec, _hardware())
    print(print_program(tiled), end="")
    print()
    print(spec.table())
    return EXIT_OK


def cmd_autotune(args):
    program = _load_program(args)
    inputs = _load_inputs(args)
    if not inputs:
        raise UsageError("autotune needs --input or --gen")
    if args.batch < 1:
        raise UsageError("--batch must be >= 1")
    if args.budget < 1:
        raise UsageError("--budget must be >= 1")
    hw = _hardware()
    prepared = _prepare(program, inputs, hw)
    if prepared.tiled is None:
        raise UsageError("program has nothing to tune")
    if args.cache:
        shapes = [v.shape for v in inputs if isinstance(v, ArrayValue)]
        key = cache_key(prepared.tiled, shapes, hw)
        cached = load_cached_sizes(args.cache, key)
        if cached is not None:
            print(f"cached sizes: {cached}")
            return EXIT_OK
    if args.probe == "misses":
        def cost(program, sizes):
            stats, _ = simulate_program(program, inputs, hw.l1_model(), tile_sizes=sizes)
            return float(stats.misses)
    else:
        def cost(program, sizes):
            start = time.perf_counter()
            eval_program(program, inputs, EvalConfig(tile_sizes=sizes))
            return time.perf_counter() - start

    config = SearchConfig(batch_size=args.batch, max_evaluations=args.budget,
                          seed=args.seed)
    state = run_search(prepared.space,
                       CostProbe(lambda candidate: cost(prepared.tiled, prepared.sizes(candidate))),
                       config)
    chosen = prepared.sizes(state.best)
    if args.format == "csv":
        print("round,candidate,cost,best,best_cost")
        for r in state.log:
            cost = "" if r.cost is None else f"{r.cost:.6g}"
            print(f"{r.round},{'x'.join(map(str, r.candidate))},{cost},"
                  f"{'x'.join(map(str, r.best))},{r.best_cost:.6g}")
    else:
        print(format_log(state))
        # One more probe, of the untiled program, shows a tiling that loses.
        print(f"chosen sizes: {chosen} cost={state.best_cost:.6g} "
              f"untiled_cost={cost(prepared.untiled, {}):.6g}")
    if args.cache:
        try:
            store_cached_sizes(args.cache, key, chosen)
        except OSError as exc:
            raise UsageError(f"cannot write --cache file: {exc}")
    return EXIT_OK


def cmd_cachesim(args):
    program = _load_program(args)
    inputs = _load_inputs(args)
    if not inputs:
        raise UsageError("cachesim needs --input or --gen")
    hw = _hardware()
    model = CacheModel(hw.l1_bytes if args.capacity is None else args.capacity,
                       hw.line_bytes if args.line is None else args.line,
                       hw.associativity if args.assoc is None else args.assoc)
    tiled, sizes = _tiled_with_sizes(args, program, inputs, hw)
    sim, counters = Simulator(model), Counters()
    stats, value = simulate_program(tiled, inputs, model, tile_sizes=sizes,
                                    simulator=sim, counters=counters)
    if args.format == "csv":
        print("phase,accesses,hits,misses,evictions,miss_ratio")
        for label, ph in sim.phase_stats:
            print(f"\"{label}\",{ph.accesses},{ph.hits},{ph.misses},{ph.evictions},"
                  f"{ph.miss_ratio:.6f}")
        print(f"total,{stats.accesses},{stats.hits},{stats.misses},{stats.evictions},"
              f"{stats.miss_ratio:.6f}")
    else:
        print(f"model: capacity={model.capacity} line={model.line_size} "
              f"ways={model.associativity} sets={model.num_sets}")
        print(f"accesses:  {stats.accesses}")
        print(f"hits:      {stats.hits}")
        print(f"misses:    {stats.misses}")
        print(f"evictions: {stats.evictions}")
        print(f"miss rate: {stats.miss_ratio:.4f}")
        print(f"result:    {checksum(value)}")
        print(f"full-tile calls: {counters.full_tile_calls}")
        print(f"straggler calls: {counters.straggler_calls}")
        print(f"bounds checks:   {counters.bounds_checks}")
        print(f"tiles placed:    {counters.tiles_placed}")
    return EXIT_OK


def cmd_bench(args):
    hw = _hardware()
    if args.name == "matmul":
        results = bench_matmul(hw, n=args.size, seed=args.seed, misses=args.misses)
    elif args.name == "sum_rows":
        results = bench_sum_rows(hw, rows=args.size if args.rows is None else args.rows,
                                 cols=args.size if args.cols is None else args.cols,
                                 layout=args.layout, seed=args.seed,
                                 misses=args.misses)
    else:
        if not 1 <= args.k <= args.points:
            raise UsageError(f"--k must be between 1 and --points ({args.points}), got {args.k}")
        results = bench_kmeans(hw, points=args.points, features=args.features,
                               k=args.k, iters=args.iters, seed=args.seed)
    if args.format == "csv":
        print("benchmark,variant,wall_seconds,misses,checksum")
        for r in results:
            misses = "" if r.misses is None else str(r.misses)
            print(f"{r.name},{r.variant},{r.wall_time:.6f},{misses},{r.checksum}")
    else:
        print(f"{'variant':<18} {'wall':>10} {'misses':>10}  checksum")
        for r in results:
            misses = "-" if r.misses is None else str(r.misses)
            print(f"{r.variant:<18} {r.wall_time:>9.4f}s {misses:>10}  {r.checksum}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
