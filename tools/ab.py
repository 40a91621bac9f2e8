#!/usr/bin/env python3
"""In-process A/B of two tilepar source trees on the benchmark's workloads.

    python3 tools/ab.py BASE_SRC CHANGE_SRC [--rounds 16] [--reps 9] [--workload NAME ...]
                        [--eval KIND ...]

BASE_SRC and CHANGE_SRC are `src` directories, each holding a `tilepar`
package; an older commit's tree can be had with
`git archive COMMIT | tar -x -C DIR`. Both load into this one process under
distinct package names, so both run on the same host at the same speed.
Run it from anywhere: the workloads come from `benchmarks/workloads.py` of
the checkout this script is in, which is imported unchanged.

`--workload NAME`, which may be repeated, checks and times only the named
workloads; without it, all of them. `--eval KIND`, also repeatable, times
only the named kinds of eval (`untiled`, `tiled`, `traced`); without it,
all three. Every kind is still checked, so a change to the trace alone
can time its traced runs alone and still have its outputs and counters
compared.

For each workload, at seed 0, both trees build their inputs from the same host rows,
each with its own `NdArray`, and compile the program as `benchmarks/run.py`
does: parse, desugar, `tile_program`, `register_tile` where the workload
asks for it, and the bounds' midpoint sizes. Each tree's untiled, tiled and
traced (`simulate_program`) outputs are checked once against the host
reference before anything is timed, and so is what is deterministic: the
traced run's `TraceStats` (accesses, hits, misses, evictions) and the
tiled run's dispatch `Counters` must be the same in both trees, and so must
the traced run's events: their count and sha256 (`outcomes.DigestSink`),
so a shift of addresses that keeps every miss count is caught too. The
script prints both trees' figures and, on any difference, exits non-zero,
naming the workload, before any timing. A round then times, for every workload,
`--reps` untiled evals, tiled evals and traced tiled runs of each tree (the
kinds `--eval` names), the two trees one after the other for each kind, and
alternates from round to round which tree runs first. Each tree's time in a
round is the median of its reps.

It prints, per workload and eval, each tree's median over rounds, the
median over rounds of change / base, and in how many rounds the change read
lower.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from outcomes import DigestSink  # noqa: E402
from tilepar.ndarray import NdArray  # noqa: E402
from workloads import HW, MODEL, WORKLOADS, mismatch  # noqa: E402

EVALS = ("untiled", "tiled", "traced")
MODULES = ("ir", "ndarray", "semantics", "tiling", "autotuner", "cachesim")


def load_tree(src, name):
    """The modules `MODULES` of the `tilepar` package under `src`, loaded as
    package `name`."""
    init = Path(src).resolve() / "tilepar" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no tilepar package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {m: importlib.import_module(f"{name}.{m}") for m in MODULES}


class Side:
    """One tree's compiled workload and its three timed calls."""

    def __init__(self, tree, wl, hosts):
        self.tree = tree
        ir, tiling = tree["ir"], tree["tiling"]
        self.inputs = [tree["ndarray"].NdArray.from_nested(rows, wl.dtype, wl.layout)
                       for rows in hosts]
        self.program = ir.desugar_allpairs(ir.parse_program(wl.src))
        result = tiling.tile_program(self.program, arg_ranks=[2] * wl.operands)
        if not result.changed:
            raise SystemExit(f"{wl.name}: program did not tile: {result.reason}")
        self.tiled, spec = result.program, result.spec
        if wl.registers:
            self.tiled, spec = tiling.register_tile(self.tiled, spec, HW)
        space = tree["autotuner"].estimate_bounds(self.tiled, spec, HW, extents=wl.extents)
        self.mid = spec.sizes(overrides=dict(zip(space.slot_ids, space.midpoint())))

    def call(self, kind):
        """The output of one `kind` call and its deterministic figures: the
        tiled run's `Counters`, the traced run's `TraceStats`, as dicts."""
        semantics = self.tree["semantics"]
        if kind == "untiled":
            return semantics.eval_program(self.program, self.inputs), None
        if kind == "tiled":
            config = semantics.EvalConfig(tile_sizes=self.mid)
            value = semantics.eval_program(self.tiled, self.inputs, config)
            return value, dataclasses.asdict(config.counters)
        stats, value = self.tree["cachesim"].simulate_program(
            self.tiled, self.inputs, MODEL, tile_sizes=self.mid)
        return value, dataclasses.asdict(stats)

    def digest(self):
        """(events, sha256) of the tiled run's trace at the midpoint sizes."""
        sink = DigestSink()
        semantics = self.tree["semantics"]
        semantics.eval_program(self.tiled, self.inputs,
                               semantics.EvalConfig(tile_sizes=self.mid, trace=sink))
        return sink.events, sink.hash.hexdigest()

    def timed(self, kind, reps):
        """Median wall seconds of `reps` calls of `kind`."""
        times = []
        for _ in range(reps):
            gc.collect()
            t0 = time.perf_counter()
            self.call(kind)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def check(wl, expected, side, label):
    """{kind: figures} of `side`'s tiled and traced runs (`Side.call`),
    after checking its three outputs, and its trace digest (`Side.digest`)."""
    figures = {"digest": side.digest()}
    for kind in EVALS:
        value, figures[kind] = side.call(kind)
        problem = mismatch(NdArray.from_nested(value.to_nested(), value.dtype),
                           expected, wl.out_shape(wl.n))
        if problem:
            raise SystemExit(f"{wl.name} {kind} ({label}): {problem}")
    return figures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="the base tree's src directory")
    ap.add_argument("change", help="the changed tree's src directory")
    ap.add_argument("--rounds", type=int, default=16)
    ap.add_argument("--reps", type=int, default=9, help="calls per tree, eval and round")
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS), metavar="NAME",
                    help="time only this workload (repeatable; default: all)")
    ap.add_argument("--eval", action="append", choices=EVALS, metavar="KIND", dest="evals",
                    help="time only this kind of eval: untiled, tiled or traced "
                         "(repeatable; default: all three)")
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.reps < 1:
        ap.error("--rounds and --reps must be at least 1")
    kinds = [kind for kind in EVALS if kind in (args.evals or EVALS)]
    trees = {"base": load_tree(args.base, "tilepar_base"),
             "change": load_tree(args.change, "tilepar_change")}
    sides, differ = {}, []
    for name, wl in WORKLOADS.items():
        if args.workload and name not in args.workload:
            continue
        hosts, _ = wl.make_inputs(0)
        expected = wl.reference(*hosts)
        sides[name] = {label: Side(tree, wl, hosts) for label, tree in trees.items()}
        figures = {label: check(wl, expected, side, label) for label, side in sides[name].items()}
        for kind, what in (("tiled", "tiled counters"), ("traced", "traced trace stats"),
                           ("digest", "traced event digest")):
            base, change = figures["base"][kind], figures["change"][kind]
            print(f"{name}: {what} base {base}, change {change}")
            if base != change:
                differ.append(f"{name} ({what})")
    if differ:
        raise SystemExit(f"deterministic figures differ: {', '.join(differ)}")
    times = {(name, kind, label): [] for name in sides for kind in kinds for label in trees}
    for r in range(args.rounds):
        order = ("base", "change") if r % 2 == 0 else ("change", "base")
        for name, pair in sides.items():
            for kind in kinds:
                for label in order:
                    times[name, kind, label].append(pair[label].timed(kind, args.reps))
        print(f"round {r + 1}/{args.rounds} done", file=sys.stderr)
    print(f"{'workload':<20} {'eval':<8} {'base ms':>9} {'change ms':>9} "
          f"{'change/base':>11} {'rounds lower':>12}")
    for name in sides:
        for kind in kinds:
            base, change = times[name, kind, "base"], times[name, kind, "change"]
            ratios = [c / b for b, c in zip(base, change)]
            lower = sum(c < b for b, c in zip(base, change))
            print(f"{name:<20} {kind:<8} {statistics.median(base) * 1e3:9.2f} "
                  f"{statistics.median(change) * 1e3:9.2f} {statistics.median(ratios):11.3f} "
                  f"{f'{lower}/{len(ratios)}':>12}")


if __name__ == "__main__":
    main()
