#!/usr/bin/env python3
"""Replay the benchmark's recorded node-kernel calls in two tilepar trees.

    python3 tools/kernels.py BASE_SRC CHANGE_SRC [--rounds 10] [--reps 5] [--workload NAME ...]

BASE_SRC and CHANGE_SRC are `src` directories, each holding a `tilepar`
package, loaded into this one process as `tools/ab.py` loads them (an
older commit's tree can be had with `git archive COMMIT | tar -x -C DIR`).
For each workload, at seed 0, each tree compiles the program as ab.py does
and runs one tiled eval at the midpoint sizes, recording every call of a
kernel that `Kernels._kernel` gave: the kernel, its views, axes, extent
and closure values, and whether it was given a place (`at`).

The calls are grouped by the kind of their kernel's description
(`kernels.Kernel`): `(top, fold is not None, product is not None)`, taken
from `Kernels._driven`. A tree without `_driven` (one older than the
kernel descriptions) takes the other tree's kinds call by call.

Each call is replayed with a new row-major element list as its place, so
its results land nowhere else. Before anything is timed, each tree replays
every call once; the two trees must have made as many calls, and each
call's output (what it returns and the values it writes at its place,
with their types) must be the same in both. Otherwise the script names
the workload and exits non-zero. A round then replays, for every workload
and kind, all its calls `--reps` times in each tree, the two trees one
after the other, and alternates from round to round which tree runs
first. Each tree's time in a round is the median of its reps.

It prints, per workload and kind, the number of calls, each tree's median
microseconds per call over rounds, the median over rounds of change /
base, and in how many rounds the change read lower.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import statistics
import sys
import time

from ab import Side, load_tree
from workloads import WORKLOADS

LABELS = {(0, True, True): "node over a dot", (0, True, False): "node over a reduce",
          (1, True, True): "dot", (1, True, False): "reduce node",
          (0, False, True): "row map", (0, False, False): "map or scan node",
          (2, False, False): "leaf"}


def fresh_place(shape):
    """`at` for a replayed call: a new row-major element list of `shape`."""
    if len(shape) == 1:
        return [None] * shape[0], 0, (1,)
    return [None] * (shape[0] * shape[1]), 0, (shape[1], 1)


def record(tree, side):
    """(calls, kinds) of one tiled eval of `side` (`ab.Side`) in `tree`:
    each kernel call as (kernel, views, axes, extent, captured, placed),
    in order, and the description kind of each call, or None when the
    tree has no `Kernels._driven`."""
    cls = tree["kernels"].Kernels
    kernel_of, driven = cls._kernel, getattr(cls, "_driven", None)
    calls, kind_of = [], {}

    def _kernel(self, f, ranks):
        built = kernel_of(self, f, ranks)
        if built is None:
            return None

        def recorded(views, axes, extent, captured, at=None):
            calls.append((built, views, axes, extent, captured, at is not None))
            return built(views, axes, extent, captured, at)
        return recorded

    def _driven(self, d):
        built = driven(self, d)
        kind_of[built] = (d.top, d.fold is not None, d.product is not None)
        return built

    cls._kernel = _kernel
    if driven:
        cls._driven = _driven
    try:
        side.call("tiled")
    finally:
        cls._kernel = kernel_of
        if driven:
            cls._driven = driven
    return calls, [kind_of[c[0]] for c in calls] if driven else None


def outputs(calls):
    """Each call's output, replayed once: what it returns and, given a
    place, the values written there, each with its type."""
    got = []
    for kernel, views, axes, extent, captured, placed in calls:
        held = []

        def at(shape):
            held.append(fresh_place(shape))
            return held[-1]
        value = kernel(views, axes, extent, captured, at if placed else None)
        if isinstance(value, list):
            value = [(type(x), x) for x in value]
        got.append((value, [(type(x), x) for x in held[0][0]] if held else None))
    return got


def replay(calls):
    """Run every call of `calls` once."""
    for kernel, views, axes, extent, captured, placed in calls:
        kernel(views, axes, extent, captured, fresh_place if placed else None)


def timed(calls, reps):
    """Median wall seconds of `reps` replays of `calls`."""
    times = []
    for _ in range(reps):
        gc.collect()
        t0 = time.perf_counter()
        replay(calls)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="the base tree's src directory")
    ap.add_argument("change", help="the changed tree's src directory")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--reps", type=int, default=5, help="replays per tree, kind and round")
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS), metavar="NAME",
                    help="replay only this workload (repeatable; default: all)")
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.reps < 1:
        ap.error("--rounds and --reps must be at least 1")
    trees = {"base": load_tree(args.base, "tilepar_base"),
             "change": load_tree(args.change, "tilepar_change")}
    for label, tree in trees.items():
        tree["kernels"] = importlib.import_module(f"tilepar_{label}.kernels")
    groups, differ = {}, []  # (workload, kind) -> {tree label: calls}
    for name, wl in WORKLOADS.items():
        if args.workload and name not in args.workload:
            continue
        hosts, _ = wl.make_inputs(0)
        recorded = {label: record(tree, Side(tree, wl, hosts)) for label, tree in trees.items()}
        (base, base_kinds), (change, change_kinds) = recorded["base"], recorded["change"]
        kinds = change_kinds or base_kinds
        if kinds is None:
            raise SystemExit("neither tree has Kernels._driven to give the calls' kinds")
        both = base_kinds is not None and change_kinds is not None
        if len(base) != len(change) or both and base_kinds != change_kinds:
            differ.append(f"{name} (calls or their kinds)")
            continue
        if outputs(base) != outputs(change):
            differ.append(f"{name} (kernel outputs)")
            continue
        for kind, b, c in zip(kinds, base, change):
            pair = groups.setdefault((name, kind), {"base": [], "change": []})
            pair["base"].append(b)
            pair["change"].append(c)
        print(f"{name}: {len(base)} kernel calls, the same outputs in both trees")
    if differ:
        raise SystemExit(f"the trees' kernel calls differ: {', '.join(differ)}")
    times = {(key, label): [] for key in groups for label in trees}
    for r in range(args.rounds):
        order = ("base", "change") if r % 2 == 0 else ("change", "base")
        for key, pair in groups.items():
            for label in order:
                times[key, label].append(timed(pair[label], args.reps) / len(pair[label]))
        print(f"round {r + 1}/{args.rounds} done", file=sys.stderr)
    print(f"{'workload':<20} {'kind':<22} {'calls':>6} {'base us':>8} {'change us':>9} "
          f"{'change/base':>11} {'rounds lower':>12}")
    for key, pair in groups.items():
        name, kind = key
        base, change = times[key, "base"], times[key, "change"]
        ratios = [c / b for b, c in zip(base, change)]
        lower = sum(c < b for b, c in zip(base, change))
        print(f"{name:<20} {LABELS.get(kind, str(kind)):<22} {len(pair['base']):>6} "
              f"{statistics.median(base) * 1e6:8.1f} {statistics.median(change) * 1e6:9.1f} "
              f"{statistics.median(ratios):11.3f} {f'{lower}/{len(ratios)}':>12}")


if __name__ == "__main__":
    main()
