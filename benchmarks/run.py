#!/usr/bin/env python3
"""tilepar benchmark: one workload, one seed, one mode.

    python3 benchmarks/run.py --workload rowsum-col256-tune --seed 0 --seconds 30 --trace 0

Run it from the root of a tilepar source checkout; the package is imported
from ./src. The benchmark sets up the workload several times, then repeats
rounds of calls into tilepar's public functions until --seconds have
passed. Every output is checked against a host reference. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer ones, taken
from spans, with --trace 1. Workloads and metrics are described in
benchmarks/NOTES.md.

Every time is reported in reference seconds: the wall time of the call,
scaled by YARDSTICK_REF_S over the time a fixed pure-Python kernel (the
yardstick) took just before and after it. This cancels most of the drift
in the host's speed; raw medians are printed beside them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import tilepar  # noqa: E402
from tilepar.autotuner import CostProbe, SearchConfig, autotune, estimate_bounds  # noqa: E402
from tilepar.cachesim import Simulator, probe_hardware, simulate_program, trace_program  # noqa: E402
from tilepar.ir import desugar_allpairs, parse_program  # noqa: E402
from tilepar.semantics import EvalConfig, eval_program  # noqa: E402
from tilepar.tiling import register_tile, tile_program  # noqa: E402

from spans import Tracer, layer_self_times  # noqa: E402
from workloads import (  # noqa: E402
    FIXTURE, HW, L1_BYTES, LINE_BYTES, MODEL, REGISTERS, TUNE_BATCH, TUNE_BUDGET,
    WAYS, WORKLOADS, matmul_transposed, mismatch,
)

SETUP_REPS = 9
COMPILE_REPS = 20
MIN_ROUNDS = 2
OUT_DIR = ROOT / ".bench_out"

YARDSTICK_REF_S = 0.02
# Each side of a call runs the yardstick for about this share of the call's
# last duration: the host's speed varies within a second, and a longer
# yardstick tracks the average speed a long call sees.
YARDSTICK_SHARE = 0.05
_YARD_ROWS = [[random.Random(i).random() for _ in range(64)] for i in range(64)]

END_TO_END = {
    "setup_s": "s", "compile_s": "s", "eval_untiled_s": "s", "eval_tiled_s": "s",
    "traced_sim_s": "s", "misses_untiled": "count",
    "misses_tiled": "count", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "ir.parse_s": "s", "ir.desugar_s": "s", "tiling.tile_s": "s",
    "tiling.functions": "count", "tiling.runtime_slots": "count", "tiling.fixed_slots": "count",
    "autotuner.bounds_s": "s", "autotuner.probes": "count",
    "autotuner.distinct_probes": "count", "autotuner.failed_probes": "count",
    "autotuner.tuned_misses": "count",
    "semantics.full_tile_calls": "count", "semantics.straggler_calls": "count",
    "semantics.bounds_checks": "count", "semantics.tiled_over_untiled": "ratio",
    "semantics.trace_s": "s", "semantics.trace_events": "count", "semantics.trace_writes": "count",
    "cachesim.replay_s": "s", "cachesim.ns_per_event": "ns", "cachesim.accesses": "count",
    "cachesim.hits": "count", "cachesim.evictions": "count",
    "cachesim.miss_ratio_untiled": "ratio", "cachesim.miss_ratio_tiled": "ratio",
    "bench.verify_s": "s", "bench.trace_overhead": "ratio",
    "ir.self_s": "s", "tiling.self_s": "s", "autotuner.self_s": "s",
    "semantics.self_s": "s", "cachesim.self_s": "s", "bench.self_s": "s",
}
# Reported by name in the human-readable part only: each is measured on one
# workload, so it would read 0 on the others.
ONE_WORKLOAD_TIMES = ("autotune_s", "autotuner.probe_s", "autotuner.search_self_s",
                      "tiling.register_s")


def yardstick(reps=1):
    """Wall seconds per run of a fixed pure-Python kernel (64 x 64 dot
    products), averaged over `reps` back-to-back runs."""
    t0 = time.perf_counter()
    for _ in range(reps):
        matmul_transposed(_YARD_ROWS, _YARD_ROWS)
    return (time.perf_counter() - t0) / reps


@dataclass
class Compiled:
    program: object
    tiled: object
    spec: object
    space: object

    def sizes(self, chosen=None):
        """Slot sizes: `chosen` for the tunable slots, else the bounds' midpoint."""
        chosen = chosen or self.space.midpoint()
        return self.spec.sizes(overrides=dict(zip(self.space.slot_ids, chosen)))


def compile_program(wl, tracer):
    """parse + desugar + tile_program (+ register_tile) + estimate_bounds."""
    program = tracer.call("ir.parse_program", parse_program, wl.src)
    program = tracer.call("ir.desugar_allpairs", desugar_allpairs, program)
    result = tracer.call("tiling.tile_program", tile_program, program,
                         arg_ranks=[2] * wl.operands)
    if not result.changed:
        raise RuntimeError(f"{wl.name}: program did not tile: {result.reason}")
    tiled, spec = result.program, result.spec
    if wl.registers:
        tiled, spec = tracer.call("tiling.register_tile", register_tile, tiled, spec, HW)
    space = tracer.call("autotuner.estimate_bounds", estimate_bounds, tiled, spec, HW,
                        extents=wl.extents)
    return Compiled(program, tiled, spec, space)


def trace_digest(events):
    h = hashlib.sha256()
    for addr, kind in events:
        h.update(f"{addr}{kind}".encode())
    return h.hexdigest()


def median(xs):
    return statistics.median(xs) if xs else 0.0


class Bench:
    """Runs one workload: set-up, rounds of checked calls, results."""

    def __init__(self, wl, seed, trace=False):
        self.wl, self.seed, self.trace = wl, seed, trace
        self.tracer = Tracer(wl.name)
        self.attempted = self.failed = 0
        self.errors = []                 # failed checks and raised calls, as text
        self.samples = defaultdict(list)  # metric -> reference-second samples
        self.raw = defaultdict(list)      # metric -> wall-second samples
        self.counts = {}                  # deterministic counts of the first round
        self.round_scale = []             # per round: YARDSTICK_REF_S / median yardstick
        self.round_traced = []
        self.round_s = []                 # per round: reference seconds of its timed calls
        self.verify_s = 0.0
        self._yards = []
        self._yard_reps = {}              # call -> yardstick repeats on each side

    # -- measurement helpers ------------------------------------------------------

    def _fail(self, what, detail):
        self.failed += 1
        self.errors.append(f"{what}: {detail}")

    def _yard(self, reps=1):
        y = yardstick(reps)
        self._yards.append(y)
        return y

    def check(self, what, value):
        """Compare a program result with the host reference; False on mismatch."""
        t0 = time.perf_counter()
        with self.tracer.span("bench.verify"):
            problem = mismatch(value, self.expected, self.wl.out_shape(self.wl.n))
        self.verify_s += time.perf_counter() - t0
        if problem:
            self._fail(what, problem)
        return problem is None

    def call(self, what, metric, name, fn, *args, layer=None, **kwargs):
        """One checked call between two yardsticks. Returns (ok, result).

        The wall time, less any verification done inside it, is recorded
        under `metric` and added to the round's total."""
        self.attempted += 1
        gc.collect()
        reps = self._yard_reps.get(what, 1)
        y0 = self._yard(reps)
        verified = self.verify_s
        t0 = time.perf_counter()
        try:
            with self.tracer.span(name, layer, what=what):
                out = fn(*args, **kwargs)
        except Exception:
            self._fail(what, traceback.format_exc())
            return False, None
        dt = time.perf_counter() - t0 - (self.verify_s - verified)
        scaled = dt * YARDSTICK_REF_S / ((y0 + self._yard(reps)) / 2)
        self._yard_reps[what] = max(1, round(YARDSTICK_SHARE * dt / YARDSTICK_REF_S))
        self._round_s += scaled
        if metric:
            self.samples[metric].append(scaled)
            self.raw[metric].append(dt)
        return True, out

    # -- set-up ----------------------------------------------------------------------

    def setup(self):
        """Generate inputs, compute the host references and compile, SETUP_REPS
        times; the last set-up is kept."""
        wl = self.wl
        for _ in range(SETUP_REPS):
            gc.collect()
            y0 = self._yard()
            t0 = time.perf_counter()
            hosts, self.inputs = wl.make_inputs(self.seed)
            self.expected = wl.reference(*hosts)
            self.compiled = compile_program(wl, self.tracer)
            self.mid = self.compiled.sizes()
            dt = time.perf_counter() - t0
            self.raw["setup_s"].append(dt)
            self.samples["setup_s"].append(dt * YARDSTICK_REF_S / ((y0 + self._yard()) / 2))
        self._yards.clear()

    # -- one round -----------------------------------------------------------------------

    def run_round(self, index):
        """Rounds before MIN_ROUNDS make every call of the workload, so each
        count is read at least twice; later rounds repeat only the calls
        behind the timed metrics. With tracing, even rounds are traced."""
        self.tracer.round = index
        self.tracer.enabled = self.trace and index % 2 == 0
        self.round_traced.append(self.tracer.enabled)
        self._round_s = 0.0
        verify_start = self.verify_s
        counts = {}
        with self.tracer.span("bench.round"):
            self._round_calls(counts, full=index < MIN_ROUNDS)
            self.round_s.append(self._round_s)
            if self.tracer.enabled:
                self._split_trace(counts)
        self.samples["bench.verify_s"].append(self.verify_s - verify_start)
        self.round_scale.append(YARDSTICK_REF_S / median(self._yards))
        self._yards.clear()
        self._compare_counts(index, counts)

    def _round_calls(self, counts, full):
        c, inputs = self.compiled, self.inputs
        self._compile_batch(counts)
        ok, value = self.call("eval untiled", "eval_untiled_s", "semantics.eval_program",
                              eval_program, c.program, inputs)
        if ok:
            self.check("eval untiled", value)
        config = EvalConfig(tile_sizes=self.mid)
        ok, value = self.call("eval tiled", "eval_tiled_s", "semantics.eval_program",
                              eval_program, c.tiled, inputs, config)
        if ok and self.check("eval tiled", value):
            counts.update(full_tile_calls=config.counters.full_tile_calls,
                          straggler_calls=config.counters.straggler_calls,
                          bounds_checks=config.counters.bounds_checks)
        tiled = self._traced_run("traced tiled", "traced_sim_s", c.tiled, self.mid)
        if tiled:
            counts.update(misses_tiled=tiled.misses, accesses=tiled.accesses,
                          hits=tiled.hits, evictions=tiled.evictions)
        if not full:
            return
        untiled = self._traced_run("traced untiled", None, c.program, {})
        if untiled:
            counts.update(misses_untiled=untiled.misses, accesses_untiled=untiled.accesses)
        if self.wl.tune:
            self._tune(counts)

    def _compile_batch(self, counts):
        gc.collect()
        y0 = self._yard()
        times = []
        for _ in range(COMPILE_REPS):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                compiled = compile_program(self.wl, self.tracer)
            except Exception:
                self._fail("compile", traceback.format_exc())
                continue
            times.append(time.perf_counter() - t0)
        scale = YARDSTICK_REF_S / ((y0 + self._yard()) / 2)
        self.raw["compile_s"] += times
        self.samples["compile_s"] += [t * scale for t in times]
        self._round_s += median(times) * scale
        if times:
            spec = compiled.spec
            counts.update(functions=len(compiled.tiled.functions),
                          runtime_slots=len(spec.runtime_slots()),
                          fixed_slots=sum(s.size is not None for s in spec.slots),
                          bounds=compiled.space.bounds)

    def _traced_run(self, what, metric, program, sizes):
        ok, out = self.call(what, metric, "cachesim.simulate_program", simulate_program,
                            program, self.inputs, MODEL, tile_sizes=sizes)
        if not ok:
            return None
        stats, value = out
        return stats if self.check(what, value) else None

    def _tune(self, counts):
        """autotune with a miss-count probe, then trace and evaluate the result."""
        c, tracer = self.compiled, self.tracer
        probed, probe_times = [], []

        def probe_fn(sizes):
            probed.append(tuple(sizes))
            self.attempted += 1
            verified = self.verify_s
            t0 = time.perf_counter()
            with tracer.span("bench.probe"):
                try:
                    stats, value = tracer.call("cachesim.simulate_program", simulate_program,
                                               c.tiled, self.inputs, MODEL,
                                               tile_sizes=c.sizes(sizes))
                except Exception:
                    self._fail("probe", traceback.format_exc())
                    raise
                self.check(f"probe {sizes}", value)
            probe_times.append(time.perf_counter() - t0 - (self.verify_s - verified))
            return float(stats.misses)

        config = SearchConfig(batch_size=TUNE_BATCH, max_evaluations=TUNE_BUDGET,
                              seed=self.seed, parallelism=1)
        ok, out = self.call("autotune", "autotune_s", "autotuner.autotune", autotune,
                            c.tiled, c.spec, CostProbe(probe_fn), HW, config,
                            extents=self.wl.extents)
        if not ok:
            return
        tuned_spec, state = out
        self.raw["autotuner.probe_s"] += probe_times
        self.raw["autotuner.search_self_s"].append(self.raw["autotune_s"][-1] - sum(probe_times))
        tuned = tuned_spec.sizes()
        chosen = tuple(tuned[i] for i in c.space.slot_ids)
        counts.update(probes=len(probed), distinct_probes=len(set(probed)),
                      failed_probes=sum(r.cost is None for r in state.log),
                      tuned_sizes=chosen)
        stats = self._traced_run("traced tuned", None, c.tiled, tuned)
        if stats:
            counts["tuned_misses"] = stats.misses
        ok, value = self.call("eval tuned", None, "semantics.eval_program", eval_program,
                              c.tiled, self.inputs, EvalConfig(tile_sizes=tuned))
        if ok:
            self.check("eval tuned", value)

    def _split_trace(self, counts):
        """Materialized trace, then a replay of it: emission vs simulation.

        Outside the round total: it repeats the traced tiled run in two halves."""
        ok, events = self.call("trace tiled", "semantics.trace_s", "cachesim.trace_program",
                               trace_program, self.compiled.tiled, self.inputs, self.mid,
                               layer="semantics")
        if not ok:
            return
        with self.tracer.span("bench.digest"):
            counts.update(trace_events=len(events),
                          trace_writes=sum(kind == "W" for _, kind in events),
                          trace_digest=trace_digest(events))
        sim = Simulator(MODEL)
        ok, stats = self.call("replay tiled", "cachesim.replay_s", "cachesim.Simulator.feed",
                              sim.feed, events)
        streamed = (counts.get("misses_tiled"), counts.get("accesses"))
        if ok and (stats.misses, stats.accesses) != streamed:
            self._fail("replay tiled", f"replayed {stats}, streamed (misses, accesses) {streamed}")

    def _compare_counts(self, index, counts):
        for key, value in counts.items():
            first = self.counts.setdefault(key, value)
            if first != value:
                self._fail("repeat", f"round {index}: {key} = {value!r}, first read {first!r}")

    # -- the whole run -------------------------------------------------------------------

    def measure(self, seconds):
        deadline = time.perf_counter() + seconds
        self.wall_s = -time.perf_counter()
        index = 0
        while index < MIN_ROUNDS or time.perf_counter() < deadline:
            self.run_round(index)
            index += 1
        self.wall_s += time.perf_counter()
        self.tracer.enabled = False
        self._check_fixture()

    def _check_fixture(self):
        wl = self.wl
        if not (wl.tune and wl.n == 256 and self.seed == 0):
            return
        got = {"misses_untiled": self.counts.get("misses_untiled"),
               "tuned_misses": self.counts.get("tuned_misses"),
               "tuned_sizes": self.counts.get("tuned_sizes")}
        if got != FIXTURE:
            self._fail("fixture", f"seed 0 gives {got}, pinned {FIXTURE}")

    @property
    def correct(self):
        return self.failed == 0

    def end_to_end(self):
        m = {name: median(self.samples[name]) for name in
             ("setup_s", "compile_s", "eval_untiled_s", "eval_tiled_s", "traced_sim_s")}
        m["misses_untiled"] = self.counts.get("misses_untiled", 0)
        m["misses_tiled"] = self.counts.get("misses_tiled", 0)
        m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return m

    def per_layer(self):
        spans = [s for s in self.tracer.spans if s.round >= 0]
        traced = [r for r, t in enumerate(self.round_traced) if t]
        self.raw["tiling.register_s"] = [s.duration for s in spans
                                         if s.name == "tiling.register_tile"]

        def span_median(name):
            return median([s.duration * self.round_scale[s.round]
                           for s in spans if s.name == name])

        m = {"ir.parse_s": span_median("ir.parse_program"),
             "ir.desugar_s": span_median("ir.desugar_allpairs"),
             "tiling.tile_s": span_median("tiling.tile_program"),
             "autotuner.bounds_s": span_median("autotuner.estimate_bounds"),
             "semantics.trace_s": median(self.samples["semantics.trace_s"]),
             "cachesim.replay_s": median(self.samples["cachesim.replay_s"]),
             "bench.verify_s": median(self.samples["bench.verify_s"])}
        per_round = defaultdict(list)
        for r in traced:
            own = layer_self_times([s for s in spans if s.round == r])
            for layer in ("ir", "tiling", "autotuner", "semantics", "cachesim", "bench"):
                per_round[layer].append(own.get(layer, 0.0) * self.round_scale[r])
        for layer, values in per_round.items():
            m[f"{layer}.self_s"] = median(values)
        k = self.counts
        for key in ("functions", "runtime_slots", "fixed_slots"):
            m[f"tiling.{key}"] = k.get(key, 0)
        for key in ("probes", "distinct_probes", "failed_probes", "tuned_misses"):
            m[f"autotuner.{key}"] = k.get(key, 0)
        for key in ("full_tile_calls", "straggler_calls", "bounds_checks",
                    "trace_events", "trace_writes"):
            m[f"semantics.{key}"] = k.get(key, 0)
        for key in ("accesses", "hits", "evictions"):
            m[f"cachesim.{key}"] = k.get(key, 0)
        untiled = median(self.samples["eval_untiled_s"])
        m["semantics.tiled_over_untiled"] = median(self.samples["eval_tiled_s"]) / untiled if untiled else 0.0
        events = k.get("trace_events", 0)
        m["cachesim.ns_per_event"] = m["cachesim.replay_s"] / events * 1e9 if events else 0.0
        m["cachesim.miss_ratio_untiled"] = _ratio(k.get("misses_untiled"), k.get("accesses_untiled"))
        m["cachesim.miss_ratio_tiled"] = _ratio(k.get("misses_tiled"), k.get("accesses"))
        # traced round 2k against untraced round 2k + 1, which makes the same calls
        p = self.round_s
        m["bench.trace_overhead"] = median([p[i] / p[i + 1] for i in range(0, len(p) - 1, 2)])
        return m


def _ratio(num, den):
    return num / den if num is not None and den else 0.0


def host_facts():
    """Facts about the host, recorded beside the results; none feeds a metric."""
    facts = {"python": platform.python_version(), "nproc": os.cpu_count(),
             "tilepar": str(Path(tilepar.__file__).parent)}
    try:
        hw = probe_hardware()
        facts["probed_hardware"] = {"l1_bytes": hw.l1_bytes, "line_bytes": hw.line_bytes,
                                    "cores": hw.cores, "registers": hw.registers,
                                    "provenance": hw.provenance}
    except Exception as exc:  # the probe is documented never to fail; record it if it does
        facts["probed_hardware"] = f"probe_hardware raised {exc!r}"
    facts["modelled_machine"] = {"l1_bytes": L1_BYTES, "line_bytes": LINE_BYTES,
                                 "ways": WAYS, "registers": REGISTERS, "provenance": "pinned"}
    return facts


def report(bench, metrics, units, facts, spans_path):
    """Human-readable lines that precede the JSON result."""
    wl = bench.wl
    print(f"# workload {wl.name} seed {bench.seed} trace {int(bench.trace)} "
          f"rounds {len(bench.round_scale)} wall {bench.wall_s:.3f}s")
    print(f"# host {json.dumps(facts, sort_keys=True)}")
    yard = [YARDSTICK_REF_S / s for s in bench.round_scale]
    print(f"# yardstick median {median(yard) * 1e3:.3f} ms (reference {YARDSTICK_REF_S * 1e3:.0f} ms)")
    for name in sorted(metrics):
        value, unit = metrics[name], units[name]
        n = len(bench.samples.get(name, ()))
        raw = bench.raw.get(name)
        extra = f"  median of {n}" if n else ""
        if raw:
            extra += f", raw median {median(raw):.6g} s"
        print(f"{name:32s} {value:>16.6g} {unit:6s}{extra}")
    for name in ONE_WORKLOAD_TIMES:
        raw = bench.raw.get(name)
        if raw:
            print(f"{name:32s} {median(raw):>16.6g} s      raw median of {len(raw)} (this workload only)")
    if "trace_digest" in bench.counts:
        print(f"# tiled trace sha256 {bench.counts['trace_digest']} "
              f"({bench.counts['trace_events']} events)")
    if spans_path:
        spans = bench.tracer.spans
        roots = sum(s.duration for s in spans if s.parent is None)
        print(f"# {len(spans)} spans in {spans_path}; traced rounds cover "
              f"{roots:.3f}s of {bench.wall_s:.3f}s wall")
    for err in bench.errors:
        print(f"# FAILED {err}", file=sys.stderr)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if Path(tilepar.__file__).resolve().parent != ROOT / "src" / "tilepar":
        sys.exit(f"run.py: tilepar was imported from {tilepar.__file__}, not {ROOT / 'src'}")
    bench = Bench(WORKLOADS[args.workload], args.seed, trace=bool(args.trace))
    bench.setup()
    bench.measure(args.seconds)
    facts = host_facts()
    spans_path = None
    if bench.trace:
        metrics, units = bench.per_layer(), PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "host": facts,
            "trace_digest": bench.counts.get("trace_digest"),
            "round_scale": bench.round_scale, "spans": bench.tracer.to_json()}))
    else:
        metrics, units = bench.end_to_end(), END_TO_END
    report(bench, metrics, units, facts, spans_path)
    print(json.dumps({"correct": bench.correct, "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
