"""Online tile-size search: Gaussian sampling around the best-known point.

The search space is seeded by a pessimistic/optimistic pair of analytic
bounds per slot (`default_estimator`, a conservative stand-in for
published cache-model estimators). A cache slot whose nest holds register
tiles of size r is bounded, centred and searched in whole register tiles:
its bounds round inward to multiples of r, and its midpoint and every
candidate are multiples of r, so no cache tile ends in a register
straggler. One loop, `run_search`, does the search. Its starting point is
the midpoint of the bounds; each round draws a batch of candidates, one
Gaussian sample per slot with standard deviation half the bound gap,
rounded to the slot's step and clamped into bounds. The cheapest candidate
that beats the best point becomes the new best. Before each round the
search stops when the evaluation budget is spent or the best point has
survived a configured number of rounds; a round always probes its whole
batch, so the last one may take the count past the budget.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

from . import ir
from .tiling import TileSpec

ELEM_BYTES = 8


class AutotuneError(Exception):
    pass


@dataclass
class SearchSpace:
    slot_ids: tuple[int, ...]
    bounds: tuple[tuple[int, int], ...]  # per slot: (lo, hi), 1 <= lo <= hi
    steps: tuple[int, ...] = ()  # per slot: every size is a multiple; () means all 1

    def __post_init__(self):
        self.steps = self.steps or (1,) * len(self.bounds)
        for (lo, hi), r in zip(self.bounds, self.steps):
            if not 1 <= lo <= hi:
                raise AutotuneError(f"invalid bounds ({lo}, {hi})")
            if r < 1 or lo % r or hi % r:
                raise AutotuneError(f"bounds ({lo}, {hi}) are not multiples of step {r}")

    def midpoint(self):
        """Per slot, the multiple of its step nearest (lo + hi) // 2, ties
        going to the larger."""
        return tuple(((lo + hi) // 2 + r // 2) // r * r
                     for (lo, hi), r in zip(self.bounds, self.steps))

    def sigmas(self):
        return tuple(max((hi - lo) / 2.0, 0.0) for lo, hi in self.bounds)

    def snap(self, values):
        """`values` rounded to the nearest multiple of each slot's step,
        then clamped into bounds."""
        return tuple(min(max(r * round(v / r), lo), hi)
                     for v, (lo, hi), r in zip(values, self.bounds, self.steps))


@dataclass
class LogRecord:
    round: int
    candidate: tuple[int, ...]
    cost: float | None  # None: probe failed
    best: tuple[int, ...]
    best_cost: float

    def line(self):
        cost = "failed" if self.cost is None else f"{self.cost:.6g}"
        sizes = "x".join(str(s) for s in self.candidate)
        best = "x".join(str(s) for s in self.best)
        return f"round={self.round} candidate={sizes} cost={cost} best={best} best_cost={self.best_cost:.6g}"


@dataclass
class SearchState:
    space: SearchSpace
    best: tuple[int, ...]
    best_cost: float
    evaluations: int = 0
    no_improve_rounds: int = 0
    log: list = field(default_factory=list)


@dataclass
class CostProbe:
    """Evaluates one tile-size vector to a cost (seconds or misses).

    A candidate whose evaluation raises is discarded (logged with no cost).
    """

    fn: object

    def evaluate(self, sizes):
        return self.fn(sizes)


@dataclass
class SearchConfig:
    """`run_search`'s settings. `max_evaluations` is checked before each
    round: no round starts once that many candidates, the midpoint
    included, are logged, and the last round's batch may go past it by up
    to `batch_size - 1`."""
    batch_size: int = 4
    max_evaluations: int = 40
    no_improve_limit: int = 3
    seed: int = 0
    parallelism: int = 1  # unread: candidates run in order; benchmarks/run.py still passes it


# ---------------------------------------------------------------------------
# Analytic bounds
# ---------------------------------------------------------------------------

def default_estimator(n_slots, n_arrays, l1_bytes):
    """Pessimistic/optimistic square tile sizes for one operator nest.

    Optimistic: the nest's working set exactly fills L1. Pessimistic: every
    distinct array is assumed to conflict with every other, so the usable
    capacity is a quarter of L1 divided again by the array count.
    """
    hi = max(1, int((l1_bytes / (ELEM_BYTES * n_arrays)) ** (1.0 / n_slots)))
    lo = max(1, int((l1_bytes / 4 / (ELEM_BYTES * n_arrays * n_arrays)) ** (1.0 / n_slots)))
    return min(lo, hi), hi


def estimate_bounds(program, spec, hw, extents=None):
    """Per-slot [lo, hi] tile-size bounds for the runtime-tunable slots.

    Slots of one operator nest (one entry-level tiled operator tree) share
    square-shaped bounds; `extents` optionally caps each slot at the
    extent it slices. A register slot belongs to a nest when its path
    starts at a function that one of the nest's tiled operators names;
    each runtime slot of such a nest then takes the register slots' size
    r as its step (their least common multiple, should they differ), its
    bounds rounded inward to multiples of r. A slot whose bounds hold no
    multiple of r keeps them, with step 1.
    """
    slots = spec.runtime_slots()
    if not slots:
        raise AutotuneError("no runtime-tunable slots to search")
    groups = {}
    for slot in slots:
        groups.setdefault(_nest_key(slot.path), []).append(slot)
    arrays_by_nest, functions_by_nest = _nest_operators(program, spec)
    register_sizes = {}  # function name -> sizes of the register slots tiling it
    for s in spec.slots:
        if s.kind == "register":
            register_sizes.setdefault(s.path.split("/")[0], set()).add(s.size)
    bounds, steps = {}, {}
    for nest, group in groups.items():
        n_arrays = max(arrays_by_nest.get(nest, 1) + 1, 2)  # inputs + output
        lo, hi = default_estimator(len(group), n_arrays, hw.l1_bytes)
        step = math.lcm(*(r for f in functions_by_nest.get(nest, ())
                          for r in register_sizes.get(f, ())))
        for slot in group:
            s_lo, s_hi = lo, hi
            if extents and slot.id in extents:
                s_hi = min(s_hi, max(1, extents[slot.id]))
                s_lo = min(s_lo, s_hi)
            r_lo, r_hi = -(-s_lo // step) * step, s_hi // step * step
            if r_lo <= r_hi:
                bounds[slot.id], steps[slot.id] = (r_lo, r_hi), step
            else:
                bounds[slot.id], steps[slot.id] = (s_lo, s_hi), 1
    ordered = tuple(sorted(bounds))
    return SearchSpace(ordered, tuple(bounds[i] for i in ordered),
                       tuple(steps[i] for i in ordered))


def _nest_key(path):
    """Slots of one entry-level operator tree share the first two path
    segments (entry name / outermost tiled operator)."""
    parts = path.split("/") + [""]
    return parts[0] + "/" + parts[1]


def _nest_operators(program, spec):
    """Per nest, the number of distinct array operands of its tiled
    operators, and the set of functions those operators name (with None
    for an operator without a combine or an emit)."""
    slot_paths = {s.id: s.path for s in spec.slots}
    names, functions = {}, {}
    for fn in program.functions.values():
        for e in ir.walk_exprs(fn.body):
            if isinstance(e, ir.TILED_OPS):
                nest = _nest_key(slot_paths.get(e.slot, ""))
                bucket = names.setdefault(nest, set())
                for a in e.args:
                    if isinstance(a, ir.Var):
                        bucket.add(a.name)
                functions.setdefault(nest, set()).update(
                    (e.fn, getattr(e, "combine", None), getattr(e, "emit", None)))
    return {nest: len(vs) for nest, vs in names.items()}, functions


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

def run_search(space, probe, config):
    """Probe the midpoint of the bounds, then run rounds while fewer than
    `config.max_evaluations` candidates are logged and the no-improvement
    limit is not hit. Both are checked before a round, never within one:
    the midpoint and each round's whole batch count, so the search logs
    1 + batch_size * ceil((max_evaluations - 1) / batch_size) candidates
    unless the limit stops it first. A round draws its whole batch, one
    Gaussian sample per slot snapped to the slot's step and bounds
    (`SearchSpace.snap`), each candidate redrawn once when it equals the
    best point, then probes
    the batch in order and accepts its cheapest candidate if that beats
    the best cost; cost ties break toward the lexicographically smallest
    candidate. When no candidate ever has a cost, the best point stays
    the midpoint, at cost inf.

    Each distinct candidate is probed once: a duplicate (clamping makes
    them common) reuses the first result, cost or failure, and is still
    logged as its own candidate."""
    results = {}

    def cost(sizes):
        """The probe's cost of `sizes`, or None when the probe raises."""
        if sizes not in results:
            try:
                results[sizes] = probe.evaluate(sizes)
            except Exception:
                results[sizes] = None
        return results[sizes]

    def draw():
        return space.snap(rng.gauss(b, s) for b, s in zip(state.best, sigmas))

    rng = random.Random(config.seed)
    sigmas = space.sigmas()
    initial = space.midpoint()
    first = cost(initial)
    state = SearchState(space, initial, math.inf if first is None else first, evaluations=1)
    state.log.append(LogRecord(0, initial, first, state.best, state.best_cost))
    rounds = 0
    while (state.evaluations < config.max_evaluations
           and state.no_improve_rounds < config.no_improve_limit):
        candidates = []
        for _ in range(config.batch_size):
            sizes = draw()
            candidates.append(draw() if sizes == state.best else sizes)
        costs = [cost(sizes) for sizes in candidates]
        rounds += 1
        state.evaluations += len(candidates)
        scored = sorted((c, sizes) for sizes, c in zip(candidates, costs) if c is not None)
        if scored and scored[0][0] < state.best_cost:
            state.best_cost, state.best = scored[0]
            state.no_improve_rounds = 0
        else:
            state.no_improve_rounds += 1
        state.log.extend(LogRecord(rounds, sizes, c, state.best, state.best_cost)
                         for sizes, c in zip(candidates, costs))
    return state


def autotune(program, spec, probe, hw, config=None, extents=None):
    """Full tuning pass: estimate bounds, search, freeze the best sizes.

    Returns (TileSpec with concrete sizes for the searched slots, final
    SearchState whose log holds one record per candidate)."""
    config = config or SearchConfig()
    space = estimate_bounds(program, spec, hw, extents=extents)
    state = run_search(space, probe, config)
    chosen = dict(zip(space.slot_ids, state.best))
    slots = [replace(s, size=chosen[s.id]) if s.id in chosen else s
             for s in spec.slots]
    return TileSpec(slots), state


def format_log(state):
    return "\n".join(r.line() for r in state.log)


# ---------------------------------------------------------------------------
# Best-sizes cache (one JSON file, keyed by program, input shapes, hardware)
# ---------------------------------------------------------------------------

def cache_key(program, input_shapes, hw):
    import hashlib
    from .ir import print_program
    blob = (print_program(program)
            + repr(sorted(tuple(s) for s in input_shapes))
            + f"|{hw.l1_bytes}/{hw.line_bytes}/{hw.cores}/{hw.registers}/{hw.associativity}")
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_table(path):
    """The JSON object stored at `path`; {} when the file is missing,
    unreadable, not JSON or not a JSON object."""
    import json
    try:
        with open(path) as f:
            table = json.load(f)
    except (OSError, ValueError, RecursionError):
        return {}
    return table if isinstance(table, dict) else {}


def load_cached_sizes(path, key):
    """The sizes stored under `key`; None unless the entry maps integer
    slot ids to integer sizes."""
    entry = _cache_table(path).get(key)
    if not isinstance(entry, dict) or not all(
            slot.isdecimal() and type(size) is int for slot, size in entry.items()):
        return None
    return {int(slot): size for slot, size in entry.items()}


def store_cached_sizes(path, key, sizes):
    import json
    table = _cache_table(path)
    table[key] = {str(slot): size for slot, size in sizes.items()}
    with open(path, "w") as f:
        json.dump(table, f, indent=2, sort_keys=True)
