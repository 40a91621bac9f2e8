"""Trace-driven set-associative LRU cache simulation and hardware probing.

The simulator replays element traffic against a single-level cache model:
write-allocate, write-back, LRU replacement within each set. It exists to
make the locality effect of tiling measurable: the same program traced
untiled and tiled can be compared in misses instead of wall time.

A `Simulator` is itself a trace sink (`run`, `phase`; see `semantics`),
so a traced run feeds it directly, one run of addresses per call. It
replays a run in one loop with its counters in locals, and an access to
the line already most recent in its set is only counted. It keeps only
global counters: each `phase` call records a snapshot of them, and a
phase's stats are the next snapshot (or the final totals) minus its own.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

from .semantics import Counters, EvalConfig, TraceSink, eval_program

DEFAULT_L1_BYTES = 32 * 1024
DEFAULT_LINE_BYTES = 64
DEFAULT_ASSOCIATIVITY = 8
DEFAULT_CORES = 4
DEFAULT_REGISTERS = 16

SYSFS_CACHE_DIR = "/sys/devices/system/cpu/cpu0/cache"


class CacheConfigError(Exception):
    pass


@dataclass(frozen=True)
class CacheModel:
    capacity: int
    line_size: int = DEFAULT_LINE_BYTES
    associativity: int = DEFAULT_ASSOCIATIVITY

    def __post_init__(self):
        if min(self.capacity, self.line_size, self.associativity) < 1:
            raise CacheConfigError("cache parameters must be >= 1")
        if self.capacity % (self.line_size * self.associativity):
            raise CacheConfigError(
                f"capacity {self.capacity} not divisible by line*ways "
                f"({self.line_size}*{self.associativity})")

    @property
    def num_sets(self):
        return self.capacity // (self.line_size * self.associativity)


@dataclass
class TraceStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def miss_ratio(self):
        return self.misses / self.accesses if self.accesses else 0.0

    def __sub__(self, other):
        return TraceStats(self.accesses - other.accesses, self.hits - other.hits,
                          self.misses - other.misses, self.evictions - other.evictions)

    def check(self):
        """`self`, once hits and misses are found to add up to accesses;
        else ValueError."""
        if self.hits + self.misses != self.accesses:
            raise ValueError(f"inconsistent trace stats: {self.hits} hits + {self.misses} "
                             f"misses != {self.accesses} accesses")
        return self


@dataclass
class HardwareInfo:
    l1_bytes: int = DEFAULT_L1_BYTES
    line_bytes: int = DEFAULT_LINE_BYTES
    cores: int = DEFAULT_CORES
    registers: int = DEFAULT_REGISTERS
    provenance: str = "default"  # probed | configured | default
    associativity: int = DEFAULT_ASSOCIATIVITY

    def l1_model(self):
        return CacheModel(self.l1_bytes, self.line_bytes, self.associativity)


class Simulator:
    """Incremental simulator and trace sink; feed accesses, read stats at
    any point."""

    def __init__(self, model):
        self.model = model
        self.stats = TraceStats()
        self._snapshots = []  # (label, TraceStats at the phase's start)
        # Per set, a dict of its lines whose insertion order is the LRU
        # order: least recently used first.
        self._sets = [{} for _ in range(model.num_sets)]
        # Per set, its most recently used line (the last key of its dict),
        # or None while it is empty.
        self._recent = [None] * model.num_sets

    def phase(self, label):
        self._snapshots.append((label, replace(self.stats)))

    @property
    def phase_stats(self):
        """(label, TraceStats) per phase, in the order they began."""
        ends = [snap for _, snap in self._snapshots[1:]] + [self.stats]
        return [(label, end - start) for (label, start), end in zip(self._snapshots, ends)]

    def run(self, addrs, kinds):
        """Replay the addresses of one run in order. `kinds` is ignored:
        with write-allocate a write moves the cache as a read does. A hit
        pops its line from the set's dict and re-inserts it, so it
        becomes the last key; a miss in a full set evicts the first key,
        the least recently used line. An access to the line already most
        recent in its set only counts as a hit: it changes no LRU state.
        A negative address raises CacheConfigError; the accesses before
        it stay counted."""
        line_size, num_sets, ways = self.model.line_size, len(self._sets), self.model.associativity
        sets, recent = self._sets, self._recent
        hits = misses = evictions = 0
        try:
            for addr in addrs:
                line = addr // line_size
                k = line % num_sets
                if recent[k] == line:
                    hits += 1
                    continue
                s = sets[k]
                if s.pop(line, False):
                    hits += 1
                else:
                    if addr < 0:
                        raise CacheConfigError(f"negative address {addr}")
                    misses += 1
                    if len(s) >= ways:
                        del s[next(iter(s))]
                        evictions += 1
                s[line] = True
                recent[k] = line
        finally:
            stats = self.stats
            stats.accesses += hits + misses
            stats.hits += hits
            stats.misses += misses
            stats.evictions += evictions

    def access(self, addr):
        self.run((addr,), "R")

    def feed(self, trace):
        """Replay a trace of addresses or (address, kind) pairs as one run."""
        self.run((item[0] if isinstance(item, tuple) else item for item in trace), "R")
        return self.stats


def simulate(trace, model):
    """Replay a trace (addresses or (address, kind) pairs) and return stats."""
    sim = Simulator(model)
    sim.feed(trace)
    return sim.stats.check()


def trace_program(program, inputs, tile_sizes=None):
    """Run the interpreter with a trace sink attached and return the full
    (address, R|W) element-visit stream, stragglers included."""
    sink = TraceSink()
    config = EvalConfig(tile_sizes=dict(tile_sizes or {}), trace=sink)
    eval_program(program, inputs, config)
    return sink.events


def simulate_program(program, inputs, model, tile_sizes=None, simulator=None, counters=None):
    """Trace and simulate in one pass, with the simulator as the trace sink,
    so the trace is never materialized. Returns (stats, program result);
    pass a Simulator to keep it (for per-phase miss counts), and
    `semantics.Counters` to count the run's dispatch in."""
    sim = simulator or Simulator(model)
    config = EvalConfig(tile_sizes=dict(tile_sizes or {}), trace=sim,
                        counters=counters or Counters())
    result = eval_program(program, inputs, config)
    return sim.stats.check(), result


# ---------------------------------------------------------------------------
# Hardware discovery
# ---------------------------------------------------------------------------

def _parse_size(text):
    text = text.strip()
    if text.endswith("K"):
        return int(text[:-1]) * 1024
    if text.endswith("M"):
        return int(text[:-1]) * 1024 * 1024
    return int(text)


def _probe_sysfs():
    """L1 data cache size, line size and (when readable) way count from
    /sys; None when size or line size is unavailable."""
    try:
        entries = sorted(os.listdir(SYSFS_CACHE_DIR))
    except OSError:
        return None
    for entry in entries:
        base = os.path.join(SYSFS_CACHE_DIR, entry)
        try:
            with open(os.path.join(base, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(base, "type")) as f:
                ctype = f.read().strip()
            if level != "1" or ctype not in ("Data", "Unified"):
                continue
            with open(os.path.join(base, "size")) as f:
                size = _parse_size(f.read())
            with open(os.path.join(base, "coherency_line_size")) as f:
                line = int(f.read().strip())
        except (OSError, ValueError):
            continue
        found = {"l1_bytes": size, "line_bytes": line}
        try:
            with open(os.path.join(base, "ways_of_associativity")) as f:
                found["associativity"] = int(f.read().strip())
        except (OSError, ValueError):
            pass  # the default way count stands in
        return found
    return None


def _is_integer(value):
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, int) and not isinstance(value, bool)


def _load_config_file(path):
    """The known fields of a JSON object whose values are finite integers;
    ValueError when the document is not a JSON object."""
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: hardware config is not a JSON object")
    known = {"l1_bytes", "line_bytes", "cores", "registers"}
    return {k: int(v) for k, v in data.items() if k in known and _is_integer(v)}


def probe_hardware(config_path=None, env=None):
    """Discover cache geometry and core count, never failing.

    An explicit configuration (path argument or TILEPAR_HW_CONFIG env var)
    takes precedence over OS discovery. A config that cannot be read, is
    not JSON, or is not a JSON object is ignored. Within an object, unknown
    keys are ignored and so is any field whose value is not a finite
    integer (null, a string, a boolean, 1.5, 1e400). A config left with no
    usable field counts as no config: /sys (the L1 data cache of cpu0) is
    consulted instead. Whatever is still missing or below 1 falls back
    per-field to the defaults (32KB L1, 64-byte lines, 4 cores, 16
    registers, 8 ways). The way count comes only from /sys. The provenance
    field records which source won: configured, probed or default.
    """
    env = os.environ if env is None else env
    values = {}
    provenance = "default"
    path = config_path or env.get("TILEPAR_HW_CONFIG")
    if path:
        try:
            values = _load_config_file(path)
        except (OSError, ValueError, RecursionError):
            values = {}
    if values:
        provenance = "configured"
    else:
        probed = _probe_sysfs()
        if probed:
            values = dict(probed)
            cores = os.cpu_count()
            if cores:
                values["cores"] = cores
            provenance = "probed"
    info = HardwareInfo(provenance=provenance)
    for field_name, default in (("l1_bytes", DEFAULT_L1_BYTES),
                                ("line_bytes", DEFAULT_LINE_BYTES),
                                ("cores", DEFAULT_CORES),
                                ("registers", DEFAULT_REGISTERS),
                                ("associativity", DEFAULT_ASSOCIATIVITY)):
        v = values.get(field_name, default)
        if not isinstance(v, int) or v < 1:
            v = default
        setattr(info, field_name, v)
    return info
