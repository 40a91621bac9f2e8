#!/usr/bin/env python3
"""One short hash per outcome of the random program corpus, for a
differential check of two tilepar source trees.

    python3 tools/outcomes.py SRC [--seeds 0-999] > outcomes.txt

SRC is a `src` directory holding a `tilepar` package; an older commit's
tree can be had with `git archive COMMIT | tar -x -C DIR`. The programs
come from `tests/randprog.py` of the checkout this script is in, run
against SRC's `tilepar`. Two trees are compared by running this once on
each and comparing the outputs with `diff`.

For every seed, generator flavour (narrow, wide, edge, edge-wide) and input
kind, it runs the program untiled and, when the cache pass tiles it, after
the cache pass and after the register pass at 16 and at 4 registers, each
at `randprog.sample_tile_sizes` of its spec, traced and untraced. The input
kinds are the generator's i64 array (`i64`); the same elements divided by
4 in an f64 array (`f64`, exact); and an f64 array holding the first half
of those elements as ints and the rest divided by 4 (`mixed`), so tiles of
one operand can give values of different dtypes. A scalar input stays as
the generator made it.

Each outcome is one line: seed, flavour, inputs, run, traced or untraced,
and the first 16 hex digits of a sha256 over the value with its dtype and
every element's type (or the error's type and text), the trace's length
and digest, and the four `Counters`. The last line, on stderr, counts the
outcomes.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import random
import sys
from dataclasses import astuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FLAVOURS = {"narrow": (False, False), "wide": (True, False),
            "edge": (False, True), "edge-wide": (True, True)}


class DigestSink:
    """A trace sink that keeps only the count and a sha256 of its events,
    which do not depend on how the events are cut into runs."""

    def __init__(self):
        self.hash, self.events = hashlib.sha256(), 0

    def run(self, addrs, kinds):
        events = [f"{a}{k} " for a, k in zip(addrs, itertools.cycle(kinds))]
        self.events += len(events)
        self.hash.update("".join(events).encode())

    def phase(self, label):
        pass


def input_kinds(inputs, NdArray):
    """{name: inputs} for the three input kinds (see the module docstring)."""
    def converted(half):
        out = []
        for x in inputs:
            if isinstance(x, NdArray):
                cut = len(x.data) // 2 if half else 0
                x = NdArray(x.shape, "f64", x.layout,
                            x.data[:cut] + [v / 4 for v in x.data[cut:]])
            out.append(x)
        return out
    return {"i64": inputs, "f64": converted(False), "mixed": converted(True)}


def outcome(tp, program, inputs, sizes, traced):
    """The hash of one run (see the module docstring)."""
    sink = DigestSink() if traced else None
    config = tp.semantics.EvalConfig(tile_sizes=sizes, trace=sink)
    try:
        value = tp.semantics.eval_program(program, inputs, config)
        if isinstance(value, tp.ndarray.ArrayValue):
            value = (value.shape, value.dtype, [(type(x), x) for x in tp.ndarray.elements(value)])
        else:
            value = (type(value), value)
    except Exception as exc:  # an error is an outcome too
        value = (type(exc).__name__, str(exc))
    trace = (sink.events, sink.hash.hexdigest()) if traced else None
    seen = repr((value, trace, astuple(config.counters)))
    return hashlib.sha256(seen.encode()).hexdigest()[:16]


def runs(tp, randprog, program, arg_ranks, seed):
    """[(name, program, tile sizes)]: untiled, then, when the cache pass
    tiles it, the cache pass and the register pass at 16 and 4 registers."""
    out = [("untiled", program, {})]
    res = tp.tiling.tile_program(program, arg_ranks=arg_ranks)
    if res.changed:
        out.append(("cache", res.program, res.spec.sizes(
            randprog.sample_tile_sizes(res.spec, random.Random(seed)))))
        for registers in (16, 4):
            reg_program, spec = tp.tiling.register_tile(res.program, res.spec, registers)
            out.append((f"reg{registers}", reg_program, spec.sizes(
                randprog.sample_tile_sizes(spec, random.Random(seed)))))
    return out


def load(src):
    """(tilepar, randprog): the `tilepar` package under `src`, with its
    modules as attributes, and `tests/randprog.py` importing it."""
    src = Path(src).resolve()
    if not (src / "tilepar" / "__init__.py").is_file():
        raise SystemExit(f"no tilepar package under {src}")
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    tp = importlib.import_module("tilepar")
    if Path(tp.__file__).resolve().parent != src / "tilepar":
        raise SystemExit(f"imported tilepar from {tp.__file__}, not {src}")
    for m in ("ndarray", "semantics", "tiling"):
        importlib.import_module(f"tilepar.{m}")
    return tp, importlib.import_module("randprog")


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", help="the tree's src directory")
    ap.add_argument("--seeds", type=seed_range, default=range(1000),
                    help="an inclusive range A-B, or one seed")
    args = ap.parse_args(argv)
    tp, randprog = load(args.src)
    count = 0
    for seed in args.seeds:
        for flavour, (wide, edge) in FLAVOURS.items():
            program, inputs, arg_ranks = randprog.generate(seed, wide=wide, edge=edge)
            cases = runs(tp, randprog, program, arg_ranks, seed)
            for kind, xs in input_kinds(inputs, tp.ndarray.NdArray).items():
                for name, p, sizes in cases:
                    for traced in (True, False):
                        print(seed, flavour, kind, name, "traced" if traced else "untraced",
                              outcome(tp, p, xs, sizes, traced))
                        count += 1
    print(f"{count} outcomes", file=sys.stderr)


if __name__ == "__main__":
    main()
