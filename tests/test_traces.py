"""Pinned address traces and tiled IR.

Each case traces a small fixed-size tiled program and compares the sha256
of its (address, kind) event stream, and its event count, against pinned
values. A change that claims byte-identical traces must keep these; one
that moves addresses on purpose re-pins them and says why. The printed
IR of each case after the cache pass (and after the register pass, where
the case uses one) is pinned the same way: generated names and slot ids
depend on the order in which the tiler visits the program.
"""

import hashlib

import pytest

from tilepar.cachesim import trace_program
from tilepar.ir import desugar_allpairs, parse_program, print_program
from tilepar.ndarray import NdArray
from tilepar.tiling import register_tile, tile_program

import programs


def digest(events):
    h = hashlib.sha256()
    for addr, kind in events:
        h.update(f"{addr}{kind}".encode())
    return h.hexdigest()


def matrix(rows, cols, dtype, layout):
    data = [(7 * i) % 11 - 5 for i in range(rows * cols)]
    if dtype == "f64":
        data = [x / 4 for x in data]
    return NdArray((rows, cols), dtype, layout, data)


def tile_case(src, inputs, registers):
    """The program after each tiling pass the case uses, and the final spec."""
    program = desugar_allpairs(parse_program(src))
    res = tile_program(program, arg_ranks=[x.rank for x in inputs])
    passes, spec = [res.program], res.spec
    if registers:
        tiled, spec = register_tile(res.program, spec, registers)
        passes.append(tiled)
    return passes, spec


def trace_case(src, inputs, registers, sizes):
    passes, spec = tile_case(src, inputs, registers)
    return trace_program(passes[-1], inputs, spec.sizes(overrides=sizes))


CASES = {
    # Column-major row sums, cache-tiled 3x4 over 7x9: stragglers on both axes.
    "sum_rows_col": (programs.SUM_ROWS, [matrix(7, 9, "f64", "col")], 0, {0: 3, 1: 4}),
    # Matmul, cache-tiled 3x3x3 over 7x7 plus register tiles.
    "matmul_reg": (programs.MATMUL, [matrix(7, 7, "f64", "row"), matrix(7, 7, "f64", "row")],
                   16, {0: 3, 1: 3, 2: 3}),
    # Row prefix sums, tiled 4x3 over 6x8: the tiled scan fixes up carries.
    "row_scan": (programs.ROW_SCAN, [matrix(6, 8, "i64", "row")], 0, {0: 4, 1: 3}),
}

PINS = {
    "sum_rows_col": (140, "819cf44dd1adb577ba6e4393dc550363dd28a3abf9e3eaa43403d61f54ccf4d2"),
    "matmul_reg": (5537, "8269cce4d6ff9910376a6a957637c0bb621d9ac6869ebc5182bc1a9d2bed4f4d"),
    "row_scan": (534, "32d6f93acf3f8453247a4ecfe3ceb4b9e9ad6dc85b0b9c2ca102cd20e62606f7"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_pinned(name):
    events = trace_case(*CASES[name])
    assert (len(events), digest(events)) == PINS[name]


IR_PINS = {
    "sum_rows_col": ("9da30a40cbae5e2f46360a249929597d9d4a5901df34a6b0d6c0d54d80aaaa3b",),
    "matmul_reg": ("734a826fb4a1a8e753af61d14a6d17185e2bbbd1dbf5f6f0e316cffaa57b938d",
                   "011930989242a58df29e34d869ba8fbb81d20d8affe707730cabea79d2403f37"),
    "row_scan": ("31a01c5c3d8773562f6d0f3a1bea76107020a9d1c084edac2e38fb965534c90c",),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_tiled_ir_pinned(name):
    src, inputs, registers, _ = CASES[name]
    passes, _ = tile_case(src, inputs, registers)
    texts = tuple(hashlib.sha256(print_program(p).encode()).hexdigest() for p in passes)
    assert texts == IR_PINS[name]
