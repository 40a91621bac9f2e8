"""Workloads of the tilepar benchmark: programs, seeded inputs, host references.

Every workload is a square 2-D input run through one IR program. Inputs are
drawn from `random.Random(seed)`; the host references are plain Python loops
over the same values, so they never touch the interpreter. All f64 inputs
are multiples of 1/8 below 100 in magnitude, which keeps every sum these
programs form exact in f64.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from tilepar.bench import MATMUL_SRC, SUM_ROWS_SRC
from tilepar.cachesim import CacheModel, HardwareInfo
from tilepar.ndarray import ArrayValue, NdArray, as_view

# The modelled machine is pinned, never probed, so bounds, tuned sizes and
# miss counts are the same on every host. No thread fan-out is measured.
L1_BYTES, LINE_BYTES, WAYS, REGISTERS = 32 * 1024, 64, 8, 16
HW = HardwareInfo(l1_bytes=L1_BYTES, line_bytes=LINE_BYTES, cores=1,
                  registers=REGISTERS, provenance="configured")
MODEL = CacheModel(L1_BYTES, LINE_BYTES, WAYS)

PREFIX_SCAN_SRC = """
fn ident(x) { return x; }
fn add2(a, b) { return a + b; }
fn row_scan(row) { return scan(ident, combine=add2, init=0, row; axes=[0]); }
fn main(Xs) { return map(row_scan, Xs; axes=[0]); }
"""

# Autotune settings: batch 4 evaluated one after another, budget 16.
TUNE_BATCH, TUNE_BUDGET = 4, 16

# Pinned in tests/data/locality_fixture.json: seed 0 of rowsum-col256-tune.
FIXTURE = {"misses_untiled": 65568, "tuned_misses": 9726, "tuned_sizes": (36, 10)}

RTOL = 1e-9


def row_sums(rows):
    return [sum(row) for row in rows]


def matmul_transposed(a_rows, b_rows):
    """out[i][j] = sum_k a[i][k] * b[j][k]; `b` is the pre-transposed operand."""
    out = []
    for a in a_rows:
        for b in b_rows:
            s = 0.0
            for x, y in zip(a, b):
                s += x * y
            out.append(s)
    return out


def row_prefix_sums(rows):
    out = []
    for row in rows:
        acc = 0
        for x in row:
            acc += x
            out.append(acc)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    src: str
    n: int              # every input is n x n
    dtype: str          # 'f64' | 'i64'
    layout: str         # 'row' | 'col'
    operands: int
    reference: object   # host rows of each operand -> flat row-major result
    out_shape: object   # n -> result shape
    registers: bool = False
    tune: bool = False

    @property
    def extents(self):
        """Slot extents handed to the bounds estimator: given on the tuned
        workload, as the pinned locality fixture was made."""
        return {0: self.n, 1: self.n} if self.tune else None

    def make_inputs(self, seed):
        """Host rows and the NdArrays built from them, one per operand."""
        rng = random.Random(seed)
        hosts = []
        for _ in range(self.operands):
            if self.dtype == "i64":
                rows = [[rng.randrange(-100, 100) for _ in range(self.n)] for _ in range(self.n)]
            else:
                rows = [[rng.randrange(-800, 800) / 8.0 for _ in range(self.n)] for _ in range(self.n)]
            hosts.append(rows)
        arrays = [NdArray.from_nested(rows, self.dtype, self.layout) for rows in hosts]
        return hosts, arrays


WORKLOADS = {wl.name: wl for wl in (
    Workload("rowsum-col256-tune", SUM_ROWS_SRC, 256, "f64", "col", 1,
             reference=row_sums, out_shape=lambda n: (n,), tune=True),
    Workload("matmul32-reg", MATMUL_SRC, 32, "f64", "row", 2,
             reference=matmul_transposed, out_shape=lambda n: (n, n), registers=True),
    Workload("prefixscan-col192", PREFIX_SCAN_SRC, 192, "i64", "col", 1,
             reference=row_prefix_sums, out_shape=lambda n: (n, n)),
)}


def mismatch(value, expected, shape):
    """None when `value` equals the flat reference, else a description.

    i64 compares exactly; f64 within RTOL relative to max(1, |x|, |y|)."""
    if not isinstance(value, ArrayValue):
        return f"expected an array, got {type(value).__name__}"
    v = as_view(value)
    if tuple(v.shape) != tuple(shape):
        return f"shape {tuple(v.shape)} != {tuple(shape)}"
    got = [v.get(idx) for idx in itertools.product(*map(range, v.shape))]
    for i, (x, y) in enumerate(zip(got, expected)):
        if isinstance(y, int):
            ok = isinstance(x, int) and x == y
        else:
            ok = abs(x - y) <= RTOL * max(1.0, abs(x), abs(y))
        if not ok:
            return f"element {i}: {x!r} != {y!r}"
    return None
