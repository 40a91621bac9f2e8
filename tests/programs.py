"""Shared IR sources used across the test suite."""

SUM_ROWS = """
fn ident(x) { return x; }
fn add2(a, b) { return a + b; }
fn sum_row(row) { return reduce(ident, combine=add2, init=0, row; axes=[0]); }
fn main(Xs) { return map(sum_row, Xs; axes=[0]); }
"""

# Row-by-row product-and-sum; the second matrix is expected pre-transposed
# so both operands are traversed along rows.
MATMUL = """
fn ident(x) { return x; }
fn add2(a, b) { return a + b; }
fn dot(x, y) {
  p = x * y;
  return reduce(ident, combine=add2, init=0.0, p; axes=[0]);
}
fn main(Xs, Ys) { return allpairs(dot, Xs, Ys; axes=[0, 0]); }
"""

ADD1_MAP = """
fn add1(x) { return x + 1; }
fn main(xs) { return map(add1, xs; axes=[0]); }
"""

PREFIX_SUM = """
fn ident(x) { return x; }
fn add2(a, b) { return a + b; }
fn main(xs) { return scan(ident, combine=add2, init=0, xs; axes=[0]); }
"""

# Prefix sums along every row.
ROW_SCAN = """
fn ident(x) { return x; }
fn add2(a, b) { return a + b; }
fn row_scan(row) { return scan(ident, combine=add2, init=0, row; axes=[0]); }
fn main(Xs) { return map(row_scan, Xs; axes=[0]); }
"""

# Row prefix sums of squares. Squaring does not distribute over +, so a
# tiled scan fixes up its tile boundaries first and emits last.
ROW_SCAN_EMIT = """
fn ident(x) { return x; }
fn add2(a, b) { return a + b; }
fn sq(x) { return x * x; }
fn row_scan(row) { return scan(ident, combine=add2, emit=sq, init=0, row; axes=[0]); }
fn main(Xs) { return map(row_scan, Xs; axes=[0]); }
"""

SQDIST = """
fn ident(x) { return x; }
fn add2(a, b) { return a + b; }
fn sqdist(p, c) {
  d = p - c;
  s = d * d;
  return reduce(ident, combine=add2, init=0.0, s; axes=[0]);
}
fn main(P, C) { return allpairs(sqdist, P, C; axes=[0, 0]); }
"""
