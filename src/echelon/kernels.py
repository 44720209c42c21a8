"""The joint-table kernel for binary-variable networks.

State s encodes variable v in bit v.  The per-state probability is the
product over variables, in ascending variable order, of the variable's
table entry (or its complement when the bit is 0).  The multiplication
order is part of the contract: the packaged oracle fixtures record
values computed in exactly this order.

Every parent index lies below its child's (the chain rule with parents
listed first), so variable v's factor depends only on bits 0..v-1.  The
fill therefore doubles: after variable v the table holds the 2**(v+1)
joint states of variables 0..v, the states with bit v clear first, and
each step reads v's table over the 2**v states below it only.  Each
state still gets ((1*f0)*f1)...f(n-1), the same floats as one state at a
time.

``split_exact`` turns an array x of N floats into K rows whose columns
sum exactly to x, and each row sums exactly in float64 over any subset
of its entries, in any order (the error-free vector split of Rump,
Ogita & Oishi, "Accurate floating-point summation part I", SIAM J. Sci.
Comput. 31(1), 2008).  A subset's exact sum is therefore the exact sum
of its K row sums, and ``math.fsum`` over those K floats rounds it once:
the same float as ``math.fsum`` over the subset of x.  With L =
ceil(log2 N), each level takes sigma = 2**s >= 2 * 2**L * max|r| and
q = (sigma + r) - sigma, an exact split r = q + (r - q) in which q is a
multiple of sigma * 2**-53 and |r - q| <= sigma * 2**-53; q's partial
sums stay below sigma, so they are exact.  So each level removes at
least 52 - L bits from max|r|.  The split stops when the residual is
zero or its own partial sums are exact: every entry of x, hence every
residual, is a multiple of the grid 2**g of x's smallest nonzero entry
(g >= -1074), so N * max|r| <= 2**(53 + g) suffices.  That bounds K
from the exponents of the largest and the smallest nonzero |x| before
the first level; on the probability tables of the oracle suites K is 2
or 3.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np


def fill_joint(
    n: int,
    parents: Sequence[Sequence[int]],
    tables: Sequence[np.ndarray],
) -> np.ndarray:
    """Joint probability of every one of the 2**n binary states.

    ``parents[v]`` lists variable v's parent indices, each in
    ``range(v)`` (else ValueError); parent j of v contributes bit j of
    the row index into ``tables[v]``, a float64 array that stores
    P(v=1 | parent row).  Vectorized over states; the loop over
    variables keeps the factor order.
    """
    acc = np.ones(1, dtype=np.float64)
    for v in range(n):
        if not parents[v]:
            p = tables[v][0]
        else:
            states = np.arange(1 << v, dtype=np.int64)
            row = np.zeros(1 << v, dtype=np.int64)
            for j, u in enumerate(parents[v]):
                if not 0 <= u < v:
                    raise ValueError(f"variable {v}: parent {u} is not below it")
                row |= ((states >> u) & 1) << j
            p = tables[v][row]
        acc = np.concatenate((acc * (1.0 - p), acc * p))
    return acc


def _ceil_log2(x: float) -> int:
    """ceil(log2 x) for a finite x > 0."""
    mantissa, exponent = math.frexp(x)
    return exponent - 1 if mantissa == 0.5 else exponent


def split_exact(values: np.ndarray) -> np.ndarray:
    """The (K, N) rows of the error-free split of the N floats
    ``values`` (flattened): the columns sum exactly to ``values``, and
    every row's sum over any subset of its entries is exact, in any
    order.  K is 0 for an all-zero input.  The input is not changed.
    A non-finite value is a ValueError; magnitudes must stay below
    2**(1022 - ceil(log2 N)), else sigma overflows (OverflowError).
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    n = x.size
    scratch = np.abs(x)
    top = float(np.maximum.reduce(scratch)) if n else 0.0
    if not math.isfinite(top):
        raise ValueError("split_exact needs finite values")
    if top == 0.0:
        return np.zeros((0, n))
    bits = (n - 1).bit_length()  # ceil(log2 n)
    # every entry, hence every residual, is a multiple of 2**grid
    low = float(np.minimum.reduce(np.where(scratch == 0.0, top, scratch)))
    grid = max(math.frexp(low)[1] - 53, -1074)
    # a residual of magnitudes at most 2**e is the last row once
    # e + bits <= 53 + grid, and each level lowers e by 52 - bits
    excess = _ceil_log2(top) + bits - 53 - grid
    rows = np.empty((1 + max(0, -(-excess // (52 - bits))), n))
    last = len(rows) - 1
    r = rows[last]  # the residual lives in the last row's slot
    r[:] = x
    k = 0
    while top != 0.0:
        exponent = _ceil_log2(top)
        if exponent + bits <= 53 + grid:
            if k < last:
                rows[k] = r
            k += 1
            break
        if k == last:
            raise AssertionError("split_exact: row bound exceeded")
        sigma = math.ldexp(1.0, exponent + bits + 1)
        q = rows[k]
        np.add(r, sigma, out=q)
        np.subtract(q, sigma, out=q)
        np.subtract(r, q, out=r)
        top = float(np.maximum.reduce(np.abs(r, out=scratch)))
        k += 1
    return rows[:k]
