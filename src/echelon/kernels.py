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
"""

from __future__ import annotations

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
