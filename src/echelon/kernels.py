"""The joint-table kernel for binary-variable networks.

State s encodes variable v in bit v.  The per-state probability is the
product over variables, in ascending variable order, of the variable's
table entry (or its complement when the bit is 0).  The multiplication
order is part of the contract: the packaged oracle fixtures record
values computed in exactly this order.
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

    ``parents[v]`` lists variable v's parent indices; parent j of v
    contributes bit j of the row index into ``tables[v]``, a float64
    array that stores P(v=1 | parent row).  Vectorized over states; the
    loop over variables keeps the factor order.
    """
    size = 1 << n
    states = np.arange(size, dtype=np.int64)
    acc = np.ones(size, dtype=np.float64)
    for v in range(n):
        row = np.zeros(size, dtype=np.int64)
        for j, u in enumerate(parents[v]):
            row |= ((states >> u) & 1) << j
        p = tables[v][row]
        bit = (states >> v) & 1
        acc *= np.where(bit == 1, p, 1.0 - p)
    return acc
