"""The joint-table kernel for binary-variable networks.

State s encodes variable v in bit v.  The per-state probability is the
product over variables, in ascending variable order, of the variable's
table entry (or its complement when the bit is 0).  The multiplication
order is part of the contract: the packaged oracle fixtures record
values computed in exactly this order.
"""

from __future__ import annotations

import numpy as np


def fill_joint(
    n: int,
    parent_offset: np.ndarray,
    parent_flat: np.ndarray,
    table_offset: np.ndarray,
    p_true: np.ndarray,
) -> np.ndarray:
    """Joint probability of every one of the 2**n binary states.

    ``parent_flat[parent_offset[v]:parent_offset[v+1]]`` lists variable
    v's parents; parent j of v contributes bit j of the row index into
    ``p_true[table_offset[v]:]``, which stores P(v=1 | parent row).
    Vectorized over states; the loop over variables keeps the factor
    order.
    """
    size = 1 << n
    states = np.arange(size, dtype=np.int64)
    acc = np.ones(size, dtype=np.float64)
    for v in range(n):
        base = parent_offset[v]
        row = np.zeros(size, dtype=np.int64)
        for j in range(base, parent_offset[v + 1]):
            row |= ((states >> int(parent_flat[j])) & 1) << (j - base)
        p = p_true[table_offset[v] + row]
        bit = (states >> v) & 1
        acc *= np.where(bit == 1, p, 1.0 - p)
    return acc
