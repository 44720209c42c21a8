"""Planar and angular helpers shared by matching, doctrine and scoring.

``near_pairs`` generates the candidate pairs for the distance tests of
clustering and conflict detection, on one numpy grid over all points at
once, and returns them as plain (i, j) index pairs.  It is a
conservative filter: it may return pairs that fail the test, never miss
one that passes, whatever the rounding; the caller's exact test
(``distance``) decides.  ``linked_groups`` joins the pairs that pass
into connected groups, for both.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np


def distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _axis_cells(
    v: np.ndarray, reach: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First and last grid cell (width ``reach``) holding every w with
    |fl(w - v)| <= reach, per coordinate v, and whether they could be
    computed.

    Every such w lies within reach + ulp(reach) of v.  The ends
    v -+ (reach + slack) are rounded twice; a slack of four ulps of v and
    of reach covers that extra unit and both roundings.  Division by the
    cell width is monotone, so the cells of the two ends bound the cell
    of every such w.  They cannot be computed for a non-finite v or
    reach, nor when the slack reaches a whole cell: far out, where
    floats are that coarse, the grid would not narrow anything.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        # np.spacing is math.ulp but at the largest float and at inf,
        # where it gives inf and NaN: such a v is not placed either way
        slack = 4.0 * (np.spacing(np.abs(v)) + math.ulp(reach))
        first = np.floor((v - reach - slack) / reach)
        last = np.floor((v + reach + slack) / reach)
        placed = (slack < reach) & np.isfinite(first) & np.isfinite(last)
    return first, last, placed


def _ranges(start: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every position of the ranges [start[r], stop[r]), with its r."""
    counts = stop - start
    r = np.repeat(np.arange(len(start)), counts)
    offsets = np.cumsum(counts) - counts
    return r, np.arange(len(r)) - offsets[r] + start[r]


def near_pairs(
    points: Sequence[tuple[float, float]], reach: float
) -> list[tuple[int, int]]:
    """The index pairs (i, j) of the points (x, y) that may lie within
    ``reach`` (> 0) of each other: i < j, each pair once, in ascending
    order.

    Every pair whose rounded coordinate differences are both at most
    ``reach`` in magnitude is returned; since ``distance`` is faithfully
    rounded it never falls below either difference, so this covers both
    ``distance <= reach`` and ``distance < reach``.  Points are binned on
    a uniform grid with cell ``reach`` (fixed-radius near neighbours,
    Bentley, Stanat & Williams 1977), and a pair is returned when the
    cell of j lies in the cells the reach of i overlaps.  The occupied
    cells are ranked per axis and the points sorted by cell, so each
    point bisects, column by column, the points of its overlapped cells.
    A point whose cells cannot be computed (a non-finite or near-overflow
    coordinate, or an infinite reach) is paired with every other point.
    """
    xy = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(xy)
    x_first, x_last, x_placed = _axis_cells(xy[:, 0], reach)
    y_first, y_last, y_placed = _axis_cells(xy[:, 1], reach)
    placed = x_placed & y_placed
    # placed points' cells are integers under 2**53 in magnitude; the
    # points are taken in cell order, so every search below bisects with
    # nearly sorted needles
    on = np.flatnonzero(placed)
    columns, x_rank = np.unique(np.floor(xy[on, 0] / reach), return_inverse=True)
    rows, y_rank = np.unique(np.floor(xy[on, 1] / reach), return_inverse=True)
    cell = x_rank * len(rows) + y_rank
    order = np.argsort(cell, kind="stable")
    on, cell = on[order], cell[order]
    # one entry per (point, overlapped occupied column)
    p, column = _ranges(
        np.searchsorted(columns, x_first[on], side="left"),
        np.searchsorted(columns, x_last[on], side="right"),
    )
    base = column * len(rows)
    row_lo = np.searchsorted(rows, y_first[on], side="left")
    row_hi = np.searchsorted(rows, y_last[on], side="right")
    q, slot = _ranges(
        np.searchsorted(cell, base + row_lo[p], side="left"),
        np.searchsorted(cell, base + row_hi[p], side="left"),
    )
    i, j = on[p[q]], on[slot]
    # each loose point with every other point; loose pairs come twice
    loose = np.flatnonzero(~placed)
    li = np.repeat(loose, n)
    lj = np.tile(np.arange(n), len(loose))
    a = np.concatenate([i, np.minimum(li, lj)])
    b = np.concatenate([j, np.maximum(li, lj)])
    codes = np.unique((a * n + b)[a < b])
    return list(zip((codes // n).tolist(), (codes % n).tolist()))


def linked_groups(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Connected components of the graph on 0..n-1 with edges ``pairs``,
    each ascending, ordered by root index.

    Union-find with path halving; each pair, in the given order, links
    the root of its first index under the root of its second, so the
    roots, and with them the order of the groups, depend only on the
    pairs and their order.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[root] for root in sorted(groups)]


def centroid(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """The mean point, summed by ``math.fsum``, or in ascending order where
    fsum refuses (overflow, inf - inf): either way a function of the multiset."""
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    try:
        return (math.fsum(xs) / len(xs), math.fsum(ys) / len(ys))
    except (OverflowError, ValueError):
        return (sum(sorted(xs)) / len(xs), sum(sorted(ys)) / len(ys))


def heading_difference(a: float, b: float) -> float:
    """Smallest absolute difference between two headings, in [0, 180]."""
    d = abs(a - b) % 360.0
    return 360.0 - d if d > 180.0 else d


def mean_heading(headings: Iterable[float]) -> float | None:
    """Circular mean in [0, 360); None for an empty input."""
    hs = list(map(math.radians, headings))
    if not hs:
        return None
    x = math.fsum(map(math.cos, hs)) / len(hs)
    y = math.fsum(map(math.sin, hs)) / len(hs)
    deg = math.degrees(math.atan2(y, x)) % 360.0
    # float mod can round a tiny negative angle up to exactly 360.0
    return 0.0 if deg == 360.0 else deg
