"""Planar and angular helpers shared by matching, doctrine and scoring.

``near_pairs`` generates the candidate pairs for the distance tests of
clustering and conflict detection from a pure-Python grid whose cells
are slightly wider than the reach, and returns them as plain (i, j)
index pairs.  It is a conservative filter: it may return pairs that
fail the test, never miss one that passes, whatever the rounding; the
caller's exact test (``distance``) decides.  ``linked_groups`` joins the pairs that pass
into connected groups, for both.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import Iterable, Sequence


def distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


# Cells are this much wider than the reach, a margin no rounding below
# uses up (see ``near_pairs``).
_WIDEN = 1.0 + 2.0**-20
# A point is placed when both of its coordinates lie within this many
# cells of the origin, where a quotient's rounding is under 2**-23 cell.
_CELL_BOUND = 2.0**30


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
    a uniform grid (fixed-radius near neighbours, Bentley, Stanat &
    Williams 1977) of cell width w = reach * (1 + 2**-20): a point's cell
    is (floor(x / w), floor(y / w)), and a pair is returned when the two
    cells are equal or adjacent, diagonals included.  Each cell is paired
    with itself and its four forward neighbours, so each pair comes once.

    Why that covers: a difference that rounds to at most ``reach`` is at
    most reach * (1 + 2**-53), under (1 - 2**-20 + 2**-39) cells of w,
    and each quotient x / w below 2**30 in magnitude is rounded by less
    than 2**-23; so the two rounded quotients are less than one apart,
    and their floors at most one.  A point is loose, and paired with
    every other point, when a quotient is not finite or not below 2**30
    in magnitude, or when ``reach`` is below the smallest normal float,
    where w would lose its margin.
    """
    n = len(points)
    w = reach * _WIDEN
    # below the smallest normal float w has no margin, and no point is placed
    bound = _CELL_BOUND if reach >= sys.float_info.min else 0.0
    floor = math.floor
    placed: list[int] = []
    columns: list[int] = []
    rows: list[int] = []
    loose: list[int] = []
    for i, (x, y) in enumerate(points):
        u = x / w
        v = y / w
        # false for NaN, so a non-finite coordinate is loose
        if -bound < u < bound and -bound < v < bound:
            placed.append(i)
            columns.append(floor(u))
            rows.append(floor(v))
        else:
            loose.append(i)
    codes: list[int] = []  # i * n + j for each pair
    if placed:
        # integer keys, one empty row between columns: no forward
        # neighbour of an occupied cell aliases another occupied one
        m = max(rows) - min(rows) + 2
        cells: dict[int, list[int]] = {}
        for i, cx, cy in zip(placed, columns, rows):
            key = cx * m + cy
            cell = cells.get(key)
            if cell is None:
                cells[key] = [i]
            else:
                cell.append(i)
        get, empty = cells.get, []
        for key, members in cells.items():
            if len(members) > 1:  # ascending
                codes += [a * n + b for a, b in itertools.combinations(members, 2)]
            near = (
                get(key + 1, empty) + get(key + m - 1, empty)
                + get(key + m, empty) + get(key + m + 1, empty)
            )
            if near:
                codes += [a * n + b if a < b else b * n + a for a in members for b in near]
    for a in loose:
        codes += [b * n + a if b < a else a * n + b for b in placed]
        codes += [a * n + b for b in loose if b > a]
    codes.sort()
    return [divmod(c, n) for c in codes]


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


def _mean(values: list[float]) -> float:
    n = len(values)
    try:
        return math.fsum(values) / n
    except OverflowError:  # summed scaled by 2**-e, 2**e >= n: a finite mean
        e = (n - 1).bit_length()
        return math.ldexp(math.fsum(math.ldexp(v, -e) for v in values) / n, e)
    except ValueError:  # inf - inf
        return sum(sorted(values)) / n


def centroid(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """The mean point, summed by ``math.fsum``, or in ascending order where
    fsum refuses inf - inf: either way a function of the multiset."""
    return _mean([p[0] for p in points]), _mean([p[1] for p in points])


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
