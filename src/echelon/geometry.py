"""Planar and angular helpers shared by matching, doctrine and scoring.

``near_pairs`` and ``beyond_pairs`` generate candidate pairs for the
distance and heading tests of clustering and conflict detection.  Both
are conservative filters: they may return pairs that fail the test, never
miss one that passes, whatever the rounding; the caller's exact test
decides.  ``beyond_pairs`` works on numpy arrays, all headings at once.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

# Slack on each end of a heading arc, in degrees: far above the rounding
# of headings normalised to [0, 360) while their magnitude stays under
# _PLACEABLE_HEADING (about 1e-9 degrees there).
_ARC_MARGIN = 1e-6
_PLACEABLE_HEADING = 2.0**20


def distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _axis_cells(v: float, reach: float) -> range | None:
    """Grid cells (width ``reach``) along one axis holding every w with
    |fl(w - v)| <= reach; None when they cannot be computed.

    Every such w lies within reach + ulp(reach) of v.  The ends
    v -+ (reach + slack) are rounded twice; a slack of four ulps of v and
    of reach covers that extra unit and both roundings.  Division by the
    cell width is monotone, so the cells of the two ends bound the cell
    of every such w.  None also when the slack reaches a whole cell: far
    out, where floats are that coarse, the grid would not narrow anything.
    """
    if not math.isfinite(reach):
        return None
    slack = 4.0 * (math.ulp(v) + math.ulp(reach))
    if not slack < reach:
        return None
    first = (v - reach - slack) / reach
    last = (v + reach + slack) / reach
    if not (math.isfinite(first) and math.isfinite(last)):
        return None
    return range(math.floor(first), math.floor(last) + 1)


def near_pairs(
    points: Sequence[tuple[float, float]], reach: float
) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, each once, of points that may lie
    within ``reach`` (> 0) of each other.

    Every pair whose rounded coordinate differences are both at most
    ``reach`` in magnitude is returned; since ``distance`` is faithfully
    rounded it never falls below either difference, so this covers both
    ``distance <= reach`` and ``distance < reach``.  Points are binned on
    a uniform grid with cell ``reach`` (fixed-radius near neighbours,
    Bentley, Stanat & Williams 1977) and each scans only the cells its
    reach overlaps.  A point whose cells cannot be computed (a non-finite
    or near-overflow coordinate, or an infinite reach) is paired with
    every other point.
    """
    grid: dict[tuple[int, int], list[int]] = {}
    spans: list[tuple[int, range, range]] = []
    loose: list[int] = []
    for i, (x, y) in enumerate(points):
        xs, ys = _axis_cells(x, reach), _axis_cells(y, reach)
        if xs is None or ys is None:
            loose.append(i)
            continue
        grid.setdefault((math.floor(x / reach), math.floor(y / reach)), []).append(i)
        spans.append((i, xs, ys))
    # each point sits in one cell, so no pair is found twice
    pairs: list[tuple[int, int]] = []
    for i, xs, ys in spans:
        for cx in xs:
            for cy in ys:
                cell = grid.get((cx, cy))
                if cell:
                    pairs.extend((i, j) for j in cell if j > i)
    is_loose = set(loose)
    for i in loose:
        pairs.extend(
            (min(i, j), max(i, j))
            for j in range(len(points))
            if j != i and (j not in is_loose or j > i)
        )
    return pairs


def centroid(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    n = len(points)
    return (sum(p[0] for p in points) / n, sum(p[1] for p in points) / n)


def heading_difference(a: float, b: float) -> float:
    """Smallest absolute difference between two headings, in [0, 180]."""
    d = abs(a - b) % 360.0
    return 360.0 - d if d > 180.0 else d


def _on_circle(headings: np.ndarray) -> np.ndarray:
    """Headings normalised to [0, 360), as float ``%`` gives them."""
    angles = np.remainder(headings, 360.0)
    # float mod can round a tiny negative heading up to exactly 360.0
    angles[angles == 360.0] = 0.0
    return angles


def _every_pair(ks: np.ndarray, ls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.repeat(ks, len(ls)), np.tile(ls, len(ks))


def beyond_pairs(
    a: np.ndarray, b: np.ndarray, limit: float
) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (k, l) of the pairs ``a[k]``, ``b[l]`` of headings
    whose ``heading_difference`` may exceed ``limit``: a superset of them.

    The headings of ``b`` are sorted on the circle and laid out twice, so
    an arc across 0/360 is one contiguous range, and each heading of
    ``a`` bisects (``np.searchsorted``) the complementary arc widened by
    ``_ARC_MARGIN`` on each end; the cost follows the number of pairs
    returned.  A heading that cannot be placed (not finite, or at least
    ``_PLACEABLE_HEADING`` in magnitude) is paired with every heading on
    the other side.
    """
    nothing = np.empty(0, dtype=np.intp)
    if not limit < 180.0:  # no difference exceeds 180 (or a NaN limit)
        return nothing, nothing
    lo = limit - _ARC_MARGIN
    hi = 360.0 - limit + _ARC_MARGIN
    if hi - lo >= 360.0:
        return _every_pair(np.arange(len(a)), np.arange(len(b)))
    placed_a = np.abs(a) < _PLACEABLE_HEADING
    placed_b = np.abs(b) < _PLACEABLE_HEADING
    on_b = np.flatnonzero(placed_b)
    angles_b = _on_circle(b[on_b])
    order = np.argsort(angles_b, kind="stable")
    circle = np.concatenate([angles_b[order], angles_b[order] + 360.0])
    index = np.concatenate([on_b[order], on_b[order]])

    on_a = np.flatnonzero(placed_a)
    angles_a = _on_circle(a[on_a])
    # angle + hi < 720, inside the doubled layout
    first = np.searchsorted(circle, angles_a + lo, side="left")
    last = np.searchsorted(circle, angles_a + hi, side="right")
    counts = last - first
    # position p of the flattened ranges reads circle slot
    # first[r] + (p - start of range r)
    shift = np.repeat(first - (np.cumsum(counts) - counts), counts)
    placed_k, loose_l = _every_pair(on_a, np.flatnonzero(~placed_b))
    loose_k, every_l = _every_pair(np.flatnonzero(~placed_a), np.arange(len(b)))
    ks = np.concatenate([np.repeat(on_a, counts), placed_k, loose_k])
    ls = np.concatenate([index[np.arange(len(shift)) + shift], loose_l, every_l])
    return ks, ls


def mean_heading(headings: Iterable[float]) -> float | None:
    """Circular mean in [0, 360); None for an empty input."""
    hs = [math.radians(h) for h in headings]
    if not hs:
        return None
    x = sum(math.cos(h) for h in hs) / len(hs)
    y = sum(math.sin(h) for h in hs) / len(hs)
    deg = math.degrees(math.atan2(y, x)) % 360.0
    # float mod can round a tiny negative angle up to exactly 360.0
    return 0.0 if deg == 360.0 else deg
