import itertools
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echelon.geometry import (
    centroid,
    distance,
    heading_difference,
    linked_groups,
    mean_heading,
    near_pairs,
)

REACHES = [1.0, 1e-3, 30.0, 600.0, 1e-300, 1e300, math.inf]
SPECIAL = [math.nan, math.inf, -math.inf, sys.float_info.max, -1.7e308, 1e300,
           2.0**52, -0.0, 5e-324]


@st.composite
def coordinates(draw, reach):
    """A free value, a cell edge (possibly nudged), or a special value."""
    kind = draw(st.sampled_from(["free", "edge", "edge", "special"]))
    if kind == "special":
        return draw(st.sampled_from(SPECIAL))
    if kind == "edge" and math.isfinite(reach):
        nudge = draw(st.sampled_from([0.0, 1e-9, -1e-9, 2.0**-40, -(2.0**-40)]))
        return draw(st.integers(-8, 8)) * reach + nudge
    return draw(st.floats(-3000.0, 3000.0))


def reference_near_pairs(points, reach):
    """The grid rule one pair at a time: (i, j) when either point is loose
    or the cell of j lies in the cells the reach of i overlaps."""

    def span(v):
        if not math.isfinite(reach):
            return None
        slack = 4.0 * (math.ulp(v) + math.ulp(reach))
        first, last = (v - reach - slack) / reach, (v + reach + slack) / reach
        if not (slack < reach and math.isfinite(first) and math.isfinite(last)):
            return None
        return math.floor(first), math.floor(last)

    spans = [(span(x), span(y)) for x, y in points]
    pairs = []
    for i, j in itertools.combinations(range(len(points)), 2):
        (xs, ys), (xt, yt) = spans[i], spans[j]
        if None in (xs, ys, xt, yt) or (
            xs[0] <= math.floor(points[j][0] / reach) <= xs[1]
            and ys[0] <= math.floor(points[j][1] / reach) <= ys[1]
        ):
            pairs.append((i, j))
    return pairs


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_near_pairs_equal_the_grid_rule_and_cover_every_near_pair(data):
    reach = data.draw(st.sampled_from(REACHES))
    points = data.draw(
        st.lists(st.tuples(coordinates(reach), coordinates(reach)), max_size=20)
    )
    # some points on another's cell edge or exactly one reach away
    if points and math.isfinite(reach):
        x, y = points[0]
        points += [(x + reach, y), (x, y - reach), (x - reach, y + reach)]
    found = near_pairs(points, reach)
    assert found == sorted(set(found))  # ascending, each pair once
    assert all(i < j for i, j in found)
    assert found == reference_near_pairs(points, reach)
    for i, j in itertools.combinations(range(len(points)), 2):
        (xi, yi), (xj, yj) = points[i], points[j]
        if abs(xi - xj) <= reach and abs(yi - yj) <= reach:
            assert (i, j) in found


def reference_linked_groups(n, pairs):
    """Conflict detection's union-find as it was written inline: each
    pair's roots found by path halving, the first root linked under the
    second, and the groups listed by root index."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[a] = b

    roots = [find(i) for i in range(n)]
    groups = {}
    for i, root in enumerate(roots):
        groups.setdefault(root, []).append(i)
    return [groups[root] for root in sorted(groups)]


@st.composite
def pair_lists(draw):
    """A node count and pairs over it, in any order, ascending or not,
    repeated or self-linked."""
    n = draw(st.integers(0, 30))
    if n == 0:
        return 0, []
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=60))
    if draw(st.booleans()):
        pairs = sorted((min(p), max(p)) for p in pairs)
    return n, pairs


@settings(max_examples=300, deadline=None)
@given(pair_lists())
def test_linked_groups_equal_the_inline_union_find(case):
    n, pairs = case
    groups = linked_groups(n, pairs)
    assert groups == reference_linked_groups(n, pairs)
    assert sorted(i for group in groups for i in group) == list(range(n))
    assert all(group == sorted(group) for group in groups)


def test_linked_groups_list_a_group_at_its_root_not_its_largest_index():
    # 0 goes under 1, 1's root under 9, 9's root under 3: the group's root
    # is 3, so it comes after {2} and before {4}
    groups = linked_groups(10, [(0, 1), (0, 9), (1, 3)])
    assert groups == [[2], [0, 1, 3, 9], [4], [5], [6], [7], [8]]
    assert groups == reference_linked_groups(10, [(0, 1), (0, 9), (1, 3)])


def test_distance_and_centroid():
    assert distance((0, 0), (3, 4)) == 5.0
    assert centroid([(0, 0), (2, 0), (1, 3)]) == (1.0, 1.0)


def test_heading_difference_wraps():
    assert heading_difference(350.0, 10.0) == pytest.approx(20.0)
    assert heading_difference(0.0, 180.0) == 180.0
    assert heading_difference(90.0, 90.0) == 0.0
    assert heading_difference(0.0, 359.0) == pytest.approx(1.0)


def test_mean_heading_wraps():
    assert mean_heading([350.0, 10.0]) == pytest.approx(0.0, abs=1e-9)
    assert mean_heading([90.0]) == pytest.approx(90.0)
    assert mean_heading([]) is None
    assert mean_heading(h for h in (350.0, 10.0)) == pytest.approx(0.0, abs=1e-9)
