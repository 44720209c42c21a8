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
    or their cells of width reach * (1 + 2**-20) are equal or adjacent,
    diagonals included.  A point is loose when a coordinate over the
    width is not finite or not below 2**30 in magnitude, or when the
    reach is below the smallest normal float."""
    width = reach * (1 + 2.0**-20)

    def cell(x, y):
        u, v = x / width, y / width
        if reach >= sys.float_info.min and abs(u) < 2.0**30 and abs(v) < 2.0**30:
            return math.floor(u), math.floor(v)
        return None

    cells = [cell(x, y) for x, y in points]
    pairs = []
    for i, j in itertools.combinations(range(len(points)), 2):
        a, b = cells[i], cells[j]
        if None in (a, b) or (abs(a[0] - b[0]) <= 1 and abs(a[1] - b[1]) <= 1):
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


def near_pairs_by_the_rule(points, reach):
    found = near_pairs(points, reach)
    assert found == reference_near_pairs(points, reach)
    return found


@pytest.mark.parametrize("reach", [1.0, 1e-3, 30.0, 300.0000000000002, 1200.0, 1e300])
def test_near_pairs_find_points_one_reach_apart_across_a_cell_edge(reach):
    width = reach * (1 + 2.0**-20)
    for k in (-3, 0, 1, 1000):
        edge = k * width
        for x in (edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)):
            # one reach on either side and along both axes, diagonals too
            points = [(x, x), (x + reach, x), (x - reach, x), (x, x + reach),
                      (x + reach, x - reach), (x - reach, x - reach)]
            found = near_pairs_by_the_rule(points, reach)
            near = [
                (i, j) for i, j in itertools.combinations(range(len(points)), 2)
                if abs(points[i][0] - points[j][0]) <= reach
                and abs(points[i][1] - points[j][1]) <= reach
            ]
            assert set(near) <= set(found)
            assert (0, 1) in found and (0, 2) in found and (0, 3) in found


@pytest.mark.parametrize("reach", [1.0, 600.0, 1e-3])
def test_near_pairs_at_the_loose_bound(reach):
    """Just inside 2**30 cells a point is placed and still finds a point
    one reach away; at the bound it is loose, paired with every point."""
    width = reach * (1 + 2.0**-20)
    inside = math.nextafter(2.0**30 * width, 0.0)
    while not abs(inside / width) < 2.0**30:
        inside = math.nextafter(inside, 0.0)
    at = 2.0**30 * width
    far = (0.0, 0.0)
    points = [(inside, 0.0), (inside - reach, 0.0), far, (at, 0.0), (-at, 5.0),
              (0.0, -inside), (0.0, reach - inside)]
    found = near_pairs_by_the_rule(points, reach)
    assert (0, 1) in found and (5, 6) in found
    assert (0, 2) not in found and (2, 5) not in found  # placed, far apart
    assert all((min(i, 3), max(i, 3)) in found for i in range(7) if i != 3)
    assert (3, 4) in found  # two loose points, once


def test_near_pairs_keep_index_order_and_pair_loose_points_once():
    points = [(math.nan, 0.0), (0.0, 0.0), (math.inf, 1.0), (0.5, 0.5), (50.0, 50.0)]
    found = near_pairs(points, 1.0)
    assert found == [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3), (2, 4)]
    assert near_pairs([], 1.0) == [] and near_pairs([(0.0, 0.0)], 1.0) == []
    # a reach below the smallest normal float places no point
    assert near_pairs([(0.0, 0.0), (1.0, 1.0), (5.0, 5.0)], 5e-324) == [
        (0, 1), (0, 2), (1, 2)
    ]


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
