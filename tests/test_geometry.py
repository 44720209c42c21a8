import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echelon.geometry import (
    beyond_pairs,
    centroid,
    distance,
    heading_difference,
    mean_heading,
)

HEADINGS = st.one_of(
    st.floats(-1000.0, 1500.0),
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 2.0**20, -(2.0**20), 1e300, 0.0, -0.0,
         180.0, 360.0, -1e-20, 359.999999999]
    ),
)


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


@settings(max_examples=300, deadline=None)
@given(
    st.lists(HEADINGS, max_size=10),
    st.lists(HEADINGS, max_size=10),
    st.sampled_from([-5.0, 0.0, 1e-9, 30.0, 90.0, 179.999999, 180.0, 200.0, math.nan]),
    st.sampled_from([0.0, 1e-9, -1e-9]),
)
def test_beyond_pairs_covers_every_pair_over_the_limit(a, b, limit, nudge):
    # headings sitting exactly on, or 1e-9 off, the limit from each other
    if a and b:
        b = b + [a[0] + limit + nudge, a[-1] - limit - nudge]
    ks, ls = beyond_pairs(np.array(a, dtype=float), np.array(b, dtype=float), limit)
    found = list(zip(ks.tolist(), ls.tolist()))
    assert len(found) == len(set(found))  # each pair once
    over = {
        (k, l)
        for k, x in enumerate(a)
        for l, y in enumerate(b)
        if heading_difference(x, y) > limit
    }
    assert over <= set(found)
    # a filter, not every pair: a placed pair it returns differs by more
    # than the limit less the arc margin
    for k, l in found:
        if abs(a[k]) < 2.0**20 and abs(b[l]) < 2.0**20 and 0.0 < limit < 180.0:
            assert heading_difference(a[k], b[l]) > limit - 2e-6
