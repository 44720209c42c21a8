"""Candidate generation in conflict detection and clustering.

``detect_conflicts`` and ``matching._clusters`` see only the pairs that
an evidence index finds and the pairs within reach that uniform grids
(``geometry.near_pairs``) find:
in detection, one grid per level at the reach of the doctrine tests that
can flag a pair there (the heading test runs only when the level's
finite headings are not all equal, or a heading limit is negative), and
groups joined from the edges' endpoints alone.
These tests hold them to the all-pairs versions below, which stay here
as the reference, on scenes built to sit on every boundary the filters
and tests have: limits and reaches hit exactly or missed by 1e-9,
heading arcs just under, at and just over the smallest limit (across
0/360, near 2**30 degrees and past it, and one under the limit whose
heading difference rounds over it), equal headings (0 and -0 among
them) under positive and negative limits, negative, large
and non-finite headings mixed with finite ones, negative coordinates,
points on grid-cell edges, far-apart pairs sharing evidence or facing
apart, and type pairs with separation rows of 0 m, of different widths
and with none.  The last tests count doctrine lookups, the distances
the grids test, the heading tests, the edges given to ``linked_groups``, the
builds of the shared-evidence index (none where closures are pairwise
disjoint), and the matcher's fit scores and pair evaluations, on generated clean
scenes, so a return to all-pairs work or to scoring every slot
assignment fails without timing.
"""

import itertools
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from echelon import conflict, geometry, matching, pipeline
from echelon.conflict import ConflictReason, detect_conflicts
from echelon.evidence import EvidenceItem, EvidenceKind
from echelon.geometry import distance, heading_difference
from echelon.hypotheses import Hypothesis, HypothesisGraph, Status
from echelon.matching import _clusters
from echelon.models import HEADING_REACH_M, LEVELS, Level, ModelLibrary, load_library
from echelon.scenario import NoiseSpec, dumps, generate, load_ground_truth

from conftest import TANK_LIBRARY, add_leaf, add_parent, company_node

LIBRARY = load_library(
    json.dumps(
        {
            "types": [
                {"name": "vehicle", "level": "vehicle"},
                {"name": "tracked", "level": "vehicle", "isa": "vehicle"},
                {"name": "tank", "level": "vehicle", "isa": "tracked"},
                {"name": "mbt", "level": "vehicle", "isa": "tank"},
                {"name": "apc", "level": "vehicle", "isa": "tracked"},
                {"name": "truck", "level": "vehicle", "isa": "vehicle"},
                {"name": "drone", "level": "vehicle"},
                {"name": "array", "level": "array"},
                {"name": "company", "level": "array", "isa": "array"},
            ],
            "doctrine": {
                "min_separation": [
                    {"a": "vehicle", "b": "vehicle", "meters": 30},
                    {"a": "tank", "b": "tank", "meters": 60},
                    {"a": "tank", "b": "tracked", "meters": 45},
                    {"a": "apc", "b": "truck", "meters": 0},
                    {"a": "array", "b": "array", "meters": 400},
                ],
                "max_heading_delta": [
                    {"a": "tank", "b": "tank", "degrees": 90},
                    {"a": "tracked", "b": "truck", "degrees": 150},
                    {"a": "apc", "b": "apc", "degrees": 0},
                    {"a": "company", "b": "company", "degrees": 45},
                    {"a": "drone", "b": "drone", "degrees": 20},
                ],
            },
        }
    )
)
# a drone has no separation row with any type, and its own heading row
VEHICLE_TYPES = ["vehicle", "tracked", "tank", "mbt", "apc", "truck", "drone"]
ARRAY_TYPES = ["array", "company"]
SEPARATIONS = [0.0, 30.0, 45.0, 60.0, 400.0, 600.0]
HEADING_LIMITS = [0.0, 20.0, 45.0, 90.0, 150.0]
NUDGES = [0.0, 0.0, 1e-9, -1e-9, 2.0**-40, -(2.0**-40)]
# moves of a heading limit: off by nothing, by less than 2**-20 degrees,
# by that, and by more
ARC_NUDGES = [0.0, 1e-9, -1e-9, 2.0**-20, -(2.0**-20), 2.0**-19, -(2.0**-19), 1e-5, -1e-5]
# whole turns that put a heading just under or over 2**30 degrees
# (2**30 / 360 = 2982616.2), where a difference rounds by up to 2**-22
TURNS = [-2982617, -2982616, -2, -1, 0, 0, 1, 2, 2982616, 2982617]
EXAMPLES = dict(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# -- all-pairs references ------------------------------------------------


def reference_detect_conflicts(g, lib, level=None):
    """Every same-level pair through the exact test, doctrine looked up
    per pair; groups in union-find root order, each as ``as_compared``
    gives a detected group."""
    out = []
    for lvl in LEVELS if level is None else (level,):
        ids = sorted(g.at_level(lvl, statuses={Status.ACTIVE}))
        if len(ids) < 2:
            continue
        sharable = {
            i: frozenset(
                e
                for e in g.evidence_closure(i)
                if g.item(e).kind is not EvidenceKind.TERRAIN
            )
            for i in ids
        }
        edges = {}
        parent = {i: i for i in ids}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in itertools.combinations(ids, 2):
            ha, hb = g.get(a), g.get(b)
            reasons = set()
            if sharable[a] & sharable[b]:
                reasons.add(ConflictReason.SHARED_EVIDENCE)
            sep = lib.min_separation(ha.force_type, hb.force_type)
            if sep is not None and distance(ha.location, hb.location) < sep:
                reasons.add(ConflictReason.TOO_CLOSE)
            if ha.heading is not None and hb.heading is not None:
                limit = lib.max_heading_delta(ha.force_type, hb.force_type)
                diff = heading_difference(ha.heading, hb.heading)
                if (
                    limit is not None
                    and diff > limit
                    and distance(ha.location, hb.location) <= HEADING_REACH_M
                ):
                    reasons.add(ConflictReason.ORIENTATION)
            if reasons:
                edges[(a, b)] = frozenset(reasons)
                parent[find(a)] = find(b)
        groups = {}
        for i in ids:
            groups.setdefault(find(i), []).append(i)
        for root in sorted(groups):
            members = sorted(groups[root])
            if len(members) < 2:
                continue
            inside = set(members)
            out.append(
                (
                    lvl,
                    tuple(members),
                    [
                        (p, rs)
                        for p, rs in edges.items()
                        if p[0] in inside and p[1] in inside
                    ],
                )
            )
    return out


def reference_clusters(g, ids, radius):
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in itertools.combinations(ids, 2):
        if distance(g.get(a).location, g.get(b).location) <= radius:
            parent[find(a)] = find(b)
    groups = {}
    for i in ids:
        groups.setdefault(find(i), []).append(i)
    return [sorted(groups[r]) for r in sorted(groups, key=lambda r: min(groups[r]))]


def as_compared(sets):
    """Level, members and ``((a, b), reasons)`` pairs in their order."""
    return [
        (
            s.level,
            s.members,
            [((s.members[a], s.members[b]), rs) for a, b, rs in s.reasons],
        )
        for s in sets
    ]


# -- scene strategies ----------------------------------------------------

finite = st.floats(-3000.0, 3000.0, allow_nan=False, allow_infinity=False)


@st.composite
def places(draw, anchors):
    """A free point, a point on grid-cell edges, or an earlier point moved
    by doctrine-scale offsets (each coordinate possibly nudged)."""
    kind = draw(st.sampled_from(["free", "edge", "offset", "offset", "far"]))
    nudge = st.sampled_from(NUDGES)
    if kind == "edge":
        cell = draw(st.sampled_from(SEPARATIONS[1:]))
        return tuple(draw(st.integers(-8, 8)) * cell + draw(nudge) for _ in range(2))
    if kind == "offset" and anchors:
        x, y = draw(st.sampled_from(anchors))
        scale = draw(st.sampled_from(SEPARATIONS[1:]))
        fractions = st.sampled_from([0.0, 0.5, 0.75, 0.99, 1.0, 1.5, 2.0])
        sign = st.sampled_from([-1, 1])
        return (
            x + draw(sign) * draw(fractions) * scale + draw(nudge),
            y + draw(sign) * draw(fractions) * scale + draw(nudge),
        )
    if kind == "far":
        sign = st.sampled_from([-1.0, 1.0])
        return tuple(draw(sign) * draw(st.floats(1e5, 1e7)) for _ in range(2))
    return (draw(finite), draw(finite))


@st.composite
def headings(draw, anchors):
    """None, a free heading (negative and >= 360 included), a circle
    edge, NaN or an infinity, or an earlier heading moved by a heading
    limit (0 among them), nudged (``ARC_NUDGES``) and turned (``TURNS``):
    two such headings are equal, or span an arc just under, at or just
    over the limit, across 0/360 or not, near 2**30 degrees or not."""
    kind = draw(st.sampled_from(["none", "free", "edge", "special", "limit", "limit"]))
    if kind == "none":
        return None
    if kind == "edge":
        return draw(
            st.sampled_from(
                [0.0, -0.0, 360.0, -360.0, 180.0, -180.0, 720.0, 359.999999999, -1e-20]
            )
        )
    if kind == "special":
        return draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    if kind == "limit" and anchors:
        step = draw(st.sampled_from(HEADING_LIMITS)) * draw(st.sampled_from([-1, 1]))
        wrap = 360.0 * draw(st.sampled_from(TURNS))
        nudge = draw(st.sampled_from(ARC_NUDGES))
        return draw(st.sampled_from(anchors)) + step + wrap + nudge
    return draw(st.floats(-1000.0, 1500.0, allow_nan=False))


@st.composite
def scenes(draw):
    """A graph of vehicles and arrays over a small shared evidence pool,
    some members inactive."""
    g = HypothesisGraph()
    for e in range(6):
        g.add_evidence(EvidenceItem(f"e{e}", EvidenceKind.DETECTION, 2.0))
    for t in range(2):
        g.add_evidence(EvidenceItem(f"t{t}", EvidenceKind.TERRAIN, 2.0))
    points, hs = [], []
    pool = [f"e{e}" for e in range(6)] + ["t0", "t1"]
    n_vehicles = draw(st.integers(0, 14))
    for v in range(n_vehicles):
        x, y = draw(places(points))
        heading = draw(headings(hs))
        points.append((x, y))
        if heading is not None and math.isfinite(heading):
            hs.append(heading)
        own = draw(st.lists(st.sampled_from(pool), max_size=2))
        g.add_evidence(EvidenceItem(f"d{v}", EvidenceKind.DETECTION, 3.0))
        g.insert(
            Hypothesis(
                id=f"v{v}",
                force_type=draw(st.sampled_from(VEHICLE_TYPES)),
                level=Level.VEHICLE,
                location=(x, y),
                own_evidence=frozenset([f"d{v}", *own]),
                heading=heading,
                status=draw(st.sampled_from([Status.ACTIVE] * 4 + [Status.EXCLUDED])),
            )
        )
    vehicle_ids = [f"v{v}" for v in range(n_vehicles)]
    for a in range(draw(st.integers(0, 8)) if vehicle_ids else 0):
        components = draw(
            st.lists(st.sampled_from(vehicle_ids), min_size=1, max_size=3, unique=True)
        )
        x, y = draw(places(points))
        heading = draw(headings(hs))
        points.append((x, y))
        g.insert(
            Hypothesis(
                id=f"a{a}",
                force_type=draw(st.sampled_from(ARRAY_TYPES)),
                level=Level.ARRAY,
                location=(x, y),
                model="m",
                components=tuple(components),
                heading=heading,
                status=draw(st.sampled_from([Status.ACTIVE] * 4 + [Status.SKIPPED])),
            )
        )
    return g


# -- equivalence ---------------------------------------------------------


@settings(**EXAMPLES)
@given(scenes())
def test_detect_conflicts_equals_all_pairs(g):
    found = detect_conflicts(g, LIBRARY)
    assert as_compared(found) == reference_detect_conflicts(g, LIBRARY)


@settings(**EXAMPLES)
@given(st.data())
def test_clusters_equal_all_pairs(data):
    g = HypothesisGraph()
    points = []
    for i in range(data.draw(st.integers(0, 25))):
        points.append(data.draw(places(points)))
        add_leaf(g, f"v{i:02d}", location=points[-1])
    radius = data.draw(st.sampled_from(SEPARATIONS[1:] + [1.0, 1e-3]))
    ids = sorted(g.at_level(Level.VEHICLE))
    assert _clusters(g, ids, radius) == reference_clusters(g, ids, radius)


def test_clusters_keep_a_pair_exactly_at_radius_across_two_cell_edges(empty_graph):
    # 1 + 2**-53 rounds to 1.0, so the pair is exactly at the radius,
    # while the two points fall two grid cells apart (floor -1 and 1)
    g = empty_graph
    add_leaf(g, "v0", location=(-(2.0**-53), 0.0))
    add_leaf(g, "v1", location=(1.0, 0.0))
    assert _clusters(g, ["v0", "v1"], 1.0) == [["v0", "v1"]]


def test_non_finite_and_extreme_coordinates_match_all_pairs(empty_graph):
    g = empty_graph
    places = [
        (math.nan, 0.0),
        (math.inf, 0.0),
        (-math.inf, math.inf),
        (1.7e308, 0.0),
        (1.7e308 - 2e292, 0.0),
        (0.0, 0.0),
        (10.0, 0.0),
    ]
    for i, loc in enumerate(places):
        add_leaf(g, f"v{i}", force_type="tank", location=loc, heading=float(i) * 1e6)
    ids = sorted(g.at_level(Level.VEHICLE))
    assert _clusters(g, ids, 50.0) == reference_clusters(g, ids, 50.0)
    found = detect_conflicts(g, LIBRARY)
    assert as_compared(found) == reference_detect_conflicts(g, LIBRARY)


HEADING_LIBRARY_DOC = {
    "types": [
        {"name": "vehicle", "level": "vehicle"},
        {"name": "tank", "level": "vehicle", "isa": "vehicle"},
        {"name": "apc", "level": "vehicle", "isa": "vehicle"},
        {"name": "truck", "level": "vehicle", "isa": "vehicle"},
    ],
    "doctrine": {
        "max_heading_delta": [
            {"a": "tank", "b": "tank", "degrees": 180},
            {"a": "tank", "b": "apc", "degrees": 200},
            {"a": "apc", "b": "apc", "degrees": 30},
            {"a": "truck", "b": "vehicle", "degrees": 179.999999},
            {"a": "truck", "b": "truck", "degrees": -5},
        ]
    },
}
HEADING_LIBRARY = load_library(json.dumps(HEADING_LIBRARY_DOC))
# the same types and heading rows, with separation rows of 25 m, 15 m
# and 0 m between some type pairs and none between the others
SEPARATED_HEADING_LIBRARY = load_library(
    json.dumps(
        {
            "types": HEADING_LIBRARY_DOC["types"],
            "doctrine": {
                **HEADING_LIBRARY_DOC["doctrine"],
                "min_separation": [
                    {"a": "tank", "b": "tank", "meters": 25},
                    {"a": "apc", "b": "apc", "meters": 15},
                    {"a": "apc", "b": "truck", "meters": 0},
                ],
            },
        }
    )
)
SPECIAL_HEADINGS = [
    None, math.nan, math.inf, -math.inf, 2.0**20, -(2.0**20), 2.0**20 - 2.0**-32,
    1e300, 0.0, -0.0, 0.5, 180.0, 180.5, 359.9999999, -1e-20, 210.0, 1e6 + 0.25,
]


def _heading_scene(placed):
    """Vehicles of the given (type, heading), 10 m apart on a line, so
    under ``HEADING_LIBRARY`` only the orientation test can join them:
    pairs up to 60 places apart lie within ``HEADING_REACH_M`` (60 places
    exactly on it), those further apart beyond it."""
    g = HypothesisGraph()
    for i, (force_type, heading) in enumerate(placed):
        add_leaf(g, f"v{i:02d}", force_type=force_type, location=(10.0 * i, 0.0),
                 heading=heading)
    return g


def reference_attached_terrain(terrain, location):
    """Every terrain item within its ``radius_m`` of ``location``, one
    test per item."""
    return [
        t.id
        for t in terrain
        if distance(t.location, location) <= float(t.sensor_context["radius_m"])
    ]


TERRAIN_RADII = [-50.0, -0.0, 0.0, 1e-9, 30.0, 400.0, 1000.0, 2500.0]


@settings(**EXAMPLES)
@given(st.data())
def test_terrain_attachment_equals_all_pairs(data):
    # items of negative, zero and positive radius; locations exactly at an
    # item's radius, one ulp past it, on the item, anywhere, or non-finite
    terrain, anchors = [], []
    for t in range(data.draw(st.integers(0, 6))):
        anchors.append(data.draw(places(anchors)))
        terrain.append(
            EvidenceItem(
                f"t{t}", EvidenceKind.TERRAIN, 2.0, location=anchors[-1],
                sensor_context={"radius_m": data.draw(st.sampled_from(TERRAIN_RADII))},
            )
        )
    locations = []
    for _ in range(data.draw(st.integers(0, 20))):
        kind = data.draw(st.sampled_from(["place", "radius", "radius", "special"]))
        if kind == "radius" and terrain:
            t = data.draw(st.sampled_from(terrain))
            (x, y), r = t.location, abs(t.sensor_context["radius_m"])
            location = data.draw(
                st.sampled_from(
                    [(x + r, y), (x, y - r), (x, y), (math.nextafter(x + r, math.inf), y)]
                )
            )
        elif kind == "special":
            location = data.draw(
                st.sampled_from([(math.inf, 0.0), (math.nan, 0.0), (0.0, -math.inf)])
            )
        else:
            location = data.draw(places(anchors))
        locations.append(location)
    hyps = [
        Hypothesis(
            id=f"v{k}", force_type="tank", level=Level.VEHICLE, location=location,
            own_evidence=frozenset({f"d{k}"}),
        )
        for k, location in enumerate(locations)
    ]
    pipeline._attach_terrain(terrain, hyps)
    for k, (h, location) in enumerate(zip(hyps, locations)):
        expected = [f"d{k}", *reference_attached_terrain(terrain, location)]
        assert h.own_evidence == frozenset(expected)


def test_terrain_at_its_radius_zero_and_negative_radius_through_a_run(tmp_path):
    # leaves and arrays: a hill reaching a tank exactly at its radius,
    # a zero-radius marker on one tank and on the company's centroid, and
    # a negative-radius item on the centroid, which attaches to nothing
    terrain = [
        {"id": "hill", "x": 1100.0, "y": 1110.0, "radius_m": 50.0, "lambda": 2.0},
        {"id": "marker", "x": 900.0, "y": 1000.0, "radius_m": 0.0, "lambda": 2.0},
        {"id": "centre", "x": 1000.0, "y": 1020.0, "radius_m": 0.0, "lambda": 2.0},
        {"id": "void", "x": 1000.0, "y": 1020.0, "radius_m": -1.0, "lambda": 2.0},
    ]
    detections = [
        {"id": f"d{i}", "type": "T-72-tank", "x": x, "y": y, "lambda": 6.0}
        for i, (x, y) in enumerate([(900.0, 1000.0), (1000.0, 1000.0), (1100.0, 1060.0)])
    ]
    scenario = {"scenario_id": "terrain", "detections": detections, "terrain": terrain}
    (tmp_path / "library.json").write_text(json.dumps(TANK_LIBRARY))
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    config = {
        "library": "library.json",
        "scenario": "scenario.json",
        "matcher": {"gather_radius": 1200, "min_fit": 0.2},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    report = pipeline.run(pipeline.RunConfig.from_file(tmp_path / "config.json"))
    own = {
        e["id"]: e["own_evidence"]
        for level in report["levels"].values()
        for e in level
    }
    assert own["v.d0"] == ["d0", "marker"]
    assert own["v.d1"] == ["d1"]
    assert own["v.d2"] == ["d2", "hill"]
    assert own["a0"] == ["centre", "f:tank-company-line:v.d0+v.d1+v.d2"]


def test_non_finite_headings_and_wide_limits_match_all_pairs():
    # NaN and infinite headings never conflict; limits of 180 and more
    # flag nothing, a negative limit flags every headed pair within reach
    placed = [
        (t, h)
        for t in ("tank", "apc", "truck", "vehicle")
        for h in SPECIAL_HEADINGS
    ]
    g = _heading_scene(placed)
    found = detect_conflicts(g, HEADING_LIBRARY)
    assert as_compared(found) == reference_detect_conflicts(g, HEADING_LIBRARY)
    assert found and len(found[0].reasons) > 100


def test_a_heading_past_the_arc_bound_is_still_tested():
    # 1e100 and 64 have the same residue, 1e100 % 360, so they lie on one
    # point of the circle; but 1e100 - 64 rounds to 1e100, and
    # heading_difference reads them 64 degrees apart, over the apcs' 30:
    # only headings equal as floats may skip the test
    assert 1e100 % 360.0 == 64.0
    g = _heading_scene([("apc", 1e100), ("apc", 64.0)])
    found = detect_conflicts(g, HEADING_LIBRARY)
    assert as_compared(found) == reference_detect_conflicts(g, HEADING_LIBRARY)
    assert [s.members for s in found] == [("v00", "v01")]


def test_rounding_past_the_arc_is_covered_by_the_margin():
    # two headings 0.1 - 6e-9 apart on the circle, under a 0.1 limit, yet
    # a - 2**-25 rounds up to a (its spacing is 2**-23 above 2**29), so
    # heading_difference reads them 0.1 + 2.4e-8 apart: a shortcut that
    # reasons on the circle, not on the computed difference, misses it
    lib = load_library(
        json.dumps(
            {
                "types": [{"name": "vehicle", "level": "vehicle"}],
                "doctrine": {
                    "max_heading_delta": [{"a": "vehicle", "b": "vehicle", "degrees": 0.1}]
                },
            }
        )
    )
    residue = math.ceil(0.1 * 2**23) / 2**23
    a, b = 360.0 * 1491309 + residue, 2.0**-25
    assert a % 360.0 - b < 0.1 < heading_difference(a, b)
    g = _heading_scene([("vehicle", a), ("vehicle", b)])
    found = detect_conflicts(g, lib)
    assert as_compared(found) == reference_detect_conflicts(g, lib)
    assert [s.members for s in found] == [("v00", "v01")]


EQUAL = [0.0, -0.0, math.nan, math.inf, None, 0.0]


@pytest.mark.parametrize(
    "force_type, headings, tested, flagged",
    [
        ("apc", EQUAL, False, False),  # limit 30
        ("tank", EQUAL, False, False),  # limit 180
        ("truck", EQUAL, True, True),  # limit -5: equal headings conflict
        ("apc", [0.0, 360.0, 10.0, math.nan], True, False),  # unequal, within 30
        ("apc", [5.0, None, 40.0], True, True),
    ],
)
def test_equal_headings_skip_the_heading_test_exactly(
    monkeypatch, force_type, headings, tested, flagged
):
    # under limits >= 0 a level whose finite headings are all equal (0.0
    # and -0.0 are equal floats) runs no heading test: equal headings
    # differ by exactly 0, and a NaN or infinite one by NaN, which exceeds
    # no limit; a negative limit flags equal headings, so it runs
    tests = [0]
    original = conflict.heading_difference

    def counted(a, b):
        tests[0] += 1
        return original(a, b)

    monkeypatch.setattr(conflict, "heading_difference", counted)
    g = _heading_scene([(force_type, h) for h in headings])
    found = detect_conflicts(g, HEADING_LIBRARY)
    assert as_compared(found) == reference_detect_conflicts(g, HEADING_LIBRARY)
    assert bool(found) is flagged
    assert (tests[0] > 0) is tested


# where an arc of headings starts: across 0/360 or not, and near 2**30
# degrees, where differences round by up to 2**-22
ARC_STARTS = [
    0.0, 90.0, 359.75, -0.25, -180.0, 2.0**30 - 400.0, -(2.0**30) + 100.0,
    2.0**30 - 2.0**-22, -(2.0**30),
]
# the heading rows of HEADING_LIBRARY that an arc can just fit or exceed
ARC_LIMITS = [30.0, 179.999999, 180.0]


@st.composite
def arc_headings(draw):
    """Headings spanning an arc of a heading limit, nudged
    (``ARC_NUDGES``), from a start (``ARC_STARTS``): the arc's two ends
    and points inside it, some turned by whole circles."""
    start = draw(st.sampled_from(ARC_STARTS))
    width = draw(st.sampled_from(ARC_LIMITS)) + draw(st.sampled_from(ARC_NUDGES))
    inside = draw(st.lists(st.sampled_from([0.25, 0.5, 0.75]), max_size=3))
    out = []
    for fraction in [0.0, 1.0, *inside]:
        turn = 360.0 * draw(st.sampled_from([0, 0, 0, -1, 1]))
        out.append(start + fraction * width + turn)
    return out


@settings(**EXAMPLES)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["tank", "apc", "truck", "vehicle"]),
            st.one_of(
                st.sampled_from(SPECIAL_HEADINGS), st.floats(-1000.0, 1500.0)
            ),
        ),
        max_size=12,
    ),
    st.one_of(st.just([]), arc_headings()),
    st.lists(st.sampled_from(["tank", "apc", "truck", "vehicle"]), min_size=8, max_size=8),
    st.sampled_from([HEADING_LIBRARY, SEPARATED_HEADING_LIBRARY]),
    st.randoms(use_true_random=False),
)
def test_special_headings_equal_all_pairs(placed, arc, arc_types, lib, shuffle):
    # special and free headings, with or without an arc at a limit, in
    # any order along the line, under heading rows alone or with
    # separation rows of 25 m (2 places), 15 m, 0 m and none
    placed = placed + list(zip(arc_types, arc))
    shuffle.shuffle(placed)
    g = _heading_scene(placed)
    found = detect_conflicts(g, lib)
    assert as_compared(found) == reference_detect_conflicts(g, lib)


# -- scaling guard -------------------------------------------------------


def _grid_scene(tmp_path, battalions: int):
    """Config path of a clean scene: tank battalions on a 5 km grid."""
    lib = load_library(json.dumps(TANK_LIBRARY))
    cols = math.ceil(math.sqrt(battalions))
    forces = []
    for i in range(battalions):
        bx, by = (i % cols) * 5000.0, (i // cols) * 5000.0
        forces.append(
            {
                "model": "tank-battalion-std",
                "components": [
                    company_node(bx + 1000.0, by + 1000.0),
                    company_node(bx + 2000.0, by + 1000.0),
                    company_node(bx + 1500.0, by + 1900.0),
                ],
            }
        )
    gt = {
        "id": f"grid-{battalions}",
        "area": {"width_m": cols * 5000.0, "height_m": cols * 5000.0},
        "forces": forces,
    }
    noise = NoiseSpec(
        p_detect=1.0, false_alarm_density=0.0, location_jitter=5.0, seed=battalions
    )
    scenario = generate(load_ground_truth(gt, lib), noise, lib)
    (tmp_path / "library.json").write_text(json.dumps(TANK_LIBRARY))
    (tmp_path / "scenario.json").write_text(dumps(scenario))
    config = {
        "library": "library.json",
        "scenario": "scenario.json",
        "matcher": {"gather_radius": 1200, "min_fit": 0.2},
        "tau": 0.1,
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path / "config.json"


def test_detection_work_stays_linear_on_clean_scenes(tmp_path, monkeypatch, tank_lib):
    counts = {
        "min_separation": 0,
        "max_heading_delta": 0,
        "distance_tests": 0,
        "heading_tests": 0,
        "edges": 0,
        "groupings": 0,
    }

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("min_separation", "max_heading_delta"):
        original = getattr(ModelLibrary, name)
        monkeypatch.setattr(ModelLibrary, name, counted(name, original))
    # one distance per candidate pair of the grid, which proposes a
    # bounded number per hypothesis (none at the vehicle level here: every
    # tank faces the same way, so the grid is at the 25 m separation, and
    # no two tanks come that close), and one heading difference per pair
    # within the heading reach
    monkeypatch.setattr(
        geometry, "distance", counted("distance_tests", geometry.distance)
    )
    monkeypatch.setattr(
        conflict, "heading_difference",
        counted("heading_tests", conflict.heading_difference),
    )
    original_groups = conflict.linked_groups

    def counted_groups(n, edges):
        # one call per level with an edge takes every edge of that level
        counts["edges"] += len(edges)
        counts["groupings"] += 1
        return original_groups(n, edges)

    monkeypatch.setattr(conflict, "linked_groups", counted_groups)

    per_level = []

    def detect(g, lib, level):
        ids = g.at_level(level, statuses={Status.ACTIVE})
        types = len({g.get(i).force_type for i in ids})
        for c in counts:
            counts[c] = 0
        out = detect_conflicts(g, lib, level)
        per_level.append((level, len(ids), types, dict(counts)))
        return out

    monkeypatch.setattr(pipeline, "detect_conflicts", detect)

    for battalions in (4, 16):
        per_level.clear()
        scene = tmp_path / str(battalions)
        scene.mkdir()
        config = pipeline.RunConfig.from_file(_grid_scene(scene, battalions))
        report = pipeline.run(config)
        assert len(report["levels"]["battalion"]) == battalions
        hypotheses = sum(n for _, n, _, _ in per_level)
        assert hypotheses == 13 * battalions  # 9 vehicles, 3 arrays, 1 battalion each
        for level, n, types, c in per_level:
            assert c["min_separation"] <= types**2
            assert c["max_heading_delta"] <= types**2
            assert c["distance_tests"] <= (n if level is Level.VEHICLE else 3 * n)
            # every tank faces the same way: no orientation candidate
            assert c["heading_tests"] == 0
            assert c["edges"] <= n

    # the counters are live: the same wrappers count a level whose two
    # tanks sit 10 m apart facing opposite ways, one edge of both reasons
    g = HypothesisGraph()
    add_leaf(g, "v0", location=(0.0, 0.0), heading=0.0)
    add_leaf(g, "v1", location=(10.0, 0.0), heading=180.0)
    for c in counts:
        counts[c] = 0
    (found,) = detect_conflicts(g, tank_lib, Level.VEHICLE)
    assert found.reasons == (
        (0, 1, frozenset({ConflictReason.TOO_CLOSE, ConflictReason.ORIENTATION})),
    )
    assert counts == {
        "min_separation": 1,
        "max_heading_delta": 1,
        "distance_tests": 1,
        "heading_tests": 1,
        "edges": 1,
        "groupings": 1,
    }


def test_shared_evidence_index_is_built_only_where_closures_overlap(
    tmp_path, monkeypatch, tank_lib
):
    # closures whose sizes sum to the size of their union share nothing:
    # no level of a clean scene builds the item-to-holders index
    built = []

    def counted_holders(sharable):
        built.append(len(sharable))
        return original_holders(sharable)

    original_holders = conflict._evidence_holders
    monkeypatch.setattr(conflict, "_evidence_holders", counted_holders)
    detected = []

    def detect(g, lib, level):
        detected.append(len(g.at_level(level, statuses={Status.ACTIVE})))
        return detect_conflicts(g, lib, level)

    monkeypatch.setattr(pipeline, "detect_conflicts", detect)
    for battalions in (4, 16):
        detected.clear()
        scene = tmp_path / str(battalions)
        scene.mkdir()
        report = pipeline.run(pipeline.RunConfig.from_file(_grid_scene(scene, battalions)))
        assert detected[:3] == [9 * battalions, 3 * battalions, battalions]
        assert built == [] and report["conflicts"] == []

    # the counter is live: two companies sharing a tank, 3 km apart so
    # that doctrine flags nothing, build it once, at their level only
    g = HypothesisGraph()
    for i in range(3):
        add_leaf(g, f"v{i}", lam=4.0, location=(1500.0 * i, 0.0))
    add_parent(g, "a0", ["v0", "v1"], location=(0.0, 0.0))
    add_parent(g, "a1", ["v1", "v2"], location=(3000.0, 0.0))
    assert detect_conflicts(g, tank_lib, Level.VEHICLE) == []
    assert built == []
    (found,) = detect_conflicts(g, tank_lib, Level.ARRAY)
    assert found.members == ("a0", "a1")
    assert found.reasons == ((0, 1, frozenset({ConflictReason.SHARED_EVIDENCE})),)
    assert built == [2]


def test_matching_work_stays_output_sensitive_on_clean_scenes(tmp_path, monkeypatch):
    # the company model is fully constrained, so its tanks are pooled at
    # its extent, 250 + 0.25 * 200 = 300 m: each company's three tanks
    # form one cluster, and no cluster holds tanks of two companies.
    # Every fit score, from match_level or fit_score, goes through _score.
    counts = {"scores": 0}
    clusters = []  # [children, pair evaluations] per cluster

    def counted_score(*args):
        counts["scores"] += 1
        return original_score(*args)

    def counted_pair(*args):
        clusters[-1][1] += 1
        return original_pair(*args)

    def recorded_clusters(g, ids, radius):
        for cluster in original_clusters(g, ids, radius):
            clusters.append([len(cluster), 0])
            yield cluster

    original_score, original_pair, original_clusters = (
        matching._score, matching._pair_satisfaction, matching._clusters
    )
    monkeypatch.setattr(matching, "_score", counted_score)
    monkeypatch.setattr(matching, "_pair_satisfaction", counted_pair)
    monkeypatch.setattr(matching, "_clusters", recorded_clusters)

    per_level = {}

    def match(g, lib, level, cfg):
        counts["scores"] = 0
        clusters.clear()
        out = matching.match_level(g, lib, level, cfg)
        constraints = sum(len(m.constraints) for m in lib.models_at(level))
        per_level[level] = (len(out), counts["scores"], constraints, list(clusters))
        return out

    monkeypatch.setattr(pipeline, "match_level", match)

    for battalions in (4, 16):
        per_level.clear()
        scene = tmp_path / str(battalions)
        scene.mkdir()
        config = pipeline.RunConfig.from_file(_grid_scene(scene, battalions))
        report = pipeline.run(config)
        assert len(report["levels"]["battalion"]) == battalions
        candidates, _, _, array_clusters = per_level[Level.ARRAY]
        assert candidates == 3 * battalions
        assert [n for n, _ in array_clusters] == [3] * (3 * battalions)
        for candidates, scores, constraints, level_clusters in per_level.values():
            assert scores <= candidates
            for n, pair_evaluations in level_clusters:
                assert pair_evaluations <= constraints * n * (n - 1) // 2
