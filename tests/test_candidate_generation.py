"""Candidate generation in conflict detection and clustering.

``detect_conflicts`` and ``matching._clusters`` test only the pairs that
an evidence index and a uniform grid (``geometry.near_pairs``) propose.
These tests hold them to the all-pairs versions below, which stay here
as the reference, on scenes built to sit on every boundary the filters
and tests have: limits and reaches hit exactly or missed by 1e-9,
headings across 0/360, negative, large and non-finite headings, negative
coordinates, points on grid-cell edges, far-apart pairs sharing evidence
or facing apart, and zero-metre separation rows.  The last tests
count doctrine lookups and the candidate pairs given to the exact test
(``conflict._pair_flags``), and the matcher's fit scores and pair
evaluations, on generated clean scenes, so a return to all-pairs work or
to scoring every slot assignment fails without timing.
"""

import itertools
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from echelon import conflict, matching, pipeline
from echelon.conflict import ConflictReason, detect_conflicts
from echelon.evidence import EvidenceItem, EvidenceKind, EvidenceSet
from echelon.geometry import distance, heading_difference
from echelon.hypotheses import Hypothesis, HypothesisGraph, Status
from echelon.matching import _clusters
from echelon.models import HEADING_REACH_M, LEVELS, Level, ModelLibrary, load_library
from echelon.scenario import NoiseSpec, dumps, generate, load_ground_truth

from conftest import TANK_LIBRARY, add_leaf, company_node

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
                ],
            },
        }
    )
)
VEHICLE_TYPES = ["vehicle", "tracked", "tank", "mbt", "apc", "truck"]
ARRAY_TYPES = ["array", "company"]
SEPARATIONS = [0.0, 30.0, 45.0, 60.0, 400.0, 600.0]
HEADING_LIMITS = [0.0, 45.0, 90.0, 150.0]
NUDGES = [0.0, 0.0, 1e-9, -1e-9, 2.0**-40, -(2.0**-40)]
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
            i: EvidenceSet.from_iterable(
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
            [
                ((s.members[a], s.members[b]), conflict.REASON_SETS[f])
                for a, b, f in s.reasons.tolist()
            ],
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
    edge, or an earlier heading moved by a heading limit +- 1e-9."""
    kind = draw(st.sampled_from(["none", "free", "edge", "limit"]))
    if kind == "none":
        return None
    if kind == "edge":
        return draw(
            st.sampled_from(
                [0.0, -0.0, 360.0, -360.0, 180.0, -180.0, 720.0, 359.999999999, -1e-20]
            )
        )
    if kind == "limit" and anchors:
        step = draw(st.sampled_from(HEADING_LIMITS)) * draw(st.sampled_from([-1, 1]))
        wrap = 360.0 * draw(st.integers(-2, 2))
        nudge = draw(st.sampled_from([0.0, 1e-9, -1e-9]))
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
        if heading is not None:
            hs.append(heading)
        own = draw(st.lists(st.sampled_from(pool), max_size=2))
        g.add_evidence(EvidenceItem(f"d{v}", EvidenceKind.DETECTION, 3.0))
        g.insert(
            Hypothesis(
                id=f"v{v}",
                force_type=draw(st.sampled_from(VEHICLE_TYPES)),
                level=Level.VEHICLE,
                location=(x, y),
                own_evidence=EvidenceSet.from_iterable([f"d{v}", *own]),
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


HEADING_LIBRARY = load_library(
    json.dumps(
        {
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
    )
)
SPECIAL_HEADINGS = [
    None, math.nan, math.inf, -math.inf, 2.0**20, -(2.0**20), 2.0**20 - 2.0**-32,
    1e300, 0.0, -0.0, 0.5, 180.0, 180.5, 359.9999999, -1e-20, 210.0, 1e6 + 0.25,
]


def _heading_scene(placed):
    """Vehicles of the given (type, heading), 10 m apart on a line, so only
    the orientation test can join them: pairs up to 60 places apart lie
    within ``HEADING_REACH_M`` (60 places exactly on it), those further
    apart beyond it."""
    g = HypothesisGraph()
    for i, (force_type, heading) in enumerate(placed):
        add_leaf(g, f"v{i:02d}", force_type=force_type, location=(10.0 * i, 0.0),
                 heading=heading)
    return g


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
    )
)
def test_special_headings_equal_all_pairs(placed):
    g = _heading_scene(placed)
    found = detect_conflicts(g, HEADING_LIBRARY)
    assert as_compared(found) == reference_detect_conflicts(g, HEADING_LIBRARY)


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


def test_detection_work_stays_linear_on_clean_scenes(tmp_path, monkeypatch):
    counts = {
        "min_separation": 0,
        "max_heading_delta": 0,
        "distance_tests": 0,
        "pair_tests": 0,
        "levels": 0,
    }

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("min_separation", "max_heading_delta"):
        original = getattr(ModelLibrary, name)
        monkeypatch.setattr(ModelLibrary, name, counted(name, original))
    # the exact doctrine tests of the grid's candidates, one distance each
    monkeypatch.setattr(
        conflict, "distance", counted("distance_tests", conflict.distance)
    )
    original_flags = conflict._pair_flags

    def counted_flags(codes, *args):
        # one call per level tests every candidate pair of that level
        counts["pair_tests"] += len(codes)
        counts["levels"] += 1
        return original_flags(codes, *args)

    monkeypatch.setattr(conflict, "_pair_flags", counted_flags)

    per_level = []

    def detect(g, lib, level):
        ids = g.at_level(level, statuses={Status.ACTIVE})
        types = len({g.get(i).force_type for i in ids})
        for c in counts:
            counts[c] = 0
        out = detect_conflicts(g, lib, level)
        per_level.append((len(ids), types, dict(counts)))
        return out

    monkeypatch.setattr(pipeline, "detect_conflicts", detect)

    for battalions in (4, 16):
        per_level.clear()
        scene = tmp_path / str(battalions)
        scene.mkdir()
        config = pipeline.RunConfig.from_file(_grid_scene(scene, battalions))
        report = pipeline.run(config)
        assert len(report["levels"]["battalion"]) == battalions
        hypotheses = sum(n for n, _, _ in per_level)
        assert hypotheses == 13 * battalions  # 9 vehicles, 3 arrays, 1 battalion each
        for n, types, c in per_level:
            assert c["min_separation"] <= types**2
            assert c["max_heading_delta"] <= types**2
            assert c["distance_tests"] <= n
            assert c["pair_tests"] <= n
            assert c["levels"] == (n >= 2)  # the count above is live


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
