import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from echelon import matching
from echelon.exceptions import MatchTooLargeError
from echelon.geometry import distance, heading_difference
from echelon.hypotheses import HypothesisGraph
from echelon.matching import (
    MATCHABLE,
    MAX_ASSIGNMENTS,
    MatchCandidate,
    MatchConfig,
    _clusters,
    _Enumeration,
    _PairTable,
    candidate_to_hypothesis,
    fit_score,
    match_level,
)
from echelon.models import DeploymentConstraint, Level, load_library, subsumes

from conftest import TANK_LIBRARY, add_leaf


def brute_force_candidates(g, lib, level, cfg):
    """Independent exhaustive enumeration: all per-slot assignments over
    all children, no clustering."""
    children = sorted(g.at_level(Level(level - 1)))
    out = []
    for model in lib.models_at(level):
        eligible = [
            [c for c in children if subsumes(s.required_type, g.get(c).force_type, lib)]
            for s in model.slots
        ]

        def slots_product(idx, used):
            if idx == len(model.slots):
                yield {}
                return
            slot = model.slots[idx]
            pool = [c for c in eligible[idx] if c not in used]
            for size in range(0, min(slot.count_max, len(pool)) + 1):
                for combo in itertools.combinations(pool, size):
                    for rest in slots_product(idx + 1, used | set(combo)):
                        yield {idx: combo, **rest}

        for assignment in slots_product(0, frozenset()):
            if not any(assignment.values()):
                continue
            missing = sum(
                max(0, s.count_min - len(assignment.get(i, ())))
                for i, s in enumerate(model.slots)
            )
            if missing > cfg.max_missing:
                continue
            score = fit_score(g, model, assignment, cfg)
            if score >= cfg.min_fit:
                out.append((model.name, tuple(sorted(assignment.items())), score))
    return sorted(out)


def candidate_keys(candidates):
    return sorted(
        (c.model.name, tuple(sorted(c.assignment.items())), c.fit_score)
        for c in candidates
    )


def place_company(g, prefix, cx, cy, n=3, force_type="T-72-tank", heading=90.0):
    ids = []
    for i in range(n):
        hid = f"{prefix}{i}"
        add_leaf(
            g,
            hid,
            lam=6.0,
            force_type=force_type,
            location=(cx + (i - 1) * 100.0, cy),
            heading=heading,
        )
        ids.append(hid)
    return ids


class TestMatchLevel:
    def test_no_children_yields_empty(self, tank_lib, empty_graph):
        assert match_level(empty_graph, tank_lib, Level.ARRAY, MatchConfig()) == []

    def test_three_tanks_single_candidate(self, tank_lib, empty_graph):
        g = empty_graph
        place_company(g, "v", 1000, 1000)
        cfg = MatchConfig(gather_radius=500, min_fit=0.2)
        cands = match_level(g, tank_lib, Level.ARRAY, cfg)
        assert len(cands) == 1
        c = cands[0]
        assert c.model.name == "tank-company-line"
        assert c.missing_slots == 0
        assert c.fit_score == 1.0
        assert candidate_keys(cands) == brute_force_candidates(
            g, tank_lib, Level.ARRAY, cfg
        )

    def test_missing_component_penalized(self, tank_lib, empty_graph):
        g = empty_graph
        place_company(g, "v", 1000, 1000, n=2)
        cfg = MatchConfig(gather_radius=500, min_fit=0.2, max_missing=1)
        cands = match_level(g, tank_lib, Level.ARRAY, cfg)
        assert len(cands) == 1
        assert cands[0].missing_slots == 1
        assert cands[0].fit_score == 0.5  # perfect geometry times rho**1

    def test_max_missing_zero_filters_partials(self, tank_lib, empty_graph):
        g = empty_graph
        place_company(g, "v", 1000, 1000, n=2)
        cfg = MatchConfig(gather_radius=500, min_fit=0.2, max_missing=0)
        assert match_level(g, tank_lib, Level.ARRAY, cfg) == []

    def test_a_lone_tank_matches_when_two_may_be_missing(self, tank_lib, empty_graph):
        # the company line needs three tanks; with max_missing 2 the
        # fewest children an assignment holds is one
        g = empty_graph
        add_leaf(g, "v0", lam=6.0, force_type="T-72-tank", location=(1000.0, 1000.0))
        cfg = MatchConfig(gather_radius=500, min_fit=0.2, max_missing=2)
        cands = match_level(g, tank_lib, Level.ARRAY, cfg)
        assert [(c.children(), c.missing_slots, c.fit_score) for c in cands] == [
            (("v0",), 2, 0.25)  # rho**2
        ]
        assert candidate_keys(cands) == brute_force_candidates(
            g, tank_lib, Level.ARRAY, cfg
        )

    @pytest.mark.parametrize("max_missing", [0, 1, 2])
    def test_a_cluster_below_the_fewest_children_holds_no_assignment(
        self, tank_lib, max_missing
    ):
        # 3 - max_missing tanks is the fewest an assignment of the company
        # line holds: the enumeration itself yields nothing for one tank
        # fewer, so match_level, which does not enumerate such a cluster,
        # loses nothing; at the fewest it yields a candidate
        model = tank_lib.models["tank-company-line"]
        cfg = MatchConfig(gather_radius=500, min_fit=0.2, max_missing=max_missing)
        fewest = 3 - max_missing
        for n, expected in ((fewest - 1, 0), (fewest, 1)):
            g = HypothesisGraph()
            ids = place_company(g, "v", 1000, 1000, n=n)
            enumeration = _Enumeration(
                tank_lib, model, {"T-72-tank": ids}, cfg, _PairTable(g, model, cfg.slack), {}
            )
            assert len(list(enumeration.assignments(ids))) == expected
            assert len(match_level(g, tank_lib, Level.ARRAY, cfg)) == expected

    def test_subsumption_respected(self, tank_lib, empty_graph):
        g = empty_graph
        add_leaf(g, "v0", lam=6.0, force_type="BMP", location=(900, 1000))
        add_leaf(g, "v1", lam=6.0, force_type="BMP", location=(1000, 1000))
        add_leaf(g, "v2", lam=6.0, force_type="BMP", location=(1100, 1000))
        cfg = MatchConfig(gather_radius=500, min_fit=0.2)
        assert match_level(g, tank_lib, Level.ARRAY, cfg) == []

    def test_subsumes_once_per_type_pair(self, tank_lib, empty_graph, monkeypatch):
        # one cluster of three tanks and two BMPs: the slot type meets
        # each of the two child types once, not each of the five children
        g = empty_graph
        place_company(g, "t", 1000, 1000)
        add_leaf(g, "b0", lam=6.0, force_type="BMP", location=(1000, 1100))
        add_leaf(g, "b1", lam=6.0, force_type="BMP", location=(1100, 1100))
        seen = []
        monkeypatch.setattr(
            matching, "subsumes", lambda *args: seen.append(args[:2]) or subsumes(*args)
        )
        cfg = MatchConfig(gather_radius=500, min_fit=0.2)
        assert match_level(g, tank_lib, Level.ARRAY, cfg)
        assert sorted(seen) == [("tank", "BMP"), ("tank", "T-72-tank")]

    def test_insertion_order_invariance(self, tank_lib):
        rng = random.Random(7)
        placements = [
            (f"v{i}", (1000.0 + 100.0 * i, 1000.0 + 7.0 * (i % 3))) for i in range(6)
        ]
        outputs = []
        for _ in range(4):
            g = HypothesisGraph()
            shuffled = placements[:]
            rng.shuffle(shuffled)
            for hid, loc in shuffled:
                add_leaf(g, hid, lam=6.0, force_type="T-72-tank", location=loc)
            cfg = MatchConfig(gather_radius=2000, min_fit=0.05, max_missing=1)
            outputs.append(candidate_keys(match_level(g, tank_lib, Level.ARRAY, cfg)))
        assert all(o == outputs[0] for o in outputs)

    def test_matches_brute_force_on_random_scenes(self, tank_lib):
        rng = random.Random(31)
        for trial in range(15):
            g = HypothesisGraph()
            n = rng.randint(3, 10)
            for i in range(n):
                add_leaf(
                    g,
                    f"v{i}",
                    lam=6.0,
                    force_type=rng.choice(["T-72-tank", "tank", "BMP"]),
                    location=(rng.uniform(0, 800), rng.uniform(0, 800)),
                )
            cfg = MatchConfig(gather_radius=5000, min_fit=0.05, max_missing=1)
            cands = match_level(g, tank_lib, Level.ARRAY, cfg)
            got = candidate_keys(cands)
            want = brute_force_candidates(g, tank_lib, Level.ARRAY, cfg)
            assert got == want, f"trial {trial}"
            for cand in cands:  # independent subsumption re-check
                for slot_idx, ids in cand.assignment.items():
                    required = cand.model.slots[slot_idx].required_type
                    for cid in ids:
                        assert subsumes(required, g.get(cid).force_type, tank_lib)

    def test_two_far_clusters_equal_brute_force(self, tank_lib, empty_graph):
        # cross-cluster subsets exist for the brute force but score zero,
        # so the clustered search returns the identical candidate set
        g = empty_graph
        place_company(g, "a", 1000, 1000)
        place_company(g, "b", 9000, 9000)
        cfg = MatchConfig(gather_radius=500, min_fit=0.2, max_missing=0)
        got = candidate_keys(match_level(g, tank_lib, Level.ARRAY, cfg))
        want = brute_force_candidates(g, tank_lib, Level.ARRAY, cfg)
        assert got == want
        assert len(got) == 2

    def test_output_sorted_by_fit(self, tank_lib, empty_graph):
        g = empty_graph
        place_company(g, "a", 1000, 1000)
        # second group slightly stretched: legal but lower fit after one
        # pair exceeds the interval
        add_leaf(g, "b0", lam=6.0, force_type="T-72-tank", location=(5000, 5000))
        add_leaf(g, "b1", lam=6.0, force_type="T-72-tank", location=(5130, 5000))
        add_leaf(g, "b2", lam=6.0, force_type="T-72-tank", location=(5260, 5000))
        cfg = MatchConfig(gather_radius=500, min_fit=0.1)
        cands = match_level(g, tank_lib, Level.ARRAY, cfg)
        fits = [c.fit_score for c in cands]
        assert fits == sorted(fits, reverse=True)
        assert fits[0] == 1.0 and fits[1] < 1.0


class TestFitScore:
    def test_perfect_geometry_is_exactly_one(self, tank_lib, empty_graph):
        g = empty_graph
        place_company(g, "v", 0, 0)
        model = tank_lib.models["tank-company-line"]
        assert fit_score(g, model, {0: ("v0", "v1", "v2")}, MatchConfig()) == 1.0

    def test_outside_by_slack_is_zero(self, tank_lib, empty_graph):
        g = empty_graph
        # interval [50, 250], slack margin 0.25*200 = 50: 301 m is out
        add_leaf(g, "v0", lam=6.0, location=(0, 0))
        add_leaf(g, "v1", lam=6.0, location=(301, 0))
        model = tank_lib.models["tank-company-line"]
        assert fit_score(g, model, {0: ("v0", "v1")}, MatchConfig()) == 0.0

    def test_linear_decay_inside_margin(self, tank_lib, empty_graph):
        g = empty_graph
        add_leaf(g, "v0", lam=6.0, location=(0, 0))
        add_leaf(g, "v1", lam=6.0, location=(275, 0))  # 25 over, margin 50
        model = tank_lib.models["tank-company-line"]
        score = fit_score(g, model, {0: ("v0", "v1")}, MatchConfig(rho=1.0))
        assert score == pytest.approx(0.5, rel=1e-12)

    def test_missing_penalty_exact(self, tank_lib, empty_graph):
        g = empty_graph
        add_leaf(g, "v0", lam=6.0, location=(0, 0))
        add_leaf(g, "v1", lam=6.0, location=(100, 0))
        model = tank_lib.models["tank-company-line"]
        score = fit_score(g, model, {0: ("v0", "v1")}, MatchConfig(rho=0.5))
        assert score == 0.5  # geometry perfect, one missing slot

    def test_rigid_motion_invariance(self, tank_lib, empty_graph):
        g1 = HypothesisGraph()
        pts = [(0.0, 0.0), (100.0, 10.0), (190.0, -20.0)]
        for i, (x, y) in enumerate(pts):
            add_leaf(g1, f"v{i}", lam=6.0, location=(x, y), heading=45.0)
        model = tank_lib.models["tank-company-line"]
        base = fit_score(g1, model, {0: ("v0", "v1", "v2")}, MatchConfig())

        theta = math.radians(73.0)
        dx, dy = 5432.0, -987.0
        g2 = HypothesisGraph()
        for i, (x, y) in enumerate(pts):
            xr = x * math.cos(theta) - y * math.sin(theta) + dx
            yr = x * math.sin(theta) + y * math.cos(theta) + dy
            add_leaf(
                g2, f"v{i}", lam=6.0, location=(xr, yr),
                heading=(45.0 + math.degrees(theta)) % 360.0,
            )
        moved = fit_score(g2, model, {0: ("v0", "v1", "v2")}, MatchConfig())
        assert moved == pytest.approx(base, rel=1e-9)

    def test_bearing_tolerance(self, empty_graph):
        import json

        from echelon.models import load_library

        from conftest import TANK_LIBRARY

        doc = json.loads(json.dumps(TANK_LIBRARY))
        doc["models"][0]["constraints"][0]["bearing_tol"] = 30.0
        lib = load_library(json.dumps(doc))
        model = lib.models["tank-company-line"]
        g = empty_graph
        add_leaf(g, "v0", lam=6.0, location=(0, 0), heading=0.0)
        add_leaf(g, "v1", lam=6.0, location=(100, 0), heading=25.0)
        aligned = fit_score(g, model, {0: ("v0", "v1")}, MatchConfig(rho=1.0))
        assert aligned == 1.0
        g.get("v1").heading = 90.0  # 60 degrees over tolerance, margin 7.5
        twisted = fit_score(g, model, {0: ("v0", "v1")}, MatchConfig(rho=1.0))
        assert twisted == 0.0


class TestCandidateToHypothesis:
    def make_candidate(self, g, lib, cfg):
        place_company(g, "v", 1000, 1000)
        return match_level(g, lib, Level.ARRAY, cfg)[0]

    def test_lambda_map_values(self):
        cfg = MatchConfig(lambda_max=9.0)
        assert cfg.lambda_max ** (2 * 0.5 - 1) == 1.0
        assert cfg.lambda_max ** (2 * 1.0 - 1) == 9.0
        assert cfg.lambda_max ** (2 * 0.0 - 1) == pytest.approx(1 / 9, rel=1e-12)

    def test_hypothesis_and_fit_item(self, tank_lib, empty_graph):
        g = empty_graph
        cfg = MatchConfig(gather_radius=500, min_fit=0.2, lambda_max=9.0)
        cand = self.make_candidate(g, tank_lib, cfg)
        h, item = candidate_to_hypothesis(g, tank_lib, cand, cfg)
        assert h.force_type == "tank-company"
        assert h.level == Level.ARRAY
        assert h.prior == 0.3
        assert h.components == ("v0", "v1", "v2")
        assert h.location == (1000.0, 1000.0)
        assert h.heading == pytest.approx(90.0)
        assert item.likelihood_ratio == 9.0  # perfect fit
        assert item.sensor_context["fit_score"] == 1.0
        assert item.id in h.own_evidence

    def test_below_threshold_rejected(self, tank_lib, empty_graph):
        g = empty_graph
        cfg = MatchConfig(gather_radius=500, min_fit=0.2)
        cand = self.make_candidate(g, tank_lib, cfg)
        cand.fit_score = 0.1
        with pytest.raises(ValueError, match="threshold"):
            candidate_to_hypothesis(g, tank_lib, cand, cfg)


def test_match_config_from_dict_strict():
    cfg = MatchConfig.from_dict({"gather_radius": 800, "min_fit": 0.3})
    assert cfg.gather_radius == 800 and cfg.min_fit == 0.3
    with pytest.raises(ValueError, match="unknown keys"):
        MatchConfig.from_dict({"radius": 800})
    with pytest.raises(
        ValueError, match=r"^matcher config: lambda_max must be > 1, got 0\.5$"
    ):
        MatchConfig(lambda_max=0.5)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("gather_radius", 0, "gather_radius must be > 0, got 0"),
        ("gather_radius", math.nan, "gather_radius must be > 0, got nan"),
        ("min_fit", 1.5, "min_fit must be in [0, 1], got 1.5"),
        ("max_missing", -1, "max_missing must be >= 0, got -1"),
        ("rho", 0.0, "rho must be in (0, 1], got 0.0"),
        ("slack", -0.25, "slack must be >= 0, got -0.25"),
        ("lambda_max", 1, "lambda_max must be > 1, got 1"),
    ],
)
def test_match_config_range_refusals_name_the_block_and_value(key, value, message):
    with pytest.raises(ValueError) as exc:
        MatchConfig(**{key: value})
    assert str(exc.value) == f"matcher config: {message}"


# -- reference scorer and instantiation ------------------------------------
#
# The fit score as first written, one pair list per constraint from
# itertools and one satisfaction per pair, and a parent's location,
# heading and time: the matcher's own code is held to these copies.


def reference_interval_satisfaction(d, lo, hi, slack):
    if lo <= d <= hi:
        return 1.0
    margin = slack * (hi - lo)
    if margin <= 0.0:
        return 0.0
    delta = (lo - d) if d < lo else (d - hi)
    return max(0.0, 1.0 - delta / margin)


def reference_geometric_mean(values):
    if not values:
        return 1.0
    if any(v == 0.0 for v in values):
        return 0.0
    if all(v == 1.0 for v in values):
        return 1.0
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def reference_pair_satisfaction(hu, hv, c, slack):
    s = reference_interval_satisfaction(
        distance(hu.location, hv.location), c.distance_min, c.distance_max, slack
    )
    if (
        c.bearing_tolerance is not None
        and hu.heading is not None
        and hv.heading is not None
    ):
        diff = heading_difference(hu.heading, hv.heading)
        if diff > c.bearing_tolerance:
            margin = slack * c.bearing_tolerance
            if margin <= 0.0:
                s = 0.0
            else:
                s *= max(0.0, 1.0 - (diff - c.bearing_tolerance) / margin)
    return s


def test_pair_satisfaction_matches_reference_for_every_tolerance(empty_graph):
    # tolerances below, at and just above zero, where the decay margin
    # vanishes, and ordinary ones; headings inside, at and past each
    g = empty_graph
    headings = (0.0, 1e-9, 5.0, 29.0, 30.0, 37.5, 45.0, 179.0)
    for i, heading in enumerate(headings):
        add_leaf(g, f"v{i}", lam=2.0, location=(120.0 * i, 0.0), heading=heading)
    for tol in (-10.0, -0.0, 0.0, 1e-9, 5.0, 30.0, 180.0):
        c = DeploymentConstraint(0, 0, 50.0, 250.0, bearing_tolerance=tol)
        for slack in (0.0, 0.25, 1.0):
            for u, v in itertools.permutations(range(len(headings)), 2):
                hu, hv = g.get(f"v{u}"), g.get(f"v{v}")
                got = matching._pair_satisfaction(hu, hv, c, slack)
                assert got == reference_pair_satisfaction(hu, hv, c, slack), (tol, slack, u, v)


def reference_fit_score(g, model, assignment, cfg):
    per_constraint = []
    for c in model.constraints:
        ids_a = assignment.get(c.slot_a, ())
        ids_b = assignment.get(c.slot_b, ())
        if c.slot_a == c.slot_b:
            pairs = list(itertools.combinations(ids_a, 2))
        else:
            pairs = [(u, v) for u in ids_a for v in ids_b]
        if not pairs:
            continue
        per_constraint.append(
            reference_geometric_mean(
                [
                    reference_pair_satisfaction(g.get(u), g.get(v), c, cfg.slack)
                    for u, v in pairs
                ]
            )
        )
    missing = sum(
        max(0, slot.count_min - len(assignment.get(i, ())))
        for i, slot in enumerate(model.slots)
    )
    return reference_geometric_mean(per_constraint) * cfg.rho**missing


def reference_instantiation(g, children):
    """Location, heading and time of a parent over ``children``, written
    out: centroid, circular mean of the known headings, latest time, each
    sum exact and rounded once."""
    locations = [g.get(i).location for i in children]
    n = len(locations)
    location = tuple(exact_sum(p[axis] for p in locations) / n for axis in (0, 1))
    hs = [math.radians(g.get(i).heading) for i in children if g.get(i).heading is not None]
    heading = None
    if hs:
        x = exact_sum(math.cos(h) for h in hs) / len(hs)
        y = exact_sum(math.sin(h) for h in hs) / len(hs)
        heading = math.degrees(math.atan2(y, x)) % 360.0
        heading = 0.0 if heading == 360.0 else heading
    time = max((g.get(i).time for i in children), default=0.0)
    return location, heading, time


def exact_sum(values):
    """The sum rounded once; with a non-finite value, the plain sum."""
    values = list(values)
    if all(map(math.isfinite, values)):
        return float(sum(map(Fraction, values)))
    return sum(values)


def bits(value):
    """A float, a tuple of floats or None, compared bit for bit."""
    if value is None:
        return None
    if isinstance(value, tuple):
        return tuple(v.hex() for v in value)
    return value.hex()


# -- pruned enumeration against the unpruned one ----------------------------
#
# ``_Enumeration`` drops a partial assignment once one of its
# pairs has satisfaction 0.0 (when min_fit > 0).  The reference below is
# the enumeration without pruning: every slot's combinations from
# itertools.combinations, sizes ascending.

PROPERTY_TYPES = ["vehicle", "tracked", "tank", "apc"]
INTERVALS = [(0.0, 0.0), (0.0, 100.0), (50.0, 250.0), (100.0, 100.0), (200.0, 600.0)]
SLACKS = [0.0, 0.25, 0.5]


def reference_assignments(g, lib, model, pool, max_missing):
    eligible = [
        [c for c in pool if subsumes(s.required_type, g.get(c).force_type, lib)]
        for s in model.slots
    ]

    def rec(slot_idx, used, missing, acc):
        if missing > max_missing:
            return
        if slot_idx == len(model.slots):
            if any(acc.values()):
                yield dict(acc), missing
            return
        slot = model.slots[slot_idx]
        avail = [c for c in eligible[slot_idx] if c not in used]
        for size in range(0, min(slot.count_max, len(avail)) + 1):
            short = max(0, slot.count_min - size)
            for combo in itertools.combinations(avail, size):
                acc[slot_idx] = combo
                yield from rec(slot_idx + 1, used | set(combo), missing + short, acc)
        acc.pop(slot_idx, None)

    yield from rec(0, frozenset(), 0, {})


def reference_match_level(g, lib, level, cfg):
    """Every model over every cluster at ``gather_radius``, uncapped, with
    the unpruned enumeration: the matcher's pools must lose nothing."""
    child_ids = sorted(g.at_level(Level(level - 1), statuses=MATCHABLE))
    out = []
    for cluster in _clusters(g, child_ids, cfg.gather_radius):
        for model in lib.models_at(level):
            for assignment, missing in reference_assignments(
                g, lib, model, cluster, cfg.max_missing
            ):
                score = reference_fit_score(g, model, assignment, cfg)
                if score >= cfg.min_fit:
                    out.append(MatchCandidate(model, assignment, score, missing))
    out.sort(key=lambda c: (-c.fit_score, c.model.name, c.children()))
    return out


def has_zero_pair(g, model, assignment, slack):
    """Whether some pair a constraint applies to scores 0 on its own."""
    alone = MatchConfig(rho=1.0, slack=slack)
    for c in model.constraints:
        ids_a = assignment.get(c.slot_a, ())
        ids_b = assignment.get(c.slot_b, ())
        if c.slot_a == c.slot_b:
            subs = [{c.slot_a: pair} for pair in itertools.combinations(ids_a, 2)]
        else:
            subs = [{c.slot_a: (u,), c.slot_b: (v,)} for u in ids_a for v in ids_b]
        if any(fit_score(g, model, sub, alone) == 0.0 for sub in subs):
            return True
    return False


def as_listed(candidates):
    """Everything compared, in order; fits bit for bit."""
    return [
        (c.model.name, list(c.assignment.items()), c.missing_slots, c.fit_score.hex())
        for c in candidates
    ]


@st.composite
def property_libraries(draw):
    """One or two array models of one to three vehicle slots, with
    same-slot and cross-slot constraints in both index orders."""
    models = []
    for m in range(draw(st.integers(1, 2))):
        n_slots = draw(st.integers(1, 3))
        slots = []
        for _ in range(n_slots):
            lo = draw(st.integers(0, 2))
            hi = draw(st.integers(lo, 4 if n_slots == 1 else 2))
            slot_type = draw(st.sampled_from(["vehicle", "tracked", *PROPERTY_TYPES]))
            slots.append({"type": slot_type, "min": lo, "max": hi})
        constraints = []
        for _ in range(draw(st.integers(0, 3))):
            d_min, d_max = draw(st.sampled_from(INTERVALS))
            c = {
                "slots": [draw(st.integers(0, n_slots - 1)) for _ in range(2)],
                "d_min": d_min,
                "d_max": d_max,
            }
            if draw(st.booleans()):
                c["bearing_tol"] = draw(st.sampled_from([0.0, 20.0, 90.0]))
            constraints.append(c)
        models.append(
            {"name": f"m{m}", "type": "company", "slots": slots,
             "constraints": constraints, "prior": 0.3}
        )
    types = [
        {"name": "vehicle", "level": "vehicle"},
        {"name": "tracked", "level": "vehicle", "isa": "vehicle"},
        {"name": "tank", "level": "vehicle", "isa": "tracked"},
        {"name": "apc", "level": "vehicle", "isa": "tracked"},
        {"name": "company", "level": "array"},
    ]
    return load_library(json.dumps({"types": types, "models": models}))


@st.composite
def property_scenes(draw, slack):
    """Up to seven vehicles: free points, non-finite points, and points
    moved from an earlier one along an axis by an interval end, by the
    end of the slack margin d_max + slack*(d_max - d_min) (a fully
    constrained model's extent), by either nudged 1e-9, and then
    possibly one ulp further along the axis."""
    g = HypothesisGraph()
    points = []
    for i in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["free", "boundary", "boundary", "non-finite"]))
        if kind == "boundary" and points:
            x, y = draw(st.sampled_from(points))
            d_min, d_max = draw(st.sampled_from(INTERVALS))
            margin = slack * (d_max - d_min)
            step = draw(st.sampled_from([d_min, d_max, d_max + margin, d_min - margin]))
            step += draw(st.sampled_from([0.0, 0.0, 1e-9, -1e-9]))
            ulp = draw(st.booleans())
            if draw(st.booleans()):
                point = (math.nextafter(x + step, math.inf) if ulp else x + step, y)
            else:
                point = (x, math.nextafter(y - step, -math.inf) if ulp else y - step)
        elif kind == "non-finite":
            point = draw(
                st.sampled_from([(math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf)])
            )
        else:
            point = (float(draw(st.integers(0, 700))), float(draw(st.integers(0, 700))))
        points.append(point)
        heading = draw(st.sampled_from([None, None, 0.0, 15.0, 30.0, 110.0, 200.0]))
        h = add_leaf(
            g, f"v{i}", force_type=draw(st.sampled_from(PROPERTY_TYPES)),
            location=point, heading=heading,
        )
        h.time = draw(st.sampled_from([0.0, 0.0, -3.0, 12.5, 1e9]))
    return g


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_pruned_enumeration_equals_unpruned_reference(data):
    lib = data.draw(property_libraries())
    slack = data.draw(st.sampled_from(SLACKS))
    g = data.draw(property_scenes(slack))
    cfg = MatchConfig(
        gather_radius=data.draw(st.sampled_from([400.0, 1e4])),
        min_fit=data.draw(st.sampled_from([0.0, 5e-324, 1e-9, 0.2, 1.0])),
        max_missing=data.draw(st.integers(0, 2)),
        rho=data.draw(st.sampled_from([0.5, 1.0])),
        slack=slack,
    )

    candidates = match_level(g, lib, Level.ARRAY, cfg)
    assert as_listed(candidates) == as_listed(
        reference_match_level(g, lib, Level.ARRAY, cfg)
    )
    for c in candidates:
        h, item = candidate_to_hypothesis(g, lib, c, cfg)
        location, heading, time = reference_instantiation(g, c.children())
        assert (bits(h.location), bits(h.heading), bits(h.time)) == (
            bits(location), bits(heading), bits(time)
        )
        assert item.id in h.own_evidence

    def scored(model, assignments):
        out = []
        for assignment, missing in assignments:
            score = fit_score(g, model, assignment, cfg)
            if score >= cfg.min_fit:
                out.append((list(assignment.items()), missing, score.hex()))
        return out

    ids = sorted(g.at_level(Level.VEHICLE))
    by_type = {}
    for i in ids:
        by_type.setdefault(g.get(i).force_type, []).append(i)
    for model in lib.models_at(Level.ARRAY):
        enumeration = _Enumeration(
            lib, model, by_type, cfg, _PairTable(g, model, cfg.slack), {}
        )
        for cluster in _clusters(g, ids, cfg.gather_radius):
            got = list(enumeration.assignments(cluster))
            ref = list(reference_assignments(g, lib, model, cluster, cfg.max_missing))
            # min_fit 0 keeps zero-fit assignments; above it, exactly those
            # holding a zero pair are gone and the rest keep their order
            kept = [
                (a, m) for a, m in ref
                if cfg.min_fit == 0.0 or not has_zero_pair(g, model, a, cfg.slack)
            ]
            assert [(list(a.items()), m) for a, m in got] == [
                (list(a.items()), m) for a, m in kept
            ]
            assert scored(model, got) == scored(model, ref)
            for assignment, _ in ref:
                assert bits(fit_score(g, model, assignment, cfg)) == bits(
                    reference_fit_score(g, model, assignment, cfg)
                )


def recursive_combos(sat, avail, size, same, chosen=(), start=0):
    """One slot's combinations as ``_Enumeration.combos`` enumerated
    them with a generator per chosen child: the reference for the order
    of its output and of its ``sat`` calls."""
    if len(chosen) == size:
        yield chosen
        return
    for i in range(start, len(avail) - size + len(chosen) + 1):
        x = avail[i]
        if all(sat(ci, x, y) != 0.0 for ci in same for y in chosen):
            yield from recursive_combos(sat, avail, size, same, chosen + (x,), i + 1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_slot_combinations_are_the_filtered_itertools_combinations(data):
    n = data.draw(st.integers(0, 8))
    avail = [f"c{i}" for i in range(n)]
    size = data.draw(st.integers(0, n + 1))
    same = data.draw(st.lists(st.integers(0, 2), max_size=3, unique=True))
    pairs = list(itertools.combinations(avail, 2))
    zero = [
        data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        for _ in range(3)
    ]

    def counting(calls):
        def sat(ci, u, v):
            calls.append((ci, u, v))
            return 0.0 if (min(u, v), max(u, v)) in zero[ci] else 0.5
        return sat

    calls, reference_calls = [], []
    enumeration = object.__new__(_Enumeration)
    enumeration.sat = counting(calls)
    got = list(enumeration.combos(avail, size, same))
    assert got == [
        combo for combo in itertools.combinations(avail, size)
        if not any(pair in zero[ci] for ci in same for pair in itertools.combinations(combo, 2))
    ]
    assert got == list(recursive_combos(counting(reference_calls), avail, size, same))
    # the same pairs asked in the same order: none the recursion did not ask
    assert calls == reference_calls


@pytest.mark.parametrize("n", [40, 80])
def test_slot_enumeration_stays_pruned_on_a_chained_cluster(monkeypatch, n):
    # n tanks 100 m apart on a line chain into one cluster at the company
    # model's pool radius; pruning each partial combination at its first
    # zero pair asks for about 3.3 n² pair satisfactions (5,149 at 40,
    # 21,489 at 80), where filtering whole itertools combinations asks for
    # 121,144 at 40, growing as n³
    lookups = [0]
    original = matching._PairTable.__call__

    def counted(self, ci, u, v):
        lookups[0] += 1
        return original(self, ci, u, v)

    monkeypatch.setattr(matching._PairTable, "__call__", counted)
    g = HypothesisGraph()
    for i in range(n):
        add_leaf(g, f"v{i:03d}", force_type="T-72-tank", location=(100.0 * i, 0.0))
    found = match_level(g, load_library(json.dumps(TANK_LIBRARY)), Level.ARRAY,
                        MatchConfig(min_fit=0.2))
    assert len(found) == n - 2  # every three neighbours form a company line
    assert 0 < lookups[0] <= 4 * n * n


@pytest.mark.parametrize("ulps", [-1, 0, 1])
@pytest.mark.parametrize(
    "d_min, d_max, slack",
    [(50.0, 250.0, 0.25), (0.0, 100.0, 0.1), (12.7, 333.3, 1 / 3), (0.3, 0.7, 0.7)],
)
def test_pool_keeps_pairs_at_the_extent(d_min, d_max, slack, ulps):
    # a pair of a fully constrained model exactly at its extent
    # d_max + slack*(d_max - d_min), one ulp inside or one ulp past it;
    # the pool at the extent finds what an unbounded cluster finds
    lib = load_library(
        json.dumps(
            {
                "types": [
                    {"name": "tank", "level": "vehicle"},
                    {"name": "pair", "level": "array"},
                ],
                "models": [
                    {
                        "name": "p", "type": "pair",
                        "slots": [{"type": "tank", "min": 2, "max": 2}],
                        "constraints": [{"slots": [0, 0], "d_min": d_min, "d_max": d_max}],
                    }
                ],
            }
        )
    )
    d = d_max + slack * (d_max - d_min)
    for _ in range(abs(ulps)):
        d = math.nextafter(d, math.copysign(math.inf, ulps))
    g = HypothesisGraph()
    add_leaf(g, "v0", force_type="tank", location=(0.0, 0.0))
    add_leaf(g, "v1", force_type="tank", location=(d, 0.0))
    cfg = MatchConfig(gather_radius=1e4, min_fit=5e-324, slack=slack)
    got = as_listed(match_level(g, lib, Level.ARRAY, cfg))
    assert got == as_listed(reference_match_level(g, lib, Level.ARRAY, cfg))
    if ulps < 0:
        assert len(got) == 1
    if ulps > 0:
        assert got == []


def test_fit_score_of_many_partial_pairs_equals_reference():
    # eight children mostly in the slack margins of two constraints, so a
    # score averages the logs of dozens of partial satisfactions
    lib = load_library(
        json.dumps(
            {
                "types": [
                    {"name": "tank", "level": "vehicle"},
                    {"name": "group", "level": "array"},
                ],
                "models": [
                    {
                        "name": "g", "type": "group",
                        "slots": [
                            {"type": "tank", "min": 2, "max": 5},
                            {"type": "tank", "min": 1, "max": 4},
                        ],
                        "constraints": [
                            {"slots": [0, 0], "d_min": 100, "d_max": 120},
                            {"slots": [1, 0], "d_min": 80, "d_max": 90,
                             "bearing_tol": 20},
                        ],
                    }
                ],
            }
        )
    )
    model = lib.models_at(Level.ARRAY)[0]
    rng = random.Random(11)
    for _ in range(50):
        g = HypothesisGraph()
        for i in range(8):
            add_leaf(
                g, f"v{i}", location=(rng.uniform(0, 150), rng.uniform(0, 150)),
                heading=rng.choice([None, rng.uniform(0, 360)]),
            )
        ids = [f"v{i}" for i in rng.sample(range(8), 8)]
        k = rng.randint(0, 5)
        assignment = {0: tuple(ids[:k]), 1: tuple(ids[k : k + rng.randint(0, 3)])}
        cfg = MatchConfig(slack=rng.choice([0.5, 2.0, 10.0]), rho=0.5)
        assert bits(fit_score(g, model, assignment, cfg)) == bits(
            reference_fit_score(g, model, assignment, cfg)
        )


@pytest.mark.parametrize("constraints, min_fit", [([], 0.2), (None, 0.0)])
def test_unprunable_enumeration_is_refused(constraints, min_fit):
    # 40 tanks chained 100 m apart form one cluster; with no constraint,
    # or at min_fit 0, nothing prunes the tank-company-line model's
    # C(40,3) + C(40,4) = 101,270 assignments
    assert math.comb(40, 3) + math.comb(40, 4) > MAX_ASSIGNMENTS
    doc = json.loads(json.dumps(TANK_LIBRARY))
    if constraints is not None:
        doc["models"][0]["constraints"] = constraints
    lib = load_library(json.dumps(doc))
    g = HypothesisGraph()
    for i in range(40):
        add_leaf(g, f"v{i:02d}", force_type="T-72-tank", location=(100.0 * i, 0.0))
    cfg = MatchConfig(gather_radius=1200.0, min_fit=min_fit)
    with pytest.raises(
        MatchTooLargeError,
        match=f"model 'tank-company-line': a cluster of 40 children has over "
        f"{MAX_ASSIGNMENTS} slot assignments",
    ):
        match_level(g, lib, Level.ARRAY, cfg)
