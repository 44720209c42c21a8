import dataclasses
import itertools
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from echelon.accrual import posterior_given_subset, propagate_level
from echelon.conflict import (
    ConflictReason,
    ConflictSet,
    Decision,
    Heuristic,
    approx_joint,
    conflict_measure,
    decide,
    detect_conflicts,
    order_hypotheses,
    resolve_exact,
    skip_error_estimate,
)
from echelon.evidence import EvidenceItem, EvidenceKind
from echelon.exceptions import DegenerateThresholdWarning, ResolutionTooLargeError
from echelon.hypotheses import HypothesisGraph, Status
from echelon.models import HEADING_REACH_M, Level
from echelon.oracle import make_two_evidence_network

from conftest import add_leaf, add_parent


def edges(s):
    """A conflict set's rows as ``((a, b), reasons)`` pairs, in row order."""
    m = s.members
    return [((m[a], m[b]), reasons) for a, b, reasons in s.reasons]


class TestDetectConflicts:
    def test_disjoint_and_legal_is_empty(self, empty_graph, tank_lib):
        g = empty_graph
        add_leaf(g, "v0", lam=3.0, location=(0, 0))
        add_leaf(g, "v1", lam=3.0, location=(500, 0))
        assert detect_conflicts(g, tank_lib) == []

    def test_shared_vehicle_between_companies(self, empty_graph, tank_lib):
        g = empty_graph
        add_leaf(g, "v0", lam=3.0, location=(0, 0))
        add_leaf(g, "v1", lam=3.0, location=(100, 0))
        add_leaf(g, "v2", lam=3.0, location=(5000, 0))
        add_parent(g, "a0", ["v0", "v1"], location=(50, 0))
        add_parent(g, "a1", ["v1", "v2"], location=(2550, 0))
        sets = detect_conflicts(g, tank_lib, level=Level.ARRAY)
        assert len(sets) == 1
        s = sets[0]
        assert s.members == ("a0", "a1")
        assert edges(s) == [(("a0", "a1"), frozenset({ConflictReason.SHARED_EVIDENCE}))]

    def test_doctrine_too_close(self, empty_graph, tank_lib):
        g = empty_graph
        # vehicle-vehicle minimum separation is 25 m in the fixture library
        add_leaf(g, "v0", lam=3.0, location=(0, 0))
        add_leaf(g, "v1", lam=3.0, location=(10, 0))
        sets = detect_conflicts(g, tank_lib, level=Level.VEHICLE)
        assert len(sets) == 1
        assert edges(sets[0]) == [(("v0", "v1"), frozenset({ConflictReason.TOO_CLOSE}))]

    def test_doctrine_orientation(self, empty_graph, tank_lib):
        g = empty_graph
        # tank-tank heading delta capped at 120 degrees
        add_leaf(g, "v0", lam=3.0, location=(0, 0), heading=0.0)
        add_leaf(g, "v1", lam=3.0, location=(500, 0), heading=175.0)
        sets = detect_conflicts(g, tank_lib, level=Level.VEHICLE)
        assert sets and edges(sets[0]) == [
            (("v0", "v1"), frozenset({ConflictReason.ORIENTATION}))
        ]

    def test_orientation_needs_nearness(self, empty_graph, tank_lib):
        g = empty_graph
        # facing apart conflicts only within HEADING_REACH_M: v0-v1 sit
        # exactly that far apart, v2-v3 1 mm more
        add_leaf(g, "v0", lam=3.0, location=(0, 0), heading=0.0)
        add_leaf(g, "v1", lam=3.0, location=(HEADING_REACH_M, 0), heading=175.0)
        add_leaf(g, "v2", lam=3.0, location=(0, 5000), heading=0.0)
        add_leaf(
            g, "v3", lam=3.0, location=(HEADING_REACH_M + 0.001, 5000), heading=175.0
        )
        sets = detect_conflicts(g, tank_lib, level=Level.VEHICLE)
        assert [edges(s) for s in sets] == [
            [(("v0", "v1"), frozenset({ConflictReason.ORIENTATION}))]
        ]

    def test_rows_are_positions_and_reasons_in_ascending_pair_order(
        self, empty_graph, tank_lib
    ):
        g = empty_graph
        # v0-v1 too close and facing apart, v1-v2 facing apart, v2-v3 too close
        for i, (x, heading) in enumerate([(0, 0.0), (10, 175.0), (500, 0.0), (510, 0.0)]):
            add_leaf(g, f"v{i}", lam=3.0, location=(x, 0), heading=heading)
        (s,) = detect_conflicts(g, tank_lib, level=Level.VEHICLE)
        too_close, orientation = ConflictReason.TOO_CLOSE, ConflictReason.ORIENTATION
        assert edges(s) == [
            (("v0", "v1"), frozenset({too_close, orientation})),
            (("v1", "v2"), frozenset({orientation})),
            (("v1", "v3"), frozenset({orientation})),
            (("v2", "v3"), frozenset({too_close})),
        ]
        assert [(a, b) for a, b, _ in s.reasons] == [(0, 1), (1, 2), (1, 3), (2, 3)]

    def test_each_group_holds_its_own_rows_and_compares_by_value(
        self, empty_graph, tank_lib
    ):
        g = empty_graph
        # two vehicle groups: v0-v1 and v2-v3 too close, 500 m apart
        for i, x in enumerate([0, 10, 500, 510]):
            add_leaf(g, f"v{i}", lam=3.0, location=(x, 0))
        first, second = detect_conflicts(g, tank_lib, level=Level.VEHICLE)
        assert (first.members, second.members) == (("v0", "v1"), ("v2", "v3"))
        for s in (first, second):
            assert s.reasons == ((0, 1, frozenset({ConflictReason.TOO_CLOSE})),)
        assert first == ConflictSet(first.members, first.reasons, first.level)
        assert first != second
        assert detect_conflicts(g, tank_lib, level=Level.VEHICLE) == [first, second]

    def test_shared_terrain_is_not_conflict(self, empty_graph, tank_lib):
        g = empty_graph
        g.add_evidence(
            EvidenceItem(id="t0", kind=EvidenceKind.TERRAIN, likelihood_ratio=2.0)
        )
        add_leaf(g, "v0", lam=3.0, location=(0, 0))
        add_leaf(g, "v1", lam=3.0, location=(500, 0))
        for hid in ("v0", "v1"):
            h = g.get(hid)
            h.own_evidence = h.own_evidence | {"t0"}
        assert detect_conflicts(g, tank_lib, level=Level.VEHICLE) == []

    def test_excluded_members_ignored(self, empty_graph, tank_lib):
        g = empty_graph
        add_leaf(g, "v0", lam=3.0, location=(0, 0))
        add_leaf(g, "v1", lam=3.0, location=(10, 0))
        g.get("v1").status = Status.EXCLUDED
        assert detect_conflicts(g, tank_lib, level=Level.VEHICLE) == []


def make_conflict_set(g, members, reason=ConflictReason.TOO_CLOSE, edges=None):
    members = tuple(sorted(members))
    if edges is None:
        edges = list(itertools.combinations(members, 2))
    rows = sorted((*sorted(map(members.index, e)), frozenset({reason})) for e in edges)
    return ConflictSet(
        members=members, reasons=tuple(rows), level=g.get(members[0]).level
    )


class TestOrdering:
    def test_most_matches_places_richer_last(self, empty_graph):
        g = empty_graph
        add_leaf(g, "A", items=[(f"a{i}", 2.0) for i in range(4)], location=(0, 0))
        add_leaf(g, "B", items=[(f"b{i}", 2.0) for i in range(2)], location=(5, 0))
        s = make_conflict_set(g, ["A", "B"])
        assert order_hypotheses(s, g, Heuristic.MOST_MATCHES) == ("B", "A")

    def test_tie_breaks_by_ascending_id(self, empty_graph):
        g = empty_graph
        add_leaf(g, "B", lam=2.0, location=(0, 0))
        add_leaf(g, "A", lam=2.0, location=(5, 0))
        s = make_conflict_set(g, ["A", "B"])
        assert order_hypotheses(s, g, Heuristic.MOST_MATCHES) == ("A", "B")

    def test_tie_breaks_by_id_not_by_member_position(self, empty_graph):
        # members listed against id order: a tie still goes by id
        g = empty_graph
        add_leaf(g, "A", lam=2.0, location=(0, 0))
        add_leaf(g, "B", lam=2.0, location=(5, 0))
        row = (0, 1, frozenset({ConflictReason.TOO_CLOSE}))
        s = ConflictSet(("B", "A"), (row,), Level.VEHICLE)
        for heuristic in Heuristic:
            assert order_hypotheses(s, g, heuristic) == ("A", "B")

    def test_highest_prior_last(self, empty_graph):
        g = empty_graph
        add_leaf(g, "A", lam=2.0, prior=0.3, location=(0, 0))
        add_leaf(g, "B", lam=2.0, prior=0.1, location=(5, 0))
        s = make_conflict_set(g, ["A", "B"])
        assert order_hypotheses(s, g, Heuristic.HIGHEST_PRIOR) == ("B", "A")


class TestApproxJoint:
    def test_disjoint_closures_use_full_posteriors(self, empty_graph):
        g = empty_graph
        add_leaf(g, "A", items=[("ea", 4.0)], location=(0, 0))
        add_leaf(g, "B", items=[("eb", 2.0)], location=(5, 0))
        propagate_level(g, Level.VEHICLE)
        s = make_conflict_set(g, ["A", "B"])
        res = approx_joint(s, ("A", "B"), g)
        assert res.factors == (g.get("A").posterior, g.get("B").posterior)
        assert res.k == g.get("A").posterior * g.get("B").posterior

    def test_two_member_shared_item_factorizations(self, empty_graph):
        g = empty_graph
        add_leaf(g, "C1", items=[("e1", 9.0), ("e12", 2.0)], location=(0, 0))
        add_leaf(g, "C2", items=[("e2", 2.0), ("e12", 2.0)], location=(5, 0))
        propagate_level(g, Level.VEHICLE)
        s = make_conflict_set(g, ["C1", "C2"], reason=ConflictReason.SHARED_EVIDENCE)

        res = approx_joint(s, ("C1", "C2"), g)
        # shared item assigned to the last member: P(C1|e1) * P(C2|e2,e12)
        assert res.factors[0] == 0.9
        assert res.factors[1] == 0.8
        assert res.k == pytest.approx(0.72, abs=1e-12)

        swapped = approx_joint(s, ("C2", "C1"), g)
        # the mirrored display: P(C2|e2) * P(C1|e1,e12)
        assert swapped.factors[0] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert swapped.factors[1] == pytest.approx(18.0 / 19.0, rel=1e-15)
        # independent check of both factors against exact enumeration
        net1 = make_two_evidence_network(0.5, [(0.9, 0.1)])
        assert res.factors[0] == pytest.approx(
            net1.exact_conditional({"C1": 1}, {"e1": 1}), rel=1e-12
        )
        net2 = make_two_evidence_network(0.5, [(0.6, 0.3), (0.6, 0.3)])
        assert res.factors[1] == pytest.approx(
            net2.exact_conditional({"C1": 1}, {"e1": 1, "e2": 1}), rel=1e-12
        )

    def test_both_factors_one_gives_zero_measure(self, empty_graph):
        g = empty_graph
        with pytest.warns(UserWarning):  # degenerate certainty priors
            add_leaf(g, "A", items=[("ea", 2.0)], prior=1.0, location=(0, 0))
            add_leaf(g, "B", items=[("eb", 2.0)], prior=1.0, location=(5, 0))
            propagate_level(g, Level.VEHICLE)
            s = make_conflict_set(g, ["A", "B"])
            res = approx_joint(s, ("A", "B"), g)
        assert res.k == 1.0
        assert conflict_measure(res.k) == 0.0

    def test_empty_conditioning_uses_prior(self, empty_graph):
        g = empty_graph
        add_leaf(g, "A", prior=0.4, location=(0, 0))  # no evidence at all
        add_leaf(g, "B", items=[("eb", 3.0)], location=(5, 0))
        propagate_level(g, Level.VEHICLE)
        s = make_conflict_set(g, ["A", "B"])
        res = approx_joint(s, ("A", "B"), g)
        assert res.factors[0] == 0.4

    def test_permutation_invariance_disjoint(self, empty_graph):
        g = empty_graph
        for i, lam in enumerate([2.0, 3.0, 5.0, 7.0]):
            add_leaf(g, f"m{i}", items=[(f"e{i}", lam)], location=(i * 40.0, 0))
        propagate_level(g, Level.VEHICLE)
        members = [f"m{i}" for i in range(4)]
        s = make_conflict_set(g, members)
        ks = {
            approx_joint(s, perm, g).k
            for perm in itertools.permutations(members)
        }
        assert len(ks) == 1  # bit-identical across all 24 orderings

    def test_bad_ordering_rejected(self, empty_graph):
        g = empty_graph
        add_leaf(g, "A", lam=2.0, location=(0, 0))
        add_leaf(g, "B", lam=2.0, location=(5, 0))
        s = make_conflict_set(g, ["A", "B"])
        with pytest.raises(ValueError):
            approx_joint(s, ("A", "A"), g)


def pooled_reference(s, ordering, g):
    """Factors and k as first formulated: member i is scored on
    ``(pooled - later) & closure_i``, with ``pooled`` the union of every
    member's closure and ``later`` that of the members after i."""
    closures = [g.evidence_closure(m) for m in ordering]
    pooled = frozenset().union(*closures)
    factors = []
    for i, m in enumerate(ordering):
        later = frozenset().union(*closures[i + 1 :])
        keep = (pooled - later) & closures[i]
        factors.append(posterior_given_subset(g, m, keep) if keep else g.get(m).prior)
    k = 1.0
    for f in sorted(factors):  # ascending value order
        k *= f
    return tuple(factors), k


RATIOS = st.sampled_from([0.25, 0.5, 1.5, 2.0, 3.0, 9.0])


@st.composite
def overlapping_groups(draw):
    """A graph whose vehicles draw detections and terrain from small shared
    pools and whose arrays share vehicles, with one level's hypotheses as
    a conflict set and a random ordering of it."""
    g = HypothesisGraph()
    for t in range(2):
        g.add_evidence(EvidenceItem(f"t{t}", EvidenceKind.TERRAIN, draw(RATIOS)))
    pool = [f"d{i}" for i in range(5)] + ["t0", "t1"]
    ratios = {f"d{i}": draw(RATIOS) for i in range(5)}
    vehicles = [f"v{i}" for i in range(draw(st.integers(2, 6)))]
    for v in vehicles:
        own = draw(st.lists(st.sampled_from(pool), max_size=4, unique=True))
        prior = draw(st.sampled_from([0.2, 0.5, 0.7]))
        add_leaf(g, v, prior=prior, items=[(i, ratios.get(i, 1.0)) for i in own])
    propagate_level(g, Level.VEHICLE)
    if draw(st.booleans()):
        members = vehicles
    else:
        members = [f"a{i}" for i in range(draw(st.integers(2, 4)))]
        for a in members:
            children = st.lists(
                st.sampled_from(vehicles), min_size=1, max_size=3, unique=True
            )
            score = {"fit_score": draw(st.floats(0, 1))}
            fit = EvidenceItem(f"f.{a}", EvidenceKind.FIT, 2.0, sensor_context=score)
            add_parent(g, a, sorted(draw(children)), items=[fit])
        propagate_level(g, Level.ARRAY)
    s = make_conflict_set(g, members)
    return g, s, tuple(draw(st.permutations(s.members)))


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(overlapping_groups())
def test_approx_joint_equals_pooled_formulation(case):
    g, s, ordering = case
    res = approx_joint(s, ordering, g)
    factors, k = pooled_reference(s, ordering, g)
    assert res.factors == factors
    assert res.k == k


class TestConflictMeasure:
    def test_contract_values(self):
        assert conflict_measure(1.0) == 0.0
        assert conflict_measure(0.5) == 1.0
        assert conflict_measure(0.72) == pytest.approx(0.3889, abs=1e-4)
        assert math.isinf(conflict_measure(0.0))

    def test_strictly_decreasing(self):
        ks = [0.05 * i for i in range(1, 21)]
        measures = [conflict_measure(k) for k in ks]
        assert all(a > b for a, b in zip(measures, measures[1:]))

    def test_domain_check(self):
        with pytest.raises(ValueError):
            conflict_measure(1.5)
        with pytest.raises(ValueError):
            conflict_measure(-0.1)


def direct_accrual(g: HypothesisGraph, parent: str) -> float:
    """The parent's posterior once its only component is skipped: the
    direct path's, which the skip-error bound scales."""
    (child,) = g.get(parent).components
    g.get(child).status = Status.SKIPPED
    propagate_level(g, Level.ARRAY)
    assert g.get(parent).accrual.direct
    return g.get(parent).accrual.posterior


class TestSkipErrorEstimate:
    def test_arithmetic(self, empty_graph):
        g = empty_graph
        add_leaf(g, "v0", items=[("e0", 1.5)], prior=0.5)  # direct posterior 0.6
        add_parent(g, "a0", ["v0"], prior=0.5)
        g.get("a0").prior = 0.5
        est = skip_error_estimate(direct_accrual(g, "a0"), k=0.9)
        direct = 0.5 / 0.5 * 1.5 / (1 + 1.5)
        assert est == pytest.approx(direct * (0.1 / 0.9), rel=1e-12)

    def test_k_one_gives_zero(self, empty_graph):
        g = empty_graph
        add_leaf(g, "v0", items=[("e0", 1.5)])
        add_parent(g, "a0", ["v0"])
        assert skip_error_estimate(direct_accrual(g, "a0"), k=1.0) == 0.0

    def test_k_zero_sentinel(self, empty_graph):
        g = empty_graph
        add_leaf(g, "v0", items=[("e0", 1.5)])
        add_parent(g, "a0", ["v0"])
        assert math.isinf(skip_error_estimate(direct_accrual(g, "a0"), k=0.0))

    def test_zero_direct_posterior_gives_zero(self, empty_graph):
        g = empty_graph
        add_leaf(g, "v0", items=[("e0", 1.5)])
        add_parent(g, "a0", ["v0"], prior=0.3)
        g.get("a0").prior = 0.0  # impossible parent: estimate collapses
        with pytest.warns(UserWarning):
            assert skip_error_estimate(direct_accrual(g, "a0"), k=0.9) == 0.0


def brute_force_mis(members, edges):
    """Independent maximal-independent-set enumeration over all subsets."""
    n = len(members)
    edge_idx = {(members.index(a), members.index(b)) for a, b in edges}
    edge_idx |= {(b, a) for a, b in edge_idx}
    result = []
    for mask in range(1 << n):
        inside = [i for i in range(n) if mask >> i & 1]
        if any((i, j) in edge_idx for i in inside for j in inside if i < j):
            continue
        maximal = True
        for j in range(n):
            if mask >> j & 1:
                continue
            if not any((i, j) in edge_idx for i in inside):
                maximal = False
                break
        if maximal:
            result.append(tuple(members[i] for i in inside))
    return sorted(result)


class TestResolveExact:
    def build(self, g, posteriors):
        for i, (hid, p) in enumerate(posteriors.items()):
            add_leaf(g, hid, location=(i * 5.0, 0), prior=0.5)
            g.get(hid).posterior = p

    def test_single_edge_three_members(self, empty_graph):
        g = empty_graph
        self.build(g, {"A": 0.6, "B": 0.7, "C": 0.8})
        s = make_conflict_set(g, ["A", "B", "C"], edges=[("A", "B")])
        sets = resolve_exact(s, g)
        assert sorted(cs.included for cs in sets) == [("A", "C"), ("B", "C")]

    def test_detected_group_resolves_as_the_same_plain_dict(self, empty_graph, tank_lib):
        # too-close and facing-apart pairs joining six vehicles in one group
        g = empty_graph
        spots = [(0, 0.0), (10, 175.0), (20, 0.0), (30, 0.0), (500, 170.0), (505, 90.0)]
        for i, (x, heading) in enumerate(spots):
            add_leaf(g, f"v{i}", lam=3.0, location=(x, 0), heading=heading)
            g.get(f"v{i}").posterior = 0.3 + 0.1 * i
        (detected,) = detect_conflicts(g, tank_lib, level=Level.VEHICLE)
        plain = dict(edges(detected))
        position = {m: i for i, m in enumerate(detected.members)}
        rows = tuple(
            (position[a], position[b], rs) for (a, b), rs in reversed(plain.items())
        )
        rebuilt = ConflictSet(detected.members, rows, detected.level)
        assert sorted(rebuilt.reasons) == list(detected.reasons)
        assert resolve_exact(rebuilt, g) == resolve_exact(detected, g)
        assert len(resolve_exact(detected, g)) > 1

    def test_complete_graph_gives_singletons(self, empty_graph):
        g = empty_graph
        self.build(g, {"A": 0.6, "B": 0.7, "C": 0.8})
        s = make_conflict_set(g, ["A", "B", "C"])
        sets = resolve_exact(s, g)
        assert sorted(cs.included for cs in sets) == [("A",), ("B",), ("C",)]

    def test_weight_example_against_joint_enumeration(self, empty_graph):
        g = empty_graph
        self.build(g, {"A": 0.9, "B": 0.5})
        s = make_conflict_set(g, ["A", "B"])
        sets = {cs.included: cs for cs in resolve_exact(s, g)}
        assert sets[("A",)].weight == pytest.approx(0.9 * 0.5, rel=1e-12)
        assert sets[("B",)].weight == pytest.approx(0.5 * 0.1, rel=1e-12)
        assert sets[("A",)].normalized_belief == pytest.approx(0.9, rel=1e-12)
        assert sets[("B",)].normalized_belief == pytest.approx(0.1, rel=1e-12)
        # independent: enumerate the four joint states of two binary
        # variables and renormalize over the two maximal consistent ones
        states = {
            (a, b): (0.9 if a else 0.1) * (0.5 if b else 0.5)
            for a in (0, 1)
            for b in (0, 1)
        }
        z = states[(1, 0)] + states[(0, 1)]
        assert sets[("A",)].normalized_belief == pytest.approx(
            states[(1, 0)] / z, rel=1e-12
        )

    def test_matches_brute_force_on_random_graphs(self, empty_graph):
        import random

        rng = random.Random(99)
        for trial in range(60):
            g = type(empty_graph)()
            n = rng.randint(2, 8)
            members = [f"m{i}" for i in range(n)]
            for i, m in enumerate(members):
                add_leaf(g, m, location=(i * 5.0, 0))
                g.get(m).posterior = rng.uniform(0.05, 0.95)
            edges = [
                pair
                for pair in itertools.combinations(members, 2)
                if rng.random() < 0.45
            ]
            if not edges:
                edges = [(members[0], members[1])]
            s = make_conflict_set(g, members, edges=edges)
            sets = resolve_exact(s, g)
            got = sorted(cs.included for cs in sets)
            assert got == brute_force_mis(members, edges), f"trial {trial}"
            total = math.fsum(cs.normalized_belief for cs in sets)
            assert total == pytest.approx(1.0, abs=1e-12)
            # independence + maximality re-verified directly
            edge_set = {tuple(sorted(e)) for e in edges}
            for cs in sets:
                inc = set(cs.included)
                for a, b in itertools.combinations(sorted(inc), 2):
                    assert (a, b) not in edge_set
                for outsider in set(members) - inc:
                    assert any(
                        tuple(sorted((outsider, m))) in edge_set for m in inc
                    )

    def test_cap(self, empty_graph):
        g = empty_graph
        members = [f"m{i:02d}" for i in range(21)]
        for i, m in enumerate(members):
            add_leaf(g, m, location=(i * 5.0, 0))
        s = make_conflict_set(g, members, edges=[(members[0], members[1])])
        with pytest.raises(ResolutionTooLargeError, match="resolution too large"):
            resolve_exact(s, g)


class TestDecide:
    def test_skip_marks_members_and_estimates(self, empty_graph, tank_lib):
        g = empty_graph
        add_leaf(g, "v0", items=[("e0", 49.0)], location=(0, 0))
        add_leaf(g, "v1", items=[("e1", 49.0)], location=(10, 0))
        add_leaf(g, "v2", items=[("e2", 49.0)], location=(110, 0))
        add_parent(g, "a0", ["v0", "v2"], location=(55, 0))
        propagate_level(g, Level.VEHICLE)
        propagate_level(g, Level.ARRAY)
        (s,) = detect_conflicts(g, tank_lib, level=Level.VEHICLE)
        rep = decide(s, g, tau=0.1)
        assert rep.decision is Decision.SKIP
        assert g.get("v0").status is Status.SKIPPED
        assert g.get("v1").status is Status.SKIPPED
        assert rep.k == pytest.approx(0.98 * 0.98, rel=1e-12)
        # the report is final: parent errors are bounded from the parents'
        # own accrual when the pipeline's report is built
        assert rep.consistent_sets is None
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.k = 1.0

    def test_resolve_updates_posteriors_and_excludes(self, empty_graph, tank_lib):
        g = empty_graph
        add_leaf(g, "v0", items=[("e0", 49.0)], location=(0, 0))
        add_leaf(g, "v1", items=[("e1", 1.2)], location=(10, 0))
        propagate_level(g, Level.VEHICLE)
        (s,) = detect_conflicts(g, tank_lib, level=Level.VEHICLE)
        rep = decide(s, g, tau=0.1, exclusion_floor=0.05)
        assert rep.decision is Decision.RESOLVE
        assert rep.consistent_sets is not None
        beliefs = {cs.included: cs.normalized_belief for cs in rep.consistent_sets}
        assert g.get("v0").posterior == pytest.approx(beliefs[("v0",)], rel=1e-12)
        assert g.get("v1").status is Status.EXCLUDED
        assert g.get("v0").status is Status.ACTIVE

    def test_boundary_measure_equals_tau_resolves(self, empty_graph, tank_lib):
        g = empty_graph
        add_leaf(g, "v0", prior=0.5, location=(0, 0))  # no evidence: factor 0.5
        with pytest.warns(UserWarning):
            add_leaf(g, "v1", prior=1.0, location=(10, 0))  # degenerate: factor 1
            propagate_level(g, Level.VEHICLE)
            (s,) = detect_conflicts(g, tank_lib, level=Level.VEHICLE)
            rep = decide(s, g, tau=1.0)
        assert rep.k == 0.5
        assert rep.measure == 1.0  # exactly tau
        assert rep.decision is Decision.RESOLVE

    def test_infinite_tau_warns_and_skips(self, empty_graph, tank_lib):
        g = empty_graph
        add_leaf(g, "v0", items=[("e0", 3.0)], location=(0, 0))
        add_leaf(g, "v1", items=[("e1", 3.0)], location=(10, 0))
        propagate_level(g, Level.VEHICLE)
        (s,) = detect_conflicts(g, tank_lib, level=Level.VEHICLE)
        with pytest.warns(DegenerateThresholdWarning):
            rep = decide(s, g, tau=math.inf)
        assert rep.decision is Decision.SKIP

    def test_nonpositive_tau_rejected(self, empty_graph, tank_lib):
        g = empty_graph
        add_leaf(g, "v0", items=[("e0", 3.0)], location=(0, 0))
        add_leaf(g, "v1", items=[("e1", 3.0)], location=(10, 0))
        (s,) = detect_conflicts(g, tank_lib, level=Level.VEHICLE)
        with pytest.raises(ValueError):
            decide(s, g, tau=0.0)

    def test_oversized_resolution_falls_back_to_skip(self, empty_graph, tank_lib):
        g = empty_graph
        members = []
        for i in range(21):
            hid = f"m{i:02d}"
            add_leaf(g, hid, items=[(f"e{i}", 1.2)], location=(i * 5.0, 0))
            members.append(hid)
        propagate_level(g, Level.VEHICLE)
        s = make_conflict_set(g, members)  # complete graph, k tiny
        with pytest.warns(UserWarning, match="resolution too large"):
            rep = decide(s, g, tau=0.1, max_exact=20)
        assert rep.decision is Decision.SKIP
        assert all(g.get(m).status is Status.SKIPPED for m in members)

    def test_low_tau_never_skips_shared_evidence(self, empty_graph, tank_lib):
        g = empty_graph
        add_leaf(g, "C1", items=[("e1", 9.0), ("e12", 2.0)], location=(0, 0))
        add_leaf(g, "C2", items=[("e2", 2.0), ("e12", 2.0)], location=(500, 0))
        propagate_level(g, Level.VEHICLE)
        (s,) = detect_conflicts(g, tank_lib, level=Level.VEHICLE)
        rep = decide(s, g, tau=1e-9)
        assert rep.decision is Decision.RESOLVE
