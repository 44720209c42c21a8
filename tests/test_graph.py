import random

import pytest

from echelon.accrual import AccrualInputs, AccrualResult, ComponentBelief
from echelon.conflict import ApproxJointResult, ConflictReport, ConflictSet, ConsistentSet
from echelon.evidence import EvidenceItem, EvidenceKind
from echelon.exceptions import (
    DanglingComponentError,
    EvidenceResolutionError,
    LevelViolationError,
    UnknownHypothesisError,
)
from echelon.hypotheses import Hypothesis, HypothesisGraph, Status
from echelon.matching import MatchCandidate
from echelon.models import Level

from conftest import add_leaf, add_parent


def test_insert_leaf_assigns_id_and_indexes(empty_graph):
    g = empty_graph
    h = Hypothesis(id="", force_type="tank", level=Level.VEHICLE, location=(0, 0))
    hid = g.insert(h)
    assert hid == "v0"
    assert g.at_level(Level.VEHICLE) == ["v0"]
    assert g.insert(
        Hypothesis(id="", force_type="tank", level=Level.VEHICLE, location=(1, 1))
    ) == "v1"


def test_assigned_ids_take_the_level_initial(empty_graph):
    g = empty_graph
    below = g.insert(Hypothesis(id="", force_type="tank", level=Level.VEHICLE, location=(0, 0)))
    assigned = [below]
    for level in (Level.ARRAY, Level.BATTALION, Level.REGIMENT, Level.DIVISION):
        below = g.insert(
            Hypothesis(
                id="", force_type="unit", level=level, location=(0, 0),
                model="m", components=(below,),
            )
        )
        assigned.append(below)
    assert assigned == ["v0", "a0", "b0", "r0", "d0"]


def test_dangling_component_rejected(empty_graph):
    with pytest.raises(DanglingComponentError, match="dangling"):
        add_parent(empty_graph, "a0", ["ghost"])


def test_level_violation_rejected(empty_graph):
    g = empty_graph
    add_leaf(g, "v0", lam=2.0)
    add_parent(g, "a0", ["v0"])
    add_parent(
        g, "b0", ["a0"], level=Level.BATTALION, force_type="tank-battalion",
        model="tank-battalion-std",
    )
    with pytest.raises(LevelViolationError, match="level violation"):
        add_parent(g, "a1", ["b0"])


def test_leaf_shape_enforced(empty_graph):
    g = empty_graph
    add_leaf(g, "v0")
    with pytest.raises(LevelViolationError):
        g.insert(
            Hypothesis(
                id="bad",
                force_type="tank",
                level=Level.VEHICLE,
                location=(0, 0),
                components=("v0",),
            )
        )
    with pytest.raises(LevelViolationError):
        g.insert(
            Hypothesis(
                id="bad2",
                force_type="tank",
                level=Level.VEHICLE,
                location=(0, 0),
                model="tank-company-line",
            )
        )
    with pytest.raises(LevelViolationError, match="at least one component"):
        g.insert(
            Hypothesis(
                id="bad3",
                force_type="tank-company",
                level=Level.ARRAY,
                location=(0, 0),
            )
        )


def test_duplicate_ids_rejected(empty_graph):
    g = empty_graph
    add_leaf(g, "v0")
    with pytest.raises(ValueError, match="duplicate hypothesis"):
        add_leaf(g, "v0", location=(5, 5))
    g.add_evidence(
        EvidenceItem(id="dup", kind=EvidenceKind.DETECTION, likelihood_ratio=2.0)
    )
    with pytest.raises(ValueError, match="duplicate evidence"):
        g.add_evidence(
            EvidenceItem(id="dup", kind=EvidenceKind.DETECTION, likelihood_ratio=2.0)
        )


def test_component_listed_twice_rejected(empty_graph):
    # accrual would count the child twice: a0 over ("v0", "v0") with a
    # lambda-6 leaf reported 0.36, over ("v0",) 0.6
    g = empty_graph
    add_leaf(g, "v0", lam=6.0)
    with pytest.raises(ValueError, match="a0: component 'v0' listed twice"):
        add_parent(g, "a0", ["v0", "v0"])
    assert "a0" not in g.hypotheses and g.parents_of("v0") == []
    add_parent(g, "a0", ["v0"])
    assert g.parents_of("v0") == ["a0"]


def test_records_are_slotted():
    # one record per hypothesis, evidence item, accrual, candidate and
    # conflict: no per-instance __dict__, and no attribute set at run time
    records = [
        Hypothesis, EvidenceItem, ComponentBelief, AccrualInputs, AccrualResult,
        MatchCandidate, ConflictSet, ApproxJointResult, ConflictReport, ConsistentSet,
    ]
    for cls in records:
        assert "__slots__" in vars(cls) and "__dict__" not in dir(cls), cls
    h = Hypothesis(id="v0", force_type="tank", level=Level.VEHICLE, location=(0, 0))
    with pytest.raises(AttributeError):
        h.note = "not a field"


def test_own_evidence_must_resolve(empty_graph):
    with pytest.raises(EvidenceResolutionError):
        empty_graph.insert(
            Hypothesis(
                id="v0",
                force_type="tank",
                level=Level.VEHICLE,
                location=(0, 0),
                own_evidence=frozenset({"nowhere"}),
            )
        )


def test_unknown_id(empty_graph):
    with pytest.raises(UnknownHypothesisError):
        empty_graph.get("nope")
    with pytest.raises(UnknownHypothesisError):
        empty_graph.evidence_closure("nope")


class TestClosure:
    def test_leaf_base_case(self, empty_graph):
        g = empty_graph
        add_leaf(g, "v0", items=[("1", 2.0), ("2", 3.0)])
        assert g.evidence_closure("v0") == {"1", "2"}

    def test_leaf_closure_is_its_own_evidence(self, empty_graph):
        g = empty_graph
        add_leaf(g, "v0", items=[("1", 2.0)])
        assert g.evidence_closure("v0") is g.get("v0").own_evidence

    def test_parent_union(self, empty_graph):
        g = empty_graph
        add_leaf(g, "v0", items=[("1", 2.0)])
        add_leaf(g, "v1", items=[("2", 2.0)])
        fit = EvidenceItem(id="9", kind=EvidenceKind.FIT, likelihood_ratio=1.5,
                           sensor_context={"fit_score": 0.6})
        add_parent(g, "a0", ["v0", "v1"], items=[fit])
        assert g.evidence_closure("a0") == {"1", "2", "9"}

    def test_diamond_shared_leaf(self, empty_graph):
        g = empty_graph
        add_leaf(g, "v0", items=[("1", 2.0)])
        add_leaf(g, "v1", items=[("2", 2.0)])
        add_leaf(g, "v2", items=[("3", 2.0)])
        add_parent(g, "a0", ["v0", "v1"])
        add_parent(g, "a1", ["v1", "v2"])
        assert "2" in g.evidence_closure("a0")
        assert "2" in g.evidence_closure("a1")
        assert g.evidence_closure("a0") & g.evidence_closure("a1") == {"2"}

    def test_closure_is_a_memoized_frozenset(self, empty_graph):
        g = empty_graph
        add_leaf(g, "v0", items=[("1", 2.0)])
        add_parent(g, "a0", ["v0"])
        closure = g.evidence_closure("a0")
        assert type(closure) is frozenset and closure == {"1"}
        assert g.evidence_closure("a0") is closure

    def test_closure_monotone_over_links(self, empty_graph):
        g = empty_graph
        add_leaf(g, "v0", items=[("1", 2.0)])
        add_leaf(g, "v1", items=[("2", 2.0)])
        add_parent(g, "a0", ["v0", "v1"])
        for cid in ("v0", "v1"):
            assert g.evidence_closure(cid).issubset(g.evidence_closure("a0"))

    def test_closure_traversal_order_independent(self):
        rng = random.Random(3)
        leaf_items = {f"v{i}": [(f"i{i}", 2.0)] for i in range(6)}
        closures = []
        for _ in range(4):
            g = HypothesisGraph()
            order = list(leaf_items)
            rng.shuffle(order)
            for hid in order:
                add_leaf(g, hid, items=leaf_items[hid])
            comp_order = list(leaf_items)
            rng.shuffle(comp_order)
            add_parent(g, "a0", comp_order)
            closures.append(g.evidence_closure("a0"))
        assert all(c == closures[0] for c in closures)


def test_parents_of(empty_graph):
    g = empty_graph
    add_leaf(g, "v0", lam=2.0)
    add_leaf(g, "v1", lam=2.0)
    add_parent(g, "a0", ["v0", "v1"])
    add_parent(g, "a1", ["v0"])
    assert g.parents_of("v0") == ["a0", "a1"]
    assert g.parents_of("v1") == ["a0"]


def test_parents_of_id_sorted_and_checked(empty_graph):
    g = empty_graph
    add_leaf(g, "v0", lam=2.0)
    add_leaf(g, "v1", lam=2.0)
    for n in (10, 2, 1):  # inserted out of id order
        add_parent(g, f"a{n}", ["v0"])
    assert g.parents_of("v0") == ["a1", "a10", "a2"]
    assert g.parents_of("v1") == []
    assert g.parents_of("a2") == []
    with pytest.raises(UnknownHypothesisError):
        g.parents_of("nope")


def test_status_and_level_filters(empty_graph):
    g = empty_graph
    add_leaf(g, "v0")
    add_leaf(g, "v1")
    g.get("v1").status = Status.EXCLUDED
    assert g.at_level(Level.VEHICLE, statuses={Status.ACTIVE}) == ["v0"]
    assert g.at_level(Level.VEHICLE) == ["v0", "v1"]


def test_drain_hands_over_each_hypothesis_and_empties_the_graph(empty_graph):
    g = empty_graph
    add_leaf(g, "v1", lam=2.0)
    add_leaf(g, "v0", lam=2.0)
    add_parent(g, "a0", ["v0", "v1"])
    add_parent(g, "b0", ["a0"], level=Level.BATTALION, force_type="tank-battalion",
               model="tank-battalion-std")
    add_leaf(g, "v2", lam=2.0)  # inserted after the levels above it
    g.evidence_closure("b0")
    drained = []
    for h in g.drain():
        assert h.id not in g.hypotheses  # out of the store before it is handed over
        assert not g.evidence and not g._closures and not g._parents
        drained.append(h.id)
    assert drained == ["v1", "v0", "v2", "a0", "b0"]  # bottom up, in insertion order
    assert not g.hypotheses and not g.terrain
    assert all(not g.at_level(level) for level in Level)
    with pytest.raises(UnknownHypothesisError):
        g.parents_of("v0")
