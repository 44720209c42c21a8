"""Oracle self-tests plus the fixture discipline: computed values are
stored as hex floats and must reproduce bit for bit.  No hand-typed
probabilities appear as expected values."""

import hashlib
import json
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from echelon import kernels
from echelon.exceptions import OracleStructureError, ZeroProbabilityEvent
from echelon.oracle import (
    DeviationReport,
    OracleNetwork,
    check_accrual_formula,
    check_approx_k,
    check_skip_identity,
    make_chain_network,
    make_two_evidence_network,
    random_accrual_network,
    random_conflict_network,
    random_skip_network,
    skip_identity_report,
)

FIXTURES = Path(__file__).parent / "fixtures"


def freeze(name: str, records):
    """Assert bit-stable reproduction of ``tests/fixtures/<name>.json``,
    which must exist."""
    path = FIXTURES / f"{name}.json"
    assert path.exists(), f"missing fixture {path}"
    assert records == json.loads(path.read_text()), f"fixture drift in {name}"


def packaged(suite: str, records: list[dict]):
    """Assert each record equals the record of the same network in the
    packaged fixture of ``suite`` (what ``echelon oracle`` checks)."""
    path = resources.files("echelon.data") / "oracle" / f"{suite}.json"
    stored = {r["network"]: r for r in json.loads(path.read_text())["records"]}
    for record in records:
        assert record == stored.get(record["network"]), f"fixture drift in {suite}"


class TestExactConditional:
    def test_query_equals_given(self):
        net = make_chain_network()
        assert net.exact_conditional({"e1": 1}, {"e1": 1}) == 1.0

    def test_independent_coin(self):
        net = OracleNetwork(
            variables=("A", "B"),
            parents={"A": (), "B": ()},
            tables={"A": np.array([0.3]), "B": np.array([0.6])},
        )
        assert net.exact_conditional({"A": 1}, {"B": 1}) == pytest.approx(
            0.3, abs=1e-15
        )

    def test_chain_network_frozen_and_analytic(self):
        net = make_chain_network()
        got = net.exact_conditional({"H": 1}, {"e1": 1})
        # independent analytic path: sum the three factor products by hand
        p_e_h = 1.0 * 0.9
        p_e_nh = 0.2 * 0.9 + 0.8 * 0.1
        analytic = 0.5 * p_e_h / (0.5 * p_e_h + 0.5 * p_e_nh)
        assert got == pytest.approx(analytic, rel=1e-12)
        freeze("chain_p_h_given_e", {"value": got.hex()})

    def test_contradictory_query_is_zero(self):
        net = make_chain_network()
        assert net.exact_conditional({"H": 0}, {"H": 1}) == 0.0
        assert net.exact_conditional({"H": False}, {"H": True}) == 0.0
        # 1.0 and True are the value 1 on both sides: no contradiction
        assert net.exact_conditional({"H": 1.0}, {"H": True}) == 1.0

    @pytest.mark.parametrize("given", [{"C1": 1}, {"C1": 0}, {"H": 1}])
    @pytest.mark.parametrize("bad", [2, 0.5])
    def test_bad_query_value_raises_even_against_given(self, given, bad):
        # a non-binary value raises even where it overlaps given
        net = make_chain_network()
        with pytest.raises(OracleStructureError, match="binary value expected"):
            net.exact_conditional({"C1": bad}, given)

    def test_unknown_query_variable_raises(self):
        net = make_chain_network()
        with pytest.raises(OracleStructureError, match="unknown variable 'Z'"):
            net.exact_conditional({"Z": 1}, {"H": 1})

    def test_zero_probability_conditioning(self):
        net = OracleNetwork(
            variables=("A", "B"),
            parents={"A": (), "B": ("A",)},
            tables={"A": np.array([1.0]), "B": np.array([0.5, 0.5])},
        )
        with pytest.raises(ZeroProbabilityEvent):
            net.exact_conditional({"B": 1}, {"A": 0})

    def test_chain_rule_property(self):
        for seed in range(20):
            net = random_skip_network(seed)
            rng = np.random.default_rng(seed + 1000)
            names = list(net.variables)
            a, b, c = (names[i] for i in rng.choice(len(names), 3, replace=False))
            given = {c: 1}
            lhs = net.exact_conditional({a: 1, b: 1}, given)
            rhs = net.exact_conditional({a: 1}, {b: 1, **given}) * net.exact_conditional(
                {b: 1}, given
            )
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestNetworkValidation:
    def test_variable_cap(self):
        with pytest.raises(OracleStructureError, match="exceeds"):
            OracleNetwork(
                variables=tuple(f"x{i}" for i in range(21)),
                parents={f"x{i}": () for i in range(21)},
                tables={f"x{i}": np.array([0.5]) for i in range(21)},
            )

    def test_bad_table_shape(self):
        with pytest.raises(OracleStructureError, match="rows"):
            OracleNetwork(
                variables=("A", "B"),
                parents={"A": (), "B": ("A",)},
                tables={"A": np.array([0.5]), "B": np.array([0.5])},
            )

    def test_unknown_parent(self):
        with pytest.raises(OracleStructureError, match="unknown parent"):
            OracleNetwork(
                variables=("A",), parents={"A": ("Z",)}, tables={"A": np.array([0.5, 0.5])}
            )

    def test_table_range(self):
        for bad in (-0.1, 1.5, math.nan):
            with pytest.raises(OracleStructureError, match=r"must lie in \[0,1\]"):
                OracleNetwork(variables=("A",), parents={"A": ()}, tables={"A": [bad]})
        # a NaN first, in the middle and last of a 4-row table: min and
        # max alone would pass one that is not first (min([0.5, nan]) is 0.5)
        for at in (0, 2, 3):
            table = [0.5, 0.25, 0.75, 0.5]
            table[at] = math.nan
            with pytest.raises(OracleStructureError, match=r"C: table entries must lie"):
                OracleNetwork(
                    variables=("A", "B", "C"),
                    parents={"C": ("A", "B")},
                    tables={"A": [0.5], "B": [0.5], "C": table},
                )

    @pytest.mark.parametrize(
        "parents, tables, match",
        [
            ({"Q": ("nope",)}, {"A": [0.5]}, "parents: unknown variable 'Q'"),
            ({}, {"A": [0.5], "Z": [2.0]}, "tables: unknown variable 'Z'"),
            ({"Q": ("nope",)}, {"A": [0.5], "Z": [2.0]}, "unknown variable"),
        ],
    )
    def test_keys_that_name_no_variable(self, parents, tables, match):
        with pytest.raises(OracleStructureError, match=match):
            OracleNetwork(variables=("A",), parents=parents, tables=tables)

    def test_callers_dicts_are_left_unchanged(self):
        parents = {"B": ["A"]}
        tables = {"A": [0.5], "B": [0.25, 0.75]}
        net = OracleNetwork(variables=("A", "B"), parents=parents, tables=tables)
        assert parents == {"B": ["A"]}
        assert tables == {"A": [0.5], "B": [0.25, 0.75]}
        assert net.parents == {"A": (), "B": ("A",)}
        assert net.parents is not parents and net.tables is not tables
        assert all(isinstance(t, np.ndarray) for t in net.tables.values())

    def test_missing_table(self):
        with pytest.raises(OracleStructureError, match="B: no table"):
            OracleNetwork(
                variables=("A", "B"), parents={"B": ("A",)}, tables={"A": [0.5]}
            )

    @pytest.mark.parametrize(
        "parents",
        [
            {"A": ("A",)},  # a self-parent: event_prob({}) would be 1.5
            {"A": ("B",), "B": ("A",)},  # a cycle
            {"A": ("B",)},  # acyclic, but the parent comes after its child
        ],
    )
    def test_parents_come_before_their_children(self, parents):
        tables = {v: [0.3, 0.8] if v in parents else [0.5] for v in ("A", "B")}
        with pytest.raises(OracleStructureError, match="must come before"):
            OracleNetwork(variables=("A", "B"), parents=parents, tables=tables)

    def test_networks_compare_by_identity(self):
        # equality never compares the numpy tables, which would raise
        net = make_chain_network()
        assert net == net
        assert net != make_chain_network()


def mask_event_prob(net: OracleNetwork, assignment) -> float:
    """Reference P(assignment): fsum over the states a boolean mask
    selects, variable i read from bit i of the state index."""
    states = np.arange(1 << len(net.variables), dtype=np.int64)
    mask = np.ones(states.shape, dtype=bool)
    for var, val in assignment.items():
        mask &= ((states >> net.variables.index(var)) & 1) == val
    return math.fsum(net.joint()[mask].tolist())


def assignments(net: OracleNetwork, seed: int) -> list[dict[str, int]]:
    """``{}``, a full assignment and seeded partial ones."""
    rng = np.random.default_rng(seed)
    names = list(net.variables)
    out = [{}, {v: int(rng.integers(2)) for v in names}]
    for _ in range(6):
        k = int(rng.integers(1, len(names) + 1))
        chosen = rng.choice(len(names), k, replace=False)
        out.append({names[i]: int(rng.integers(2)) for i in chosen})
    return out


def sixteen_variable_network() -> OracleNetwork:
    """Seeded: up to three parents per variable, listed in random order."""
    rng = np.random.default_rng(16)
    names = [f"v{i}" for i in range(16)]
    parents = {}
    for i, v in enumerate(names):
        k = int(rng.integers(0, min(i, 3) + 1))
        parents[v] = tuple(names[int(u)] for u in rng.permutation(i)[:k])
    tables = {v: rng.uniform(0.0, 1.0, size=1 << len(parents[v])) for v in names}
    return OracleNetwork(tuple(names), parents, tables, name="sixteen")


def subnormal_network() -> OracleNetwork:
    """Two rare roots: the state with both at 1 has probability near
    1e-320, a subnormal, so the joint spans the whole float range."""
    return OracleNetwork(
        variables=("A", "B", "C", "D"),
        parents={"C": ("A", "B"), "D": ("C",)},
        tables={
            "A": [1e-160],
            "B": [1e-160],
            "C": [0.3, 0.6, 0.2, 0.9],
            "D": [0.1, 0.7],
        },
        name="subnormal",
    )


SUM_NETWORKS = (
    [random_skip_network(s) for s in range(20)]
    + [random_accrual_network(s) for s in range(12)]
    + [random_conflict_network(s, shared=bool(s % 2)) for s in range(12)]
    + [sixteen_variable_network(), subnormal_network()]
)


class TestEventProb:
    @pytest.mark.parametrize("net", SUM_NETWORKS, ids=lambda n: n.name)
    def test_matches_mask_sum_bit_for_bit(self, net):
        cases = assignments(net, sum(map(ord, net.name)))
        want = [mask_event_prob(net, a).hex() for a in cases]
        for _ in range(2):  # the second pass reads the cache
            assert [net.event_prob(a).hex() for a in cases] == want
        # the same assignment in another key order shares the cached sum
        assert [net.event_prob(dict(reversed(a.items()))).hex() for a in cases] == want

    def test_deep_splits_are_exercised(self):
        # every suite network splits into two or three rows; these need more
        sixteen, subnormal = SUM_NETWORKS[-2:]
        assert len(kernels.split_exact(sixteen.joint())) == 3
        assert len(kernels.split_exact(subnormal.joint())) == 5
        assert 0.0 < subnormal.event_prob({"A": 1, "B": 1}) < 2.2250738585072014e-308

    @pytest.mark.parametrize("order", [(True, 1, 1.0), (1, 1.0, True), (1.0, True, 1)])
    def test_bool_and_float_values_are_binary(self, order):
        # P(C1) = 0.6 in the chain; a bool read as a numpy mask gave 1.0
        net = make_chain_network()
        want = mask_event_prob(net, {"C1": 1})
        assert [net.event_prob({"C1": v}) for v in order] == [want] * 3
        assert net.event_prob({"C1": False}) == mask_event_prob(net, {"C1": 0})

    def test_bad_assignments_raise_every_time(self):
        net = make_chain_network()
        for _ in range(2):
            with pytest.raises(OracleStructureError, match="unknown variable 'Z'"):
                net.event_prob({"Z": 1})
            with pytest.raises(OracleStructureError, match="binary value expected"):
                net.event_prob({"C1": 2})
        assert net.event_prob({"C1": 1}) == mask_event_prob(net, {"C1": 1})


class TestAccrualFormulaCheck:
    def test_single_component_fixture(self):
        reports = [check_accrual_formula(random_accrual_network(s)) for s in range(6)]
        packaged("accrual", [r.to_record() for r in reports])

    def test_uninformative_evidence_collapses_to_priors(self):
        net = OracleNetwork(
            variables=("H", "C1", "e1_1", "t1", "f"),
            parents={
                "H": (),
                "C1": ("H",),
                "e1_1": ("C1",),
                "t1": ("C1",),
                "f": ("H", "C1"),
            },
            tables={
                "H": np.array([0.4]),
                "C1": np.array([0.3, 1.0]),
                "e1_1": np.array([0.5, 0.5]),  # uninformative
                "t1": np.array([0.5, 0.5]),  # uninformative
                "f": np.array([0.5, 0.5, 0.5, 0.5]),  # uninformative
            },
        )
        p_c = net.event_prob({"C1": 1})
        assert net.exact_conditional({"C1": 1}, {"e1_1": 1}) == pytest.approx(
            p_c, abs=1e-12
        )
        rep = check_accrual_formula(net)
        # with every conditional collapsed to its prior the rule gives
        # p_h/p_c per component (times a unit fit ratio)
        assert rep.approx == pytest.approx(0.4 / p_c, rel=1e-12)
        assert rep.exact == pytest.approx(net.exact_conditional(
            {"H": 1}, {"C1": 1, "e1_1": 1, "t1": 1, "f": 1}
        ), abs=0)

    def test_sure_components_make_conditioning_free(self):
        # P(all C | e) = 1 exactly -> P(H | all C, e) equals P(H | e).
        net = OracleNetwork(
            variables=("H", "C1", "e1_1"),
            parents={"H": (), "C1": (), "e1_1": ("C1",)},
            tables={
                "H": np.array([0.35]),
                "C1": np.array([1.0]),
                "e1_1": np.array([0.2, 0.7]),
            },
        )
        assert net.exact_conditional({"C1": 1}, {"e1_1": 1}) == 1.0
        lhs = net.exact_conditional({"H": 1}, {"C1": 1, "e1_1": 1})
        rhs = net.exact_conditional({"H": 1}, {"e1_1": 1})
        assert lhs == rhs

    def test_structure_errors(self):
        net = make_two_evidence_network(0.5, [(0.6, 0.3)])  # no H role
        with pytest.raises(OracleStructureError):
            check_accrual_formula(net)


class TestSkipIdentity:
    def test_chain_and_seeded_networks(self):
        assert check_skip_identity(make_chain_network())
        for seed in range(100):
            assert check_skip_identity(random_skip_network(seed)), f"seed {seed}"

    def test_sure_components_both_sides_zero(self):
        # components certain regardless of evidence: q = 1, so both the
        # realized difference and the error formula are zero
        net = OracleNetwork(
            variables=("H", "C1", "e1_1"),
            parents={"H": (), "C1": (), "e1_1": ("C1",)},
            tables={
                "H": np.array([0.35]),
                "C1": np.array([1.0]),
                "e1_1": np.array([0.2, 0.7]),
            },
        )
        assert check_skip_identity(net)
        rep = skip_identity_report(net)
        assert rep.approx == 0.0 and rep.exact == 0.0

    def test_precondition_violation_raises(self):
        net = OracleNetwork(
            variables=("H", "C1", "e1_1"),
            parents={"H": (), "C1": ("H",), "e1_1": ("C1",)},
            tables={
                "H": np.array([0.5]),
                "C1": np.array([0.3, 0.9]),  # not a deterministic link
                "e1_1": np.array([0.1, 0.9]),
            },
        )
        with pytest.raises(OracleStructureError, match="not 1"):
            check_skip_identity(net)

    def test_report_deviation_negligible(self):
        reports = [skip_identity_report(random_skip_network(s)) for s in range(25)]
        assert all(r.deviation <= 1e-12 for r in reports)
        packaged("skip", [r.to_record() for r in reports])


class TestApproxK:
    def test_disjoint_evidence_exact(self):
        for seed in (0, 2, 4):
            rep = check_approx_k(random_conflict_network(seed, shared=False))
            assert rep.annotations["independence_holds"]
            assert rep.deviation < 1e-12

    def test_shared_evidence_fixture(self):
        reports = [
            check_approx_k(random_conflict_network(seed, shared=True))
            for seed in (1, 3, 5)
        ]
        assert all(r.annotations["shared_evidence_vars"] for r in reports)
        packaged("approx-k", [r.to_record() for r in reports])

    def test_single_component_degenerate(self):
        net = OracleNetwork(
            variables=("C1", "e1_1"),
            parents={"C1": (), "e1_1": ("C1",)},
            tables={"C1": np.array([0.4]), "e1_1": np.array([0.2, 0.9])},
        )
        rep = check_approx_k(net)
        assert rep.approx == net.exact_conditional({"C1": 1}, {"e1_1": 1})
        assert rep.deviation == 0.0

    def test_bad_ordering_rejected(self):
        net = random_conflict_network(0, shared=False)
        with pytest.raises(OracleStructureError, match="permute"):
            check_approx_k(net, ordering=["C1", "C1"])


def test_deviation_report_record_is_hex():
    rep = DeviationReport(network="x", approx=0.5, exact=0.25, annotations={"a": 0.5})
    rec = rep.to_record()
    assert rec["approx"] == (0.5).hex()
    assert rec["deviation"] == (0.25).hex()
    assert rec["annotations"]["a"] == (0.5).hex()


def test_generators_deterministic():
    a = random_accrual_network(9)
    b = random_accrual_network(9)
    assert a.variables == b.variables
    assert np.array_equal(a.joint(), b.joint())


def network_digest(nets) -> str:
    """sha256 of each network's name, variables, parents and table bytes."""
    h = hashlib.sha256()
    for net in nets:
        h.update(repr((net.name, net.variables)).encode())
        for v in net.variables:
            h.update(repr((v, net.parents[v])).encode())
            h.update(net.tables[v].tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "build, digest",
    [
        # the networks the packaged fixtures are computed from
        (
            lambda: [
                *(random_skip_network(s) for s in range(100)),
                make_chain_network(),
                *(random_accrual_network(s) for s in range(12)),
                *(random_conflict_network(s, shared=bool(s % 2)) for s in range(12)),
            ],
            "4577bca1aa42758b3ca48a3f71b5a7f12efcaaaa68eb257e7d9e4f823a0257e4",
        ),
        # inputs no fixture reaches
        (
            lambda: (random_skip_network(s, max_vars=6) for s in range(50)),
            "abbc136dfa932fbd46e51f28dc6a049d3d7873f768f61636418748a7f4fc1c6c",
        ),
        (
            lambda: (random_skip_network(s, max_vars=9) for s in range(50)),
            "04ad6fb6cdf43dca24c8072d4d37c93c52280c36e69aff1f15e711034cf1fa8a",
        ),
        (
            lambda: (random_accrual_network(s) for s in range(12, 50)),
            "fa60daf3e9fd15ce7d4b17fedaeadf3e275f6a31d3cd0e6c4af00ca66027ad1c",
        ),
        (
            lambda: (
                random_conflict_network(s, shared=shared)
                for s in range(50)
                for shared in (False, True)
            ),
            "6779b7820ced9f707bd8a835108adc29d0f16a679ae019ccb217f4a39b723f0b",
        ),
        (
            lambda: [
                make_two_evidence_network(0.2, [(0.6, 0.3), (0.5, 0.1)]),
                make_two_evidence_network(0.5, []),
                make_two_evidence_network(0.7, [(0.9, 0.1), (0.4, 0.8), (0.25, 0.75)]),
            ],
            "7be8a535ae2022040c19fdf0f7e439fd29010369aac47fa5e2e7513be2eecc8f",
        ),
    ],
    ids=["suites", "skip-6", "skip-9", "accrual", "conflict", "two-evidence"],
)
def test_builders_are_bit_stable(build, digest):
    # variables, parents, table bytes and the seeded rng stream, pinned
    assert network_digest(build()) == digest


def test_skip_networks_fit_enumeration_budget():
    for seed in range(100):
        assert len(random_skip_network(seed).variables) <= 12
