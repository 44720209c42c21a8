import warnings

import numpy as np
import pytest

from echelon import accrual, pipeline
from echelon.accrual import (
    AccrualInputs,
    ComponentBelief,
    _combined_et,
    _direct_result,
    accrue_parent,
    direct_posterior,
    posterior_from_evidence,
    posterior_given_subset,
    propagate_level,
)
from echelon.conflict import Decision
from echelon.evidence import EvidenceItem, EvidenceKind
from echelon.exceptions import AccrualDomainError, SubsetError
from echelon.hypotheses import Status
from echelon.models import Level
from echelon.oracle import OracleNetwork, check_accrual_formula

from conftest import add_leaf, add_parent, perfbench_scene


def cb(p_ce, p_ct, p_cet, p_c):
    return ComponentBelief(p_ce=p_ce, p_ct=p_ct, p_cet=p_cet, p_c=p_c)


class TestAccrueParent:
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.71, 0.925])
    def test_all_equal_inputs_give_exactly_one(self, p):
        res = accrue_parent(
            AccrualInputs(fit_num=0.6, fit_den=0.6, per_component=(cb(p, p, p, p),), p_h=p)
        )
        assert res.raw == 1.0
        assert not res.out_of_range

    def test_worked_out_of_range_example(self):
        res = accrue_parent(
            AccrualInputs(
                fit_num=0.8,
                fit_den=0.5,
                per_component=(cb(0.9, 0.6, 0.95, 0.5),),
                p_h=0.3,
            )
        )
        # independent regrouping of the same ratio product
        expected = (0.8 / 0.5) * ((0.9 * 0.6) / 0.95) * (0.3 / (0.5 * 0.5))
        assert res.raw == pytest.approx(expected, rel=1e-12)
        assert abs(res.raw - 1.091) < 1e-3
        assert res.out_of_range and res.posterior == 1.0

    def test_zero_component_annihilates(self):
        res = accrue_parent(
            AccrualInputs(
                fit_num=0.9,
                fit_den=0.5,
                per_component=(cb(0.0, 0.5, 0.5, 0.5), cb(0.8, 0.5, 0.8, 0.5)),
                p_h=0.4,
            )
        )
        assert res.raw == 0.0 and res.posterior == 0.0

    def test_zero_denominators_rejected(self):
        with pytest.raises(AccrualDomainError, match="fit_den"):
            AccrualInputs(fit_num=0.5, fit_den=0.0, per_component=(), p_h=0.5)
        with pytest.raises(AccrualDomainError, match="component 1: p_cet"):
            AccrualInputs(
                fit_num=0.5,
                fit_den=0.5,
                per_component=(cb(0.5, 0.5, 0.5, 0.5), cb(0.5, 0.5, 0.0, 0.5)),
                p_h=0.5,
            )
        with pytest.raises(AccrualDomainError, match="component 0: p_c"):
            AccrualInputs(
                fit_num=0.5,
                fit_den=0.5,
                per_component=(cb(0.5, 0.5, 0.5, 0.0),),
                p_h=0.5,
            )

    def test_out_of_range_inputs_rejected(self):
        with pytest.raises(ValueError):
            AccrualInputs(fit_num=1.2, fit_den=0.5, per_component=(), p_h=0.5)

    def test_monotonicity_by_perturbation(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            vals = rng.uniform(0.15, 0.85, size=7)
            fit_num, fit_den, p_ce, p_ct, p_cet, p_c, p_h = (float(v) for v in vals)
            base_inputs = dict(
                fit_num=fit_num,
                fit_den=fit_den,
                per_component=(cb(p_ce, p_ct, p_cet, p_c),),
                p_h=p_h,
            )
            base = accrue_parent(AccrualInputs(**base_inputs)).raw
            eps = 1.1

            def raw_with(**kw):
                comp = cb(
                    kw.get("p_ce", p_ce),
                    kw.get("p_ct", p_ct),
                    kw.get("p_cet", p_cet),
                    kw.get("p_c", p_c),
                )
                return accrue_parent(
                    AccrualInputs(
                        fit_num=kw.get("fit_num", fit_num),
                        fit_den=kw.get("fit_den", fit_den),
                        per_component=(comp,),
                        p_h=kw.get("p_h", p_h),
                    )
                ).raw

            assert raw_with(fit_num=min(fit_num * eps, 1.0)) >= base
            assert raw_with(p_ce=min(p_ce * eps, 1.0)) >= base
            assert raw_with(p_ct=min(p_ct * eps, 1.0)) >= base
            assert raw_with(p_h=min(p_h * eps, 1.0)) >= base
            assert raw_with(fit_den=min(fit_den * eps, 1.0)) <= base
            assert raw_with(p_cet=min(p_cet * eps, 1.0)) <= base
            assert raw_with(p_c=min(p_c * eps, 1.0)) <= base

    def test_inputs_multiply_back_to_raw(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            comps = tuple(
                cb(*(float(v) for v in rng.uniform(0.1, 0.9, size=4)))
                for _ in range(int(rng.integers(1, 5)))
            )
            res = accrue_parent(
                AccrualInputs(
                    fit_num=float(rng.uniform(0.1, 1.0)),
                    fit_den=float(rng.uniform(0.1, 1.0)),
                    per_component=comps,
                    p_h=float(rng.uniform(0.1, 0.9)),
                )
            )
            assert res.raw == linear_raw(res.inputs)
            assert res.posterior == min(res.raw, 1.0)
            assert res.out_of_range == (res.raw > 1.0)
            assert not res.direct

    def test_many_components_follow_the_written_rule(self):
        # a long product is the rule written out, bit for bit
        comps = tuple(cb(0.6, 0.55, 0.62, 0.5) for _ in range(35))
        res = accrue_parent(
            AccrualInputs(fit_num=0.8, fit_den=0.6, per_component=comps, p_h=0.4)
        )
        assert res.raw == linear_raw(res.inputs)
        assert res.posterior == min(res.raw, 1.0)


def linear_raw(inputs):
    """The rule written out: the fit ratio and each component's bracket,
    multiplied in ascending value order."""
    factors = [inputs.fit_num / inputs.fit_den]
    for c in inputs.per_component:
        factors.append((c.p_ce * c.p_ct * inputs.p_h) / (c.p_cet * (c.p_c * c.p_c)))
    raw = 1.0
    for f in sorted(factors):
        raw *= f
    return raw


def build_two_leaf_parent(g, lam0=4.0, lam1=6.0, terrain=None):
    add_leaf(g, "v0", items=[("e0", lam0)], prior=0.5)
    add_leaf(g, "v1", items=[("e1", lam1)], prior=0.5)
    if terrain:
        for hid, (tid, ratio) in terrain.items():
            if tid not in g.evidence:
                g.add_evidence(
                    EvidenceItem(
                        id=tid, kind=EvidenceKind.TERRAIN, likelihood_ratio=ratio
                    )
                )
            h = g.get(hid)
            h.own_evidence = h.own_evidence | {tid}
    fit = EvidenceItem(
        id="fit0",
        kind=EvidenceKind.FIT,
        likelihood_ratio=3.0,
        sensor_context={"fit_score": 0.75},
    )
    add_parent(g, "a0", ["v0", "v1"], items=[fit], prior=0.3)
    return g


class TestRestrictedEvaluation:
    def test_full_closure_equals_stored_exactly(self, empty_graph):
        g = build_two_leaf_parent(empty_graph, terrain={"v0": ("t0", 2.5)})
        propagate_level(g, Level.VEHICLE)
        propagate_level(g, Level.ARRAY)
        stored = g.get("a0").posterior
        again = posterior_given_subset(g, "a0", g.evidence_closure("a0"))
        assert again == stored  # identical arithmetic path, bit for bit

    def test_empty_keep_on_leaf_returns_prior(self, empty_graph):
        g = empty_graph
        add_leaf(g, "v0", items=[("e0", 4.0)], prior=0.41)
        assert posterior_given_subset(g, "v0", frozenset()) == 0.41

    def test_dropping_one_detection_matches_oracle(self, empty_graph):
        g = empty_graph
        add_leaf(g, "v0", items=[("e0", 3.0), ("e1", 7.0)], prior=0.35)
        restricted = posterior_given_subset(g, "v0", frozenset({"e0"}))
        net = OracleNetwork(
            variables=("C1", "e1", "e2"),
            parents={"C1": (), "e1": ("C1",), "e2": ("C1",)},
            tables={
                "C1": np.array([0.35]),
                "e1": np.array([0.2, 0.6]),  # ratio 3
                "e2": np.array([0.1, 0.7]),  # ratio 7
            },
        )
        assert restricted == pytest.approx(
            net.exact_conditional({"C1": 1}, {"e1": 1}), rel=1e-12
        )

    def test_keep_outside_closure_rejected(self, empty_graph):
        g = empty_graph
        add_leaf(g, "v0", items=[("e0", 3.0)])
        add_leaf(g, "v1", items=[("e1", 3.0)])
        with pytest.raises(SubsetError):
            posterior_given_subset(g, "v0", frozenset({"e1"}))

    def test_missing_fit_neutralizes_ratio(self, empty_graph):
        g = build_two_leaf_parent(empty_graph)
        propagate_level(g, Level.VEHICLE)
        propagate_level(g, Level.ARRAY)
        keep = g.evidence_closure("a0") - {"fit0"}
        restricted = posterior_given_subset(g, "a0", keep)
        # neutral fit and neutral terrain: each bracket is p_h/p_c
        expected = (0.3 / 0.5) * (0.3 / 0.5)
        assert restricted == pytest.approx(expected, rel=1e-12)


class TestPropagateLevel:
    def test_empty_level_is_noop(self, empty_graph):
        propagate_level(empty_graph, Level.REGIMENT)

    def test_leaf_level_sets_posteriors(self, empty_graph):
        g = empty_graph
        add_leaf(g, "v0", items=[("e0", 3.0)], prior=0.5)
        propagate_level(g, Level.VEHICLE)
        assert g.get("v0").posterior == 0.75

    def test_neutral_chain_reduction(self, empty_graph):
        # single parent, single component, no terrain, no fit: the rule
        # must reduce to accrue_parent with p_ct=p_c and p_cet=p_ce.
        g = empty_graph
        add_leaf(g, "v0", items=[("e0", 4.0)], prior=0.5)
        add_parent(g, "a0", ["v0"], prior=0.3)
        propagate_level(g, Level.VEHICLE)
        propagate_level(g, Level.ARRAY)
        p_ce = g.get("v0").posterior
        expected = accrue_parent(
            AccrualInputs(
                fit_num=1.0,
                fit_den=1.0,
                per_component=(cb(p_ce, 0.5, p_ce, 0.5),),
                p_h=0.3,
            )
        )
        assert g.get("a0").posterior == expected.posterior
        assert g.get("a0").accrual is not None

    def test_three_component_parent_matches_oracle_inputs(self, empty_graph):
        # The engine's odds-built inputs must agree with exact network
        # conditionals when the network satisfies the independence
        # structure the construction assumes; the rule output then
        # agrees too.
        rng = np.random.default_rng(41)
        variables = ["H"]
        parents = {"H": ()}
        tables = {"H": np.array([0.45])}
        comps = []
        for i in range(3):
            c = f"C{i + 1}"
            comps.append(c)
            variables.append(c)
            parents[c] = ("H",)
            tables[c] = np.array([float(rng.uniform(0.2, 0.5)), 1.0])
            variables.append(f"e{i + 1}_1")
            parents[f"e{i + 1}_1"] = (c,)
            tables[f"e{i + 1}_1"] = np.array(
                [float(rng.uniform(0.1, 0.4)), float(rng.uniform(0.6, 0.9))]
            )
            variables.append(f"t{i + 1}")
            parents[f"t{i + 1}"] = (c,)
            tables[f"t{i + 1}"] = np.array(
                [float(rng.uniform(0.1, 0.4)), float(rng.uniform(0.6, 0.9))]
            )
        net = OracleNetwork(
            variables=tuple(variables), parents=parents, tables=tables, name="x3"
        )

        g = empty_graph
        leaf_ids = []
        for i, c in enumerate(comps):
            prior = net.event_prob({c: 1})
            e_table = tables[f"e{i + 1}_1"]
            t_table = tables[f"t{i + 1}"]
            hid = f"v{i}"
            add_leaf(
                g,
                hid,
                items=[(f"e{i}", float(e_table[1] / e_table[0]))],
                prior=prior,
            )
            g.add_evidence(
                EvidenceItem(
                    id=f"t{i}",
                    kind=EvidenceKind.TERRAIN,
                    likelihood_ratio=float(t_table[1] / t_table[0]),
                )
            )
            h = g.get(hid)
            h.own_evidence = h.own_evidence | {f"t{i}"}
            leaf_ids.append(hid)
        add_parent(g, "a0", leaf_ids, prior=0.45)
        propagate_level(g, Level.VEHICLE)
        propagate_level(g, Level.ARRAY)

        oracle_report = check_accrual_formula(net)
        assert g.get("a0").accrual.raw == pytest.approx(
            oracle_report.approx, rel=1e-10
        )
        per_component = g.get("a0").accrual.inputs.per_component
        for i, c in enumerate(comps):
            e_c = [f"e{i + 1}_1"]
            t_c = [f"t{i + 1}"]
            assert per_component[i].p_ce == pytest.approx(
                net.exact_conditional({c: 1}, {v: 1 for v in e_c}), rel=1e-12
            )
            assert per_component[i].p_ct == pytest.approx(
                net.exact_conditional({c: 1}, {v: 1 for v in t_c}), rel=1e-12
            )
            assert per_component[i].p_cet == pytest.approx(
                net.exact_conditional({c: 1}, {v: 1 for v in e_c + t_c}), rel=1e-12
            )

    def test_skipped_component_triggers_direct_path(self, empty_graph):
        g = build_two_leaf_parent(empty_graph)
        propagate_level(g, Level.VEHICLE)
        g.get("v0").status = Status.SKIPPED
        propagate_level(g, Level.ARRAY)
        h = g.get("a0")
        assert h.accrual.direct
        assert h.accrual.inputs == (("e0", 4.0), ("e1", 6.0), ("fit0", 3.0))
        assert h.posterior == direct_posterior(g, "a0")
        expected = posterior_from_evidence(0.3, [4.0, 6.0, 3.0])
        assert h.posterior == pytest.approx(expected, rel=1e-12)


def reference_evaluate(g, hid, keep=None):
    """(posterior, accrual) of ``hid`` on the kept items by the full
    recursion, each component re-derived from its evidence down to the
    leaves: the evaluation that each accrual record, and each belief a
    parent reads, must reproduce exactly."""
    h = g.get(hid)
    if h.is_leaf():
        ratios = [
            g.item(i).likelihood_ratio
            for i in h.own_evidence
            if (keep is None or i in keep) and g.item(i).kind is not EvidenceKind.TERRAIN
        ]
        return posterior_from_evidence(h.prior, ratios), None
    if any(g.get(cid).status is Status.SKIPPED for cid in h.components):
        result = _direct_result(g, hid, keep)
        return result.posterior, result
    per_component = []
    for cid in h.components:
        c = g.get(cid)
        c_keep = None if keep is None else keep & g.evidence_closure(cid)
        p_ce, _ = reference_evaluate(g, cid, c_keep)
        terrain = [
            g.item(i).likelihood_ratio
            for i in c.own_evidence
            if (keep is None or i in keep) and g.item(i).kind is EvidenceKind.TERRAIN
        ]
        p_ct = posterior_from_evidence(c.prior, terrain)
        per_component.append(cb(p_ce, p_ct, _combined_et(p_ce, p_ct, c.prior), c.prior))
    fit_num = fit_den = 1.0
    scores = []
    for item_id in h.own_evidence:
        item = g.item(item_id)
        if item.kind is EvidenceKind.FIT and (keep is None or item_id in keep):
            scores.append(0.5 + 0.5 * float(item.sensor_context["fit_score"]))
            fit_den *= 0.5
    for f in sorted(scores):  # ascending value order
        fit_num *= f
    result = accrue_parent(
        AccrualInputs(
            fit_num=fit_num, fit_den=fit_den, per_component=tuple(per_component), p_h=h.prior
        )
    )
    return result.posterior, result


def run_graph(cfg, monkeypatch):
    """The hypothesis graph and conflict log of ``pipeline.run(cfg)``, as
    they stand when the report is built."""
    seen = []
    build = pipeline._build_report

    def capture(cfg, scenario, g, conflict_log):
        seen.append((g, conflict_log))
        return build(cfg, scenario, g, conflict_log)

    monkeypatch.setattr(pipeline, "_build_report", capture)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # refusals are warned; not the subject here
        pipeline.run(cfg)
    return seen[0]


# grid-noisy seed 2's scene 15 refuses, skips and resolves groups, and
# the parents of its skipped arrays take the direct path
BENCHMARK_SCENES = [("grid-noisy", 2, 15), ("grid-clean", 0, 0)]


class TestStoredBeliefs:
    @pytest.mark.parametrize("workload, seed, scene", BENCHMARK_SCENES)
    def test_pipeline_matches_full_recursion_bit_for_bit(
        self, tmp_path, monkeypatch, workload, seed, scene
    ):
        g, conflict_log = run_graph(perfbench_scene(tmp_path, workload, seed, scene), monkeypatch)
        resolved = {
            m
            for r in conflict_log
            if r.decision is Decision.RESOLVE
            for m in r.conflict_set.members
        }
        for hid, h in g.hypotheses.items():
            post, result = reference_evaluate(g, hid)
            assert h.accrual == result, hid  # raw and every input
            # the belief a parent reads: the record's, or a leaf's product
            assert posterior_given_subset(g, hid, g.evidence_closure(hid)) == post, hid
            if hid not in resolved:
                assert h.posterior == post, hid
        # restricted evaluation: each conflict's k, factor by factor as
        # approx_joint forms it, from the reference
        for r in conflict_log:
            factors, later = {}, set()
            for m in reversed(r.ordering):
                closure = g.evidence_closure(m)
                keep = closure - later
                factors[m] = reference_evaluate(g, m, keep)[0] if keep else g.get(m).prior
                if keep:
                    assert posterior_given_subset(g, m, keep) == factors[m], m
                later |= closure
            k = 1.0
            for f in sorted(factors.values()):  # ascending value order
                k *= f
            assert r.k == k

    def test_accrue_parent_runs_once_per_rule_path_hypothesis(self, tmp_path, monkeypatch):
        cfg = perfbench_scene(tmp_path, "grid-noisy", 2, 15)
        calls = []
        monkeypatch.setattr(
            accrual,
            "accrue_parent",
            lambda inputs, rule=accrual.accrue_parent: calls.append(1) or rule(inputs),
        )
        per_level = {}
        propagate = pipeline.propagate_level

        def counted(g, level):
            before = len(calls)
            propagate(g, level)
            ids = g.at_level(level)
            rule = sum(1 for i in ids if g.get(i).accrual and not g.get(i).accrual.direct)
            direct = sum(1 for i in ids if g.get(i).accrual and g.get(i).accrual.direct)
            per_level[level] = (len(calls) - before, rule, direct, len(ids))

        monkeypatch.setattr(pipeline, "propagate_level", counted)
        with pytest.warns(UserWarning, match="resolution too large"):
            pipeline.run(cfg)
        assert per_level[Level.VEHICLE] == (0, 0, 0, 327)
        for level in (Level.ARRAY, Level.BATTALION):
            n_calls, rule, direct, n = per_level[level]
            assert n_calls == rule and rule + direct == n > 0
        assert per_level[Level.BATTALION][2] > 0  # the direct path is exercised

    def test_repropagating_after_a_status_change_below_refreshes(self, empty_graph):
        g = build_two_leaf_parent(empty_graph)
        add_parent(
            g, "b0", ["a0"], level=Level.BATTALION, force_type="tank-battalion",
            model="tank-battalion-std", prior=0.25,
        )
        for level in (Level.VEHICLE, Level.ARRAY, Level.BATTALION):
            propagate_level(g, level)
        rule_path = g.get("a0").accrual.posterior
        g.get("v0").status = Status.SKIPPED
        propagate_level(g, Level.ARRAY)
        propagate_level(g, Level.BATTALION)
        a0 = g.get("a0")
        assert a0.accrual.direct
        assert a0.accrual.posterior == a0.posterior == direct_posterior(g, "a0")
        assert a0.posterior != rule_path
        assert posterior_given_subset(g, "a0", g.evidence_closure("a0")) == a0.posterior
        assert g.get("b0").accrual.inputs.per_component[0].p_ce == a0.posterior
        assert g.get("b0").accrual.posterior == reference_evaluate(g, "b0")[0]
