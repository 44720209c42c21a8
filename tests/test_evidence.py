import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from echelon.accrual import AccrualInputs, ComponentBelief, accrue_parent, propagate_level
from echelon.conflict import ConflictSet, resolve_exact
from echelon.evidence import EvidenceItem, EvidenceKind, posterior_from_evidence
from echelon.exceptions import DegeneratePriorWarning
from echelon.geometry import centroid, mean_heading
from echelon.hypotheses import HypothesisGraph
from echelon.models import Level
from echelon.oracle import make_two_evidence_network

from conftest import add_leaf, add_parent


class TestEvidenceItem:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_bad_likelihood_ratio(self, bad):
        with pytest.raises(ValueError):
            EvidenceItem(id="x", kind=EvidenceKind.DETECTION, likelihood_ratio=bad)


class TestPosteriorFromEvidence:
    def test_unit_ratio_uninformative(self):
        assert posterior_from_evidence(0.5, [1.0]) == 0.5

    def test_single_ratio(self):
        assert posterior_from_evidence(0.5, [3.0]) == 0.75

    def test_two_ratios_cross_checked_against_oracle(self):
        # lambda 2 = 0.6/0.3, lambda 5 = 0.5/0.1; exact enumeration on the
        # matching network must agree with the odds combiner.
        got = posterior_from_evidence(0.2, [2.0, 5.0])
        net = make_two_evidence_network(0.2, [(0.6, 0.3), (0.5, 0.1)])
        exact = net.exact_conditional({"C1": 1}, {"e1": 1, "e2": 1})
        assert got == pytest.approx(exact, rel=1e-12)
        assert got == pytest.approx(0.2 / 0.8 * 10 / (1 + 0.2 / 0.8 * 10), rel=1e-12)

    def test_empty_items_return_prior(self):
        assert posterior_from_evidence(0.37, []) == 0.37

    @pytest.mark.parametrize("degenerate", [0.0, 1.0])
    def test_degenerate_prior_passthrough(self, degenerate):
        with pytest.warns(DegeneratePriorWarning):
            assert posterior_from_evidence(degenerate, [5.0]) == degenerate

    def test_prior_out_of_range(self):
        with pytest.raises(ValueError):
            posterior_from_evidence(-0.1, [2.0])

    def test_order_invariance(self):
        rng = random.Random(5)
        ratios = [rng.uniform(0.2, 8.0) for _ in range(9)]
        base = posterior_from_evidence(0.3, ratios)
        for _ in range(10):
            rng.shuffle(ratios)
            assert posterior_from_evidence(0.3, ratios) == base

    def test_monotone_in_each_ratio(self):
        ratios = [0.5, 2.0, 1.5]
        base = posterior_from_evidence(0.4, ratios)
        for i in range(len(ratios)):
            bumped = list(ratios)
            bumped[i] *= 1.25
            assert posterior_from_evidence(0.4, bumped) > base

    def test_chaining_identity(self):
        rng = random.Random(11)
        for _ in range(50):
            ratios = [rng.uniform(0.1, 10.0) for _ in range(rng.randint(0, 12))]
            cut = rng.randint(0, len(ratios))
            single = posterior_from_evidence(0.25, ratios)
            staged = posterior_from_evidence(
                posterior_from_evidence(0.25, ratios[:cut]), ratios[cut:]
            )
            assert staged == pytest.approx(single, rel=1e-12)

    def test_many_ratios_follow_the_odds_loop(self):
        # a long product is the odds loop written out, bit for bit
        ratios = [1.3] * 40
        odds = 0.3 / (1.0 - 0.3)
        for lr in ratios:
            odds *= lr
        assert posterior_from_evidence(0.3, ratios) == odds / (1.0 + odds)

    def test_extreme_ratios_stay_in_unit_interval(self):
        assert posterior_from_evidence(0.5, [1e308, 1e308]) == 1.0
        low = posterior_from_evidence(0.5, [1e-300, 1e-300])
        assert 0.0 <= low < 1e-200


PROB = st.floats(0.02, 0.98)
RATIO = st.floats(0.05, 20.0)


def permuted(data, elements, min_size=2):
    """A drawn list of ``elements`` and a drawn permutation of it."""
    values = data.draw(st.lists(elements, min_size=min_size, max_size=8))
    return values, data.draw(st.permutations(values))


class TestArithmeticOrder:
    """A product takes its factors in ascending value order and a sum is
    ``math.fsum``, so every permutation of the inputs, and every naming
    of them, gives the identical float."""

    @given(st.data())
    def test_posterior_from_evidence(self, data):
        prior = data.draw(PROB)
        ratios, shuffled = permuted(data, RATIO)
        assert posterior_from_evidence(prior, shuffled) == posterior_from_evidence(
            prior, ratios
        )

    @given(st.data())
    def test_accrue_parent(self, data):
        beliefs = st.builds(ComponentBelief, PROB, PROB, PROB, PROB)
        components, shuffled = permuted(data, beliefs, min_size=1)
        fit_num, fit_den, p_h = data.draw(st.tuples(PROB, PROB, PROB))
        raws = [
            accrue_parent(AccrualInputs(fit_num, fit_den, tuple(c), p_h)).raw
            for c in (components, shuffled)
        ]
        assert raws[0] == raws[1]

    @given(st.data())
    def test_centroid(self, data):
        # every finite float: a sum past the float range is order-free too
        coordinate = st.floats(allow_nan=False, allow_infinity=False)
        points, shuffled = permuted(data, st.tuples(coordinate, coordinate))
        bits = [tuple(v.hex() for v in centroid(p)) for p in (points, shuffled)]
        assert bits[0] == bits[1]

    @given(st.data())
    def test_mean_heading(self, data):
        headings, shuffled = permuted(data, st.floats(-720.0, 720.0))
        assert mean_heading(shuffled) == mean_heading(headings)

    @given(st.data())
    def test_fit_items_under_renaming(self, data):
        # a parent with several fit items, renamed so that their id
        # order is permuted
        scores = data.draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6))
        rank = data.draw(st.permutations(range(len(scores))))
        posteriors = []
        for name in (lambda i: f"f{i}", lambda i: f"g{rank[i]}"):
            g = HypothesisGraph()
            add_leaf(g, "v0", lam=2.0)
            fits = [
                EvidenceItem(name(i), EvidenceKind.FIT, 1.0, sensor_context={"fit_score": s})
                for i, s in enumerate(scores)
            ]
            add_parent(g, "a0", ["v0"], items=fits)
            propagate_level(g, Level.VEHICLE)
            propagate_level(g, Level.ARRAY)
            posteriors.append(g.get("a0").accrual.raw)
        assert posteriors[0] == posteriors[1]

    @given(st.data())
    def test_resolve_exact_under_renaming(self, data):
        # members m0..m{n-1}, renamed so that their id order is permuted
        n = data.draw(st.integers(2, 6))
        posteriors = data.draw(st.lists(PROB, min_size=n, max_size=n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        rank = data.draw(st.permutations(range(n)))
        beliefs = []
        for name in (lambda i: f"m{i}", lambda i: f"r{rank[i]}"):
            g = HypothesisGraph()
            for i, p in enumerate(posteriors):
                add_leaf(g, name(i), prior=p)
            members = sorted(map(name, range(n)))
            at = {i: members.index(name(i)) for i in range(n)}
            rows = sorted((*sorted((at[i], at[j])), frozenset()) for i, j in edges)
            s = ConflictSet(tuple(members), tuple(rows), Level.VEHICLE)
            origin = {name(i): i for i in range(n)}
            beliefs.append({
                frozenset(map(origin.get, cs.included)): (cs.weight, cs.normalized_belief)
                for cs in resolve_exact(s, g)
            })
        assert beliefs[0] == beliefs[1]
