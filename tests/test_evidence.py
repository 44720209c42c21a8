import math
import random

import pytest

from echelon.evidence import EvidenceItem, EvidenceKind, posterior_from_evidence
from echelon.exceptions import DegeneratePriorWarning
from echelon.oracle import make_two_evidence_network

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
            assert posterior_from_evidence(0.3, ratios) == pytest.approx(
                base, rel=1e-12
            )

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

    def test_ratios_multiply_in_the_order_given(self):
        # float products are not associative: the two orders of these
        # ratios differ in the last bit, and each result is its own loop's
        ratios = [0.5126, 1.013, 0.41, 0.4784]
        results = []
        for order in (ratios, ratios[::-1]):
            odds = 0.5 / (1.0 - 0.5)
            for lr in order:
                odds *= lr
            results.append(posterior_from_evidence(0.5, order))
            assert results[-1] == odds / (1.0 + odds)
        assert results[0] != results[1]

    def test_extreme_ratios_stay_in_unit_interval(self):
        assert posterior_from_evidence(0.5, [1e308, 1e308]) == 1.0
        low = posterior_from_evidence(0.5, [1e-300, 1e-300])
        assert 0.0 <= low < 1e-200
