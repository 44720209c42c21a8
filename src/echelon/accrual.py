"""Hierarchical belief accrual.

A parent force's posterior combines, per component: belief given that
component's evidence, belief given its terrain, their joint, and the
priors, times a formation-fit ratio.  The rule is a ratio product:

    raw = (fit_num / fit_den)
          * prod_i [ p_ce_i * p_ct_i / p_cet_i * p_h / p_c_i**2 ]

computed exactly as written, never normalized: raw > 1 on legal inputs
is reported via ``out_of_range`` because it signals that the
independence assumptions behind the rule are violated by the data.
Each result keeps the rule's inputs, so any reported posterior can be
recomputed from the report alone.

Restricted evaluation (``posterior_given_subset``) recomputes any
hypothesis bottom-up using only a subset of its evidence closure; the
conflict analysis relies on it.  Restriction removes information, so an
absent fit item neutralizes the fit ratio rather than disconfirming.

Each hypothesis is accrued once: ``propagate_level`` stores its
belief, P(H | its whole closure) before conflict resolution, in
``Hypothesis.belief``, and a non-leaf's rule inputs in
``Hypothesis.accrual``.  A parent reads each component's stored belief
as its P(C|e), leaves included, and so does restricted evaluation when
a whole closure is kept.  Only a strict subset of a closure, or a
hypothesis never propagated (as in hand-built graphs), is derived from
its evidence by the recursion.

A fit item with geometric score s contributes fit_num factor
0.5 + 0.5*s and fit_den factor 0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from echelon.evidence import (
    EvidenceKind, from_odds, odds, posterior_from_evidence, product
)
from echelon.exceptions import (
    AccrualDomainError,
    EvidenceResolutionError,
    SubsetError,
)
from echelon.hypotheses import Hypothesis, HypothesisGraph, Status
from echelon.models import Level


class ComponentBelief(NamedTuple):
    """Per-component inputs: P(C|e), P(C|t), P(C|e,t), P(C)."""

    p_ce: float
    p_ct: float
    p_cet: float
    p_c: float


@dataclass(frozen=True, slots=True)
class AccrualInputs:
    """Validated inputs of the parent update rule."""

    fit_num: float
    fit_den: float
    per_component: tuple[ComponentBelief, ...]
    p_h: float

    def __post_init__(self) -> None:
        fit_num, fit_den, p_h = self.fit_num, self.fit_den, self.p_h
        if not (0.0 <= fit_num <= 1.0 and 0.0 <= fit_den <= 1.0 and 0.0 <= p_h <= 1.0):
            _refuse_outside_unit("", _RULE_FIELDS, (fit_num, fit_den, p_h))
        if fit_den == 0.0:
            raise AccrualDomainError("fit_den is zero")
        for i, cb in enumerate(self.per_component):
            p_ce, p_ct, p_cet, p_c = cb.p_ce, cb.p_ct, cb.p_cet, cb.p_c
            if not (
                0.0 <= p_ce <= 1.0 and 0.0 <= p_ct <= 1.0
                and 0.0 <= p_cet <= 1.0 and 0.0 <= p_c <= 1.0
            ):
                _refuse_outside_unit(
                    f"component {i}: ", _COMPONENT_FIELDS, (p_ce, p_ct, p_cet, p_c)
                )
            if p_cet * (p_c * p_c) == 0.0:  # a zero factor, or underflow
                raise AccrualDomainError(
                    f"component {i}: p_cet * p_c**2 is zero "
                    f"(p_cet {p_cet!r}, p_c {p_c!r})"
                )


_RULE_FIELDS = ("fit_num", "fit_den", "p_h")
_COMPONENT_FIELDS = ("p_ce", "p_ct", "p_cet", "p_c")


def _refuse_outside_unit(
    where: str, names: tuple[str, ...], values: tuple[float, ...]
) -> None:
    """ValueError naming the first of ``values`` outside [0, 1], NaN included."""
    for name, val in zip(names, values):
        if not (0.0 <= val <= 1.0):
            raise ValueError(f"{where}{name} outside [0,1]: {val!r}")


class AccrualResult(NamedTuple):
    """The unclamped rule value and what produced it.

    ``inputs`` is the validated ``AccrualInputs`` on the rule path, or
    the closure's (item id, likelihood ratio) pairs on the direct,
    level-skipping path, where ``raw`` is the odds-product posterior.
    Either recomputes ``raw`` exactly, so the report needs nothing else.
    """

    raw: float
    inputs: AccrualInputs | tuple[tuple[str, float], ...]

    @property
    def posterior(self) -> float:
        return min(self.raw, 1.0)

    @property
    def out_of_range(self) -> bool:
        return self.raw > 1.0

    @property
    def direct(self) -> bool:
        return not isinstance(self.inputs, AccrualInputs)


def accrue_parent(inputs: AccrualInputs) -> AccrualResult:
    """Run the ratio-product rule exactly as written.

    Per-component factors group as (p_ce*p_ct*p_h) / (p_cet*(p_c*p_c)),
    so all-equal inputs cancel to exactly 1.0 in float arithmetic.  A
    value past the float range raises ``AccrualDomainError``.
    """
    fit_ratio = inputs.fit_num / inputs.fit_den
    p_h = inputs.p_h
    brackets = [
        (c.p_ce * c.p_ct * p_h) / (c.p_cet * (c.p_c * c.p_c))
        for c in inputs.per_component
    ]
    raw = product([fit_ratio, *brackets])
    if not math.isfinite(raw):
        raise AccrualDomainError(
            f"accrual overflows the float range: fit ratio {fit_ratio!r} "
            f"times {len(inputs.per_component)} component factors gives {raw!r}"
        )
    return AccrualResult(raw, inputs)


def _combined_et(p_ce: float, p_ct: float, p_c: float) -> float:
    """Joint of evidence- and terrain-conditioned beliefs, by odds.

    When either side is 0 the component factor is already annihilated
    (zero numerator), so 1.0 is returned purely to keep the inputs
    valid.
    """
    if p_ce == 0.0 or p_ct == 0.0:
        return 1.0
    if p_ce == 1.0 or p_ct == 1.0:
        return 1.0
    return from_odds(odds(p_ce) * odds(p_ct) / odds(p_c))


def _direct_result(
    g: HypothesisGraph, hid: str, keep: frozenset[str] | None
) -> AccrualResult:
    """The level-skipping path: each kept closure item's likelihood ratio
    acts straight on the force prior, component structure ignored."""
    h = g.get(hid)
    ratios = tuple(
        (i, g.item(i).likelihood_ratio)
        for i in sorted(g.evidence_closure(hid))
        if keep is None or i in keep
    )
    post = posterior_from_evidence(h.prior, [lr for _, lr in ratios])
    return AccrualResult(raw=post, inputs=ratios)


def _belief(g: HypothesisGraph, h: Hypothesis, keep: frozenset[str] | None) -> float:
    """P(h | the kept part of its closure): its stored belief when the
    whole closure is kept and it has one, else the recursion.  ``keep``
    is None or a subset of the closure, so equal size means all of it."""
    if h.belief is not None and (
        keep is None or len(keep) == len(g.evidence_closure(h.id))
    ):
        return h.belief
    return _evaluate(g, h, keep)[0]


def _evaluate(
    g: HypothesisGraph,
    h: Hypothesis,
    keep: frozenset[str] | None,
) -> tuple[float, AccrualResult | None]:
    """P(h | the kept items of its closure) and the accrual behind it: a
    leaf's odds product over its non-terrain evidence (no record), or a
    parent's rule or direct path over its components, each read once.
    The item sets are iterated in hash order, which ``product`` makes
    harmless."""
    terrain = g.terrain
    own = h.own_evidence if keep is None else h.own_evidence & keep
    if h.is_leaf():
        detections = own - terrain if terrain else own
        ratios = [g.item(i).likelihood_ratio for i in detections]
        return posterior_from_evidence(h.prior, ratios), None

    components = [g.get(cid) for cid in h.components]
    if any(c.status is Status.SKIPPED for c in components):
        result = _direct_result(g, h.id, keep)
        return result.posterior, result

    per_component = []
    for c in components:
        p_c = c.prior
        p_ce = _belief(g, c, None if keep is None else keep & g.evidence_closure(c.id))
        ratios = ()
        if terrain:  # the component's own terrain items, scanned only when any exist
            c_terrain = c.own_evidence & terrain
            ratios = [
                g.item(i).likelihood_ratio
                for i in (c_terrain if keep is None else c_terrain & keep)
            ]
        p_ct = posterior_from_evidence(p_c, ratios)
        p_cet = _combined_et(p_ce, p_ct, p_c)
        per_component.append(ComponentBelief(p_ce, p_ct, p_cet, p_c))

    # a fit item outside ``keep`` is absent, not disconfirming:
    # restriction removes information, not injects it
    scores = []
    for item_id in own:
        item = g.item(item_id)
        if item.kind is not EvidenceKind.FIT:
            continue
        score = item.sensor_context.get("fit_score")
        if score is None:
            raise EvidenceResolutionError(
                f"fit item {item_id!r} lacks a fit_score in sensor_context"
            )
        scores.append(0.5 + 0.5 * float(score))

    inputs = AccrualInputs(
        product(scores), 0.5 ** len(scores), tuple(per_component), h.prior
    )
    result = accrue_parent(inputs)
    return result.posterior, result


def posterior_given_subset(
    g: HypothesisGraph, hid: str, keep: frozenset[str]
) -> float:
    """Recompute a posterior bottom-up using only the items in ``keep``.

    ``keep`` must be a subset of the hypothesis's evidence closure.
    Restricting to the full closure gives the belief ``propagate_level``
    stored, from before conflict resolution (identical arithmetic path).
    """
    closure = g.evidence_closure(hid)
    if not keep <= closure:
        extra = sorted(keep - closure)
        raise SubsetError(f"{hid}: items {extra} are outside the evidence closure")
    return _belief(g, g.get(hid), keep)


def propagate_level(g: HypothesisGraph, level: Level) -> None:
    """Recompute and store posteriors for every hypothesis at a level.

    Levels must be propagated bottom-up; hypotheses whose components
    were skipped by conflict handling accrue via the direct path.

    Each hypothesis's ``belief``, which parents and restricted
    evaluation read in place of the recursion, and each non-leaf's
    ``accrual`` record are written here only, and re-propagating a
    level overwrites them.  They stay exact while nothing they depend
    on changes: the hypothesis's evidence and prior and the statuses of
    its components and their descendants.
    Conflict handling changes only the statuses and posteriors of the
    level it decides, after that level is propagated and before the next
    one is.  A caller that changes any of these below a propagated level
    must re-propagate every level from the change up.
    """
    hypotheses = g.hypotheses
    for hid in g.at_level(level):
        h = hypotheses[hid]
        h.belief, h.accrual = _evaluate(g, h, None)
        h.posterior = h.belief
