"""Bottom-up model instantiation.

Child hypotheses are gathered, per model, into single-linkage clusters
at the model's pool radius (``_pool_radius``); inside each cluster every
slot assignment satisfying type subsumption and count bounds is
enumerated exactly and scored on deployment geometry; a cluster with
fewer children than the model's slots need, less ``max_missing``, is
not enumerated, as no assignment can hold so few.  What does not
depend on the cluster is set up once per model and level
(``_Enumeration``): each slot's accepted children, from one
subsumption test per slot type and child type present at the level,
and the constraint checks.  Assignments grow
one child at a time, and with a positive fit threshold a partial
assignment is dropped as soon as one of its pairs has satisfaction 0
under a constraint (outside its interval by the slack margin or more),
since every completion would score 0: the work follows the assignments
that can fit, not every subset of the cluster.  Each pair's satisfaction
is evaluated once per constraint (``_PairTable``), and scoring reads
it back.  Unprunable enumeration is refused past ``MAX_ASSIGNMENTS``
assignments.  ``fills`` runs the same search at no slack to check a
ground-truth node.  Candidates at or above the fit threshold become
parent hypotheses carrying a fit evidence item whose likelihood ratio
rises with geometric fit; a parent is built from one read of each child.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from echelon.evidence import EvidenceItem, EvidenceKind
from echelon.exceptions import MatchTooLargeError
from echelon.geometry import (
    centroid,
    distance,
    heading_difference,
    linked_groups,
    mean_heading,
    near_pairs,
)
from echelon.hypotheses import Hypothesis, HypothesisGraph, Status
from echelon.models import (
    DeploymentConstraint,
    Fields,
    ForceModel,
    Level,
    ModelLibrary,
    field_names,
    shown_name,
    subsumes,
)

MATCHABLE = {Status.ACTIVE, Status.SKIPPED}

# Most slot assignments of one model over one cluster (benchmark scenes
# stay under 30); past it ``match_level`` raises MatchTooLargeError.
MAX_ASSIGNMENTS = 100_000


@dataclass(frozen=True)
class MatchConfig:
    """Knobs of the matcher; all distances in meters.

    slack is the fraction of a constraint's interval width over which
    satisfaction decays linearly to zero outside the interval; rho is
    the per-missing-component score penalty.  Candidates scoring below
    min_fit are dropped.  A pair outside a constraint's interval by at
    least the slack margin (or past bearing_tolerance by at least its
    margin) makes the fit 0: with min_fit > 0 an assignment holding one
    is never scored, while min_fit 0 keeps such zero-fit candidates.
    """

    gather_radius: float = 1500.0
    min_fit: float = 0.1
    max_missing: int = 0
    rho: float = 0.5
    slack: float = 0.25
    lambda_max: float = 9.0

    def __post_init__(self) -> None:
        for key, ok, kind in (
            ("gather_radius", self.gather_radius > 0.0, "> 0"),
            ("min_fit", 0.0 <= self.min_fit <= 1.0, "in [0, 1]"),
            ("max_missing", self.max_missing >= 0, ">= 0"),
            ("rho", 0.0 < self.rho <= 1.0, "in (0, 1]"),
            ("slack", self.slack >= 0.0, ">= 0"),
            ("lambda_max", self.lambda_max > 1.0, "> 1"),
        ):
            if not ok:
                raise ValueError(
                    f"matcher config: {key} must be {kind}, got {getattr(self, key)!r}"
                )

    @classmethod
    def from_dict(cls, raw: object) -> "MatchConfig":
        """The matcher block of a run config, read strictly (``Fields``):
        ValueError naming the key.  Values pass through as given, so the
        report echoes them as written."""
        f = Fields(raw, field_names(cls), "matcher config", ValueError)
        return cls(**f.numbers(cls, as_given=True))


@dataclass(slots=True)
class MatchCandidate:
    """One enumerated model instantiation over child hypotheses.  The
    assignment is fixed at creation, which sorts its children once."""

    model: ForceModel
    assignment: dict[int, tuple[str, ...]]
    fit_score: float
    missing_slots: int
    _children: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._children = tuple(
            sorted(itertools.chain.from_iterable(self.assignment.values()))
        )

    def children(self) -> tuple[str, ...]:
        """Every slot's children, id-sorted."""
        return self._children


def _interval_satisfaction(d: float, lo: float, hi: float, slack: float) -> float:
    if lo <= d <= hi:
        return 1.0
    margin = slack * (hi - lo)
    if margin <= 0.0:
        return 0.0
    delta = (lo - d) if d < lo else (d - hi)
    return max(0.0, 1.0 - delta / margin)


def _geometric_mean(values: list[float]) -> float:
    if not values:
        return 1.0
    if 0.0 in values:
        return 0.0
    if values.count(1.0) == len(values):
        return 1.0
    return math.exp(math.fsum(map(math.log, values)) / len(values))


def _pair_satisfaction(
    hu: Hypothesis, hv: Hypothesis, c: DeploymentConstraint, slack: float
) -> float:
    """Satisfaction of one child pair under constraint ``c``, in [0, 1].

    Distances inside the interval satisfy fully; outside, satisfaction
    decays linearly over the slack margin.  When both headings are
    known, a heading difference beyond bearing_tolerance scales it down
    the same way.  Symmetric in the pair.
    """
    s = _interval_satisfaction(
        distance(hu.location, hv.location), c.distance_min, c.distance_max, slack
    )
    if (
        c.bearing_tolerance is not None
        and hu.heading is not None
        and hv.heading is not None
    ):
        diff = heading_difference(hu.heading, hv.heading)
        s *= _interval_satisfaction(diff, 0.0, c.bearing_tolerance, slack)
    return s


class _PairTable:
    """Pair satisfaction under one model's constraints, each unordered
    pair evaluated at most once per constraint; ``g`` is the graph, or
    the children by id (``fills``)."""

    def __init__(self, g: HypothesisGraph | dict, model: ForceModel, slack: float) -> None:
        self._g = g
        self._constraints = model.constraints
        self._slack = slack
        self._memo: list[dict[tuple[str, str], float]] = [
            {} for _ in model.constraints
        ]

    def __call__(self, ci: int, u: str, v: str) -> float:
        key = (u, v) if u <= v else (v, u)
        memo = self._memo[ci]
        s = memo.get(key)
        if s is None:
            s = memo[key] = _pair_satisfaction(
                self._g.get(key[0]),
                self._g.get(key[1]),
                self._constraints[ci],
                self._slack,
            )
        return s

    def values(
        self, ci: int, ids_a: tuple[str, ...], ids_b: tuple[str, ...] | None
    ) -> list[float]:
        """Satisfaction of every pair constraint ``ci`` applies to: the
        distinct pairs of ``ids_a`` when ``ids_b`` is None, else every
        pair across the two, in ``itertools`` order."""
        return [
            self(ci, u, v)
            for k, u in enumerate(ids_a)
            for v in (ids_a[k + 1 :] if ids_b is None else ids_b)
        ]


def _score(
    model: ForceModel,
    assignment: dict[int, tuple[str, ...]],
    rho: float,
    sat: _PairTable,
) -> float:
    get = assignment.get
    per_constraint: list[float] = []
    for ci, c in enumerate(model.constraints):
        ids_b = None if c.slot_a == c.slot_b else get(c.slot_b, ())
        values = sat.values(ci, get(c.slot_a, ()), ids_b)
        if values:
            per_constraint.append(_geometric_mean(values))
    missing = 0
    for i, slot in enumerate(model.slots):
        short = slot.count_min - len(get(i, ()))
        if short > 0:
            missing += short
    return _geometric_mean(per_constraint) * rho**missing


def fit_score(
    g: HypothesisGraph,
    model: ForceModel,
    assignment: dict[int, tuple[str, ...]],
    cfg: MatchConfig,
) -> float:
    """Geometric mean of per-constraint satisfaction, penalized rho per
    missing required component.

    A constraint applies to every cross pair of its two slots (distinct
    pairs when both indices match); a constraint with fewer than one
    applicable pair is skipped.  Distances inside the interval satisfy
    fully; outside, satisfaction decays linearly over the slack margin.
    Pair heading differences are held to bearing_tolerance the same
    way.  The score depends only on relative geometry, so it is
    invariant under rigid motions of the children.
    """
    return _score(model, assignment, cfg.rho, _PairTable(g, model, cfg.slack))


def _clusters(
    g: HypothesisGraph, ids: list[str], radius: float
) -> list[list[str]]:
    """Connected components of the graph joining children at most
    ``radius`` apart (``near_pairs``), each id-sorted, ordered by their
    first id; ``ids`` is id-sorted.  ``linked_groups`` lists each group's
    indices ascending, so its ids come in order, unsorted.
    """
    locations = [g.get(i).location for i in ids]
    pairs = near_pairs(locations, radius)
    groups = [[ids[i] for i in group] for group in linked_groups(len(ids), pairs)]
    groups.sort()  # by first id, as the groups are disjoint
    return groups


def _pool_radius(model: ForceModel, cfg: MatchConfig) -> float:
    """``gather_radius``, or, when ``min_fit > 0`` and a constraint links
    every pair of slots a candidate can fill, the smaller of it and the
    model's extent: the largest ``d_max + slack * (d_max - d_min)``,
    padded by a few ulps so that rounding loses no candidate."""
    linked = {frozenset((c.slot_a, c.slot_b)) for c in model.constraints}
    holding = [i for i, slot in enumerate(model.slots) if slot.count_max >= 1]
    constrained = all(
        frozenset((a, b)) in linked
        for a, b in itertools.combinations_with_replacement(holding, 2)
        if a != b or model.slots[a].count_max >= 2
    )
    extent = max(
        (c.distance_max + cfg.slack * (c.distance_max - c.distance_min)
         for c in model.constraints),
        default=0.0,
    )
    if cfg.min_fit <= 0.0 or not constrained or extent == 0.0:
        return cfg.gather_radius
    return min(cfg.gather_radius, extent + 4.0 * math.ulp(extent))


class _Enumeration:
    """Slot assignments of one model over the clusters of one level.

    Set up once per model and level: the children each slot accepts,
    from ``fits``, a memo of ``subsumes`` per (slot type, child type)
    that the level's models share, and the constraint checks of the
    pruning.  ``by_type`` holds the level's child ids by force type.
    Its generators are methods, not nested functions: a nested function
    that calls itself is a reference cycle, and one holding ``sat`` would
    keep the whole hypothesis graph alive until the cyclic garbage
    collector runs.
    """

    def __init__(
        self,
        lib: ModelLibrary,
        model: ForceModel,
        by_type: dict[str, list[str]],
        cfg: MatchConfig,
        sat: _PairTable,
        fits: dict[tuple[str, str], bool],
    ) -> None:
        self.slots = model.slots
        self.sat = sat
        self.max_missing = cfg.max_missing
        # per slot, the ids it accepts
        self.accepts: list[frozenset[str]] = []
        for s in model.slots:
            accepted = []
            for child_type, ids in by_type.items():
                key = (s.required_type, child_type)
                fit = fits.get(key)
                if fit is None:
                    fit = fits[key] = subsumes(*key, lib)
                if fit:
                    accepted.append(ids)
            self.accepts.append(frozenset(itertools.chain.from_iterable(accepted)))
        # the constraints checked when a child joins a slot, each at the
        # later of its two slots: within the slot (same) or against the
        # children of an earlier slot (cross, with that slot's index)
        self.same: list[list[int]] = [[] for _ in model.slots]
        self.cross: list[list[tuple[int, int]]] = [[] for _ in model.slots]
        if cfg.min_fit > 0:
            for ci, c in enumerate(model.constraints):
                later, earlier = max(c.slot_a, c.slot_b), min(c.slot_a, c.slot_b)
                if later == earlier:
                    self.same[later].append(ci)
                else:
                    self.cross[later].append((ci, earlier))

    def assignments(self, pool: list[str]):
        """Slot assignments over ``pool`` (id-sorted) short of at most
        ``cfg.max_missing`` required components, as (assignment, missing)
        pairs.

        Slots are filled in order; each slot takes sizes ascending and,
        per size, combinations in lexicographic pool order (the order of
        ``itertools.combinations``), grown one child at a time.  When
        ``cfg.min_fit > 0``, a partial assignment is dropped as soon as a
        new child's pair with a child already in its slot or in an earlier
        slot has satisfaction (``sat``) exactly 0.0 under some constraint:
        every completion would score exactly 0, below ``min_fit``.  A
        child with such a pair in an earlier slot is left out of the
        slot's candidates at once.
        """
        eligible = [[c for c in pool if c in ok] for ok in self.accepts]
        return self.rec(eligible, 0, frozenset(), 0, {})

    def combos(self, avail: list[str], size: int, same: list[int]):
        """The ``size``-subsets of ``avail`` in ``itertools.combinations``
        order, less every one holding a pair with satisfaction exactly 0.0
        under a constraint in ``same``.  One loop over a stack of chosen
        indices: a child joins when, constraint by constraint and then
        child by child in the order chosen, no pair with the children
        already chosen is 0.0, the first such pair ending its checks."""
        if size == 0:
            yield ()
            return
        sat = self.sat
        room = len(avail) - size
        chosen: list[str] = []
        stack: list[int] = []
        i = 0
        while True:
            # the last index the next child can take and still leave
            # room for the rest
            stop = room + len(stack)
            while i <= stop:
                x = avail[i]
                # x joins (the outer else) unless some pair is 0.0
                for ci in same:
                    for y in chosen:
                        if sat(ci, x, y) == 0.0:
                            break
                    else:
                        continue
                    break
                else:
                    break
                i += 1
            if i <= stop:
                chosen.append(x)
                stack.append(i)
                if len(stack) < size:
                    i += 1
                    continue
                yield tuple(chosen)
            elif not stack:
                return
            chosen.pop()
            i = stack.pop() + 1

    def rec(
        self, eligible: list[list[str]], slot_idx: int, used: frozenset[str],
        missing: int, acc: dict,
    ):
        sat, cross = self.sat, self.cross[slot_idx]
        avail = eligible[slot_idx]
        if used or cross:
            avail = [
                x for x in avail
                if x not in used
                and all(sat(ci, x, y) != 0.0 for ci, other in cross for y in acc[other])
            ]
        slot = self.slots[slot_idx]
        last = slot_idx + 1 == len(self.slots)
        # sizes that leave at most max_missing required components out
        lowest = max(0, slot.count_min - (self.max_missing - missing))
        for size in range(lowest, min(slot.count_max, len(avail)) + 1):
            short = max(0, slot.count_min - size)
            for combo in self.combos(avail, size, self.same[slot_idx]):
                acc[slot_idx] = combo
                if not last:
                    yield from self.rec(
                        eligible, slot_idx + 1, used | set(combo), missing + short, acc
                    )
                elif any(acc.values()):
                    yield dict(acc), missing + short
        acc.pop(slot_idx, None)


def match_level(
    g: HypothesisGraph,
    lib: ModelLibrary,
    level: Level,
    cfg: MatchConfig,
) -> list[MatchCandidate]:
    """All candidates at ``level`` meeting the fit and missing bounds.

    Output order is deterministic (descending fit, then model name,
    then child ids) and invariant to child insertion order.  A cluster
    with fewer children than any assignment of a model holds is not
    enumerated for that model.
    """
    if level == Level.VEHICLE:
        raise ValueError("vehicle level has no child level to match against")
    child_ids = sorted(g.at_level(Level(level - 1), statuses=MATCHABLE))
    models = lib.models_at(level)
    if not child_ids or not models:
        return []

    by_type: dict[str, list[str]] = {}
    for i in child_ids:
        by_type.setdefault(g.get(i).force_type, []).append(i)
    fits: dict[tuple[str, str], bool] = {}
    candidates: list[MatchCandidate] = []
    for model in models:
        sat = _PairTable(g, model, cfg.slack)
        enumeration = _Enumeration(lib, model, by_type, cfg, sat, fits)
        # no assignment holds fewer children: at least one, and each slot
        # at least its count_min less what it leaves missing
        fewest = max(1, sum(s.count_min for s in model.slots) - cfg.max_missing)
        for cluster in _clusters(g, child_ids, _pool_radius(model, cfg)):
            if len(cluster) < fewest:
                continue
            for n, (assignment, missing) in enumerate(
                enumeration.assignments(cluster), 1
            ):
                if n > MAX_ASSIGNMENTS:
                    raise MatchTooLargeError(
                        f"model {shown_name(model.name)}: a cluster of "
                        f"{len(cluster)} children has over {MAX_ASSIGNMENTS} "
                        "slot assignments"
                    )
                score = _score(model, assignment, cfg.rho, sat)
                if score >= cfg.min_fit:
                    candidates.append(
                        MatchCandidate(
                            model=model,
                            assignment=assignment,
                            fit_score=score,
                            missing_slots=missing,
                        )
                    )
    candidates.sort(key=lambda c: (-c.fit_score, c.model.name, c.children()))
    return candidates


# The matcher at zero slack: a constrained pair satisfies exactly 1 or 0,
# and at min_fit 1 a pair of 0 prunes every assignment holding it.
_EXACT = MatchConfig(min_fit=1.0, max_missing=0, slack=0.0)


def fills(lib: ModelLibrary, model: ForceModel, kids: list[Hypothesis], fits: dict) -> bool:
    """True when some slot assignment of ``model`` uses every one of
    ``kids`` (distinct ids) and holds every slot bound and deployment
    constraint exactly: ``match_level``'s search over one cluster at
    ``_EXACT``, whose every assignment fits.  ``fits`` is the
    ``subsumes`` memo, shared as ``match_level`` shares it; past
    ``MAX_ASSIGNMENTS`` assignments, MatchTooLargeError as there."""
    if len(kids) > sum(s.count_max for s in model.slots):
        return False  # without a search, which could pass MAX_ASSIGNMENTS
    by_id = {k.id: k for k in kids}
    by_type: dict[str, list[str]] = {}
    for k in kids:
        by_type.setdefault(k.force_type, []).append(k.id)
    sat = _PairTable(by_id, model, _EXACT.slack)
    enumeration = _Enumeration(lib, model, by_type, _EXACT, sat, fits)
    for n, (assignment, _) in enumerate(enumeration.assignments(sorted(by_id)), 1):
        if n > MAX_ASSIGNMENTS:
            raise MatchTooLargeError(
                f"model {shown_name(model.name)}: its {len(kids)} children have "
                f"over {MAX_ASSIGNMENTS} slot assignments"
            )
        if sum(map(len, assignment.values())) == len(kids):
            return True
    return False


def candidate_to_hypothesis(
    g: HypothesisGraph,
    lib: ModelLibrary,
    c: MatchCandidate,
    cfg: MatchConfig,
) -> tuple[Hypothesis, EvidenceItem]:
    """Build the parent hypothesis and its fit evidence item.

    The fit likelihood ratio is lambda_max ** (2*fit - 1): confirming
    above fit 0.5, uninformative at 0.5, disconfirming below.  Neither
    object is registered with the graph; the caller owns insertion.
    """
    model, fit_score, children = c.model, c.fit_score, c.children()
    if fit_score < cfg.min_fit:
        raise ValueError(
            f"candidate below fit threshold: {fit_score} < {cfg.min_fit}"
        )
    kids = [g.get(i) for i in children]
    item = EvidenceItem(
        "f:" + model.name + ":" + "+".join(children),  # id
        EvidenceKind.FIT,
        cfg.lambda_max ** (2.0 * fit_score - 1.0),  # likelihood_ratio
        None,  # location
        {"fit_score": fit_score},  # sensor_context
    )
    # by position, in field order, as ``build_graph`` builds its leaves
    h = Hypothesis(
        "",  # id, assigned at insert
        model.models_type,  # force_type
        lib.type_of(model.models_type).level,
        centroid([k.location for k in kids]),  # location
        max([k.time for k in kids], default=0.0),  # time
        model.name,  # model
        children,  # components
        frozenset((item.id,)),  # own_evidence
        model.prior,  # prior
        model.prior,  # posterior
        mean_heading([k.heading for k in kids if k.heading is not None]),
    )
    return h, item
