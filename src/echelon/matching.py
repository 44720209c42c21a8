"""Bottom-up model instantiation.

Child hypotheses are gathered, per model, into single-linkage clusters
at the model's pool radius (``_pool_radius``); inside each cluster every
slot assignment satisfying type subsumption and count bounds is
enumerated exactly and scored on deployment geometry.  Assignments grow
one child at a time, and with a positive fit threshold a partial
assignment is dropped as soon as one of its pairs has satisfaction 0
under a constraint (outside its interval by the slack margin or more),
since every completion would score 0: the work follows the assignments
that can fit, not every subset of the cluster.  Unprunable enumeration
is refused past ``MAX_ASSIGNMENTS`` assignments.
Candidates at or above the fit threshold become parent hypotheses
carrying a fit evidence item whose likelihood ratio rises with
geometric fit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from echelon.evidence import EvidenceItem, EvidenceKind, EvidenceSet
from echelon.exceptions import MatchTooLargeError
from echelon.geometry import (
    centroid,
    distance,
    heading_difference,
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
        if self.gather_radius <= 0:
            raise ValueError("gather_radius must be positive")
        if not (0.0 <= self.min_fit <= 1.0):
            raise ValueError("min_fit outside [0,1]")
        if self.max_missing < 0:
            raise ValueError("max_missing must be >= 0")
        if not (0.0 < self.rho <= 1.0):
            raise ValueError("rho outside (0,1]")
        if self.slack < 0.0:
            raise ValueError("slack must be nonnegative")
        if self.lambda_max <= 1.0:
            raise ValueError("lambda_max must exceed 1")

    @classmethod
    def from_dict(cls, raw: object) -> "MatchConfig":
        """The matcher block of a run config, read strictly (``Fields``):
        ValueError naming the key.  Values pass through as given, so the
        report echoes them as written."""
        f = Fields(raw, field_names(cls), "matcher config", ValueError)
        return cls(**f.numbers(cls, as_given=True))


@dataclass
class MatchCandidate:
    """One enumerated model instantiation over child hypotheses."""

    model: ForceModel
    assignment: dict[int, tuple[str, ...]]
    fit_score: float
    missing_slots: int

    def children(self) -> tuple[str, ...]:
        return tuple(sorted(itertools.chain.from_iterable(self.assignment.values())))


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
    if any(v == 0.0 for v in values):
        return 0.0
    if all(v == 1.0 for v in values):
        return 1.0
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


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
        if diff > c.bearing_tolerance:
            margin = slack * c.bearing_tolerance
            if margin <= 0.0:
                s = 0.0
            else:
                s *= max(0.0, 1.0 - (diff - c.bearing_tolerance) / margin)
    return s


class _PairTable:
    """Pair satisfaction under one model's constraints, each unordered
    pair evaluated at most once per constraint."""

    def __init__(self, g: HypothesisGraph, model: ForceModel, slack: float) -> None:
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


def _score(
    model: ForceModel,
    assignment: dict[int, tuple[str, ...]],
    rho: float,
    sat: _PairTable,
) -> float:
    per_constraint: list[float] = []
    for ci, c in enumerate(model.constraints):
        ids_a = assignment.get(c.slot_a, ())
        ids_b = assignment.get(c.slot_b, ())
        if c.slot_a == c.slot_b:
            pairs = list(itertools.combinations(ids_a, 2))
        else:
            pairs = [(u, v) for u in ids_a for v in ids_b]
        if not pairs:
            continue
        per_constraint.append(_geometric_mean([sat(ci, u, v) for u, v in pairs]))

    missing = sum(
        max(0, slot.count_min - len(assignment.get(i, ())))
        for i, slot in enumerate(model.slots)
    )
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
    ``radius`` apart, each id-sorted, ordered by their first id.

    Candidate pairs come from a uniform grid with cell ``radius``
    (``near_pairs``), a conservative filter; the distance test decides.
    """
    locations = [g.get(i).location for i in ids]
    parent = list(range(len(ids)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    first, second = near_pairs(locations, radius)
    for a, b in zip(first.tolist(), second.tolist()):
        if distance(locations[a], locations[b]) <= radius:
            parent[find(a)] = find(b)
    groups: dict[int, list[str]] = {}
    for n, i in enumerate(ids):
        groups.setdefault(find(n), []).append(i)
    return sorted((sorted(members) for members in groups.values()), key=lambda m: m[0])


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


def _enumerate_assignments(
    g: HypothesisGraph,
    lib: ModelLibrary,
    model: ForceModel,
    pool: list[str],
    cfg: MatchConfig,
    sat: _PairTable,
):
    """Slot assignments over ``pool`` short of at most ``cfg.max_missing``
    required components, as (assignment, missing) pairs.

    Slots are filled in order; each slot takes sizes ascending and, per
    size, combinations in lexicographic pool order (the order of
    ``itertools.combinations``), grown one child at a time.  When
    ``cfg.min_fit > 0``, a partial assignment is dropped as soon as a
    new child's pair with a child already in its slot or in an earlier
    slot has satisfaction (``sat``) exactly 0.0 under some constraint:
    every completion would score exactly 0, below ``min_fit``.
    """
    fits: dict[tuple[str, str], bool] = {}  # (slot type, child type) -> subsumes
    eligible: list[list[str]] = []
    for s in model.slots:
        row = []
        for c in pool:
            key = (s.required_type, g.get(c).force_type)
            fit = fits.get(key)
            if fit is None:
                fit = fits[key] = subsumes(*key, lib)
            if fit:
                row.append(c)
        eligible.append(row)
    # (constraint index, other slot) checked when a child joins a slot:
    # each constraint once, at the later of its two slots
    checks: list[list[tuple[int, int]]] = [[] for _ in model.slots]
    if cfg.min_fit > 0:
        for ci, c in enumerate(model.constraints):
            later, earlier = max(c.slot_a, c.slot_b), min(c.slot_a, c.slot_b)
            checks[later].append((ci, earlier))

    yield from _Enumeration(model, eligible, checks, sat, cfg.max_missing).rec(
        0, frozenset(), 0, {}
    )


class _Enumeration:
    """The recursion of ``_enumerate_assignments``.  Its generators are
    methods, not nested functions: a nested function that calls itself is
    a reference cycle, and one holding ``sat`` would keep the whole
    hypothesis graph alive until the cyclic garbage collector runs."""

    def __init__(self, model, eligible, checks, sat, max_missing) -> None:
        self.slots = model.slots
        self.eligible = eligible
        self.checks = checks
        self.sat = sat
        self.max_missing = max_missing

    def combos(
        self, slot_idx: int, avail: list[str], size: int, acc: dict, chosen=(), start=0
    ):
        if len(chosen) == size:
            yield chosen
            return
        for i in range(start, len(avail) - size + len(chosen) + 1):
            x = avail[i]
            if all(
                self.sat(ci, x, y) != 0.0
                for ci, other in self.checks[slot_idx]
                for y in (chosen if other == slot_idx else acc[other])
            ):
                yield from self.combos(slot_idx, avail, size, acc, chosen + (x,), i + 1)

    def rec(self, slot_idx: int, used: frozenset[str], missing: int, acc: dict):
        if slot_idx == len(self.slots):
            if any(acc.values()):
                yield dict(acc), missing
            return
        slot = self.slots[slot_idx]
        avail = [c for c in self.eligible[slot_idx] if c not in used]
        for size in range(0, min(slot.count_max, len(avail)) + 1):
            short = max(0, slot.count_min - size)
            if missing + short > self.max_missing:
                continue
            for combo in self.combos(slot_idx, avail, size, acc):
                acc[slot_idx] = combo
                yield from self.rec(slot_idx + 1, used | set(combo), missing + short, acc)
        acc.pop(slot_idx, None)


def match_level(
    g: HypothesisGraph,
    lib: ModelLibrary,
    level: Level,
    cfg: MatchConfig,
) -> list[MatchCandidate]:
    """All candidates at ``level`` meeting the fit and missing bounds.

    Output order is deterministic (descending fit, then model name,
    then child ids) and invariant to child insertion order.
    """
    if level == Level.VEHICLE:
        raise ValueError("vehicle level has no child level to match against")
    child_ids = sorted(g.at_level(Level(level - 1), statuses=MATCHABLE))
    models = lib.models_at(level)
    if not child_ids or not models:
        return []

    candidates: list[MatchCandidate] = []
    for model in models:
        sat = _PairTable(g, model, cfg.slack)
        for cluster in _clusters(g, child_ids, _pool_radius(model, cfg)):
            for n, (assignment, missing) in enumerate(
                _enumerate_assignments(g, lib, model, cluster, cfg, sat), 1
            ):
                if n > MAX_ASSIGNMENTS:
                    raise MatchTooLargeError(
                        f"model {model.name!r}: a cluster of {len(cluster)} children "
                        f"has over {MAX_ASSIGNMENTS} slot assignments"
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
    if c.fit_score < cfg.min_fit:
        raise ValueError(
            f"candidate below fit threshold: {c.fit_score} < {cfg.min_fit}"
        )
    children = c.children()
    locations = [g.get(i).location for i in children]
    headings = [g.get(i).heading for i in children]
    center = centroid(locations)
    lam = cfg.lambda_max ** (2.0 * c.fit_score - 1.0)
    item = EvidenceItem(
        id="f:" + c.model.name + ":" + "+".join(children),
        kind=EvidenceKind.FIT,
        likelihood_ratio=lam,
        location=center,
        sensor_context={"fit_score": c.fit_score, "model": c.model.name},
    )
    h = Hypothesis(
        id="",
        force_type=c.model.models_type,
        level=lib.type_of(c.model.models_type).level,
        location=center,
        time=max((g.get(i).time for i in children), default=0.0),
        model=c.model.name,
        components=children,
        own_evidence=EvidenceSet.of(item.id),
        prior=c.model.prior,
        posterior=c.model.prior,
        heading=mean_heading([h for h in headings if h is not None]),
    )
    return h, item
