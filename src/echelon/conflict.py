"""Conflict detection and resolution.

Same-level hypotheses conflict when their evidence closures overlap
(one item claimed by both) or when doctrine rules them implausible
together (too close, or incompatible headings while near each other):
a conflict is local.  Detection never tests every pair: an evidence
index finds the shared items, built only when the level's closures are
not pairwise disjoint, and one ``near_pairs`` query per level finds
every pair near enough for a doctrine test, with its distance, at the
reach of the tests that can flag a pair there: the heading test runs,
at ``HEADING_REACH_M``, only when the level's finite headings are not
all equal, and otherwise the query is at the level's largest
separation.  The tests run on those pairs one at a time, on the same
distance and ``heading_difference`` as matching.
Groups are joined from the edges' endpoints alone, so a level without
an edge costs no grouping.
A group's ``reasons`` holds one plain row per
conflicting pair.  Each connected group is analyzed in polynomial
time: members are ordered heuristically, each is scored on its own
closure minus the closures of the members after it, and the product k
estimates how likely all members are to be true despite the conflict.
(1-k)/k is the conflict measure: when it is under threshold the group
is skipped (accrual jumps over the level) with a per-parent error
estimate; otherwise the group is resolved exactly over maximal
consistent sets, which is worst-case exponential.
"""

from __future__ import annotations

import enum
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Iterator

from echelon.accrual import posterior_given_subset
from echelon.evidence import product
from echelon.exceptions import (
    DegenerateThresholdWarning,
    ResolutionTooLargeError,
)
from echelon.geometry import heading_difference, linked_groups, near_pairs
from echelon.hypotheses import Hypothesis, HypothesisGraph, Status
from echelon.models import HEADING_REACH_M, LEVELS, Level, ModelLibrary


class ConflictReason(enum.Enum):
    SHARED_EVIDENCE = "shared_evidence"
    TOO_CLOSE = "too_close"
    ORIENTATION = "orientation"


class Heuristic(enum.Enum):
    MOST_MATCHES = "most_matches"
    HIGHEST_PRIOR = "highest_prior"
    HIGHEST_POSTERIOR = "highest_posterior"


class Decision(enum.Enum):
    SKIP = "skip"
    RESOLVE = "resolve"


@dataclass(frozen=True, slots=True)
class ConflictSet:
    """A connected group of mutually incompatible hypotheses.

    ``members`` are sorted by id.  ``reasons`` holds one row per
    conflicting pair, ``(first, second, reasons)``: the pair's positions
    in ``members`` (``first < second``) and why it conflicts.  Rows are
    in ascending pair order, which the report keeps.
    """

    members: tuple[str, ...]
    reasons: tuple[tuple[int, int, frozenset[ConflictReason]], ...]
    level: Level

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError("a conflict set needs at least two members")


@dataclass(frozen=True, slots=True)
class ApproxJointResult:
    """The ordered-product joint estimate with its per-member factors."""

    k: float
    ordering: tuple[str, ...]
    factors: tuple[float, ...]


@dataclass(frozen=True, slots=True)
class ConflictReport:
    """A decided conflict: ``consistent_sets`` is None when skipped."""

    conflict_set: ConflictSet
    ordering: tuple[str, ...]
    k: float
    measure: float
    decision: Decision
    consistent_sets: list["ConsistentSet"] | None = None


@dataclass(frozen=True, slots=True)
class ConsistentSet:
    """A maximal conflict-free subset with its normalized belief."""

    included: tuple[str, ...]
    weight: float
    normalized_belief: float


Pair = tuple[int, int]
# a type pair's separation and heading limits, None where doctrine has no row
Limits = tuple[float | None, float | None]


def _shared_pairs(sharable: list[frozenset[str]]) -> set[Pair]:
    """The pairs (i, j), i < j, whose closures share an item: exact.
    Closures whose sizes sum to the size of their union are pairwise
    disjoint and give none at once; otherwise the pairs come from an
    inverted index of item id to its holders (``_evidence_holders``)."""
    if sum(map(len, sharable)) == len(frozenset().union(*sharable)):
        return set()
    return {
        pair
        for group in _evidence_holders(sharable).values()
        if len(group) > 1
        for pair in itertools.combinations(group, 2)
    }


def _evidence_holders(sharable: list[frozenset[str]]) -> dict[str, list[int]]:
    """Each item id of ``sharable`` with the ascending indices of the
    closures holding it."""
    holders: dict[str, list[int]] = {}
    for i, items in enumerate(sharable):
        for item_id in items:
            holders.setdefault(item_id, []).append(i)
    return holders


def _doctrine_pairs(
    hyps: list[Hypothesis], limits: dict[tuple[str, str], Limits]
) -> Iterator[tuple[Pair, ConflictReason]]:
    """The pairs (i, j), i < j, too close or facing apart within
    ``HEADING_REACH_M``, each with its reason, in no promised order;
    ``limits`` holds the separation and heading limit of each type pair.

    The heading test runs only when the level has a heading row and its
    finite headings are not all equal: two equal headings differ by
    exactly 0, which no limit exceeds (a library's limits are >= 0), and
    a NaN or infinite heading differs from any by NaN, which exceeds
    none.  One ``near_pairs`` query finds the pairs either test
    can flag, with their distances, at the largest reach of a test that
    runs: the level's largest positive separation, or ``HEADING_REACH_M``.
    """
    reach = max((s for s, _ in limits.values() if s is not None and s > 0), default=0.0)
    headings = [h.heading for h in hyps]
    facing = any(delta is not None for _, delta in limits.values()) and (
        len({h for h in headings if h is not None and math.isfinite(h)}) > 1
    )
    if facing:
        reach = max(reach, HEADING_REACH_M)
    if reach == 0.0:
        return
    locations = [h.location for h in hyps]
    for i, j, apart in near_pairs(locations, reach):
        sep, delta = limits[hyps[i].force_type, hyps[j].force_type]
        if sep is not None and apart < sep:
            yield (i, j), ConflictReason.TOO_CLOSE
        hi, hj = headings[i], headings[j]
        if (
            facing and delta is not None and apart <= HEADING_REACH_M
            and hi is not None and hj is not None
            and heading_difference(hi, hj) > delta
        ):
            yield (i, j), ConflictReason.ORIENTATION


def detect_conflicts(
    g: HypothesisGraph,
    lib: ModelLibrary,
    level: Level | None = None,
) -> list[ConflictSet]:
    """Connected components of the per-level conflict graph.

    An edge joins two active same-level hypotheses when their closures
    share a non-terrain item, or doctrine flags them (closer than the
    type pair's minimum separation, or heading difference over the type
    pair's maximum while at most ``HEADING_REACH_M`` apart).  Doctrine is
    resolved once per type pair present.  A level's edges are the pairs
    (i, j), i < j over the id-sorted hypotheses, that an evidence index
    finds or the doctrine tests flag among the pairs ``near_pairs`` finds.
    Groups are joined from the edges' endpoints alone: ``linked_groups``
    takes them renumbered in ascending order, in ascending edge order, as
    a test of every pair would, so it yields the same groups in the same
    order, without a hypothesis that no edge touches.
    """
    out: list[ConflictSet] = []
    for lvl in LEVELS if level is None else (level,):
        ids = sorted(g.at_level(lvl, statuses={Status.ACTIVE}))
        n = len(ids)
        if n < 2:
            continue
        hyps = [g.get(i) for i in ids]
        # Terrain is context, not an associable measurement: two forces
        # over the same ground are not in conflict for that reason alone.
        sharable = [g.evidence_closure(i) for i in ids]
        if g.terrain:
            sharable = [closure - g.terrain for closure in sharable]
        # doctrine of each type pair, looked up once per unordered pair
        limits: dict[tuple[str, str], Limits] = {}
        types = sorted({h.force_type for h in hyps})
        for ta, tb in itertools.combinations_with_replacement(types, 2):
            rule = lib.min_separation(ta, tb), lib.max_heading_delta(ta, tb)
            limits[ta, tb] = limits[tb, ta] = rule

        shared = _shared_pairs(sharable)
        reasons = {pair: {ConflictReason.SHARED_EVIDENCE} for pair in shared}
        for pair, reason in _doctrine_pairs(hyps, limits):
            reasons.setdefault(pair, set()).add(reason)
        edges = sorted(reasons)
        if not edges:
            continue
        # the endpoints, ascending, numbered 0..m-1: the numbering keeps
        # their order, so the groups' order and each group's members
        nodes = sorted({i for edge in edges for i in edge})
        number = {i: k for k, i in enumerate(nodes)}
        groups = linked_groups(len(nodes), [(number[a], number[b]) for a, b in edges])
        # each endpoint's group and position among the group's members;
        # rows keep ascending pair order, since positions follow indices
        group_of, position = [0] * len(nodes), [0] * len(nodes)
        for k, members in enumerate(groups):
            for p, node in enumerate(members):
                group_of[node], position[node] = k, p
        rows: list[list] = [[] for _ in groups]
        for edge in edges:
            a, b = number[edge[0]], number[edge[1]]
            rows[group_of[a]].append((position[a], position[b], frozenset(reasons[edge])))
        for members, group_rows in zip(groups, rows):
            out.append(
                ConflictSet(tuple(ids[nodes[k]] for k in members), tuple(group_rows), lvl)
            )
    return out


def order_hypotheses(
    s: ConflictSet, g: HypothesisGraph, heuristic: Heuristic
) -> tuple[str, ...]:
    """Ascending heuristic order, ties by id: the strongest member sits
    last, so the product conditions it on the fullest evidence set."""
    if heuristic is Heuristic.MOST_MATCHES:
        score = lambda hid: float(len(g.evidence_closure(hid)))
    elif heuristic is Heuristic.HIGHEST_PRIOR:
        score = lambda hid: g.get(hid).prior
    else:
        score = lambda hid: g.get(hid).posterior
    return tuple(sorted(s.members, key=lambda hid: (score(hid), hid)))


def approx_joint(
    s: ConflictSet,
    ordering: tuple[str, ...],
    g: HypothesisGraph,
) -> ApproxJointResult:
    """k = product over members of P(member | its closure minus later closures).

    One reverse pass over the ordering keeps, for each member, the items
    of its closure that no member after it claims: linear in the total
    size of the closures.  A member that keeps nothing contributes its
    prior.  k is the ``product`` of the factors, so with pairwise-disjoint
    closures every ordering yields the identical k, bit for bit.
    """
    if sorted(ordering) != sorted(s.members):
        raise ValueError("ordering must be a permutation of the conflict members")
    factors: list[float] = []
    later: set[str] = set()
    for m in reversed(ordering):
        closure = g.evidence_closure(m)
        keep = closure - later
        if not keep:
            factors.append(g.get(m).prior)
        else:
            factors.append(posterior_given_subset(g, m, keep))
        later |= closure
    factors.reverse()
    return ApproxJointResult(product(factors), tuple(ordering), tuple(factors))


def conflict_measure(k: float) -> float:
    """(1-k)/k; zero at k=1, infinite (forcing resolution) at k=0."""
    if not (0.0 <= k <= 1.0):
        raise ValueError(f"k outside [0,1]: {k!r}")
    if k == 0.0:
        return math.inf
    return (1.0 - k) / k


def skip_error_estimate(p_he: float, k: float) -> float:
    """Bound on the parent-posterior error from skipping the conflicted
    level: P(H | evidence) * (1-k)/k, with P(H | evidence) the parent's
    posterior on the direct path (evidence flows straight to the parent)."""
    return math.inf if k == 0.0 else p_he * (1.0 - k) / k


def _expand(comp: list[int], cliques: list[int], r: int, p: int, x: int) -> None:
    """Pivoted Bron-Kerbosch step over bitmasks: append to ``cliques``
    every maximal clique of the graph ``comp`` that extends ``r`` with
    vertices of ``p`` and none of ``x``."""
    if p == 0 and x == 0:
        cliques.append(r)
        return
    pivot = (p | x).bit_length() - 1
    candidates = p & ~comp[pivot]
    while candidates:
        v = candidates & -candidates
        vi = v.bit_length() - 1
        _expand(comp, cliques, r | v, p & comp[vi], x & comp[vi])
        p &= ~v
        x |= v
        candidates &= ~v


def resolve_exact(
    s: ConflictSet, g: HypothesisGraph, max_exact: int = 20
) -> list[ConsistentSet]:
    """Enumerate maximal consistent subsets and distribute belief.

    Maximal independent sets of the conflict graph are found by pivoted
    Bron-Kerbosch on the complement.  Each set S weighs
    prod_{m in S} P(m) * prod_{m not in S} (1 - P(m)) with P taken from
    stored posteriors; beliefs are the normalized weights.  Worst-case
    exponential, hence the member cap.
    """
    n = len(s.members)
    if n > max_exact:
        raise ResolutionTooLargeError(
            f"resolution too large: {n} members exceeds cap {max_exact}"
        )
    adj = [0] * n
    for a, b, _ in s.reasons:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    full = (1 << n) - 1
    comp = [(full ^ adj[v]) & ~(1 << v) for v in range(n)]

    cliques: list[int] = []
    _expand(comp, cliques, 0, full, 0)

    posteriors = [g.get(m).posterior for m in s.members]
    raw: list[tuple[tuple[str, ...], float]] = []
    for mask in cliques:
        w = product(p if (mask >> i) & 1 else 1.0 - p for i, p in enumerate(posteriors))
        included = tuple(s.members[i] for i in range(n) if (mask >> i) & 1)
        raw.append((included, w))

    total = math.fsum(w for _, w in raw)
    if total == 0.0:
        warnings.warn(
            "all consistent-set weights are zero; distributing belief uniformly",
            stacklevel=2,
        )
        beliefs = [1.0 / len(raw)] * len(raw)
    else:
        beliefs = [w / total for _, w in raw]

    sets = [
        ConsistentSet(included=inc, weight=w, normalized_belief=b)
        for (inc, w), b in zip(raw, beliefs)
    ]
    sets.sort(key=lambda cs: (-cs.normalized_belief, cs.included))
    return sets


def decide(
    s: ConflictSet,
    g: HypothesisGraph,
    tau: float,
    heuristic: Heuristic = Heuristic.HIGHEST_POSTERIOR,
    exclusion_floor: float = 0.05,
    max_exact: int = 20,
) -> ConflictReport:
    """Skip when the conflict measure is under tau, else resolve exactly.

    Skipping marks members for level-jumping accrual: their parents
    accrue directly from the evidence, and the pipeline's report bounds
    each parent's error.  Resolution redistributes member posteriors over
    maximal consistent sets and excludes members falling under the
    floor.  Either way the returned report is final.
    """
    if not (tau > 0.0):
        raise ValueError(f"tau must be positive, got {tau!r}")
    if math.isinf(tau):
        warnings.warn(
            "tau is infinite: every conflict with k > 0 will be skipped",
            DegenerateThresholdWarning,
            stacklevel=2,
        )
    ordering = order_hypotheses(s, g, heuristic)
    aj = approx_joint(s, ordering, g)
    measure = conflict_measure(aj.k)
    decision = Decision.SKIP if measure < tau else Decision.RESOLVE
    if decision is Decision.RESOLVE and len(s.members) > max_exact:
        # resolution refused at this size: fall back to skipping, with
        # the (large) measure left on record
        warnings.warn(
            f"resolution too large ({len(s.members)} members > {max_exact}); "
            "skipping the conflict instead",
            stacklevel=2,
        )
        decision = Decision.SKIP
    if decision is Decision.SKIP:
        for m in s.members:
            g.get(m).status = Status.SKIPPED
        return ConflictReport(s, ordering, aj.k, measure, decision)
    sets = resolve_exact(s, g, max_exact=max_exact)
    for m in s.members:
        belief = math.fsum(cs.normalized_belief for cs in sets if m in cs.included)
        h = g.get(m)
        h.posterior = belief
        if belief < exclusion_floor:
            h.status = Status.EXCLUDED
    return ConflictReport(s, ordering, aj.k, measure, decision, sets)
