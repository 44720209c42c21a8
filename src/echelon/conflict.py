"""Conflict detection and resolution.

Same-level hypotheses conflict when their evidence closures overlap
(one item claimed by both) or when doctrine rules them implausible
together (too close, or incompatible headings while near each other):
a conflict is local.  Detection never tests every pair: an evidence
index finds the shared items, and one uniform grid proposes every pair
near enough for a doctrine test (a conservative filter), which the
exact tests decide.  A level's edges are one sorted numpy array of pair
codes, and they stay arrays from there to the report: a group's
``reasons`` is one int array of rows ``(first position, second
position, flags)``, and ``flags`` indexes eight reason frozensets built
once at import, so an edge costs no Python object of its own however
many a scene has.  Each connected
group is analyzed in polynomial time: members are ordered
heuristically, each is scored on its own closure minus the closures of
the members after it, and the product k estimates how likely all
members are to be true despite the conflict.  (1-k)/k is the conflict
measure: when it is under threshold the group is skipped (accrual
jumps over the level) with a per-parent error estimate; otherwise the
group is resolved exactly over maximal consistent sets, which is
worst-case exponential.
"""

from __future__ import annotations

import enum
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from echelon.accrual import direct_posterior, posterior_given_subset
from echelon.evidence import EvidenceSet
from echelon.exceptions import (
    DegenerateThresholdWarning,
    ResolutionTooLargeError,
)
from echelon.geometry import distance, near_pairs
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


@dataclass(frozen=True, eq=False)
class ConflictSet:
    """A connected group of mutually incompatible hypotheses.

    ``members`` are sorted by id.  ``reasons`` holds one row per
    conflicting pair, ``(first, second, flags)``: the pair's positions in
    ``members`` (``first < second``) and the index into ``REASON_SETS``
    of why it conflicts.  It is a read-only int array of shape (E, 3)
    with rows in ascending pair order, which the report keeps.  An array
    field has no truth value, so sets compare by identity.
    """

    members: tuple[str, ...]
    reasons: np.ndarray
    level: Level

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError("a conflict set needs at least two members")


@dataclass(frozen=True)
class ApproxJointResult:
    """The ordered-product joint estimate with its per-member factors."""

    k: float
    ordering: tuple[str, ...]
    factors: tuple[float, ...]


@dataclass
class ConflictReport:
    conflict_set: ConflictSet
    ordering: tuple[str, ...]
    k: float
    measure: float
    decision: Decision
    skip_error_estimates: dict[str, float] = field(default_factory=dict)
    consistent_sets: list["ConsistentSet"] | None = None


@dataclass(frozen=True)
class ConsistentSet:
    """A maximal conflict-free subset with its normalized belief."""

    included: tuple[str, ...]
    weight: float
    normalized_belief: float


# Every subset of the three reasons, built once and indexed by flag bits
# in definition order: 1 shared evidence, 2 too close, 4 orientation.  A
# scene's thousands of edges share these eight sets.
REASON_SETS = tuple(
    frozenset(r for bit, r in enumerate(ConflictReason) if flags >> bit & 1)
    for flags in range(8)
)


_NO_CODES = np.empty(0, dtype=np.int64)


def _shared_codes(sharable: list[frozenset[str]], n: int) -> np.ndarray:
    """Sorted codes i·n+j (i < j) of the pairs whose closures share an
    item, from an inverted index of item id to its holders: exact."""
    holders: dict[str, list[int]] = {}
    for i, items in enumerate(sharable):
        for item_id in items:
            holders.setdefault(item_id, []).append(i)
    codes = [
        i * n + j
        for group in holders.values()
        if len(group) > 1
        for i, j in itertools.combinations(group, 2)
    ]
    return np.unique(np.array(codes, dtype=np.int64))


def _doctrine_codes(
    hyps: list[Hypothesis], kinds: np.ndarray, doctrine: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Codes of the pairs too close, and of those facing apart within
    ``HEADING_REACH_M``; ``doctrine`` holds the separation and heading
    limit of each type-index pair, NaN where doctrine has no row.

    One grid (``near_pairs``) at the level's largest positive separation,
    or at the heading reach if that is larger and the level has a heading
    row, proposes every pair either test can flag.  The heading test runs
    on all of them at once, with ``heading_difference``'s float64
    arithmetic, which numpy performs identically; a missing heading or
    row is NaN, so it never flags.  ``distance`` never falls below the
    magnitude of either coordinate difference, so a pair whose larger
    difference already reaches its separation, or exceeds the heading
    reach, cannot pass that test and is dropped.  The scalar ``distance``
    (``math.hypot``) decides the rest: ``np.hypot`` need not round the
    same way, and the separation threshold is strict.
    """
    sep, delta = doctrine
    reach = float(sep[sep > 0].max(initial=0.0))
    if not np.isnan(delta).all():
        reach = max(reach, HEADING_REACH_M)
    if reach == 0.0:
        return _NO_CODES, _NO_CODES
    locations = [h.location for h in hyps]
    xy = np.array(locations, dtype=float).reshape(-1, 2)
    headings = np.array([math.nan if h.heading is None else h.heading for h in hyps])
    first, second = near_pairs(xy, reach)
    types = kinds[first], kinds[second]
    with np.errstate(invalid="ignore"):  # inf - inf and inf % 360 give NaN
        span = np.abs(xy[first] - xy[second]).max(axis=1)
        d = np.abs(headings[first] - headings[second]) % 360.0
        d = np.where(d > 180.0, 360.0 - d, d)
        turned = (d > delta[types]) & (span <= HEADING_REACH_M)
    close_below = sep[types]
    ask = turned | (span < close_below)
    close: list[int] = []
    facing: list[int] = []
    columns = (first, second, close_below, turned)
    for i, j, s, t in zip(*(column[ask].tolist() for column in columns)):
        apart = distance(locations[i], locations[j])
        if apart < s:
            close.append(i * n + j)
        if t and apart <= HEADING_REACH_M:
            facing.append(i * n + j)
    return np.array(close, dtype=np.int64), np.array(facing, dtype=np.int64)


def _pair_flags(
    codes: np.ndarray, shared: np.ndarray, close: np.ndarray, facing: np.ndarray
) -> np.ndarray:
    """Flag bits of every conflicting pair at once: 1 shared evidence,
    2 too close, 4 orientation, each pair's index into ``REASON_SETS``."""
    flags = np.isin(codes, shared).astype(np.uint8)
    flags |= np.isin(codes, close).astype(np.uint8) << 1
    flags |= np.isin(codes, facing).astype(np.uint8) << 2
    return flags


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
    resolved once per type pair present.  A level's edges are one sorted
    array of codes i·n+j (i < j over the id-sorted hypotheses): the pairs an
    evidence index finds and those the doctrine tests flag among a
    grid's candidates, whose reasons ``_pair_flags`` sets all at once.
    Union-find then takes the edges in id order, as a test of every pair
    would, so it yields the same groups in the same order.  The level's
    edges become one (E, 3) array, bucketed by group, and each group's
    ``reasons`` is its slice.
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
        sharable = [g.evidence_closure(i).items - g.terrain for i in ids]
        types = sorted({h.force_type for h in hyps})
        type_index = {t: k for k, t in enumerate(types)}
        # doctrine of each type-index pair, looked up once per unordered
        # type pair; NaN where doctrine has no row
        doctrine = np.full((2, len(types), len(types)), np.nan)
        lookups = (lib.min_separation, lib.max_heading_delta)
        for ta, tb in itertools.combinations_with_replacement(range(len(types)), 2):
            for table, lookup in zip(doctrine, lookups):
                value = lookup(types[ta], types[tb])
                if value is not None:
                    table[ta, tb] = table[tb, ta] = value
        kinds = np.array([type_index[h.force_type] for h in hyps], dtype=np.intp)

        shared = _shared_codes(sharable, n)
        close, facing = _doctrine_codes(hyps, kinds, doctrine, n)
        codes = np.unique(np.concatenate([shared, close, facing]))
        flags = _pair_flags(codes, shared, close, facing)
        first, second = np.divmod(codes, n)

        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in zip(first.tolist(), second.tolist()):
            # find(a) and find(b), inlined: this loop runs once per edge
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            parent[a] = b

        roots = [find(i) for i in range(n)]
        groups: dict[int, list[int]] = {}
        for i, root in enumerate(roots):
            groups.setdefault(root, []).append(i)
        # each hypothesis's position among its group's members, and the
        # edges bucketed by group root, each bucket in ascending pair order
        position = [0] * n
        for indices in groups.values():
            for p, i in enumerate(indices):
                position[i] = p
        position = np.array(position, dtype=np.intp)
        edge_roots = np.array(roots, dtype=np.intp)[first]
        order = np.argsort(edge_roots, kind="stable")
        table = np.column_stack((position[first], position[second], flags))[order]
        table.flags.writeable = False
        counts = np.bincount(edge_roots, minlength=n)
        starts = (np.cumsum(counts) - counts).tolist()
        counts = counts.tolist()
        for root in sorted(groups):
            indices = groups[root]
            if len(indices) < 2:
                continue
            out.append(
                ConflictSet(
                    members=tuple(ids[i] for i in indices),
                    reasons=table[starts[root] : starts[root] + counts[root]],
                    level=lvl,
                )
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
    prior.  The factor product runs in id-canonical member order, so
    with pairwise-disjoint closures every ordering yields the identical
    k, bit for bit.
    """
    if sorted(ordering) != sorted(s.members):
        raise ValueError("ordering must be a permutation of the conflict members")
    factors: list[float] = []
    later: set[str] = set()
    for m in reversed(ordering):
        closure = g.evidence_closure(m).items
        keep = closure - later
        if not keep:
            factors.append(g.get(m).prior)
        else:
            factors.append(posterior_given_subset(g, m, EvidenceSet(keep)))
        later |= closure
    factors.reverse()

    k = 1.0
    for _, f in sorted(zip(ordering, factors)):
        k *= f
    return ApproxJointResult(k=k, ordering=tuple(ordering), factors=tuple(factors))


def conflict_measure(k: float) -> float:
    """(1-k)/k; zero at k=1, infinite (forcing resolution) at k=0."""
    if not (0.0 <= k <= 1.0):
        raise ValueError(f"k outside [0,1]: {k!r}")
    if k == 0.0:
        return math.inf
    return (1.0 - k) / k


def skip_error_estimate(g: HypothesisGraph, parent_id: str, k: float) -> float:
    """Bound on the parent-posterior error from skipping the conflicted
    level: P(H | evidence) * (1-k)/k, with P(H | evidence) taken from
    the direct path (evidence flows straight to the parent)."""
    if k == 0.0:
        return math.inf
    p_he = direct_posterior(g, parent_id)
    return p_he * (1.0 - k) / k


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
    for a, b, _ in s.reasons.tolist():
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    full = (1 << n) - 1
    comp = [(full ^ adj[v]) & ~(1 << v) for v in range(n)]

    cliques: list[int] = []
    _expand(comp, cliques, 0, full, 0)

    posteriors = [g.get(m).posterior for m in s.members]
    raw: list[tuple[tuple[str, ...], float]] = []
    for mask in cliques:
        w = 1.0
        for i in range(n):
            w *= posteriors[i] if (mask >> i) & 1 else 1.0 - posteriors[i]
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

    Skipping marks members for level-jumping accrual; their parents do
    not exist yet, so ``pipeline.run`` estimates the induced parent
    errors once the next level is built.  Resolution redistributes
    member posteriors over maximal consistent sets and excludes members
    falling under the floor.
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
    report = ConflictReport(
        conflict_set=s,
        ordering=ordering,
        k=aj.k,
        measure=measure,
        decision=decision,
    )
    if decision is Decision.SKIP:
        for m in s.members:
            g.get(m).status = Status.SKIPPED
    else:
        sets = resolve_exact(s, g, max_exact=max_exact)
        report.consistent_sets = sets
        for m in s.members:
            belief = math.fsum(
                cs.normalized_belief for cs in sets if m in cs.included
            )
            h = g.get(m)
            h.posterior = belief
            if belief < exclusion_floor:
                h.status = Status.EXCLUDED
    return report
