"""Conflict detection and resolution.

Same-level hypotheses conflict when their evidence closures overlap
(one item claimed by both) or when doctrine rules them implausible
together (too close, incompatible headings).  Detection never tests
every pair: an evidence index, a uniform grid and a heading circle
generate a superset of the conflicting pairs (a conservative filter),
and the exact pairwise test decides each of them.  A pair's reasons
are one of eight frozensets built once at import, so an edge costs no
set of its own however many a scene has.  Each connected group is
analyzed in polynomial time: members are ordered
heuristically, each is scored on the pooled evidence minus the
closures of the members after it, and the product k estimates how
likely all members are to be true despite the conflict.  (1-k)/k is
the conflict measure: when it is under threshold the group is skipped
(accrual jumps over the level) with a per-parent error estimate;
otherwise the group is resolved exactly over maximal consistent sets,
which is worst-case exponential.
"""

from __future__ import annotations

import enum
import itertools
import math
import warnings
from dataclasses import dataclass, field

from echelon.accrual import direct_posterior, posterior_given_subset
from echelon.evidence import EvidenceKind, EvidenceSet
from echelon.exceptions import (
    DegenerateThresholdWarning,
    ResolutionTooLargeError,
)
from echelon.geometry import HeadingCircle, distance, heading_difference, near_pairs
from echelon.hypotheses import Hypothesis, HypothesisGraph, Status
from echelon.models import LEVELS, DoctrineConfig, Level, ModelLibrary


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


@dataclass(frozen=True)
class ConflictSet:
    """A connected group of mutually incompatible hypotheses.

    ``reasons`` maps each conflicting pair ``(a, b)``, ``a < b``, to why
    it conflicts; ``detect_conflicts`` inserts the pairs in ascending
    order, which the report keeps.
    """

    members: tuple[str, ...]
    pooled_evidence: EvidenceSet
    reasons: dict[tuple[str, str], frozenset[ConflictReason]]
    level: Level

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError("a conflict set needs at least two members")


@dataclass(frozen=True)
class ApproxJointResult:
    """The ordered-product joint estimate with its per-member pieces."""

    k: float
    ordering: tuple[str, ...]
    factors: tuple[float, ...]
    conditioning: tuple[EvidenceSet, ...]


@dataclass
class ConflictReport:
    conflict_set: ConflictSet
    ordering: tuple[str, ...]
    per_member_conditioning: tuple[EvidenceSet, ...]
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


def _pair_reasons(
    location_a: tuple[float, float],
    location_b: tuple[float, float],
    heading_a: float | None,
    heading_b: float | None,
    shares_evidence: bool,
    sep: float | None,
    max_delta: float | None,
) -> frozenset[ConflictReason]:
    """The exact conflict test of one pair, given whether their closures
    share a non-terrain item and the doctrine resolved for their type
    pair.  The three tests set flag bits, and the result is the shared
    frozenset of ``REASON_SETS`` those bits index (empty: no conflict)."""
    flags = 1 if shares_evidence else 0
    if sep is not None and distance(location_a, location_b) < sep:
        flags |= 2
    if (
        heading_a is not None
        and heading_b is not None
        and max_delta is not None
        and heading_difference(heading_a, heading_b) > max_delta
    ):
        flags |= 4
    return REASON_SETS[flags]


def _candidate_pairs(
    hyps: list[Hypothesis],
    sharable: list[frozenset[str]],
    sep: dict[tuple[str, str], float | None],
    max_delta: dict[tuple[str, str], float | None],
) -> list[tuple[int, int]]:
    """Sorted index pairs (i < j) that may conflict: a superset of the
    pairs ``_pair_reasons`` flags, from three sources."""
    # pair (i, j) is held as the integer i * n + j, cheaper to hash and
    # sort than a tuple, and in the same order
    n = len(hyps)
    codes: set[int] = set()

    # shared evidence: an inverted index from item id to its holders
    holders: dict[str, list[int]] = {}
    for i, items in enumerate(sharable):
        for item_id in items:
            holders.setdefault(item_id, []).append(i)
    for group in holders.values():
        codes.update(i * n + j for i, j in itertools.combinations(group, 2))

    # too close: a grid whose cell is the largest separation in play
    reach = max((d for d in sep.values() if d is not None and d > 0), default=None)
    if reach is not None:
        codes.update(i * n + j for i, j in near_pairs([h.location for h in hyps], reach))

    # orientation: no distance bound, so search headings on the circle,
    # per type pair with a heading limit
    headed: dict[str, list[int]] = {}
    for i, h in enumerate(hyps):
        if h.heading is not None:
            headed.setdefault(h.force_type, []).append(i)
    circles = {
        t: HeadingCircle([hyps[i].heading for i in members])
        for t, members in headed.items()
    }
    for (ta, tb), limit in max_delta.items():
        if limit is None or ta not in headed or tb not in headed:
            continue
        partners = headed[tb]
        for i in headed[ta]:
            found = [partners[k] for k in circles[tb].beyond(hyps[i].heading, limit)]
            if ta != tb:
                codes.update(i * n + j if i < j else j * n + i for j in found)
            else:  # within one type each pair is met from both ends
                codes.update(i * n + j for j in found if j > i)
    return [divmod(c, n) for c in sorted(codes)]


def detect_conflicts(
    g: HypothesisGraph,
    lib: ModelLibrary,
    level: Level | None = None,
) -> list[ConflictSet]:
    """Connected components of the per-level conflict graph.

    An edge joins two active same-level hypotheses when their closures
    share a non-terrain item, or doctrine flags them (closer than the
    type pair's minimum separation, or heading difference over the type
    pair's maximum).  Doctrine is resolved once per type pair present.
    Candidate pairs come from an evidence index, a grid and a heading
    circle; they are a conservative filter and the exact test decides.
    Candidates are tested in id order, as a test of every pair would be,
    so union-find yields the same groups in the same order.
    """
    # Terrain is context, not an associable measurement: two forces over
    # the same ground are not in conflict for that reason alone.
    terrain = frozenset(
        i for i, item in g.evidence.items() if item.kind is EvidenceKind.TERRAIN
    )
    out: list[ConflictSet] = []
    for lvl in LEVELS if level is None else (level,):
        ids = sorted(g.at_level(lvl, statuses={Status.ACTIVE}))
        if len(ids) < 2:
            continue
        hyps = [g.get(i) for i in ids]
        sharable = [g.evidence_closure(i).items - terrain for i in ids]
        types = sorted({h.force_type for h in hyps})
        type_pairs = [(ta, tb) for n, ta in enumerate(types) for tb in types[n:]]
        sep = {p: lib.min_separation(*p) for p in type_pairs}
        max_delta = {p: lib.max_heading_delta(*p) for p in type_pairs}
        # read by every candidate, so gathered once per level: locations,
        # headings, type indices and the doctrine of each index pair
        locations = [h.location for h in hyps]
        headings = [h.heading for h in hyps]
        type_index = {t: n for n, t in enumerate(types)}
        kinds = [type_index[h.force_type] for h in hyps]
        keys = [[DoctrineConfig.key(ta, tb) for tb in types] for ta in types]
        rules = [[(sep[k], max_delta[k]) for k in row] for row in keys]

        parent = list(range(len(ids)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        edges: list[tuple[int, int, frozenset[ConflictReason]]] = []
        for a, b in _candidate_pairs(hyps, sharable, sep, max_delta):
            pair_sep, pair_delta = rules[kinds[a]][kinds[b]]
            reasons = _pair_reasons(
                locations[a],
                locations[b],
                headings[a],
                headings[b],
                not sharable[a].isdisjoint(sharable[b]),
                pair_sep,
                pair_delta,
            )
            if reasons:
                edges.append((a, b, reasons))
                parent[find(a)] = find(b)

        roots = [find(n) for n in range(len(ids))]
        groups: dict[int, list[str]] = {}
        for root, i in zip(roots, ids):
            groups.setdefault(root, []).append(i)
        group_edges: dict[int, dict[tuple[str, str], frozenset[ConflictReason]]] = {}
        for a, b, reasons in edges:
            group_edges.setdefault(roots[a], {})[(ids[a], ids[b])] = reasons
        for root in sorted(groups, key=lambda r: ids[r]):
            members = groups[root]
            if len(members) < 2:
                continue
            pooled = frozenset().union(*(g.evidence_closure(m).items for m in members))
            out.append(
                ConflictSet(
                    members=tuple(members),
                    pooled_evidence=EvidenceSet(pooled),
                    reasons=group_edges[root],
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
    """k = product over members of P(member | pooled minus later closures).

    The conditioning sets come from one reverse pass over the ordering,
    linear in members times pooled evidence.  A member whose
    conditioning set retains nothing of its closure contributes its
    prior.  The factor product runs in id-canonical member order, so
    with pairwise-disjoint closures every ordering yields the identical
    k, bit for bit.
    """
    if sorted(ordering) != sorted(s.members):
        raise ValueError("ordering must be a permutation of the conflict members")
    closures = {m: g.evidence_closure(m) for m in s.members}
    # cond_i = pooled - (union of the closures after i), built from one
    # reverse suffix union
    conditioning: list[EvidenceSet] = []
    later: set[str] = set()
    for m in reversed(ordering):
        conditioning.append(EvidenceSet(s.pooled_evidence.items - later))
        later |= closures[m].items
    conditioning.reverse()
    factors: list[float] = []
    for m, cond in zip(ordering, conditioning):
        keep = cond & closures[m]
        if not keep:
            factors.append(g.get(m).prior)
        else:
            factors.append(posterior_given_subset(g, m, keep))

    k = 1.0
    for _, f in sorted(zip(ordering, factors)):
        k *= f
    return ApproxJointResult(
        k=k,
        ordering=tuple(ordering),
        factors=tuple(factors),
        conditioning=tuple(conditioning),
    )


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
    idx = {m: i for i, m in enumerate(s.members)}
    adj = [0] * n
    for (a, b) in s.reasons:
        adj[idx[a]] |= 1 << idx[b]
        adj[idx[b]] |= 1 << idx[a]
    full = (1 << n) - 1
    comp = [(full ^ adj[v]) & ~(1 << v) for v in range(n)]

    cliques: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            cliques.append(r)
            return
        pivot = (p | x).bit_length() - 1
        candidates = p & ~comp[pivot]
        while candidates:
            v = candidates & -candidates
            vi = v.bit_length() - 1
            expand(r | v, p & comp[vi], x & comp[vi])
            p &= ~v
            x |= v
            candidates &= ~v

    expand(0, full, 0)

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
        per_member_conditioning=aj.conditioning,
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
