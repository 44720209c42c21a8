"""Runtime hypothesis space.

Hypotheses are instantiated claims that a force of some type sits at a
location; component links tie each one to the hypotheses exactly one
level below it, forming a level-descending DAG.  One child may support
several parents; that overlap is precisely what conflict detection
feeds on.  Mutation is single-writer; reads may run concurrently.

Evidence is referenced by item id: a hypothesis's own evidence and its
closure are plain ``frozenset``s, unordered.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Collection, Iterator

from echelon.evidence import EvidenceItem, EvidenceKind
from echelon.exceptions import (
    DanglingComponentError,
    EvidenceResolutionError,
    LevelViolationError,
    UnknownHypothesisError,
)
from echelon.models import Level, shown_name

if TYPE_CHECKING:
    from echelon.accrual import AccrualResult

class Status(enum.Enum):
    """SKIPPED and EXCLUDED are set by conflict handling."""

    ACTIVE = "active"
    SKIPPED = "skipped"
    EXCLUDED = "excluded"


@dataclass(slots=True)
class Hypothesis:
    """A claim that a force of ``force_type`` exists at ``location``.

    Leaves (vehicle level) have no components and no model; every other
    hypothesis was instantiated from a model over one-level-lower
    components.  ``posterior``, ``status``, ``belief`` and ``accrual`` are
    bookkeeping updated by the accrual and conflict stages; everything
    else is fixed at insert.  Parents read ``belief``, which resolution
    leaves as is.
    """

    id: str
    force_type: str
    level: Level
    location: tuple[float, float]
    time: float = 0.0
    model: str | None = None
    components: tuple[str, ...] = ()
    own_evidence: frozenset[str] = frozenset()
    prior: float = 0.5
    posterior: float = 0.5
    heading: float | None = None
    status: Status = Status.ACTIVE
    # Filled by propagate_level: P(H | its whole closure) before conflict
    # resolution, which parents read, and a non-leaf's accrual behind it.
    belief: float | None = None
    accrual: "AccrualResult | None" = None

    def is_leaf(self) -> bool:
        return self.level == Level.VEHICLE


@dataclass
class HypothesisGraph:
    """Id-addressed store of hypotheses plus the evidence table backing
    every referenced item id.  Evidence must enter through
    ``add_evidence`` only, which also keeps ``terrain``, the ids of the
    terrain items.

    The store is kept small, since a scene holds one record per
    hypothesis and per evidence item: a leaf's closure is its own
    ``own_evidence`` set, not a copy; the child-to-parents index holds
    lists, which ``insert`` keeps free of repeats by refusing a
    component listed twice; and the records take no new attributes at
    run time: ``Hypothesis``, ``AccrualInputs`` and the match and
    conflict records are slotted dataclasses, and the pure-data records
    a scene builds by the thousand (``EvidenceItem``,
    ``ComponentBelief`` and ``AccrualResult``) are named tuples, read-only
    and cheaper to build than frozen dataclasses.
    The report build is the graph's last reader and consumes it through
    ``drain``, so the graph and the finished report are never both
    whole."""

    hypotheses: dict[str, Hypothesis] = field(default_factory=dict)
    evidence: dict[str, EvidenceItem] = field(default_factory=dict)
    terrain: set[str] = field(default_factory=set, init=False)
    _by_level: dict[Level, list[str]] = field(default_factory=dict)
    _closures: dict[str, frozenset[str]] = field(default_factory=dict)
    _counters: dict[Level, int] = field(default_factory=dict)
    # child id -> ids of the hypotheses listing it as a component
    _parents: dict[str, list[str]] = field(default_factory=dict)

    def add_evidence(self, item: EvidenceItem) -> None:
        if item.id in self.evidence:
            raise ValueError(f"duplicate evidence id {shown_name(item.id)}")
        self.evidence[item.id] = item
        if item.kind is EvidenceKind.TERRAIN:
            self.terrain.add(item.id)

    def item(self, item_id: str) -> EvidenceItem:
        try:
            return self.evidence[item_id]
        except KeyError:
            raise EvidenceResolutionError(
                f"evidence id {item_id!r} not in evidence table"
            ) from None

    def insert(self, h: Hypothesis) -> str:
        """Validate and add a hypothesis; returns its (possibly assigned) id.

        Components must already be present, each listed once, and sit
        exactly one level below; every own-evidence id must resolve in the
        evidence table.
        """
        hid, level, components = h.id, h.level, h.components
        if not hid:
            n = self._counters.get(level, 0)
            self._counters[level] = n + 1
            h.id = hid = f"{level.label[0]}{n}"
        if hid in self.hypotheses:
            raise ValueError(f"duplicate hypothesis id {hid!r}")
        if h.is_leaf():
            if components:
                raise LevelViolationError(f"{hid}: leaf hypotheses have no components")
            if h.model is not None:
                raise LevelViolationError(f"{hid}: leaf hypotheses carry no model")
        elif not components:
            raise LevelViolationError(
                f"{hid}: non-leaf hypothesis needs at least one component"
            )
        below = level - 1
        for i, cid in enumerate(components):
            child = self.hypotheses.get(cid)
            if child is None:
                raise DanglingComponentError(f"{hid}: dangling component {cid!r}")
            if components.index(cid) != i:  # listed before
                raise ValueError(f"{hid}: component {cid!r} listed twice")
            if child.level != below:
                raise LevelViolationError(
                    f"{hid}: level violation: component {cid} is "
                    f"{child.level.label}, expected {Level(below).label}"
                )
        if not h.own_evidence <= self.evidence.keys():
            self.item(min(i for i in h.own_evidence if i not in self.evidence))
        if not (0.0 <= h.prior <= 1.0 and 0.0 <= h.posterior <= 1.0):
            raise ValueError(f"{hid}: prior/posterior outside [0,1]")
        self.hypotheses[hid] = h
        self._by_level.setdefault(level, []).append(hid)
        parents = self._parents
        for cid in components:
            parents.setdefault(cid, []).append(hid)
        return hid

    def get(self, hid: str) -> Hypothesis:
        try:
            return self.hypotheses[hid]
        except KeyError:
            raise UnknownHypothesisError(f"unknown hypothesis {hid!r}") from None

    def at_level(
        self, level: Level, statuses: Collection[Status] | None = None
    ) -> list[str]:
        ids = self._by_level.get(level, [])
        if statuses is None:
            return list(ids)
        return [i for i in ids if self.hypotheses[i].status in statuses]

    def evidence_closure(self, hid: str) -> frozenset[str]:
        """Own evidence unioned with all component closures, recursively.

        Component links are fixed at insert, so closures are memoized; a
        leaf's is its own evidence set itself.
        """
        cached = self._closures.get(hid)
        if cached is not None:
            return cached
        h = self.get(hid)
        closure = (
            h.own_evidence.union(*map(self.evidence_closure, h.components))
            if h.components
            else h.own_evidence
        )
        self._closures[hid] = closure
        return closure

    def parents_of(self, hid: str) -> list[str]:
        """Ids of hypotheses having ``hid`` as a component, id-sorted."""
        self.get(hid)
        return sorted(self._parents.get(hid, ()))

    def drain(self) -> Iterator[Hypothesis]:
        """Empty the graph, yielding its hypotheses level by level,
        bottom up, in insertion order.  The evidence table, closure memo
        and parents index go at the first step; each hypothesis leaves
        the store before it is yielded, so a caller that keeps only what
        it builds from each frees the hypotheses one at a time."""
        self.evidence.clear()
        self.terrain.clear()
        self._closures.clear()
        self._parents.clear()
        for level in sorted(self._by_level):
            for hid in self._by_level.pop(level):
                yield self.hypotheses.pop(hid)
