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
from typing import TYPE_CHECKING

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


@dataclass
class Hypothesis:
    """A claim that a force of ``force_type`` exists at ``location``.

    Leaves (vehicle level) have no components and no model; every other
    hypothesis was instantiated from a model over one-level-lower
    components.  ``posterior``, ``status`` and ``accrual`` are bookkeeping
    updated by the accrual and conflict stages; everything else is fixed
    at insert.  Parents read ``accrual``, which resolution leaves as is.
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
    # Filled by propagate_level: the accrual behind `posterior`.
    accrual: "AccrualResult | None" = None

    def is_leaf(self) -> bool:
        return self.level == Level.VEHICLE


@dataclass
class HypothesisGraph:
    """Id-addressed store of hypotheses plus the evidence table backing
    every referenced item id.  Evidence must enter through
    ``add_evidence`` only, which also keeps ``terrain``, the ids of the
    terrain items."""

    hypotheses: dict[str, Hypothesis] = field(default_factory=dict)
    evidence: dict[str, EvidenceItem] = field(default_factory=dict)
    terrain: set[str] = field(default_factory=set, init=False)
    _by_level: dict[Level, list[str]] = field(default_factory=dict)
    _closures: dict[str, frozenset[str]] = field(default_factory=dict)
    _counters: dict[Level, int] = field(default_factory=dict)
    # child id -> ids of the hypotheses listing it as a component
    _parents: dict[str, set[str]] = field(default_factory=dict)

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

        Components must already be present and sit exactly one level
        below; every own-evidence id must resolve in the evidence table.
        """
        if not h.id:
            n = self._counters.get(h.level, 0)
            self._counters[h.level] = n + 1
            h.id = f"{h.level.label[0]}{n}"
        if h.id in self.hypotheses:
            raise ValueError(f"duplicate hypothesis id {h.id!r}")
        if h.is_leaf():
            if h.components:
                raise LevelViolationError(f"{h.id}: leaf hypotheses have no components")
            if h.model is not None:
                raise LevelViolationError(f"{h.id}: leaf hypotheses carry no model")
        elif not h.components:
            raise LevelViolationError(
                f"{h.id}: non-leaf hypothesis needs at least one component"
            )
        for cid in h.components:
            child = self.hypotheses.get(cid)
            if child is None:
                raise DanglingComponentError(f"{h.id}: dangling component {cid!r}")
            if child.level != h.level - 1:
                raise LevelViolationError(
                    f"{h.id}: level violation: component {cid} is "
                    f"{child.level.label}, expected {Level(h.level - 1).label}"
                )
        unresolved = [i for i in h.own_evidence if i not in self.evidence]
        if unresolved:
            self.item(min(unresolved))  # the first in id order raises
        if not (0.0 <= h.prior <= 1.0 and 0.0 <= h.posterior <= 1.0):
            raise ValueError(f"{h.id}: prior/posterior outside [0,1]")
        self.hypotheses[h.id] = h
        self._by_level.setdefault(h.level, []).append(h.id)
        for cid in h.components:
            self._parents.setdefault(cid, set()).add(h.id)
        return h.id

    def get(self, hid: str) -> Hypothesis:
        try:
            return self.hypotheses[hid]
        except KeyError:
            raise UnknownHypothesisError(f"unknown hypothesis {hid!r}") from None

    def at_level(self, level: Level, statuses: set[Status] | None = None) -> list[str]:
        ids = self._by_level.get(level, [])
        if statuses is None:
            return list(ids)
        return [i for i in ids if self.hypotheses[i].status in statuses]

    def evidence_closure(self, hid: str) -> frozenset[str]:
        """Own evidence unioned with all component closures, recursively.

        Component links are fixed at insert, so closures are memoized.
        """
        cached = self._closures.get(hid)
        if cached is not None:
            return cached
        h = self.get(hid)
        closure = h.own_evidence.union(*map(self.evidence_closure, h.components))
        self._closures[hid] = closure
        return closure

    def parents_of(self, hid: str) -> list[str]:
        """Ids of hypotheses having ``hid`` as a component, id-sorted."""
        self.get(hid)
        return sorted(self._parents.get(hid, ()))
