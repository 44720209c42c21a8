"""Evidence atoms and the likelihood-ratio combiner.

Every atom carries a likelihood ratio lambda = P(item | supported
hypothesis) / P(item | its negation).  Subsets of atoms combine into a
posterior by the odds product, which is the unique combiner consistent
with treating atoms as conditionally independent given the hypothesis
and supports evaluation on any evidence subset.  The combiner takes
the ratios alone; sets of atoms are plain ``frozenset``s of item ids,
held by the hypothesis graph.

Every product over a set of values goes through ``product``, which
takes the factors in ascending value order: the result depends only on
their multiset, never on their order or names.  A sum over such a set
is ``math.fsum``, exactly rounded.
"""

from __future__ import annotations

import enum
import math
import warnings
from types import MappingProxyType
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from echelon.exceptions import DegeneratePriorWarning
from echelon.models import shown_name


class EvidenceKind(enum.Enum):
    DETECTION = "detection"
    FIT = "fit"
    TERRAIN = "terrain"


_NO_CONTEXT: Mapping[str, Any] = MappingProxyType({})


class _EvidenceFields(NamedTuple):
    id: str
    kind: EvidenceKind
    likelihood_ratio: float
    location: tuple[float, float] | None = None
    sensor_context: Mapping[str, Any] = _NO_CONTEXT


class EvidenceItem(_EvidenceFields):
    """One atomic support unit: a detection, a formation-fit score, or
    a terrain statement, reduced to a likelihood ratio.  Only terrain
    items carry a ``location``; a hypothesis carries its own.

    A named tuple, so its fields are read-only; building one, also
    through ``_make`` or ``_replace``, checks the likelihood ratio.  The
    default ``sensor_context`` is one empty mapping shared by every item
    and read-only: a caller with context passes its own."""

    __slots__ = ()

    def __new__(
        cls,
        id: str,
        kind: EvidenceKind,
        likelihood_ratio: float,
        location: tuple[float, float] | None = None,
        sensor_context: Mapping[str, Any] = _NO_CONTEXT,
    ) -> "EvidenceItem":
        if not (likelihood_ratio > 0.0 and math.isfinite(likelihood_ratio)):
            raise ValueError(
                f"evidence {shown_name(id)}: likelihood_ratio must be positive "
                f"and finite, got {likelihood_ratio!r}"
            )
        return tuple.__new__(cls, (id, kind, likelihood_ratio, location, sensor_context))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "EvidenceItem":
        return cls(*iterable)


def product(values: Iterable[float]) -> float:
    """The product of ``values`` in ascending value order."""
    return math.prod(sorted(values))


def posterior_from_evidence(prior: float, ratios: Sequence[float]) -> float:
    """Combine a prior with likelihood ratios in odds form: the prior
    odds times the ``product`` of the ratios.

    A prior of exactly 0 or 1 is returned unchanged with a diagnostic:
    evidence cannot move certainty.  No ratios return the prior.  Odds
    that overflow give exactly 1.0, and odds that underflow to zero
    give 0.0.
    """
    if not (0.0 <= prior <= 1.0):
        raise ValueError(f"prior must be in [0,1], got {prior!r}")
    if prior == 0.0 or prior == 1.0:
        warnings.warn(
            f"degenerate prior {prior}: evidence ignored",
            DegeneratePriorWarning,
            stacklevel=2,
        )
        return prior
    if not ratios:
        return prior
    return from_odds(prior / (1.0 - prior) * product(ratios))


def odds(p: float) -> float:
    """p / (1-p); infinity at p=1."""
    if p >= 1.0:
        return math.inf
    return p / (1.0 - p)


def from_odds(o: float) -> float:
    if math.isinf(o):
        return 1.0
    return o / (1.0 + o)
