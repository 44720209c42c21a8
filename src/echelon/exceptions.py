"""Exception and warning types shared across the package."""


class EchelonError(Exception):
    """Base class for all domain errors raised by this package."""


class LibraryFormatError(EchelonError):
    """Model-library text failed to parse as the documented format."""


class LibraryValidationError(EchelonError):
    """A library invariant is violated; the message names the invariant."""


class UnknownTypeError(EchelonError):
    """A force-type name does not resolve within the library."""


class DanglingComponentError(EchelonError):
    """A hypothesis references a component id absent from the graph."""


class LevelViolationError(EchelonError):
    """A component link does not descend exactly one level."""


class UnknownHypothesisError(EchelonError):
    """A hypothesis id does not resolve within the graph."""


class EvidenceResolutionError(EchelonError):
    """An evidence item id does not resolve in the evidence table."""


class AccrualDomainError(EchelonError):
    """A zero denominator in the accrual inputs; names the component."""


class SubsetError(EchelonError):
    """A restriction set is not contained in the hypothesis closure."""


class ResolutionTooLargeError(EchelonError):
    """Exact conflict resolution refused: member count over the cap."""


class MatchTooLargeError(EchelonError):
    """Slot enumeration refused: over ``matching.MAX_ASSIGNMENTS``."""


class ZeroProbabilityEvent(EchelonError):
    """Conditioning event has probability zero under the network."""


class OracleStructureError(EchelonError):
    """Network lacks the role structure a formula check requires."""


class ScenarioError(EchelonError):
    """Scenario content is invalid or does not match the report."""


class DegeneratePriorWarning(UserWarning):
    """A prior of exactly 0 or 1 passed through an evidence update."""


class ClusterCapWarning(UserWarning):
    """No longer raised (clusters are not capped); kept for its importers."""


class DegenerateThresholdWarning(UserWarning):
    """A conflict threshold that can never trigger resolution."""
