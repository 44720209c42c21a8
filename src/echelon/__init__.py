"""Hierarchical Bayesian evidence accrual over force-deployment models.

Detections become leaf hypotheses; deployment models instantiate parent
hypotheses level by level; belief accrues up the hierarchy; conflicting
interpretations are analyzed in polynomial time and either skipped with
a bounded error or resolved exactly over maximal consistent sets.
Every formula is measurable against an exact-enumeration oracle.

Importing the package loads no numpy: only the oracle (``OracleNetwork``,
resolved on first use) and scenario generation draw on it.
"""

from echelon.accrual import (
    AccrualInputs,
    AccrualResult,
    ComponentBelief,
    accrue_parent,
    posterior_given_subset,
    propagate_level,
)
from echelon.conflict import (
    ConflictReport,
    ConflictSet,
    ConsistentSet,
    Decision,
    Heuristic,
    approx_joint,
    conflict_measure,
    decide,
    detect_conflicts,
    order_hypotheses,
    resolve_exact,
    skip_error_estimate,
)
from echelon.evidence import (
    EvidenceItem,
    EvidenceKind,
    posterior_from_evidence,
)
from echelon.hypotheses import Hypothesis, HypothesisGraph, Status
from echelon.matching import (
    MatchCandidate,
    MatchConfig,
    candidate_to_hypothesis,
    fit_score,
    match_level,
)
from echelon.models import (
    ComponentSlot,
    DeploymentConstraint,
    DoctrineConfig,
    ForceModel,
    ForceType,
    Level,
    ModelLibrary,
    isa_ancestors,
    load_library,
    subsumes,
)
from echelon.pipeline import RunConfig, run
from echelon.scenario import GroundTruth, NoiseSpec, generate, score

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    """``OracleNetwork`` on first use (PEP 562), so that inference, which
    never builds one, does not load numpy with the oracle."""
    if name == "OracleNetwork":
        from echelon.oracle import OracleNetwork

        return OracleNetwork
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AccrualInputs",
    "AccrualResult",
    "ComponentBelief",
    "ComponentSlot",
    "ConflictReport",
    "ConflictSet",
    "ConsistentSet",
    "Decision",
    "DeploymentConstraint",
    "DoctrineConfig",
    "EvidenceItem",
    "EvidenceKind",
    "ForceModel",
    "ForceType",
    "GroundTruth",
    "Heuristic",
    "Hypothesis",
    "HypothesisGraph",
    "Level",
    "MatchCandidate",
    "MatchConfig",
    "ModelLibrary",
    "NoiseSpec",
    "OracleNetwork",
    "RunConfig",
    "Status",
    "accrue_parent",
    "approx_joint",
    "candidate_to_hypothesis",
    "conflict_measure",
    "decide",
    "detect_conflicts",
    "fit_score",
    "generate",
    "isa_ancestors",
    "load_library",
    "match_level",
    "order_hypotheses",
    "posterior_from_evidence",
    "posterior_given_subset",
    "propagate_level",
    "resolve_exact",
    "run",
    "score",
    "skip_error_estimate",
    "subsumes",
]
