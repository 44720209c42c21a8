"""Batch inference pipeline: scenario in, ranked interpretations out.

Leaf hypotheses are instantiated from detections, then each level is
processed bottom-up: match models over the children, accrue posteriors,
detect conflicts, and either skip them (marking members and estimating
the induced parent error at the next level) or resolve them exactly.
The report carries every hypothesis with its full accrual trace, so any
posterior can be recomputed from the report alone.  Output is
deterministic given the config and seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from echelon.accrual import propagate_level
from echelon.conflict import (
    REASON_SETS,
    ConflictReport,
    Decision,
    Heuristic,
    decide,
    detect_conflicts,
    skip_error_estimate,
)
from echelon.evidence import EvidenceItem, EvidenceKind, EvidenceSet
from echelon.exceptions import ScenarioError
from echelon.geometry import distance
from echelon.hypotheses import Hypothesis, HypothesisGraph
from echelon.matching import MatchConfig, candidate_to_hypothesis, match_level
from echelon.models import LEVELS, Level, ModelLibrary, finite_number, load_library
from echelon.scenario import SCHEMA_VERSION, dumps


@dataclass
class RunConfig:
    """One inference run.  ``__post_init__`` checks the ranges, so every
    config, including one with command-line overrides applied through
    ``dataclasses.replace``, is valid before the pipeline starts."""

    library: str
    scenario: str
    out: str | None = None
    matcher: MatchConfig = field(default_factory=MatchConfig)
    tau: float = 0.1
    heuristic: Heuristic = Heuristic.HIGHEST_POSTERIOR
    exclusion_floor: float = 0.05
    max_exact: int = 20
    leaf_prior: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.tau < math.inf):
            raise ScenarioError(
                f"run config: tau must be a finite number > 0, got {self.tau!r}"
            )
        for name in ("exclusion_floor", "leaf_prior"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ScenarioError(
                    f"run config: {name} must be in [0, 1], got {value!r}"
                )
        if self.max_exact < 0:
            raise ScenarioError(
                f"run config: max_exact must be >= 0, got {self.max_exact!r}"
            )

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        doc = json.loads(path.read_text())
        return cls.from_dict(doc, base_dir=path.parent)

    @classmethod
    def from_dict(cls, doc: dict, base_dir: Path | None = None) -> "RunConfig":
        """Parse a run config, strictly: unknown or missing keys, and
        values of the wrong JSON type or out of range, raise
        ScenarioError (ValueError for the matcher block) naming the key.
        """
        if not isinstance(doc, dict):
            raise ScenarioError("run config must be a JSON object")
        known = {
            "library",
            "scenario",
            "out",
            "matcher",
            "tau",
            "heuristic",
            "exclusion_floor",
            "max_exact",
            "leaf_prior",
            "seed",
        }
        unknown = set(doc) - known
        if unknown:
            raise ScenarioError(f"run config: unknown keys {sorted(unknown)}")
        missing = {"library", "scenario"} - set(doc)
        if missing:
            raise ScenarioError(f"run config: missing keys {sorted(missing)}")
        where = "run config"
        for key in ("library", "scenario", "out"):
            value = doc.get(key)
            if not isinstance(value, str) and not (key == "out" and value is None):
                raise ScenarioError(f"{where}: {key} must be a path string, got {value!r}")
        heuristic = doc.get("heuristic", Heuristic.HIGHEST_POSTERIOR.value)
        names = [h.value for h in Heuristic]
        if heuristic not in names:
            raise ScenarioError(
                f"{where}: heuristic must be one of {names}, got {heuristic!r}"
            )

        def resolve(p: str | None) -> str | None:
            if p is None or base_dir is None:
                return p
            return str((base_dir / p).resolve()) if not Path(p).is_absolute() else p

        def number(key: str, default: float) -> float:
            return _finite(doc, key, where) if key in doc else default

        def integer(key: str, default: int) -> int:
            value = doc.get(key, default)
            if type(value) is not int:
                raise ScenarioError(f"{where}: {key} must be an integer, got {value!r}")
            return value

        return cls(
            library=resolve(doc["library"]),
            scenario=resolve(doc["scenario"]),
            out=resolve(doc.get("out")),
            matcher=MatchConfig.from_dict(doc.get("matcher", {})),
            tau=number("tau", 0.1),
            heuristic=Heuristic(heuristic),
            exclusion_floor=number("exclusion_floor", 0.05),
            max_exact=integer("max_exact", 20),
            leaf_prior=number("leaf_prior", 0.5),
            seed=integer("seed", 0),
        )


def _terrain_items(scenario: dict) -> list[EvidenceItem]:
    """Terrain evidence from the scenario.

    ``terrain`` must be a list of objects; ``x``, ``y`` and ``lambda`` of
    each, and ``radius_m`` when given, must be finite numbers.
    """
    terrain = scenario.get("terrain", [])
    if not isinstance(terrain, list):
        raise ScenarioError("scenario: terrain must be a list")
    items = []
    for i, t in enumerate(terrain):
        if not isinstance(t, dict):
            raise ScenarioError(f"scenario: terrain entry {t!r} is not an object")
        tid = str(t.get("id", f"t{i}"))
        where = f"terrain entry {tid!r}"
        radius = _finite(t, "radius_m", where) if "radius_m" in t else 1000.0
        items.append(
            EvidenceItem(
                id=tid,
                kind=EvidenceKind.TERRAIN,
                likelihood_ratio=_finite(t, "lambda", where),
                location=(_finite(t, "x", where), _finite(t, "y", where)),
                sensor_context={"radius_m": radius},
            )
        )
    return items


def _attached_terrain(
    terrain: list[EvidenceItem], location: tuple[float, float]
) -> list[str]:
    out = []
    for t in terrain:
        assert t.location is not None
        if distance(t.location, location) <= float(t.sensor_context["radius_m"]):
            out.append(t.id)
    return out


def _field(d: dict, key: str, where: str):
    """Field ``key`` of the scenario entry ``d``; ScenarioError naming the
    entry (``where``) and the key when it is missing."""
    try:
        return d[key]
    except KeyError:
        raise ScenarioError(f"{where}: missing key {key!r}") from None


def _finite(d: dict, key: str, where: str) -> float:
    """Field ``key`` of the scenario entry ``d`` as a float; ScenarioError
    naming the entry (``where``) unless it is a finite JSON number."""
    value = _field(d, key, where)
    number = finite_number(value)
    if number is None:
        raise ScenarioError(f"{where}: {key} must be a finite number, got {value!r}")
    return number



def build_graph(
    scenario: dict, lib: ModelLibrary, leaf_prior: float
) -> HypothesisGraph:
    """Create leaf hypotheses from the scenario's detections.

    The scenario must be a JSON object with no keys beyond
    ``schema_version``, ``scenario_id``, ``detections``, ``terrain`` and
    ``ground_truth``, and a ``schema_version``, when given, equal to
    ``SCHEMA_VERSION``.  ``detections`` must be a list of objects, each
    with an ``id`` and a string ``type``; ``x``, ``y`` and ``lambda``,
    ``time`` when given and ``heading`` when given and not null must be
    finite numbers.
    """
    if not isinstance(scenario, dict):
        raise ScenarioError("scenario must be a JSON object")
    known = {"schema_version", "scenario_id", "detections", "terrain", "ground_truth"}
    unknown = set(scenario) - known
    if unknown:
        raise ScenarioError(f"scenario: unknown keys {sorted(unknown)}")
    version = scenario.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ScenarioError(
            f"scenario: schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    g = HypothesisGraph()
    terrain = _terrain_items(scenario)
    for t in terrain:
        g.add_evidence(t)
    detections = scenario.get("detections", [])
    if not isinstance(detections, list):
        raise ScenarioError("scenario: detections must be a list")
    for k, d in enumerate(detections):
        if not isinstance(d, dict):
            raise ScenarioError(f"scenario: detection {d!r} is not an object")
        did = str(_field(d, "id", f"detection entry {k}"))
        where = f"detection {d['id']!r}"
        if not isinstance(d.get("type"), str):
            raise ScenarioError(f"{where}: type must be a string, got {d.get('type')!r}")
        lib.type_of(d["type"])  # unknown detection types are a domain error
        location = (_finite(d, "x", where), _finite(d, "y", where))
        heading = _finite(d, "heading", where) if d.get("heading") is not None else None
        item = EvidenceItem(
            id=did,
            kind=EvidenceKind.DETECTION,
            likelihood_ratio=_finite(d, "lambda", where),
            location=location,
            heading=heading,
        )
        g.add_evidence(item)
        own = [item.id] + _attached_terrain(terrain, location)
        g.insert(
            Hypothesis(
                id=f"v.{did}",
                force_type=d["type"],
                level=Level.VEHICLE,
                location=location,
                time=_finite(d, "time", where) if "time" in d else 0.0,
                own_evidence=EvidenceSet.from_iterable(own),
                prior=leaf_prior,
                posterior=leaf_prior,
                heading=heading,
            )
        )
    return g


def run(cfg: RunConfig) -> dict:
    """Execute the full pipeline and return the report document."""
    lib = load_library(Path(cfg.library).read_text())
    scenario = json.loads(Path(cfg.scenario).read_text())
    g = build_graph(scenario, lib, cfg.leaf_prior)

    terrain = [g.evidence[i] for i in sorted(g.evidence) if g.evidence[i].kind is EvidenceKind.TERRAIN]
    conflict_log: list[tuple[Level, ConflictReport]] = []

    for level in LEVELS:
        if level > Level.VEHICLE:
            candidates = match_level(g, lib, level, cfg.matcher)
            seen: set[tuple[str, tuple[str, ...]]] = set()
            for cand in candidates:
                key = (cand.model.name, cand.children())
                if key in seen:  # keep the best-fit assignment per component set
                    continue
                seen.add(key)
                h, fit_item = candidate_to_hypothesis(g, lib, cand, cfg.matcher)
                g.add_evidence(fit_item)
                own = [fit_item.id] + _attached_terrain(terrain, h.location)
                h.own_evidence = EvidenceSet.from_iterable(own)
                g.insert(h)

        propagate_level(g, level)

        # Parents of members skipped one level down now exist: estimate
        # the error their level-jumping accrual may carry.
        for lvl, report in conflict_log:
            if lvl == level - 1 and report.decision is Decision.SKIP:
                members = report.conflict_set.members
                for p in sorted({p for m in members for p in g.parents_of(m)}):
                    report.skip_error_estimates[p] = skip_error_estimate(g, p, report.k)

        for s in detect_conflicts(g, lib, level):
            report = decide(
                s,
                g,
                cfg.tau,
                heuristic=cfg.heuristic,
                exclusion_floor=cfg.exclusion_floor,
                max_exact=cfg.max_exact,
            )
            conflict_log.append((level, report))

    return _build_report(cfg, scenario, g, conflict_log)


# The report's sorted reason values of every reason set, by flag bits: a
# scene has thousands of conflicting pairs but these few sets.
_REASON_VALUES = tuple(sorted(r.value for r in rs) for rs in REASON_SETS)


def _trace_records(h: Hypothesis) -> list[dict] | None:
    if h.accrual is None:
        return None
    return [
        {
            "symbol": e.symbol,
            "value": e.value,
            "component": e.component,
            "kind": e.kind,
        }
        for e in h.accrual.trace
    ]


def _build_report(
    cfg: RunConfig,
    scenario: dict,
    g: HypothesisGraph,
    conflict_log: list[tuple[Level, ConflictReport]],
) -> dict:
    levels: dict[str, list[dict]] = {}
    for level in LEVELS:
        entries = []
        for hid in g.at_level(level):
            h = g.get(hid)
            out_of_range = bool(h.accrual and h.accrual.out_of_range)
            entries.append(
                {
                    "id": h.id,
                    "type": h.force_type,
                    "model": h.model,
                    "x": h.location[0],
                    "y": h.location[1],
                    "heading": h.heading,
                    "time": h.time,
                    "prior": h.prior,
                    "posterior": h.posterior,
                    "status": h.status.value,
                    "out_of_range": out_of_range,
                    "components": list(h.components),
                    "own_evidence": list(h.own_evidence),
                    "direct_accrual": bool(h.accrual and h.accrual.direct),
                    "accrual_trace": _trace_records(h),
                }
            )
        # Ranked by posterior; out-of-range entries listed but demoted.
        entries.sort(key=lambda e: (e["out_of_range"], -e["posterior"], e["id"]))
        levels[level.label] = entries

    conflicts = []
    for level, rep in conflict_log:
        members = rep.conflict_set.members
        conflicts.append(
            {
                "level": level.label,
                "members": list(members),
                # in ascending pair order, as the conflict set holds them
                "reasons": [
                    {"pair": [members[a], members[b]], "reasons": [*_REASON_VALUES[f]]}
                    for a, b, f in rep.conflict_set.reasons.tolist()
                ],
                "ordering": list(rep.ordering),
                "k": rep.k,
                "measure": rep.measure,
                "decision": rep.decision.value,
                "skip_error_estimates": dict(sorted(rep.skip_error_estimates.items())),
                "consistent_sets": (
                    None
                    if rep.consistent_sets is None
                    else [
                        {
                            "members": list(cs.included),
                            "weight": cs.weight,
                            "belief": cs.normalized_belief,
                        }
                        for cs in rep.consistent_sets
                    ]
                ),
            }
        )

    return {
        "schema_version": SCHEMA_VERSION,
        "scenario_id": scenario.get("scenario_id"),
        "seed": cfg.seed,
        "config": {
            "tau": cfg.tau,
            "heuristic": cfg.heuristic.value,
            "exclusion_floor": cfg.exclusion_floor,
            "max_exact": cfg.max_exact,
            "leaf_prior": cfg.leaf_prior,
            "matcher": {
                "gather_radius": cfg.matcher.gather_radius,
                "min_fit": cfg.matcher.min_fit,
                "max_missing": cfg.matcher.max_missing,
                "max_cluster": cfg.matcher.max_cluster,
                "rho": cfg.matcher.rho,
                "slack": cfg.matcher.slack,
                "lambda_max": cfg.matcher.lambda_max,
            },
        },
        "levels": levels,
        "conflicts": conflicts,
    }


def write_report(report: dict, out_path: str | Path) -> None:
    Path(out_path).write_text(dumps(report))
