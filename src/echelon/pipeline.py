"""Batch inference pipeline: scenario in, ranked interpretations out.

Leaf hypotheses are instantiated from detections, then each level is
processed bottom-up: match models over the children, accrue posteriors,
detect conflicts, and either skip them (their members' parents accrue
directly from the evidence, each with an error bound) or resolve them
exactly.  The report carries every hypothesis with the inputs of its
accrual, so any posterior can be recomputed from the report alone.
Building it consumes the graph: the conflicts are written while the
graph is whole, then each hypothesis leaves the graph as its entry is
built.
Inference draws nothing at random: the report is fixed by the config
and its inputs, and the config's ``seed`` is only echoed into it.
"""

from __future__ import annotations

import dataclasses
import gc
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn

from echelon.accrual import AccrualResult, propagate_level
from echelon.conflict import (
    ConflictReport,
    Decision,
    Heuristic,
    decide,
    detect_conflicts,
    skip_error_estimate,
)
from echelon.evidence import EvidenceItem, EvidenceKind
from echelon.exceptions import AccrualDomainError, LibraryFormatError, ScenarioError
from echelon.geometry import distance
from echelon.hypotheses import Hypothesis, HypothesisGraph
from echelon.matching import MatchConfig, candidate_to_hypothesis, match_level
from echelon.models import (
    LEVELS,
    Fields,
    Level,
    ModelLibrary,
    checked,
    field_names,
    finite_number,
    load_library,
    parse_json,
    read_document,
    shown,
    shown_name,
)
from echelon.scenario import SCHEMA_VERSION, check_vehicle_type, terrain_items


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
        checked(self.tau, "a finite number > 0", "tau", "run config", ScenarioError)
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
        text = read_document(path, "run config", ScenarioError)
        doc = parse_json(text, "run config", ScenarioError)
        return cls.from_dict(doc, base_dir=path.parent)

    @classmethod
    def from_dict(cls, doc: object, base_dir: Path | None = None) -> "RunConfig":
        """Parse a run config strictly (``Fields``): ScenarioError naming
        the key (ValueError for the matcher block).  Only the keys present
        are passed on, so an absent one takes the field's default."""
        f = Fields(doc, field_names(cls), "run config", ScenarioError)

        def path(key: str) -> str:
            p = f.text(key)
            if base_dir is None or Path(p).is_absolute():
                return p
            return str((base_dir / p).resolve())

        kw = f.numbers(cls)
        kw["library"] = path("library")
        kw["scenario"] = path("scenario")
        if f.given("out"):
            kw["out"] = path("out")
        if "matcher" in f:
            kw["matcher"] = MatchConfig.from_dict(f.value("matcher"))
        if "heuristic" in f:
            heuristic, names = f.value("heuristic"), [h.value for h in Heuristic]
            if heuristic not in names:
                raise ScenarioError(
                    f"run config: heuristic must be one of {names}, got {shown(heuristic)}"
                )
            kw["heuristic"] = Heuristic(heuristic)
        return cls(**kw)


_SCENARIO_KEYS = (
    "schema_version", "scenario_id", "detections", "terrain", "ground_truth"
)
_DETECTION_KEYS = frozenset(("id", "type", "x", "y", "heading", "lambda", "time"))


def _attach_terrain(terrain: list[EvidenceItem], hyps: list[Hypothesis]) -> None:
    """Add to each hypothesis's own evidence every terrain item within
    its ``radius_m`` of it, before the hypotheses are inserted."""
    if not terrain:
        return
    for h in hyps:
        near = [
            t.id
            for t in terrain
            if distance(t.location, h.location) <= float(t.sensor_context["radius_m"])
        ]
        if near:
            h.own_evidence = h.own_evidence.union(near)


def _refuse_detection(raw: object, k: int, lib: ModelLibrary) -> NoReturn:
    """Raise the ScenarioError of detection entry ``k``, which
    ``build_graph`` could not read: the strict read (``Fields``) of its
    fields in ``build_graph``'s order words the first fault."""
    d = Fields(raw, _DETECTION_KEYS, f"detection entry {k}", ScenarioError)
    d.value("id")
    d.where = f"detection {shown_name(raw['id'])}"
    check_vehicle_type(d.text("type"), lib, d.where)
    d.number("x")
    d.number("y")
    if d.given("heading"):
        d.number("heading")
    d.check("lambda", d.value("lambda"), "a finite number > 0")
    d.number("time", 0.0)
    raise AssertionError(f"detection entry {k} reads cleanly")


def build_graph(
    scenario: object, lib: ModelLibrary, leaf_prior: float
) -> HypothesisGraph:
    """Create leaf hypotheses from the scenario's detections.

    The scenario is read strictly (``Fields``): its objects hold no keys
    but the ``_*_KEYS`` above, a ``schema_version``, when given, equals
    ``SCHEMA_VERSION``, a detection has an ``id`` and a string ``type``,
    and ``x``, ``y``, ``lambda``, ``time`` and ``radius_m`` when given,
    and ``heading`` when given and not null, are finite numbers, and
    every ``lambda`` is > 0.  A detection's type is a vehicle-level
    library type.  Each detection's fields are read once, each number by
    ``finite_number``, and each distinct type is checked once; a
    detection that does not read goes to ``_refuse_detection`` for its
    message.
    """
    doc = Fields(scenario, _SCENARIO_KEYS, "scenario", ScenarioError)
    version = doc.value("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ScenarioError(
            f"scenario: schema_version must be {SCHEMA_VERSION}, got {shown(version)}"
        )
    g = HypothesisGraph()
    terrain = terrain_items(doc.list("terrain", []))
    for t in terrain:
        g.add_evidence(t)
    leaves = []
    vehicle_types: set[str] = set()
    for k, raw in enumerate(doc.list("detections", [])):
        if not (
            isinstance(raw, dict) and raw.keys() <= _DETECTION_KEYS and "id" in raw
            and isinstance(force_type := raw.get("type"), str)
        ):
            _refuse_detection(raw, k, lib)
        if force_type not in vehicle_types:
            check_vehicle_type(force_type, lib, f"detection {shown_name(raw['id'])}")
            vehicle_types.add(force_type)
        x = finite_number(raw.get("x"))
        y = finite_number(raw.get("y"))
        given = raw.get("heading")
        heading = None if given is None else finite_number(given)
        lam = finite_number(raw.get("lambda"))
        time = finite_number(raw.get("time", 0.0))
        if (
            None in (x, y, lam, time) or (heading is None and given is not None)
            or lam <= 0.0
        ):
            _refuse_detection(raw, k, lib)
        did = str(raw["id"])
        g.add_evidence(EvidenceItem(did, EvidenceKind.DETECTION, lam))
        # by position, in field order: binding them by keyword costs about
        # as much as the rest of building the leaf
        leaves.append(
            Hypothesis(
                f"v.{did}",  # id
                force_type,
                Level.VEHICLE,
                (x, y),  # location
                time,
                None,  # model
                (),  # components
                frozenset((did,)),  # own_evidence
                leaf_prior,  # prior
                leaf_prior,  # posterior
                heading,
            )
        )
    _attach_terrain(terrain, leaves)
    for h in leaves:
        g.insert(h)
    return g


def run(cfg: RunConfig) -> dict:
    """Execute the full pipeline and return the report document.

    The cyclic garbage collector is off for the run, which makes no
    reference cycles: reference counting frees its objects, and a
    collector pass would only walk them, more often the larger the
    scene.  The state found is restored on return or raise: a collector
    that was off stays off.  The pause is process-global: every thread
    of the process runs without collector passes while a run is inside,
    and when runs overlap in threads, the first to start re-enables the
    collector as it returns, while the others may still be running.
    Results never depend on it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _build_report(cfg, *_infer(cfg))
    finally:
        if enabled:
            gc.enable()


def _infer(cfg: RunConfig) -> tuple[object, HypothesisGraph, list[ConflictReport]]:
    """The inference half of ``run``: the scenario id, the finished
    hypothesis graph and the decided conflicts, before any report is
    built.  Its locals (the last level's candidates among them) are
    freed when it returns, so the graph is the only holder of its
    hypotheses."""
    lib = load_library(read_document(cfg.library, "library", LibraryFormatError))
    scenario = parse_json(
        read_document(cfg.scenario, "scenario", ScenarioError), "scenario", ScenarioError
    )
    g = build_graph(scenario, lib, cfg.leaf_prior)
    # The graph holds all the run reads of the scenario but its id: the
    # document, ground-truth sidecar and all, is freed before matching.
    scenario_id = scenario.get("scenario_id")
    del scenario

    terrain = [g.evidence[i] for i in sorted(g.terrain)]
    conflict_log: list[ConflictReport] = []

    for level in LEVELS:
        if level > Level.VEHICLE:
            candidates = match_level(g, lib, level, cfg.matcher)
            seen: set[tuple[str, tuple[str, ...]]] = set()
            parents, fit_items = [], []
            for cand in candidates:
                key = (cand.model.name, cand.children())
                if key in seen:  # keep the best-fit assignment per component set
                    continue
                seen.add(key)
                h, fit_item = candidate_to_hypothesis(g, lib, cand, cfg.matcher)
                parents.append(h)
                fit_items.append(fit_item)
            _attach_terrain(terrain, parents)
            for h, fit_item in zip(parents, fit_items):
                g.add_evidence(fit_item)
                g.insert(h)

        propagate_level(g, level)

        for s in detect_conflicts(g, lib, level):
            report = decide(
                s,
                g,
                cfg.tau,
                heuristic=cfg.heuristic,
                exclusion_floor=cfg.exclusion_floor,
                max_exact=cfg.max_exact,
            )
            conflict_log.append(report)

    return scenario_id, g, conflict_log


def _accrual_record(a: AccrualResult | None) -> dict | None:
    """What recomputes ``raw``: the rule's inputs, with P(H) the record's
    ``prior``, or the direct path's likelihood ratios by item id.  Its
    keys are in written order (``_build_report``)."""
    if a is None:
        return None
    inputs = a.inputs
    if a.direct:
        return {"ratios": dict(inputs), "raw": a.raw}
    return {
        "components": [
            [cb.p_ce, cb.p_ct, cb.p_cet, cb.p_c] for cb in inputs.per_component
        ],
        "fit": [inputs.fit_num, inputs.fit_den],
        "raw": a.raw,
    }


def _build_report(
    cfg: RunConfig,
    scenario_id: object,
    g: HypothesisGraph,
    conflict_log: list[ConflictReport],
) -> dict:
    """The report document; it consumes the graph.  The conflicts come
    first, as their skip estimates read the parents index and each
    parent's accrual; then ``drain`` hands over the hypotheses one at a
    time, each freed once its entry is built, so the graph and the
    report are never both whole.

    Every dict below the top level is built with its keys in the order
    ``dumps`` writes them, sorted: json's encoder sorts each dict's items
    with timsort, which checks items already in order in one pass.

    AccrualDomainError naming the level, the members and ``k`` for a
    conflict whose ``k`` is 0, as underflow leaves it: its measure
    (1-k)/k is infinite, which no JSON report can hold."""
    conflicts = []
    for rep in conflict_log:
        members = rep.conflict_set.members
        if not math.isfinite(rep.measure):
            raise AccrualDomainError(
                f"{rep.conflict_set.level.label} conflict of {shown(list(members))}: "
                f"k is {rep.k!r}, so its measure (1-k)/k is not finite"
            )
        estimates = {}
        if rep.decision is Decision.SKIP:  # so each parent accrued directly
            for p in sorted({p for m in members for p in g.parents_of(m)}):
                estimates[p] = skip_error_estimate(g.get(p).accrual.posterior, rep.k)
        conflicts.append(
            {
                "consistent_sets": (
                    None
                    if rep.consistent_sets is None
                    else [
                        {
                            "belief": cs.normalized_belief,
                            "members": list(cs.included),
                            "weight": cs.weight,
                        }
                        for cs in rep.consistent_sets
                    ]
                ),
                "decision": rep.decision.value,
                "k": rep.k,
                "level": rep.conflict_set.level.label,
                "measure": rep.measure,
                "members": list(members),
                "ordering": list(rep.ordering),
                # in ascending pair order, as the conflict set holds them
                "reasons": [
                    {
                        "pair": [members[a], members[b]],
                        "reasons": sorted(r.value for r in rs),
                    }
                    for a, b, rs in rep.conflict_set.reasons
                ],
                "skip_error_estimates": estimates,
            }
        )

    levels: dict[str, list[dict]] = {
        label: [] for label in sorted(level.label for level in LEVELS)
    }
    # each level's list, keyed by the level: no label formatted per entry
    entries_at = {level: levels[level.label] for level in LEVELS}
    for h in g.drain():
        a = h.accrual
        location = h.location
        # Keys in sorted order, the order dumps writes them, so that
        # json's encoder sorts the row's items in one pass.  ``status``
        # and ``out_of_range`` are read from the enum's ``_value_`` and the
        # result's ``raw`` field, past the Python-level ``Enum.value`` and
        # ``AccrualResult.out_of_range`` descriptors.
        entries_at[h.level].append(
            {
                "accrual": _accrual_record(a),
                "components": list(h.components),
                "heading": h.heading,
                "id": h.id,
                "model": h.model,
                "out_of_range": a is not None and a.raw > 1.0,
                "own_evidence": sorted(h.own_evidence),
                "posterior": h.posterior,
                "prior": h.prior,
                "status": h.status._value_,
                "time": h.time,
                "type": h.force_type,
                "x": location[0],
                "y": location[1],
            }
        )
    for entries in levels.values():
        # Ranked by posterior; out-of-range entries listed but demoted.
        entries.sort(key=lambda e: (e["out_of_range"], -e["posterior"], e["id"]))

    # The config echo: every field but the paths, and the seed, which the
    # report holds at its top level.  Its keys are sorted, as above, in
    # place: moving each key to the end, in sorted order, builds no
    # second dict.
    config = dataclasses.asdict(cfg)
    for key in ("library", "scenario", "out", "seed"):
        del config[key]
    config["heuristic"] = cfg.heuristic.value
    for echo in (config, config["matcher"]):
        for key in sorted(echo):
            echo[key] = echo.pop(key)
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario_id": scenario_id,
        "seed": cfg.seed,
        "config": config,
        "levels": levels,
        "conflicts": conflicts,
    }
