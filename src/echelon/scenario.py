"""Synthetic ground truth and imperfect-sensor simulation.

A ground-truth document places force instances as trees whose leaves
are vehicles with explicit coordinates; each model node must fill its
model as the matcher's own search finds at no slack (``matching.fills``).
The noise channel drops vehicles, jitters surviving locations,
misclassifies types by a row-stochastic confusion matrix, and sprinkles
false alarms.  Generation is deterministic given the seed, byte for byte.

The detection confidence model is a synthetic stand-in (leaf sensor
modeling is out of scope): a correctly classified detection carries
lambda_hit, a misclassified one carries lambda_hit scaled by the
confusion row's odds of the observed label.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from echelon.evidence import EvidenceItem, EvidenceKind
from echelon.exceptions import MatchTooLargeError, ScenarioError
from echelon.geometry import centroid, distance, mean_heading
from echelon.hypotheses import Hypothesis
from echelon.matching import fills
from echelon.models import (
    Fields,
    Level,
    ModelLibrary,
    checked,
    field_names,
    shown,
    shown_name,
)

if TYPE_CHECKING:
    import numpy as np

SCHEMA_VERSION = 1

# Most false alarms a scene may expect (false_alarm_density times the
# area in km^2): ``generate`` refuses a noise spec above it rather than
# draw a detection list that exhausts time or memory.
MAX_FALSE_ALARMS = 100_000

# The longest list ``dumps`` hands json's encoder in one call; a longer
# one is encoded a slice at a time.
DUMPS_SLICE = 64
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode


@dataclass(frozen=True)
class GroundTruthNode:
    """A force instance: either a vehicle leaf or a model over children."""

    model: str | None = None
    vehicle_type: str | None = None
    x: float | None = None
    y: float | None = None
    heading: float | None = None
    children: tuple["GroundTruthNode", ...] = ()

    def is_vehicle(self) -> bool:
        return self.model is None


@dataclass(frozen=True)
class GroundTruth:
    forces: tuple[GroundTruthNode, ...]
    area: tuple[float, float]
    terrain: tuple[dict, ...] = ()
    scenario_id: str = "scenario"


@dataclass(frozen=True)
class NoiseSpec:
    """Sensor imperfection channel; see module docstring."""

    p_detect: float = 1.0
    false_alarm_density: float = 0.0  # per km^2
    misclassification: dict[str, dict[str, float]] = field(default_factory=dict)
    location_jitter: float = 0.0  # std, meters
    seed: int = 0
    lambda_hit: float = 6.0
    false_alarm_types: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_detect <= 1.0):
            raise ScenarioError(
                f"noise spec: p_detect must be in [0, 1], got {shown(self.p_detect)}"
            )
        # every detection's ratio is lambda_hit or a positive multiple of
        # it, which inference reads only when positive and finite
        checked(
            self.lambda_hit, "a finite number > 0", "lambda_hit", "noise spec",
            ScenarioError,
        )
        for key, kind in (
            ("false_alarm_density", "a finite number >= 0"),
            ("location_jitter", "a finite number >= 0"),
            ("seed", "an integer"),
        ):
            checked(getattr(self, key), kind, key, "noise spec", ScenarioError)
        if self.seed < 0:
            raise ScenarioError(f"noise spec: seed must be >= 0, got {self.seed!r}")
        for row_type, row in self.misclassification.items():
            where = f"noise spec misclassification row {shown_name(row_type)}"
            for observed, p in row.items():
                label = f"label {shown_name(observed)}"
                checked(p, "a finite number >= 0", label, where, ScenarioError)
            total = math.fsum(row.values())
            if abs(total - 1.0) > 1e-9:
                raise ScenarioError(f"{where} sums to {total}, not 1")
            # each misclassified detection's ratio, as ``generate`` computes it
            p_correct = row.get(row_type, 0.0)
            for observed, p_observed in row.items():
                if (
                    observed != row_type and p_correct > 0.0
                    and not math.isfinite(self.lambda_hit * p_observed / p_correct)
                ):
                    raise ScenarioError(
                        f"noise spec misclassification row {shown_name(row_type)} "
                        f"label {shown_name(observed)}: its detection ratio "
                        f"lambda_hit * {p_observed!r} / {p_correct!r} is not finite"
                    )


def load_ground_truth(doc: object, lib: ModelLibrary | None = None) -> GroundTruth:
    """Parse a ground-truth doc strictly (``Fields``), and validate its
    placements when a library is given; ScenarioError naming the entry
    and key.  ``terrain`` is read as inference reads a scenario's
    (``terrain_items``), then passed through as given."""
    f = Fields(doc, ("id", "area", "forces", "terrain"), "ground truth", ScenarioError)
    area = Fields(
        f.value("area", {}), ("width_m", "height_m"), "ground truth area", ScenarioError
    )
    terrain = f.list("terrain", [])
    terrain_items(terrain, "ground truth terrain entry")  # as inference reads it
    forces = f.list("forces", [])
    gt = GroundTruth(
        forces=tuple(_parse_node(n, f"force {i}") for i, n in enumerate(forces)),
        area=tuple(
            area.check(key, area.value(key, 10000.0), "a finite number > 0")
            for key in ("width_m", "height_m")
        ),
        terrain=tuple(terrain),
        scenario_id=f.text("id", "scenario"),
    )
    if lib is not None:
        fits: dict = {}  # the subsumes memo of every node
        for i, force in enumerate(gt.forces):
            _validate_node(force, lib, f"force {i}", fits)
    return gt


_TERRAIN_KEYS = frozenset(("id", "x", "y", "radius_m", "lambda"))


def terrain_items(terrain: list, what: str = "terrain entry") -> list[EvidenceItem]:
    """Terrain evidence from a ``terrain`` list, read strictly (``Fields``):
    the one reader of a scenario's terrain (``pipeline.build_graph``) and
    of a ground truth's, whose entries ``generate`` copies into the
    scenario.  An entry is named ``what`` and its position, then its id;
    its ``lambda`` is a finite number > 0."""
    items = []
    for i, raw in enumerate(terrain):
        t = Fields(raw, _TERRAIN_KEYS, f"{what} {i}", ScenarioError)
        tid = str(t.value("id", f"t{i}"))
        t.where = f"{what} {shown_name(tid)}"
        lam = t.check("lambda", t.value("lambda"), "a finite number > 0")
        items.append(
            EvidenceItem(
                id=tid,
                kind=EvidenceKind.TERRAIN,
                likelihood_ratio=lam,
                location=(t.number("x"), t.number("y")),
                sensor_context={"radius_m": t.number("radius_m", 1000.0)},
            )
        )
    return items


def load_noise_spec(doc: object) -> NoiseSpec:
    """Parse a noise spec strictly (``Fields``); values pass through as
    given.  ``misclassification`` maps each type to a row object of
    finite numbers, and ``false_alarm_types`` is a list of strings."""
    f = Fields(doc, field_names(NoiseSpec), "noise spec", ScenarioError)
    spec = f.numbers(NoiseSpec, as_given=True)
    if "misclassification" in f:
        rows = f.value("misclassification")
        Fields(rows, None, "noise spec misclassification", ScenarioError)
        for true_type, raw_row in rows.items():
            where = f"noise spec misclassification row {shown_name(true_type)}"
            row = Fields(raw_row, None, where, ScenarioError)
            for observed in raw_row:
                row.number(observed)
        spec["misclassification"] = rows
    if "false_alarm_types" in f:
        types = f.list("false_alarm_types")
        spec["false_alarm_types"] = tuple(
            f.check("false_alarm_types", t, "a string") for t in types
        )
    return NoiseSpec(**spec)


def _parse_node(raw: object, where: str) -> GroundTruthNode:
    """A force node: a vehicle leaf with a ``type``, or a ``model`` over a
    non-empty ``components`` list; ``where`` names it by position."""
    if isinstance(raw, dict) and "type" in raw:
        f = Fields(raw, ("type", "x", "y", "heading"), where, ScenarioError)
        return GroundTruthNode(
            vehicle_type=f.text("type"),
            x=f.number("x"),
            y=f.number("y"),
            heading=f.number("heading") if f.given("heading") else None,
        )
    f = Fields(raw, ("model", "components"), where, ScenarioError)
    model, components = f.text("model"), f.list("components")
    if not components:
        raise ScenarioError(f"{where}: components must not be empty")
    return GroundTruthNode(
        model=model,
        children=tuple(
            _parse_node(c, f"{where} component {i}") for i, c in enumerate(components)
        ),
    )


def _validate_node(
    node: GroundTruthNode, lib: ModelLibrary, where: str, fits: dict
) -> Hypothesis:
    """Check a node, its children first, and return it as the matcher
    sees it: a hypothesis with id ``where`` (its position, as
    ``_parse_node`` names it), its type and level, and its children's
    centroid and circular mean of known headings.  A model node must fill
    its model exactly (``matching.fills``, sharing the memo ``fits``)."""
    if node.is_vehicle():
        check_vehicle_type(node.vehicle_type or "", lib, where)
        return Hypothesis(
            where, node.vehicle_type, Level.VEHICLE, (node.x, node.y), heading=node.heading
        )
    model = lib.models.get(node.model)
    if model is None:
        raise ScenarioError(f"{where}: unknown model {shown_name(node.model)}")
    kids = [
        _validate_node(child, lib, f"{where} component {i}", fits)
        for i, child in enumerate(node.children)
    ]
    try:
        filled = fills(lib, model, kids, fits)
    except MatchTooLargeError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    if not filled:
        raise ScenarioError(
            f"{where}: no slot assignment of its {len(kids)} components fits model "
            f"{shown_name(model.name)}"
        )
    return Hypothesis(
        where,
        model.models_type,
        lib.type_of(model.models_type).level,
        centroid([k.location for k in kids]),
        heading=mean_heading(k.heading for k in kids if k.heading is not None),
    )


def check_vehicle_type(name: str, lib: ModelLibrary, where: str) -> None:
    """ScenarioError naming the entry ``where`` unless ``name`` is a
    vehicle-level library type: the one check of every type a detection
    is read or written with."""
    force_type = lib.types.get(name)
    if force_type is None:
        raise ScenarioError(f"{where}: unknown force type {shown_name(name)}")
    if force_type.level is not Level.VEHICLE:
        raise ScenarioError(
            f"{where}: type {shown_name(name)} is not a vehicle-level "
            f"type (it is {force_type.level.label}-level)"
        )


def _check_noise_types(noise: NoiseSpec, lib: ModelLibrary) -> None:
    """Every type the noise spec names, a false-alarm type, a
    misclassification row's type or a label it observes, is a
    vehicle-level library type, so a detection it writes is one."""
    for i, name in enumerate(noise.false_alarm_types):
        check_vehicle_type(name, lib, f"noise spec false_alarm_types entry {i}")
    for row_type, row in noise.misclassification.items():
        where = f"noise spec misclassification row {shown_name(row_type)}"
        check_vehicle_type(row_type, lib, where)
        for observed in row:
            check_vehicle_type(observed, lib, f"{where} label {shown_name(observed)}")


def _draw_from_row(rng: np.random.Generator, row: dict[str, float]) -> str:
    u = rng.random()
    acc = 0.0
    keys = sorted(row)
    for key in keys:
        acc += row[key]
        if u < acc:
            return key
    return keys[-1]


def generate(gt: GroundTruth, noise: NoiseSpec, lib: ModelLibrary | None = None) -> dict:
    """Run the noise channel over the ground truth; returns the scenario
    document with its ground-truth sidecar for scoring.  ScenarioError,
    before anything is drawn, when the expected false-alarm count
    exceeds ``MAX_FALSE_ALARMS``, or when a library is given and the
    noise spec names a type that is not a vehicle-level library type."""
    area_km2 = gt.area[0] * gt.area[1] / 1e6
    expected = noise.false_alarm_density * area_km2
    if expected > MAX_FALSE_ALARMS:
        raise ScenarioError(
            f"noise spec: false_alarm_density {noise.false_alarm_density!r} expects "
            f"{expected!r} false alarms over the area, more than {MAX_FALSE_ALARMS}"
        )
    if lib is not None:
        _check_noise_types(noise, lib)
    import numpy as np  # only drawing needs it; inference never loads it

    rng = np.random.default_rng(noise.seed)

    vehicles: list[GroundTruthNode] = []
    units: list[dict] = []

    def walk(node: GroundTruthNode) -> tuple[float, float]:
        """Lists the node's vehicles and units, itself first, and returns
        its location: the centroid of its children's."""
        if node.is_vehicle():
            vehicles.append(node)
            return (node.x, node.y)
        model = lib.models.get(node.model) if lib is not None else None
        unit = {
            "id": f"g{len(units)}",
            "model": node.model,
            "type": model.models_type if model else None,
            "level": lib.type_of(model.models_type).level.label if model else None,
        }
        units.append(unit)
        unit["x"], unit["y"] = centroid([walk(child) for child in node.children])
        return unit["x"], unit["y"]

    for force in gt.forces:
        walk(force)

    detections: list[dict] = []
    vehicle_records: list[dict] = []
    for vi, v in enumerate(vehicles):
        assert v.vehicle_type is not None and v.x is not None and v.y is not None
        detected = rng.random() < noise.p_detect
        record = {
            "id": f"gv{vi}",
            "type": v.vehicle_type,
            "x": v.x,
            "y": v.y,
            "heading": v.heading,
            "detected": detected,
            "observed_as": None,
            "detection_id": None,
        }
        if detected:
            row = noise.misclassification.get(v.vehicle_type, {v.vehicle_type: 1.0})
            observed = _draw_from_row(rng, row)
            x, y = v.x, v.y
            if noise.location_jitter > 0.0:
                x += rng.normal(0.0, noise.location_jitter)
                y += rng.normal(0.0, noise.location_jitter)
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ScenarioError(
                        f"noise spec: location_jitter {noise.location_jitter!r} moves "
                        f"vehicle 'gv{vi}' to a location that is not finite"
                    )
            if observed == v.vehicle_type:
                lam = noise.lambda_hit
            else:
                p_correct = row.get(v.vehicle_type, 0.0)
                p_observed = row.get(observed, 0.0)
                lam = (
                    max(noise.lambda_hit * p_observed / p_correct, 0.05)
                    if p_correct > 0.0
                    else 1.0
                )
            det_id = f"d{len(detections)}"
            detections.append(
                {
                    "id": det_id,
                    "type": observed,
                    "x": x,
                    "y": y,
                    "heading": v.heading,
                    "lambda": lam,
                    "time": 0.0,
                }
            )
            record["observed_as"] = observed
            record["detection_id"] = det_id
        vehicle_records.append(record)

    fa_types = noise.false_alarm_types or tuple(
        sorted({v.vehicle_type for v in vehicles if v.vehicle_type})
    )
    n_fa = int(rng.poisson(expected)) if fa_types else 0
    for _ in range(n_fa):
        detections.append(
            {
                "id": f"d{len(detections)}",
                "type": fa_types[int(rng.integers(len(fa_types)))],
                "x": float(rng.uniform(0.0, gt.area[0])),
                "y": float(rng.uniform(0.0, gt.area[1])),
                "heading": float(rng.uniform(0.0, 360.0)),
                "lambda": noise.lambda_hit,
                "time": 0.0,
            }
        )

    return {
        "schema_version": SCHEMA_VERSION,
        "scenario_id": gt.scenario_id,
        "detections": detections,
        "terrain": list(gt.terrain),
        "ground_truth": {
            "units": units,
            "vehicles": vehicle_records,
            "seed": noise.seed,
        },
    }


def dumps(doc: dict) -> str:
    """Canonical serialization: the byte-determinism contract.

    The text is, byte for byte, ``json.dumps(doc, sort_keys=True,
    separators=(",", ":"), allow_nan=False)`` followed by one newline:
    compact, keys sorted, non-ASCII as ``\\uXXXX``, floats as
    ``float.__repr__``.  json coerces ``int``, ``float``, ``bool`` and
    ``None`` keys to strings; any value json cannot write raises
    ``TypeError``, and a float that is not finite (``NaN``, ``Infinity``,
    not JSON) or a container that holds itself json's ``ValueError``.
    ``python -m json.tool --indent 2 --sort-keys`` gives the indented view
    of the same document.  A string holding a high surrogate directly
    followed by a low one is written as two escapes that ``json.loads``
    reads back as one astral character, so such a string does not
    round-trip; a lone surrogate does.  No document read from JSON holds
    such a pair.

    Compact JSON composes, so the text is built in pieces: dicts with
    only ``str`` keys are walked key by key, and a list longer than
    ``DUMPS_SLICE`` goes to json's encoder one slice at a time, each
    slice's brackets stripped.  The encoder's token list, several times
    the text it makes, then holds one slice, not the whole document.
    The encoder sorts each dict's items with timsort, which checks items
    already in key order in one pass, so a document whose dicts are built
    in sorted key order (the report, ``pipeline._build_report``) is
    written faster, to the same bytes.
    """
    pieces: list[str] = []
    _write(doc, pieces, set())
    pieces.append("\n")
    return "".join(pieces)


def _write(obj: object, pieces: list[str], walking: set[int]) -> None:
    """Append the JSON text of ``obj`` to ``pieces`` (``dumps``).
    ``walking`` holds the ids of the containers being walked, so one
    that holds itself raises as json does."""
    is_dict = type(obj) is dict and all(type(k) is str for k in obj)
    if not is_dict and not (type(obj) in (list, tuple) and len(obj) > DUMPS_SLICE):
        pieces.append(_encode(obj))
        return
    if id(obj) in walking:
        raise ValueError("Circular reference detected")
    walking.add(id(obj))
    if is_dict:
        pieces.append("{")
        for i, key in enumerate(sorted(obj)):
            pieces.append(f"{',' if i else ''}{_encode(key)}:")
            _write(obj[key], pieces, walking)
        pieces.append("}")
    else:
        for start in range(0, len(obj), DUMPS_SLICE):
            pieces.append("," if start else "[")
            pieces.append(_encode(obj[start : start + DUMPS_SLICE])[1:-1])
        pieces.append("]")
    walking.remove(id(obj))


def score(
    report: dict,
    scenario: dict,
    match_radius: float | None = None,
    lib: ModelLibrary | None = None,
) -> dict:
    """Precision/recall of reported hypotheses against ground truth.

    A hypothesis matches an unmatched ground-truth unit of the same
    force type within ``match_radius``; matching is greedy in
    descending posterior.  Skipped and excluded hypotheses do not
    count as assertions.  The radius defaults to half the library's
    smallest doctrine separation when a library is given.
    """
    if match_radius is None:
        if lib is None or not lib.doctrine.min_separation:
            raise ScenarioError(
                "match_radius required (no doctrine separations to default from)"
            )
        match_radius = min(lib.doctrine.min_separation.values()) / 2.0
    if report.get("scenario_id") != scenario.get("scenario_id"):
        raise ScenarioError(
            f"report is for {report.get('scenario_id')!r}, "
            f"scenario is {scenario.get('scenario_id')!r}"
        )
    gt = scenario.get("ground_truth")
    if gt is None:
        raise ScenarioError("scenario has no ground_truth sidecar")

    truth_by_level: dict[str, list[dict]] = {}
    for u in gt["units"]:
        truth_by_level.setdefault(u["level"], []).append(u)
    for v in gt["vehicles"]:
        truth_by_level.setdefault(Level.VEHICLE.label, []).append(
            {"id": v["id"], "type": v["type"], "x": v["x"], "y": v["y"]}
        )

    levels_out: dict[str, dict] = {}
    matched_hyp_to_unit: dict[str, str] = {}
    for level_label, entries in report.get("levels", {}).items():
        asserting = [e for e in entries if e["status"] == "active"]
        truth = list(truth_by_level.get(level_label, []))
        taken: set[str] = set()
        matched = 0
        for e in sorted(asserting, key=lambda e: (-e["posterior"], e["id"])):
            best = None
            for u in truth:
                if u["id"] in taken or u["type"] != e["type"]:
                    continue
                d = distance((e["x"], e["y"]), (u["x"], u["y"]))
                if d <= match_radius and (best is None or d < best[0]):
                    best = (d, u)
            if best is not None:
                taken.add(best[1]["id"])
                matched_hyp_to_unit[e["id"]] = best[1]["id"]
                matched += 1
        levels_out[level_label] = {
            "hypotheses": len(asserting),
            "truth_units": len(truth),
            "matched": matched,
            "precision": matched / len(asserting) if asserting else 1.0,
            "recall": matched / len(truth) if truth else 1.0,
        }

    ranks: list[int] = []
    skip_count = 0
    estimates: dict[str, float] = {}
    posts = {
        e["id"]: e["posterior"] for lvl in report.get("levels", {}).values() for e in lvl
    }
    for c in report.get("conflicts", []):
        if c["decision"] == "skip":
            skip_count += 1
            estimates.update(c.get("skip_error_estimates", {}))
        members = c["members"]
        ordered = sorted(members, key=lambda m: (-posts.get(m, 0.0), m))
        for rank, m in enumerate(ordered, start=1):
            if m in matched_hyp_to_unit:
                ranks.append(rank)
                break

    return {
        "levels": levels_out,
        "true_hypothesis_ranks": ranks,
        "skips": {"count": skip_count, "estimates": estimates},
    }
