"""Static force-model knowledge base.

Force types live in a within-level refinement ("is-a") hierarchy, while
composition models span levels ("part-of"): a model at one level lists
component slots whose types sit exactly one level below.  Doctrine adds
plausibility tables (minimum separations, heading compatibility within
``HEADING_REACH_M``) used as non-evidential conflict tests.  A loaded
library is immutable and safe to share across threads.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

from echelon.exceptions import (
    LibraryFormatError,
    LibraryValidationError,
    UnknownTypeError,
)


class Level(enum.IntEnum):
    """Force levels, ordered bottom-up.

    The second level is called "array" because it also covers
    non-company units such as artillery batteries and missile sites.
    """

    VEHICLE = 0
    ARRAY = 1
    BATTALION = 2
    REGIMENT = 3
    DIVISION = 4

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "Level":
        try:
            return cls[label.upper()]
        except KeyError:
            raise LibraryFormatError(f"unknown level {label!r}") from None


LEVELS = tuple(Level)


@dataclass(frozen=True)
class ForceType:
    """A named force type at a fixed level, optionally refining a parent."""

    name: str
    level: Level
    isa_parent: str | None = None


@dataclass(frozen=True)
class ComponentSlot:
    """One component requirement of a model: a type and a count range."""

    required_type: str
    count_min: int
    count_max: int

    def __post_init__(self) -> None:
        if self.count_min < 0:
            raise LibraryValidationError(f"slot {self.required_type}: count_min < 0")
        if self.count_max < self.count_min:
            raise LibraryValidationError(
                f"slot {self.required_type}: count_max < count_min"
            )


@dataclass(frozen=True)
class DeploymentConstraint:
    """Pairwise spatial constraint between members of two slots.

    Applies to every cross pair of the two assignments (all distinct
    pairs when both indices name the same slot).  ``bearing_tolerance``
    bounds the heading difference between the pair, in degrees.
    """

    slot_a: int
    slot_b: int
    distance_min: float
    distance_max: float
    bearing_tolerance: float | None = None

    def __post_init__(self) -> None:
        if not (0 <= self.distance_min <= self.distance_max):
            raise LibraryValidationError(
                f"constraint ({self.slot_a},{self.slot_b}): "
                "need 0 <= distance_min <= distance_max"
            )


@dataclass(frozen=True)
class ForceModel:
    """A deployment template: the type it models, slots, geometry, prior."""

    name: str
    models_type: str
    slots: tuple[ComponentSlot, ...]
    constraints: tuple[DeploymentConstraint, ...] = ()
    prior: float = 0.5

    def __post_init__(self) -> None:
        if not self.slots:
            raise LibraryValidationError(f"model {self.name}: needs at least one slot")
        if not (0.0 <= self.prior <= 1.0):
            raise LibraryValidationError(f"model {self.name}: prior outside [0,1]")
        for c in self.constraints:
            for idx in (c.slot_a, c.slot_b):
                if not (0 <= idx < len(self.slots)):
                    raise LibraryValidationError(
                        f"model {self.name}: constraint references slot {idx} "
                        f"but model has {len(self.slots)} slots"
                    )


# Reach of every max_heading_delta row, in meters: two units farther
# apart than this never conflict by heading, however they face.
HEADING_REACH_M = 600.0


@dataclass(frozen=True)
class DoctrineConfig:
    """Plausibility tables keyed by unordered type-name pairs.

    ``min_separation`` gives the closest two units of the given types
    may legally sit; ``max_heading_delta`` the largest heading
    difference they may legally show while at most ``HEADING_REACH_M``
    apart.  Lookups walk both refinement chains and return the most
    specific entry: the one whose two types sit the fewest refinement
    steps above the queried pair in total.  When several entries tie at
    that depth the strictest wins (the
    largest separation, the smallest heading difference), so a lookup
    gives the same answer in either argument order.
    """

    min_separation: Mapping[tuple[str, str], float] = field(default_factory=dict)
    max_heading_delta: Mapping[tuple[str, str], float] = field(default_factory=dict)

    @staticmethod
    def key(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class ModelLibrary:
    """Validated, immutable collection of types, models and doctrine."""

    types: Mapping[str, ForceType]
    models: Mapping[str, ForceModel]
    doctrine: DoctrineConfig = field(default_factory=DoctrineConfig)
    # Resolved doctrine per (table, unordered type pair).  The library is
    # immutable, so entries never go stale; a racing duplicate insert
    # stores the same value.
    _resolved: dict[tuple[str, str, str], float | None] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def type_of(self, name: str) -> ForceType:
        try:
            return self.types[name]
        except KeyError:
            raise UnknownTypeError(f"unknown force type {name!r}") from None

    def models_at(self, level: Level) -> list[ForceModel]:
        """Models whose modeled type sits at ``level``, name-sorted."""
        out = [
            m
            for m in self.models.values()
            if self.types[m.models_type].level == level
        ]
        out.sort(key=lambda m: m.name)
        return out

    def min_separation(self, a: str, b: str) -> float | None:
        return self._doctrine_lookup("min_separation", a, b)

    def max_heading_delta(self, a: str, b: str) -> float | None:
        return self._doctrine_lookup("max_heading_delta", a, b)

    def _doctrine_lookup(self, table: str, a: str, b: str) -> float | None:
        key = (table, *DoctrineConfig.key(a, b))
        if key not in self._resolved:
            strictest = max if table == "min_separation" else min
            self._resolved[key] = _resolve_doctrine(
                self, getattr(self.doctrine, table), strictest, a, b
            )
        return self._resolved[key]


def _resolve_doctrine(
    lib: ModelLibrary,
    table: Mapping[tuple[str, str], float],
    strictest: Callable[[list[float]], float],
    a: str,
    b: str,
) -> float | None:
    # Most specific applicable entries: those of least combined
    # refinement depth (shallowest climb up both chains).  On a tie the
    # strictest value wins, which makes the result symmetric in a and b.
    found = [
        (i + j, val)
        for i, ta in enumerate(isa_ancestors(a, lib))
        for j, tb in enumerate(isa_ancestors(b, lib))
        if (val := table.get(DoctrineConfig.key(ta.name, tb.name))) is not None
    ]
    if not found:
        return None
    depth = min(d for d, _ in found)
    return strictest([val for d, val in found if d == depth])


def isa_ancestors(type_name: str | ForceType, lib: ModelLibrary) -> list[ForceType]:
    """Refinement chain [t, parent, ..., root]; the root has no parent."""
    name = type_name.name if isinstance(type_name, ForceType) else type_name
    t = lib.type_of(name)
    chain = [t]
    while t.isa_parent is not None:
        t = lib.type_of(t.isa_parent)
        chain.append(t)
    return chain


def subsumes(general: str, specific: str, lib: ModelLibrary) -> bool:
    """True iff ``general`` appears on ``specific``'s refinement chain.

    Reflexive: every type subsumes itself.
    """
    lib.type_of(general)
    return any(t.name == general for t in isa_ancestors(specific, lib))


_TYPE_KEYS = {"name", "level", "isa"}
_MODEL_KEYS = {"name", "type", "slots", "constraints", "prior"}
_SLOT_KEYS = {"type", "min", "max"}
_CONSTRAINT_KEYS = {"slots", "d_min", "d_max", "bearing_tol"}
_DOCTRINE_KEYS = {"min_separation", "max_heading_delta"}


def load_library(text: str) -> ModelLibrary:
    """Parse and validate a serialized library.

    Strict: unknown keys anywhere in the document are rejected, so a
    typo fails loudly instead of silently dropping a constraint; a
    missing key or a value of the wrong JSON type raises
    LibraryFormatError naming the entry.  Names are strings, slot
    counts and constraint slot indices integers, and distances,
    headings and priors finite numbers (never booleans).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LibraryFormatError(f"library is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise LibraryFormatError("library document must be a JSON object")
    unknown = set(doc) - {"types", "models", "doctrine"}
    if unknown:
        raise LibraryFormatError(f"unknown top-level keys: {sorted(unknown)}")

    types = _parse_types(_list(doc, "types", "library"))
    models = _parse_models(_list(doc, "models", "library"))
    doctrine = _parse_doctrine(doc.get("doctrine", {}))
    lib = ModelLibrary(types=types, models=models, doctrine=doctrine)
    _validate(lib)
    return lib


def _require_keys(obj: dict, allowed: set[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise LibraryFormatError(f"{what} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise LibraryFormatError(f"{what}: unknown keys {sorted(unknown)}")


def _value(obj: dict, key: str, what: str):
    try:
        return obj[key]
    except KeyError:
        raise LibraryFormatError(f"{what}: missing key {key!r}") from None


def _list(obj: dict, key: str, what: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise LibraryFormatError(f"{what}: {key} must be a list, got {value!r}")
    return value


def _text(obj: dict, key: str, what: str) -> str:
    value = _value(obj, key, what)
    if not isinstance(value, str):
        raise LibraryFormatError(f"{what}: {key} must be a string, got {value!r}")
    return value


def _integer(value: object, key: str, what: str) -> int:
    if type(value) is not int:
        raise LibraryFormatError(f"{what}: {key} must be an integer, got {value!r}")
    return value


def finite_number(value: object) -> float | None:
    """``value`` as a float if it is a finite JSON number: not a bool, and
    not an integer beyond the float range.  None otherwise."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            return None
        if math.isfinite(number):
            return number
    return None


def _number(obj: dict, key: str, what: str) -> float:
    """A finite JSON number (not a bool), as a float."""
    value = _value(obj, key, what)
    number = finite_number(value)
    if number is None:
        raise LibraryFormatError(f"{what}: {key} must be a finite number, got {value!r}")
    return number


def _parse_types(raw: list) -> dict[str, ForceType]:
    types: dict[str, ForceType] = {}
    for k, entry in enumerate(raw):
        what = f"type entry {k}"
        _require_keys(entry, _TYPE_KEYS, what)
        name = _text(entry, "name", what)
        what = f"type {name!r}"
        t = ForceType(
            name=name,
            level=Level.from_label(_text(entry, "level", what)),
            isa_parent=None if entry.get("isa") is None else _text(entry, "isa", what),
        )
        if t.name in types:
            raise LibraryValidationError(f"duplicate type {t.name!r}")
        types[t.name] = t
    return types


def _parse_models(raw: list) -> dict[str, ForceModel]:
    models: dict[str, ForceModel] = {}
    for k, entry in enumerate(raw):
        what = f"model entry {k}"
        _require_keys(entry, _MODEL_KEYS, what)
        name = _text(entry, "name", what)
        what = f"model {name!r}"
        slots = []
        for i, s in enumerate(_list(entry, "slots", what)):
            where = f"{what} slot {i}"
            _require_keys(s, _SLOT_KEYS, where)
            slots.append(
                ComponentSlot(
                    required_type=_text(s, "type", where),
                    count_min=_integer(_value(s, "min", where), "min", where),
                    count_max=_integer(_value(s, "max", where), "max", where),
                )
            )
        constraints = []
        for i, c in enumerate(_list(entry, "constraints", what)):
            where = f"{what} constraint {i}"
            _require_keys(c, _CONSTRAINT_KEYS, where)
            pair = _value(c, "slots", where)
            if not (isinstance(pair, list) and len(pair) == 2):
                raise LibraryFormatError(f"{where}: 'slots' must be a pair")
            constraints.append(
                DeploymentConstraint(
                    slot_a=_integer(pair[0], "slots", where),
                    slot_b=_integer(pair[1], "slots", where),
                    distance_min=_number(c, "d_min", where),
                    distance_max=_number(c, "d_max", where),
                    bearing_tolerance=(
                        _number(c, "bearing_tol", where) if "bearing_tol" in c else None
                    ),
                )
            )
        m = ForceModel(
            name=name,
            models_type=_text(entry, "type", what),
            slots=tuple(slots),
            constraints=tuple(constraints),
            prior=_number(entry, "prior", what) if "prior" in entry else 0.5,
        )
        if m.name in models:
            raise LibraryValidationError(f"duplicate model {m.name!r}")
        models[m.name] = m
    return models


def _parse_doctrine(raw: dict) -> DoctrineConfig:
    _require_keys(raw, _DOCTRINE_KEYS, "doctrine")
    tables: dict[str, dict[tuple[str, str], float]] = {}
    for table, unit in (("min_separation", "meters"), ("max_heading_delta", "degrees")):
        rows = tables[table] = {}
        for k, entry in enumerate(_list(raw, table, "doctrine")):
            what = f"{table} row {k}"
            _require_keys(entry, {"a", "b", unit}, what)
            key = DoctrineConfig.key(_text(entry, "a", what), _text(entry, "b", what))
            rows[key] = _number(entry, unit, what)
    return DoctrineConfig(**tables)


def _validate(lib: ModelLibrary) -> None:
    for t in lib.types.values():
        _validate_isa_chain(t, lib)
    for m in lib.models.values():
        model_level = _resolved_level(m.models_type, lib, f"model {m.name}")
        for slot in m.slots:
            slot_level = _resolved_level(
                slot.required_type, lib, f"model {m.name} slot"
            )
            if model_level == Level.VEHICLE:
                raise LibraryValidationError(
                    f"model {m.name}: vehicle-level types have no components"
                )
            if slot_level != model_level - 1:
                raise LibraryValidationError(
                    f"model {m.name}: level skip: slot type "
                    f"{slot.required_type!r} is {slot_level.label}, "
                    f"expected {Level(model_level - 1).label}"
                )
    for pair in list(lib.doctrine.min_separation) + list(lib.doctrine.max_heading_delta):
        for name in pair:
            if name not in lib.types:
                raise LibraryValidationError(f"doctrine: dangling type {name!r}")


def _resolved_level(name: str, lib: ModelLibrary, what: str) -> Level:
    if name not in lib.types:
        raise LibraryValidationError(f"{what}: dangling type {name!r}")
    return lib.types[name].level


def _validate_isa_chain(t: ForceType, lib: ModelLibrary) -> None:
    seen = {t.name}
    cur = t
    while cur.isa_parent is not None:
        if cur.isa_parent not in lib.types:
            raise LibraryValidationError(
                f"type {cur.name!r}: dangling type {cur.isa_parent!r}"
            )
        parent = lib.types[cur.isa_parent]
        if parent.level != t.level:
            raise LibraryValidationError(
                f"type {cur.name!r}: is-a parent {parent.name!r} is at "
                f"{parent.level.label}, not {t.level.label} (is-a refines "
                "within a level)"
            )
        if parent.name in seen:
            raise LibraryValidationError(f"cyclic isa chain through {parent.name!r}")
        seen.add(parent.name)
        cur = parent
