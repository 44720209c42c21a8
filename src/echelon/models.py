"""Static force-model knowledge base.

Force types live in a within-level refinement ("is-a") hierarchy, while
composition models span levels ("part-of"): a model at one level lists
component slots whose types sit exactly one level below.  Doctrine adds
plausibility tables (minimum separations, heading compatibility within
``HEADING_REACH_M``) used as non-evidential conflict tests.  A loaded
library is immutable and safe to share across threads.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import reprlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Collection, Mapping

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
            raise LibraryFormatError(f"unknown level {shown_name(label)}") from None


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
        what = f"slot {shown_name(self.required_type)}"
        if self.count_min < 0:
            raise LibraryValidationError(
                f"{what}: count_min must be >= 0, got {self.count_min!r}"
            )
        if self.count_max < self.count_min:
            raise LibraryValidationError(
                f"{what}: count_max must be >= count_min {self.count_min!r}, "
                f"got {self.count_max!r}"
            )


@dataclass(frozen=True)
class DeploymentConstraint:
    """Pairwise spatial constraint between members of two slots.

    Applies to every cross pair of the two assignments (all distinct
    pairs when both indices name the same slot).  ``bearing_tolerance``
    bounds the heading difference between the pair, in degrees: a finite
    number >= 0, or None for no bound.
    """

    slot_a: int
    slot_b: int
    distance_min: float
    distance_max: float
    bearing_tolerance: float | None = None

    def __post_init__(self) -> None:
        what = f"constraint ({self.slot_a},{self.slot_b})"
        if not self.distance_min >= 0:
            raise LibraryValidationError(
                f"{what}: distance_min must be >= 0, got {shown(self.distance_min)}"
            )
        if not self.distance_max >= self.distance_min:
            raise LibraryValidationError(
                f"{what}: distance_max must be >= distance_min "
                f"{shown(self.distance_min)}, got {shown(self.distance_max)}"
            )
        if self.bearing_tolerance is not None:
            checked(
                self.bearing_tolerance, "a finite number >= 0", "bearing_tolerance",
                what, LibraryValidationError,
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
        what = f"model {shown_name(self.name)}"
        if not self.slots:
            raise LibraryValidationError(f"{what}: needs at least one slot")
        if not (0.0 <= self.prior <= 1.0):
            raise LibraryValidationError(f"{what}: prior outside [0,1]")
        for c in self.constraints:
            for idx in (c.slot_a, c.slot_b):
                if not (0 <= idx < len(self.slots)):
                    raise LibraryValidationError(
                        f"{what}: constraint references slot {idx} "
                        f"but model has {len(self.slots)} slots"
                    )


# Each doctrine table and the unit of its rows' values, as a library
# document names them.
DOCTRINE_UNITS = (("min_separation", "meters"), ("max_heading_delta", "degrees"))

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

    def __post_init__(self) -> None:
        """Every row's value is a finite number >= 0; LibraryValidationError
        naming the table, the row's pair, the unit and the value."""
        for table, unit in DOCTRINE_UNITS:
            for (a, b), value in getattr(self, table).items():
                where = f"doctrine {table} row {shown_name(a)}, {shown_name(b)}"
                checked(value, "a finite number >= 0", unit, where, LibraryValidationError)

    @staticmethod
    def key(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class ModelLibrary:
    """Validated, immutable collection of types, models and doctrine."""

    types: Mapping[str, ForceType]
    models: Mapping[str, ForceModel]
    doctrine: DoctrineConfig = field(default_factory=DoctrineConfig)

    def type_of(self, name: str) -> ForceType:
        try:
            return self.types[name]
        except KeyError:
            raise UnknownTypeError(f"unknown force type {shown_name(name)}") from None

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
        return _resolve_doctrine(self, self.doctrine.min_separation, max, a, b)

    def max_heading_delta(self, a: str, b: str) -> float | None:
        return _resolve_doctrine(self, self.doctrine.max_heading_delta, min, a, b)


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


def load_library(text: str) -> ModelLibrary:
    """Parse and validate a serialized library, strictly (``Fields``), so
    a typo fails loudly instead of silently dropping a constraint."""
    doc = parse_json(text, "library", LibraryFormatError)
    doc = Fields(doc, ("types", "models", "doctrine"), "library", LibraryFormatError)
    types = _parse_types(doc.list("types", []))
    models = _parse_models(doc.list("models", []))
    doctrine = _parse_doctrine(doc.value("doctrine", {}))
    lib = ModelLibrary(types=types, models=models, doctrine=doctrine)
    _validate(lib)
    return lib


def finite_number(value: object) -> float | None:
    """``value`` as a float if it is a finite JSON number: not a bool, and
    not an integer beyond the float range.  None otherwise."""
    if type(value) is float:  # the common case, first
        return value if math.isfinite(value) else None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            return None
        if math.isfinite(number):
            return number
    return None


# Each kind of field as an error names it, and its reading: the value as
# read, or None when the JSON value is not of that kind.
_KINDS: dict[str, Callable[[object], object]] = {
    "a string": lambda v: v if isinstance(v, str) else None,
    "an integer": lambda v: v if type(v) is int else None,
    "a finite number": finite_number,
    "a finite number > 0": lambda v: n if (n := finite_number(v)) and n > 0 else None,
    "a finite number >= 0": (
        lambda v: n if (n := finite_number(v)) is not None and n >= 0 else None
    ),
    "a list": lambda v: v if isinstance(v, list) else None,
}
_NUMERIC = {"int": "an integer", "float": "a finite number"}
_REQUIRED = object()


def read_document(path: str | Path, what: str, error: type[Exception]) -> str:
    """The text of the input document ``what`` at ``path``; ``error``
    naming ``what`` when it is not UTF-8.  ``OSError`` passes through."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not UTF-8 text: {exc}") from exc


def parse_json(text: str, what: str, error: type[Exception]) -> object:
    """The JSON document ``text``, one of the input documents ``Fields``
    reads; ``error`` naming ``what`` when it is not JSON, holds an integer
    too long to convert, or nests too deep for the parser's recursion."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc


def shown(value: object, limit: int = 80) -> str:
    """A repr of an input value for an error message: ``reprlib`` elides
    deep nesting and long containers and strings, and the result is cut
    to ``limit`` characters, so a huge value gives a short message."""
    text = reprlib.repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def shown_name(name: object) -> str:
    """An entry's name (an id, a type or a model name) for an error
    message: the ``repr`` of a string of at most 30 characters, else
    ``shown``, so a huge name gives a short message."""
    if type(name) is str and len(name) <= 30:
        return repr(name)
    return shown(name)


def checked(value: object, kind: str, key: str, where: str, error: type[Exception]):
    """``value``, field ``key`` of the object ``where``, read as ``kind``
    (one of ``_KINDS``); ``error`` naming both when it is not one."""
    read = _KINDS[kind](value)
    if read is None:
        raise error(f"{where}: {key} must be {kind}, got {shown(value)}")
    return read


def field_names(cls: type) -> tuple[str, ...]:
    """The fields of dataclass ``cls``: the keys its JSON object may hold."""
    return tuple(f.name for f in dataclasses.fields(cls))


class Fields:
    """One JSON object of an input document, read strictly.

    Every input document (library, scenario, run config, ground truth and
    noise spec) is read through this class.  The constructor rejects a
    value that is not an object and any key outside ``allowed`` (None
    allows any).  Each accessor reads one field as a string, an integer
    (not a bool, nor a float such as 2.0), a finite number (returned as a
    float; not a bool, NaN, Infinity or an integer beyond the float
    range) or a list.  A field without a default is required.  Every
    failure raises ``error`` with a message naming the object
    (``where``) and the key.
    """

    __slots__ = ("raw", "where", "error")

    def __init__(
        self,
        raw: object,
        allowed: Collection[str] | None,
        where: str,
        error: type[Exception],
    ) -> None:
        if not isinstance(raw, dict):
            raise error(f"{where} must be a JSON object, got {shown(raw)}")
        unknown = () if allowed is None else raw.keys() - allowed
        if unknown:
            raise error(f"{where}: unknown keys {sorted(unknown)}")
        self.raw = raw
        self.where = where
        self.error = error

    def __contains__(self, key: str) -> bool:
        return key in self.raw

    def given(self, key: str) -> bool:
        """True when the field is present and not null."""
        return self.raw.get(key) is not None

    def value(self, key: str, default: object = _REQUIRED):
        """The field as given, or ``default`` when it is absent."""
        if key in self.raw:
            return self.raw[key]
        if default is _REQUIRED:
            raise self.error(f"{self.where}: missing key {key!r}")
        return default

    def check(self, key: str, value: object, kind: str):
        """``value`` (field ``key``, or an element of it) read as ``kind``."""
        return checked(value, kind, key, self.where, self.error)

    def _read(self, key: str, kind: str, default: object):
        if key not in self.raw:
            return self.value(key, default)
        return checked(self.raw[key], kind, key, self.where, self.error)

    def text(self, key: str, default: object = _REQUIRED) -> str:
        value = self.raw.get(key)
        if type(value) is str:  # the common case, first
            return value
        return self._read(key, "a string", default)

    def integer(self, key: str, default: object = _REQUIRED) -> int:
        return self._read(key, "an integer", default)

    def number(self, key: str, default: object = _REQUIRED) -> float:
        value = self.raw.get(key)
        if type(value) is float and math.isfinite(value):  # the common case, first
            return value
        return self._read(key, "a finite number", default)

    def list(self, key: str, default: object = _REQUIRED) -> list:
        return self._read(key, "a list", default)

    def numbers(self, cls: type, as_given: bool = False) -> dict:
        """Each field of dataclass ``cls`` annotated ``int`` or ``float``
        that this object holds, read as an integer or a finite number; with
        ``as_given`` the JSON value passes through unconverted."""
        out = {}
        for f in dataclasses.fields(cls):
            kind = _NUMERIC.get(getattr(f.type, "__name__", f.type))  # int or "int"
            if kind is not None and f.name in self.raw:
                value = self.raw[f.name]
                read = self.check(f.name, value, kind)
                out[f.name] = value if as_given else read
        return out


def _parse_types(raw: list) -> dict[str, ForceType]:
    types: dict[str, ForceType] = {}
    for k, entry in enumerate(raw):
        f = Fields(entry, ("name", "level", "isa"), f"type entry {k}", LibraryFormatError)
        name = f.text("name")
        f.where = f"type {shown_name(name)}"
        t = ForceType(
            name=name,
            level=Level.from_label(f.text("level")),
            isa_parent=f.text("isa") if f.given("isa") else None,
        )
        if t.name in types:
            raise LibraryValidationError(f"duplicate type {shown_name(t.name)}")
        types[t.name] = t
    return types


def _parse_models(raw: list) -> dict[str, ForceModel]:
    models: dict[str, ForceModel] = {}
    for k, entry in enumerate(raw):
        f = Fields(
            entry,
            ("name", "type", "slots", "constraints", "prior"),
            f"model entry {k}",
            LibraryFormatError,
        )
        name = f.text("name")
        f.where = what = f"model {shown_name(name)}"
        # a slot or constraint refused by its own check is named in its model
        try:
            slots = []
            for i, raw_slot in enumerate(f.list("slots", [])):
                s = Fields(
                    raw_slot, ("type", "min", "max"), f"{what} slot {i}",
                    LibraryFormatError,
                )
                slots.append(
                    ComponentSlot(s.text("type"), s.integer("min"), s.integer("max"))
                )
            constraints = []
            for i, raw_constraint in enumerate(f.list("constraints", [])):
                c = Fields(
                    raw_constraint,
                    ("slots", "d_min", "d_max", "bearing_tol"),
                    f"{what} constraint {i}",
                    LibraryFormatError,
                )
                pair = c.value("slots")
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise LibraryFormatError(f"{c.where}: 'slots' must be a pair")
                constraints.append(
                    DeploymentConstraint(
                        slot_a=c.check("slots", pair[0], "an integer"),
                        slot_b=c.check("slots", pair[1], "an integer"),
                        distance_min=c.number("d_min"),
                        distance_max=c.number("d_max"),
                        bearing_tolerance=c.number("bearing_tol", None),
                    )
                )
        except LibraryValidationError as exc:
            raise LibraryValidationError(f"{what} {exc}") from None
        m = ForceModel(
            name=name,
            models_type=f.text("type"),
            slots=tuple(slots),
            constraints=tuple(constraints),
            **f.numbers(ForceModel),
        )
        if m.name in models:
            raise LibraryValidationError(f"duplicate model {shown_name(m.name)}")
        models[m.name] = m
    return models


def _parse_doctrine(raw: object) -> DoctrineConfig:
    """The doctrine tables, each row keyed by its unordered type pair; a
    row whose pair an earlier row of its table holds, in either order,
    is refused rather than let replace it."""
    doctrine = Fields(raw, field_names(DoctrineConfig), "doctrine", LibraryFormatError)
    tables: dict[str, dict[tuple[str, str], float]] = {}
    for table, unit in DOCTRINE_UNITS:
        rows = tables[table] = {}
        first: dict[tuple[str, str], int] = {}  # each pair's row
        for k, entry in enumerate(doctrine.list(table, [])):
            f = Fields(entry, ("a", "b", unit), f"{table} row {k}", LibraryFormatError)
            pair = DoctrineConfig.key(f.text("a"), f.text("b"))
            if pair in first:
                raise LibraryValidationError(
                    f"{f.where}: duplicate pair {shown_name(pair[0])}, "
                    f"{shown_name(pair[1])} (first in row {first[pair]})"
                )
            first[pair] = k
            rows[pair] = f.number(unit)
    return DoctrineConfig(**tables)


def _validate(lib: ModelLibrary) -> None:
    for t in lib.types.values():
        _validate_isa_chain(t, lib)
    for m in lib.models.values():
        what = f"model {shown_name(m.name)}"
        model_level = _resolved_level(m.models_type, lib, what)
        for slot in m.slots:
            slot_level = _resolved_level(slot.required_type, lib, f"{what} slot")
            if model_level == Level.VEHICLE:
                raise LibraryValidationError(
                    f"{what}: vehicle-level types have no components"
                )
            if slot_level != model_level - 1:
                raise LibraryValidationError(
                    f"{what}: level skip: slot type "
                    f"{shown_name(slot.required_type)} is {slot_level.label}, "
                    f"expected {Level(model_level - 1).label}"
                )
    for pair in list(lib.doctrine.min_separation) + list(lib.doctrine.max_heading_delta):
        for name in pair:
            if name not in lib.types:
                raise LibraryValidationError(
                    f"doctrine: dangling type {shown_name(name)}"
                )


def _resolved_level(name: str, lib: ModelLibrary, what: str) -> Level:
    if name not in lib.types:
        raise LibraryValidationError(f"{what}: dangling type {shown_name(name)}")
    return lib.types[name].level


def _validate_isa_chain(t: ForceType, lib: ModelLibrary) -> None:
    seen = {t.name}
    cur = t
    while cur.isa_parent is not None:
        if cur.isa_parent not in lib.types:
            raise LibraryValidationError(
                f"type {shown_name(cur.name)}: "
                f"dangling type {shown_name(cur.isa_parent)}"
            )
        parent = lib.types[cur.isa_parent]
        if parent.level != t.level:
            raise LibraryValidationError(
                f"type {shown_name(cur.name)}: "
                f"is-a parent {shown_name(parent.name)} is at "
                f"{parent.level.label}, not {t.level.label} (is-a refines "
                "within a level)"
            )
        if parent.name in seen:
            raise LibraryValidationError(
                f"cyclic isa chain through {shown_name(parent.name)}"
            )
        seen.add(parent.name)
        cur = parent
