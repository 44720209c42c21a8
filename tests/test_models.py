import itertools
import json

import pytest

from echelon.exceptions import (
    LibraryFormatError,
    LibraryValidationError,
    UnknownTypeError,
)
from echelon.models import Level, isa_ancestors, load_library, subsumes

from conftest import TANK_LIBRARY


def lib_text(**overrides):
    doc = {**TANK_LIBRARY, **overrides}
    return json.dumps(doc)


def test_empty_library():
    lib = load_library("{}")
    assert len(lib.types) == 0 and len(lib.models) == 0


def test_isa_depth_four_accepted(tank_lib):
    chain = isa_ancestors("T-72-tank", tank_lib)
    assert [t.name for t in chain] == ["T-72-tank", "tank", "tracked-vehicle", "vehicle"]


def test_isa_ancestors_root_and_suffix(tank_lib):
    assert [t.name for t in isa_ancestors("vehicle", tank_lib)] == ["vehicle"]
    assert [t.name for t in isa_ancestors("tank", tank_lib)] == [
        "tank",
        "tracked-vehicle",
        "vehicle",
    ]


def test_isa_ancestors_level_constant(tank_lib):
    for name, t in tank_lib.types.items():
        chain = isa_ancestors(name, tank_lib)
        assert all(a.level == t.level for a in chain)
        assert chain[-1].isa_parent is None


def test_subsumes_examples(tank_lib):
    assert subsumes("vehicle", "T-72-tank", tank_lib)
    assert not subsumes("T-72-tank", "tank", tank_lib)
    for name in tank_lib.types:
        assert subsumes(name, name, tank_lib)


def test_subsumes_partial_order(tank_lib):
    names = list(tank_lib.types)
    for a, b in itertools.product(names, names):
        ab = subsumes(a, b, tank_lib)
        ba = subsumes(b, a, tank_lib)
        if ab and ba:
            assert a == b  # antisymmetry
    for a, b, c in itertools.product(names, repeat=3):
        if subsumes(a, b, tank_lib) and subsumes(b, c, tank_lib):
            assert subsumes(a, c, tank_lib)  # transitivity


def test_unknown_type_errors(tank_lib):
    with pytest.raises(UnknownTypeError):
        isa_ancestors("hovercraft", tank_lib)
    with pytest.raises(UnknownTypeError):
        subsumes("hovercraft", "tank", tank_lib)


def test_level_skip_rejected():
    models = [
        {
            "name": "bad",
            "type": "tank-battalion",
            "slots": [{"type": "tank", "min": 1, "max": 1}],
        }
    ]
    with pytest.raises(LibraryValidationError, match="level skip"):
        load_library(lib_text(models=models))


def test_cyclic_isa_rejected():
    types = [
        {"name": "a", "level": "vehicle", "isa": "b"},
        {"name": "b", "level": "vehicle", "isa": "a"},
    ]
    with pytest.raises(LibraryValidationError, match="cyclic"):
        load_library(json.dumps({"types": types}))


def test_isa_crossing_levels_rejected():
    types = [
        {"name": "array", "level": "array"},
        {"name": "weird", "level": "vehicle", "isa": "array"},
    ]
    with pytest.raises(LibraryValidationError, match="refines"):
        load_library(json.dumps({"types": types}))


def test_dangling_slot_type_rejected():
    doc = {
        "types": [{"name": "array", "level": "array"}],
        "models": [
            {
                "name": "m",
                "type": "array",
                "slots": [{"type": "ghost", "min": 1, "max": 1}],
            }
        ],
    }
    with pytest.raises(LibraryValidationError, match="dangling"):
        load_library(json.dumps(doc))


def test_partof_back_edge_rejected():
    # A same-level (or ascending) slot reference can never validate: the
    # part-of graph must descend exactly one level, so cycles are
    # structurally impossible.
    doc = {
        "types": [
            {"name": "array", "level": "array"},
            {"name": "company", "level": "array", "isa": "array"},
        ],
        "models": [
            {
                "name": "loop",
                "type": "array",
                "slots": [{"type": "company", "min": 1, "max": 1}],
            }
        ],
    }
    with pytest.raises(LibraryValidationError, match="level skip"):
        load_library(json.dumps(doc))


def test_vehicle_level_model_rejected():
    doc = {
        "types": [{"name": "vehicle", "level": "vehicle"}],
        "models": [
            {
                "name": "m",
                "type": "vehicle",
                "slots": [{"type": "vehicle", "min": 1, "max": 1}],
            }
        ],
    }
    with pytest.raises(LibraryValidationError, match="no components"):
        load_library(json.dumps(doc))


def test_malformed_json_is_format_error():
    with pytest.raises(LibraryFormatError):
        load_library("{not json")


def test_unknown_keys_rejected():
    with pytest.raises(LibraryFormatError, match=r"library: unknown keys \['modles'\]"):
        load_library(json.dumps({"types": [], "modles": []}))
    with pytest.raises(LibraryFormatError, match="unknown keys"):
        load_library(
            json.dumps(
                {"types": [{"name": "x", "level": "vehicle", "colour": "green"}]}
            )
        )


def test_duplicate_type_rejected():
    types = [
        {"name": "x", "level": "vehicle"},
        {"name": "x", "level": "vehicle"},
    ]
    with pytest.raises(LibraryValidationError, match="duplicate"):
        load_library(json.dumps({"types": types}))


def test_slot_and_constraint_validation():
    with pytest.raises(LibraryValidationError, match="count_max"):
        load_library(
            lib_text(
                models=[
                    {
                        "name": "m",
                        "type": "tank-company",
                        "slots": [{"type": "tank", "min": 3, "max": 2}],
                    }
                ]
            )
        )
    with pytest.raises(LibraryValidationError, match="references slot"):
        load_library(
            lib_text(
                models=[
                    {
                        "name": "m",
                        "type": "tank-company",
                        "slots": [{"type": "tank", "min": 1, "max": 1}],
                        "constraints": [{"slots": [0, 3], "d_min": 1, "d_max": 2}],
                    }
                ]
            )
        )
    with pytest.raises(LibraryValidationError, match="prior"):
        load_library(
            lib_text(
                models=[
                    {
                        "name": "m",
                        "type": "tank-company",
                        "slots": [{"type": "tank", "min": 1, "max": 1}],
                        "prior": 1.5,
                    }
                ]
            )
        )


def test_doctrine_lookup_most_specific():
    doc = dict(TANK_LIBRARY)
    doc["doctrine"] = {
        "min_separation": [
            {"a": "vehicle", "b": "vehicle", "meters": 25},
            {"a": "tank", "b": "tank", "meters": 60},
        ]
    }
    lib = load_library(json.dumps(doc))
    assert lib.min_separation("T-72-tank", "T-72-tank") == 60
    assert lib.min_separation("BMP", "tank") == 25
    assert lib.min_separation("BMP", "BMP") == 25
    assert lib.max_heading_delta("BMP", "BMP") is None


def test_doctrine_lookup_symmetric_on_depth_ties():
    # (tank, veh) and (apc, veh) both sit one refinement step above
    # (tank, apc): the strictest entry wins in either argument order
    doc = {
        "types": [
            {"name": "veh", "level": "vehicle"},
            {"name": "tank", "level": "vehicle", "isa": "veh"},
            {"name": "apc", "level": "vehicle", "isa": "veh"},
        ],
        "doctrine": {
            "min_separation": [
                {"a": "tank", "b": "veh", "meters": 10},
                {"a": "apc", "b": "veh", "meters": 50},
                {"a": "veh", "b": "veh", "meters": 100},
            ],
            "max_heading_delta": [
                {"a": "tank", "b": "veh", "degrees": 30},
                {"a": "apc", "b": "veh", "degrees": 90},
            ],
        },
    }
    lib = load_library(json.dumps(doc))
    assert lib.min_separation("tank", "apc") == 50
    assert lib.min_separation("apc", "tank") == 50
    assert lib.max_heading_delta("tank", "apc") == 30
    assert lib.max_heading_delta("apc", "tank") == 30
    # only ties are settled by strictness: a shallower entry still wins
    # over the stricter (veh, veh) row
    assert lib.min_separation("tank", "veh") == 10
    assert lib.min_separation("tank", "tank") == 10
    assert lib.min_separation("veh", "veh") == 100


def test_doctrine_lookup_symmetric_across_tank_library(tank_lib):
    names = sorted(tank_lib.types)
    for a, b in itertools.product(names, repeat=2):
        assert tank_lib.min_separation(a, b) == tank_lib.min_separation(b, a)
        assert tank_lib.max_heading_delta(a, b) == tank_lib.max_heading_delta(b, a)


def test_doctrine_dangling_type_rejected():
    doc = {"types": [], "doctrine": {"min_separation": [{"a": "x", "b": "x", "meters": 1}]}}
    with pytest.raises(LibraryValidationError, match="dangling"):
        load_library(json.dumps(doc))


@pytest.mark.parametrize("a, b", [("vehicle", "vehicle"), ("tank", "BMP"), ("BMP", "tank")])
def test_doctrine_duplicate_pair_rejected_in_either_order(a, b):
    # a later row with the same unordered type pair would silently
    # replace the earlier one: the tank library's 25 m would become 5 m
    doctrine = {
        "min_separation": [
            {"a": "vehicle", "b": "vehicle", "meters": 25},
            {"a": "tank", "b": "BMP", "meters": 40},
            {"a": a, "b": b, "meters": 5},
        ],
        "max_heading_delta": [{"a": a, "b": b, "degrees": 120}],
    }
    first, second = sorted((a, b))
    row = 0 if a == "vehicle" else 1
    with pytest.raises(LibraryValidationError) as caught:
        load_library(lib_text(doctrine=doctrine))
    assert str(caught.value) == (
        f"min_separation row 2: duplicate pair {first!r}, {second!r} "
        f"(first in row {row})"
    )


def test_doctrine_duplicate_pair_rejected_in_each_table():
    rows = [{"a": "tank", "b": "BMP", "degrees": 90}, {"a": "BMP", "b": "tank", "degrees": 30}]
    with pytest.raises(
        LibraryValidationError,
        match=r"^max_heading_delta row 1: duplicate pair 'BMP', 'tank' \(first in row 0\)$",
    ):
        load_library(lib_text(doctrine={"max_heading_delta": rows}))
    # the same pair in the two tables is one row of each
    lib = load_library(
        lib_text(doctrine={"min_separation": [{"a": "tank", "b": "BMP", "meters": 5}],
                           "max_heading_delta": rows[:1]})
    )
    assert lib.min_separation("BMP", "tank") == 5
    assert lib.max_heading_delta("BMP", "tank") == 90


def test_models_at_levels(tank_lib):
    assert [m.name for m in tank_lib.models_at(Level.ARRAY)] == ["tank-company-line"]
    assert [m.name for m in tank_lib.models_at(Level.DIVISION)] == []
