import copy
import enum
import json
import math
import re
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from echelon.exceptions import ScenarioError
from echelon.models import load_library
from echelon.scenario import (
    DUMPS_SLICE,
    NoiseSpec,
    dumps,
    generate,
    load_ground_truth,
    load_noise_spec,
    score,
)

from conftest import TANK_LIBRARY


def company(cx, cy):
    return {
        "model": "tank-company-line",
        "components": [
            {"type": "T-72-tank", "x": cx - 100.0, "y": cy, "heading": 90.0},
            {"type": "T-72-tank", "x": cx, "y": cy, "heading": 90.0},
            {"type": "T-72-tank", "x": cx + 100.0, "y": cy, "heading": 90.0},
        ],
    }


def battalion_doc():
    return {
        "id": "bn-test",
        "area": {"width_m": 6000, "height_m": 6000},
        "forces": [
            {
                "model": "tank-battalion-std",
                "components": [company(1000, 1000), company(2000, 1000), company(1500, 1900)],
            }
        ],
    }


@pytest.fixture
def lib():
    return load_library(json.dumps(TANK_LIBRARY))


def unfilled(where, n, model):
    """The exact refusal of a node at ``where`` whose ``n`` components
    fill no slot assignment of ``model``."""
    return "^" + re.escape(
        f"{where}: no slot assignment of its {n} components fits model '{model}'"
    ) + "$"


class TestGroundTruth:
    def test_valid_placements_accepted(self, lib):
        gt = load_ground_truth(battalion_doc(), lib)
        assert len(gt.forces) == 1

    def test_constraint_violation_rejected(self, lib):
        doc = battalion_doc()
        # squeeze one company's tanks to 10 m spacing: below d_min 50
        bad = doc["forces"][0]["components"][0]["components"]
        for i, v in enumerate(bad):
            v["x"] = 1000.0 + 10.0 * i
        with pytest.raises(
            ScenarioError, match=unfilled("force 0 component 0", 3, "tank-company-line")
        ):
            load_ground_truth(doc, lib)

    @pytest.mark.parametrize(
        "headings, refused",
        [
            ((90.0, 90.0, 90.0), False),
            ((80.0, 110.0, 95.0), False),  # 30 apart: the limit, no slack
            ((350.0, 20.0, 5.0), False),  # 30 apart across north
            ((80.0, 110.5, 95.0), True),
            ((0.0, 180.0, 0.0), True),
            ((0.0, None, 180.0), True),
            ((0.0, None, None), False),  # a pair needs both headings
        ],
    )
    def test_bearing_tolerance_checked_strictly(self, headings, refused):
        library = copy.deepcopy(TANK_LIBRARY)
        library["models"][0]["constraints"][0]["bearing_tol"] = 30
        doc = battalion_doc()
        for tank, heading in zip(doc["forces"][0]["components"][0]["components"], headings):
            if heading is None:
                del tank["heading"]
            else:
                tank["heading"] = heading
        lib = load_library(json.dumps(library))
        if refused:
            with pytest.raises(
                ScenarioError, match=unfilled("force 0 component 0", 3, "tank-company-line")
            ):
                load_ground_truth(doc, lib)
        else:
            load_ground_truth(doc, lib)

    @pytest.mark.parametrize(
        "heading, refused", [(90.0, False), (100.0, False), (120.0, True), (None, False)]
    )
    def test_a_models_heading_is_its_childrens_mean(self, heading, refused):
        # companies head as their tanks do, on average; one with no
        # tank heading has none, and no pair of it is held to a bearing.
        # Only the first company turns, so the battalion is refused, not
        # a company: 30 degrees apart from the others, over the 10
        library = copy.deepcopy(TANK_LIBRARY)
        library["models"][1]["constraints"][0]["bearing_tol"] = 10
        doc = battalion_doc()
        for tank in doc["forces"][0]["components"][0]["components"]:
            if heading is None:
                del tank["heading"]
            else:
                tank["heading"] = heading
        lib = load_library(json.dumps(library))
        if refused:
            with pytest.raises(
                ScenarioError, match=unfilled("force 0", 3, "tank-battalion-std")
            ):
                load_ground_truth(doc, lib)
        else:
            load_ground_truth(doc, lib)

    def test_wrong_child_type_rejected(self, lib):
        doc = battalion_doc()
        doc["forces"][0]["components"][0]["components"][0]["type"] = "BMP"
        with pytest.raises(
            ScenarioError, match=unfilled("force 0 component 0", 3, "tank-company-line")
        ):
            load_ground_truth(doc, lib)

    def test_underfilled_slot_rejected(self, lib):
        doc = battalion_doc()
        del doc["forces"][0]["components"][0]["components"][2]
        with pytest.raises(
            ScenarioError, match=unfilled("force 0 component 0", 2, "tank-company-line")
        ):
            load_ground_truth(doc, lib)

    def test_overfilled_slot_rejected(self, lib):
        doc = battalion_doc()
        doc["forces"][0]["components"].append(company(1500, 2800))
        with pytest.raises(ScenarioError, match=unfilled("force 0", 4, "tank-battalion-std")):
            load_ground_truth(doc, lib)

    @pytest.mark.parametrize("order", [("T-72-tank", "BMP"), ("BMP", "T-72-tank")])
    def test_children_in_any_order_fill_their_slots(self, order):
        # a T-72 fits both slots and a BMP only the first: listed first,
        # the T-72 takes the first slot under a first-fit assignment, and
        # the BMP is left with none
        library = copy.deepcopy(TANK_LIBRARY)
        library["models"][0]["slots"] = [
            {"type": "tracked-vehicle", "min": 1, "max": 1},
            {"type": "tank", "min": 1, "max": 1},
        ]
        library["models"][0]["constraints"] = [{"slots": [0, 1], "d_min": 50, "d_max": 250}]
        doc = {
            "forces": [
                {
                    "model": "tank-company-line",
                    "components": [
                        {"type": t, "x": 100.0 * i, "y": 0.0} for i, t in enumerate(order)
                    ],
                }
            ]
        }
        gt = load_ground_truth(doc, load_library(json.dumps(library)))
        assert [c.vehicle_type for c in gt.forces[0].children] == list(order)

    def test_a_search_past_the_assignment_cap_is_refused(self):
        # 17 children of a slot of 1 to 17 unconstrained tanks: the search
        # meets every smaller subset, 2**17 - 2 of them, before the one
        # that holds all 17, and stops at MAX_ASSIGNMENTS (100,000); the
        # refusal names the second force
        library = copy.deepcopy(TANK_LIBRARY)
        library["models"][0]["slots"] = [{"type": "tank", "min": 1, "max": 17}]
        library["models"][0]["constraints"] = []
        doc = {
            "forces": [
                company(0.0, 0.0),  # fills the model
                {
                    "model": "tank-company-line",
                    "components": [
                        {"type": "T-72-tank", "x": 10.0 * i, "y": 0.0} for i in range(17)
                    ],
                },
            ]
        }
        with pytest.raises(ScenarioError) as caught:
            load_ground_truth(doc, load_library(json.dumps(library)))
        assert str(caught.value) == (
            "force 1: model 'tank-company-line': its 17 children have over 100000 "
            "slot assignments"
        )

    def test_unknown_model_named_by_position(self, lib):
        doc = battalion_doc()
        doc["forces"][0]["components"][1]["model"] = "x"
        with pytest.raises(ScenarioError, match="^force 0 component 1: unknown model 'x'$"):
            load_ground_truth(doc, lib)


class TestNoiseSpec:
    def test_bad_row_sum_rejected(self):
        with pytest.raises(ScenarioError, match="sums to"):
            load_noise_spec({"misclassification": {"tank": {"tank": 0.7, "BMP": 0.2}}})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ScenarioError, match="unknown keys"):
            load_noise_spec({"p_detct": 1.0})

    def test_p_detect_range(self):
        with pytest.raises(ScenarioError):
            load_noise_spec({"p_detect": 1.5})

    @pytest.mark.parametrize(
        "spec, key, value",
        [
            ({"p_detect": 1.5}, "p_detect must be in [0, 1]", "1.5"),
            ({"p_detect": math.nan}, "p_detect must be in [0, 1]", "nan"),
            ({"false_alarm_density": -0.5}, "false_alarm_density", "-0.5"),
            ({"false_alarm_density": math.nan}, "false_alarm_density", "nan"),
            ({"location_jitter": -1.0}, "location_jitter", "-1.0"),
            ({"location_jitter": math.nan}, "location_jitter", "nan"),  # jitter off
            ({"location_jitter": math.inf}, "location_jitter", "inf"),
            ({"seed": 1.5}, "seed must be an integer", "1.5"),
            ({"seed": True}, "seed must be an integer", "True"),
        ],
    )
    def test_refusals_name_the_key_and_the_value(self, spec, key, value):
        # as the Python API builds it, which reads no JSON first
        if " must be " not in key:
            key += " must be a finite number >= 0"
        with pytest.raises(ScenarioError) as caught:
            NoiseSpec(**spec)
        assert str(caught.value) == f"noise spec: {key}, got {value}"

    @pytest.mark.parametrize("entry", [-0.5, math.nan, True])
    def test_a_row_entry_is_a_number_at_least_0(self, entry):
        # NaN sums to NaN, which no tolerance test of the sum refuses
        row = {"tank": 1.0 - entry if entry == entry else 1.0, "BMP": entry}
        with pytest.raises(ScenarioError) as caught:
            NoiseSpec(misclassification={"tank": row})
        assert str(caught.value) == (
            "noise spec misclassification row 'tank': label 'BMP' must be a finite "
            f"number >= 0, got {entry!r}"
        )

    @pytest.mark.parametrize("value", [0, 0.0, -6.0, math.nan, math.inf])
    def test_lambda_hit_must_be_positive_and_finite(self, value):
        # every detection's ratio is lambda_hit or a positive multiple of
        # it, which infer refuses unless positive and finite
        with pytest.raises(ScenarioError, match="^noise spec: lambda_hit must be"):
            NoiseSpec(lambda_hit=value)
        assert NoiseSpec(lambda_hit=2).lambda_hit == 2

    @pytest.mark.parametrize(
        "lambda_hit, row, label",
        [
            (1e308, {"tank": 0.1, "BMP": 0.9}, "BMP"),
            (6.0, {"tank": 1e-308, "BMP": 1.0}, "BMP"),
        ],
    )
    def test_a_ratio_that_overflows_is_refused(self, lambda_hit, row, label):
        # a misclassified detection carries lambda_hit * row[observed] /
        # row[true], which must stay finite for infer to read it
        with pytest.raises(ScenarioError) as caught:
            NoiseSpec(lambda_hit=lambda_hit, misclassification={"tank": row})
        assert str(caught.value) == (
            f"noise spec misclassification row 'tank' label {label!r}: its detection "
            f"ratio lambda_hit * {row[label]!r} / {row['tank']!r} is not finite"
        )

    @pytest.mark.parametrize(
        "row",
        [
            {"tank": 0.5, "BMP": 0.5},  # a ratio of lambda_hit itself
            {"tank": 0.9, "BMP": 0.1, "truck": 0.0},  # a label never drawn
            {"BMP": 1.0},  # no correct reading: generate writes 1.0
        ],
    )
    def test_finite_ratios_of_a_huge_lambda_hit_are_kept(self, row):
        noise = NoiseSpec(lambda_hit=1e308, misclassification={"tank": row})
        assert noise.misclassification == {"tank": row}


class TestGroundTruthTerrain:
    """Ground-truth terrain is read as infer reads a scenario's, then
    copied into the scenario as given."""

    def test_entries_pass_through_as_given(self, lib):
        terrain = [{"x": 1.0, "y": 2.0, "lambda": 2.0}, {"id": 7, "x": 0, "y": 0, "lambda": 1}]
        gt = load_ground_truth({**battalion_doc(), "terrain": terrain}, lib)
        scenario = generate(gt, NoiseSpec(), lib)
        assert scenario["terrain"] == terrain

    @pytest.mark.parametrize(
        "entry, error, message",
        [
            ({"id": "t0", "x": 0.0, "y": 0.0, "lambda": -2.0}, ScenarioError,
             "ground truth terrain entry 't0': lambda must be a finite number > 0, "
             "got -2.0"),
            ({"id": "t0", "x": 0.0, "lambda": 2.0}, ScenarioError,
             "ground truth terrain entry 't0': missing key 'y'"),
            ({"x": 0.0, "y": 0.0, "lambda": 2.0, "radius": 5.0}, ScenarioError,
             "ground truth terrain entry 0: unknown keys ['radius']"),
        ],
    )
    def test_entries_infer_refuses_are_refused(self, entry, error, message):
        with pytest.raises(error) as caught:
            load_ground_truth({**battalion_doc(), "terrain": [entry]})
        assert str(caught.value) == message


class TestGenerate:
    def test_noiseless_channel_reproduces_vehicles(self, lib):
        gt = load_ground_truth(battalion_doc(), lib)
        noise = load_noise_spec({"p_detect": 1.0, "seed": 3})
        scen = generate(gt, noise, lib)
        dets = scen["detections"]
        vehicles = scen["ground_truth"]["vehicles"]
        assert len(dets) == 9
        assert all(v["detected"] for v in vehicles)
        for det, v in zip(dets, vehicles):
            assert det["type"] == v["type"]
            assert det["x"] == v["x"] and det["y"] == v["y"]
        levels = [u["level"] for u in scen["ground_truth"]["units"]]
        assert levels.count("battalion") == 1 and levels.count("array") == 3

    def test_unit_of_a_model_missing_from_the_library_has_no_type_or_level(self, lib):
        doc = battalion_doc()
        doc["forces"][0]["model"] = "no-such-model"
        gt = load_ground_truth(doc)  # unvalidated: no library to check against
        scen = generate(gt, load_noise_spec({"seed": 1}), lib)
        unit = scen["ground_truth"]["units"][0]
        assert unit["model"] == "no-such-model"
        assert unit["type"] is None and unit["level"] is None
        assert [u["level"] for u in scen["ground_truth"]["units"][1:]] == ["array"] * 3

    def test_p_detect_zero_only_false_alarms(self, lib):
        gt = load_ground_truth(battalion_doc(), lib)
        noise = load_noise_spec(
            {"p_detect": 0.0, "false_alarm_density": 2.0, "seed": 5}
        )
        scen = generate(gt, noise, lib)
        assert all(not v["detected"] for v in scen["ground_truth"]["vehicles"])
        for det in scen["detections"]:
            assert 0 <= det["x"] <= 6000 and 0 <= det["y"] <= 6000

    def test_seeded_runs_byte_identical(self, lib):
        gt = load_ground_truth(battalion_doc(), lib)
        noise = load_noise_spec(
            {
                "p_detect": 0.8,
                "false_alarm_density": 1.0,
                "location_jitter": 15.0,
                "misclassification": {"T-72-tank": {"T-72-tank": 0.8, "BMP": 0.2}},
                "seed": 11,
            }
        )
        a = dumps(generate(gt, noise, lib))
        b = dumps(generate(gt, noise, lib))
        assert a == b
        other = load_noise_spec({**json.loads('{}'), "p_detect": 0.8, "seed": 12})
        assert dumps(generate(gt, other, lib)) != a

    def test_misclassified_detection_has_reduced_ratio(self, lib):
        gt = load_ground_truth(battalion_doc(), lib)
        noise = load_noise_spec(
            {
                "misclassification": {"T-72-tank": {"T-72-tank": 0.5, "BMP": 0.5}},
                "seed": 2,
                "lambda_hit": 6.0,
            }
        )
        scen = generate(gt, noise, lib)
        lams = {d["type"]: d["lambda"] for d in scen["detections"]}
        assert lams.get("BMP") == pytest.approx(6.0)  # equal row odds
        noise2 = load_noise_spec(
            {
                "misclassification": {"T-72-tank": {"T-72-tank": 0.8, "BMP": 0.2}},
                "seed": 2,
            }
        )
        scen2 = generate(gt, noise2, lib)
        for d in scen2["detections"]:
            if d["type"] == "BMP":
                assert d["lambda"] == pytest.approx(6.0 * 0.2 / 0.8)

    def test_detection_count_tracks_p_detect(self, lib):
        gt = load_ground_truth(battalion_doc(), lib)
        p = 0.7
        n_vehicles = 9
        counts = []
        for seed in range(200):
            noise = load_noise_spec({"p_detect": p, "seed": seed})
            counts.append(len(generate(gt, noise, lib)["detections"]))
        total = sum(counts)
        mean = total / len(counts)
        sigma = (n_vehicles * p * (1 - p)) ** 0.5 / len(counts) ** 0.5
        assert abs(mean - p * n_vehicles) <= 3 * sigma * n_vehicles**0.5


class TestScore:
    def run_report(self, lib, scen):
        # minimal fake report: perfect hypotheses at company level
        entries = []
        for i, u in enumerate(scen["ground_truth"]["units"]):
            if u["level"] != "array":
                continue
            entries.append(
                {
                    "id": f"a{i}",
                    "type": u["type"],
                    "x": u["x"],
                    "y": u["y"],
                    "posterior": 0.9,
                    "status": "active",
                }
            )
        return {
            "scenario_id": scen["scenario_id"],
            "levels": {"array": entries},
            "conflicts": [],
        }

    def test_perfect_match(self, lib):
        gt = load_ground_truth(battalion_doc(), lib)
        scen = generate(gt, load_noise_spec({"seed": 1}), lib)
        report = self.run_report(lib, scen)
        m = score(report, scen, match_radius=50.0)
        assert m["levels"]["array"]["precision"] == 1.0
        assert m["levels"]["array"]["recall"] == 1.0

    def test_empty_report_recall_zero(self, lib):
        gt = load_ground_truth(battalion_doc(), lib)
        scen = generate(gt, load_noise_spec({"seed": 1}), lib)
        report = {"scenario_id": scen["scenario_id"], "levels": {"array": []}, "conflicts": []}
        m = score(report, scen, match_radius=50.0)
        assert m["levels"]["array"]["recall"] == 0.0
        assert m["levels"]["array"]["precision"] == 1.0  # vacuous

    def test_false_alarm_hypotheses_zero_precision(self, lib):
        gt = load_ground_truth(battalion_doc(), lib)
        scen = generate(gt, load_noise_spec({"seed": 1}), lib)
        report = {
            "scenario_id": scen["scenario_id"],
            "levels": {
                "array": [
                    {
                        "id": "a0",
                        "type": "tank-company",
                        "x": 9999.0,
                        "y": 9999.0,
                        "posterior": 0.9,
                        "status": "active",
                    }
                ]
            },
            "conflicts": [],
        }
        m = score(report, scen, match_radius=50.0)
        assert m["levels"]["array"]["precision"] == 0.0

    def test_relabeling_invariance(self, lib):
        gt = load_ground_truth(battalion_doc(), lib)
        scen = generate(gt, load_noise_spec({"seed": 1}), lib)
        report = self.run_report(lib, scen)
        renamed = copy.deepcopy(report)
        for i, e in enumerate(renamed["levels"]["array"]):
            e["id"] = f"zz{i}"
        assert score(report, scen, 50.0)["levels"] == score(renamed, scen, 50.0)["levels"]

    def test_scenario_mismatch_rejected(self, lib):
        gt = load_ground_truth(battalion_doc(), lib)
        scen = generate(gt, load_noise_spec({"seed": 1}), lib)
        report = {"scenario_id": "other", "levels": {}, "conflicts": []}
        with pytest.raises(ScenarioError, match="report is for"):
            score(report, scen, 50.0)

    def test_default_radius_from_doctrine(self, lib):
        # smallest separation is 25 m, so the default radius is 12.5 m
        gt = load_ground_truth(battalion_doc(), lib)
        scen = generate(gt, load_noise_spec({"seed": 1}), lib)
        report = self.run_report(lib, scen)
        assert score(report, scen, lib=lib) == score(report, scen, 12.5)
        with pytest.raises(ScenarioError, match="match_radius required"):
            score(report, scen)

    def test_skipped_hypotheses_not_asserting(self, lib):
        gt = load_ground_truth(battalion_doc(), lib)
        scen = generate(gt, load_noise_spec({"seed": 1}), lib)
        report = self.run_report(lib, scen)
        for e in report["levels"]["array"]:
            e["status"] = "skipped"
        m = score(report, scen, 50.0)
        assert m["levels"]["array"]["hypotheses"] == 0
        assert m["levels"]["array"]["recall"] == 0.0


class Mode(str, enum.Enum):
    FAST = "fast"
    QUOTED = 'say "é"'


class Rank(enum.IntEnum):
    LOW = 1
    HUGE = 2**70


class Ratio(float, enum.Enum):
    HALF = 0.5
    TINY = 5e-324


SPECIAL_CHARS = [
    '"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600", "\ud800", "\udfff",
]
SPECIAL_FLOATS = [
    -0.0, 5e-324, 1e16, 1e-7, 1.7976931348623157e308, math.nan, math.inf, -math.inf,
]


def no_surrogate_pair(s: str) -> bool:
    """False when a high surrogate directly precedes a low one, which
    ``json.loads`` reads back as one astral character (see ``dumps``);
    lone surrogates, which ``json.loads`` can return, are kept."""
    return not any(
        "\ud800" <= a <= "\udbff" and "\udc00" <= b <= "\udfff" for a, b in zip(s, s[1:])
    )


strings = (
    st.lists(
        st.one_of(st.characters(exclude_categories=()), st.sampled_from(SPECIAL_CHARS)),
        max_size=6,
    )
    .map("".join)
    .filter(no_surrogate_pair)
)
scalars = st.one_of(
    strings,
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    st.integers(-(2**80), 2**80),
    st.sampled_from([2**64, -(2**64) - 1, 10**30]),
    st.booleans(),
    st.none(),
    st.sampled_from([*Mode, *Rank, *Ratio]),
)


def long_lists():
    """Lists one shorter than the writer's slice, as long, one longer,
    and two slices and one longer, cycling through a few scalars and
    small str-keyed dicts: ``dumps`` hands json's encoder the longer
    ones a slice at a time."""
    lengths = [DUMPS_SLICE - 1, DUMPS_SLICE, DUMPS_SLICE + 1, 2 * DUMPS_SLICE + 1]
    values = st.one_of(scalars, st.dictionaries(strings, scalars, max_size=3))
    return st.tuples(st.sampled_from(lengths), st.lists(values, min_size=1, max_size=3)).map(
        lambda t: [t[1][i % len(t[1])] for i in range(t[0])]
    )


def documents(depth: int):
    """JSON-like documents nested at most ``depth`` containers deep."""
    if depth == 0:
        return scalars
    inner = documents(depth - 1)
    items = st.lists(inner, max_size=3)
    long = long_lists()
    return st.one_of(
        scalars,
        st.just({}),
        st.just([]),
        st.just(()),
        items,
        items.map(tuple),
        st.lists(strings, min_size=1, max_size=4),  # all str: the id lists
        st.tuples(strings, items).map(lambda t: [t[0], *t[1]]),  # str first, then mixed
        st.lists(st.dictionaries(strings, inner, max_size=3), max_size=3),
        same_key_dicts(inner),
        st.dictionaries(strings, inner, max_size=4),
        long,
        st.dictionaries(strings, long, max_size=2),
        st.tuples(long, inner),
        long.map(tuple),
        st.dictionaries(st.integers(-3, 3), long, max_size=2),  # json coerces the keys
    )


def same_key_dicts(values):
    """Lists of dicts that share one key tuple: the shape of the report's
    reason, trace and consistent-set entries."""
    return st.lists(strings, min_size=1, max_size=3, unique=True).flatmap(
        lambda keys: st.lists(
            st.fixed_dictionaries({k: values for k in keys}), min_size=1, max_size=4
        )
    )


class TestDumps:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(documents(5))
    @example([{"\udfff": "", "\ud800": None, "\udfff\ud800": 1}])  # lone surrogates
    def test_matches_json_dumps(self, doc):
        # json's bytes, in one ASCII line, or json's ValueError on a
        # float that is not finite
        try:
            want = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
        except ValueError:
            with pytest.raises(ValueError):
                dumps(doc)
            return
        text = dumps(doc)
        assert text == want + "\n"
        assert text.isascii()
        assert text.index("\n") == len(text) - 1

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "place",
        [
            lambda v: v,
            lambda v: {"a": [1.0, {"b": v}]},
            lambda v: [*range(DUMPS_SLICE + 1), v],  # past the first slice
            lambda v: {v: 1},  # json writes a float key as its repr
        ],
        ids=["alone", "nested", "past-a-slice", "key"],
    )
    def test_non_finite_float_raises(self, value, place):
        with pytest.raises(ValueError, match="Out of range float values"):
            dumps(place(value))

    @pytest.mark.parametrize(
        "doc",
        [
            {"a": {1, 2}},
            ["x", {1, 2}],
            [b"x"],
            object(),
            [{"a": ["x", b"y"]}],
            [{"a": {1, 2}}],
            # json coerces int, float, bool and None keys, not these
            {(1, 2): "a"},
            {"a": {b"k": 1}},
            # past the first slice of a list the writer slices
            [*range(DUMPS_SLICE), {1, 2}],
            {"a": [*range(2 * DUMPS_SLICE), b"x"]},
        ],
    )
    def test_non_str_key_or_unsupported_value_raises(self, doc):
        with pytest.raises(TypeError):
            dumps(doc)

    def test_transient_memory_follows_one_slice(self):
        # 2,000 entries shaped like the report's hypothesis records.
        # Beyond the document, json.dumps allocated 4.7 times its text
        # (the encoder's token list for all of it); the slicing writer
        # allocates 2.0 times (its pieces, their join, and one slice's
        # tokens).
        doc = {
            "levels": {
                "array": [
                    {
                        "id": f"a{i}", "type": "tank-company", "model": "tank-company-line",
                        "x": 1000.0 + i * 1.5, "y": 2000.0 - i / 3, "heading": None,
                        "time": 0.0, "prior": 0.3, "posterior": 0.9 - i / 1e4,
                        "status": "active", "out_of_range": False,
                        "components": [f"v.d{3 * i + k}" for k in range(3)],
                        "own_evidence": [f"fit.a{i}"],
                        "accrual": {
                            "raw": 0.9 - i / 1e4, "fit": [0.5, 0.75],
                            "components": [[0.8, 0.5, 0.8 + i / 1e5, 0.5]] * 3,
                        },
                    }
                    for i in range(2000)
                ]
            }
        }
        tracemalloc.start()
        try:
            text = dumps(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(text)

    @staticmethod
    def holding_itself(kind):
        long = list(range(2 * DUMPS_SLICE))
        if kind == "dict":
            doc = {"a": 1}
            doc["self"] = doc
        elif kind == "list":
            doc = [1]
            doc.append(doc)
        elif kind == "long list":
            doc = long
            doc.append(doc)
        else:  # a dict, through a long list
            doc = {"a": long}
            long.append(doc)
        return doc

    @pytest.mark.parametrize("kind", ["dict", "list", "long list", "dict via long list"])
    def test_container_holding_itself_raises_as_json_does(self, kind):
        with pytest.raises(ValueError) as ours:
            dumps(self.holding_itself(kind))
        with pytest.raises(ValueError) as stdlib:
            json.dumps(self.holding_itself(kind), sort_keys=True, separators=(",", ":"))
        assert str(ours.value) == str(stdlib.value) == "Circular reference detected"
