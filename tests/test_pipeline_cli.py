import dataclasses
import gc
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import echelon
from echelon import cli, kernels, matching, oracle, pipeline
from echelon.cli import main
from echelon.evidence import posterior_from_evidence
from echelon.exceptions import ScenarioError
from echelon.models import Fields, load_library, shown_name
from echelon.pipeline import RunConfig, run
from echelon.scenario import check_vehicle_type, dumps

from conftest import (
    TANK_LIBRARY,
    battalion_ground_truth,
    perfbench_scene,
    perfbench_workloads,
    weak_ratio_scene,
    write_battalion_inputs,
)

# library variant for the doctrine-conflict flow: a four-tank company
# model plus a tight vehicle separation rule
SKIP_LIBRARY = {
    "types": TANK_LIBRARY["types"],
    "models": [
        {
            "name": "tank-company-quad",
            "type": "tank-company",
            "slots": [{"type": "tank", "min": 4, "max": 4}],
            "constraints": [{"slots": [0, 0], "d_min": 25, "d_max": 400}],
            "prior": 0.3,
        }
    ],
    "doctrine": {
        "min_separation": [{"a": "vehicle", "b": "vehicle", "meters": 40}],
        "max_heading_delta": [],
    },
}


def simulate_and_infer(paths, argv_extra=()):
    rc = main(
        [
            "simulate",
            str(paths["ground_truth"]),
            str(paths["noise"]),
            "--library",
            str(paths["library"]),
            "--out",
            str(paths["scenario"]),
        ]
    )
    assert rc == 0
    rc = main(["infer", "--config", str(paths["config"]), *argv_extra])
    return rc


def write_skip_scenario(tmp_path, lam=40.0, tau=0.1):
    lib_path = tmp_path / "library.json"
    lib_path.write_text(json.dumps(SKIP_LIBRARY))
    detections = [
        {"id": f"d{i}", "type": "T-72-tank", "x": 100.0 * i, "y": 0.0,
         "heading": 90.0, "lambda": lam, "time": 0.0}
        for i in range(4)
    ]
    detections.append(
        {"id": "d4", "type": "BMP", "x": 0.0, "y": 30.0, "heading": 90.0,
         "lambda": lam, "time": 0.0}
    )
    scenario = {
        "schema_version": 1,
        "scenario_id": "skip-flow",
        "detections": detections,
        "terrain": [
            {"id": "t0", "x": 150.0, "y": 0.0, "radius_m": 5000.0, "lambda": 5.0}
        ],
    }
    scen_path = tmp_path / "scenario.json"
    scen_path.write_text(dumps(scenario))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "library": "library.json",
                "scenario": "scenario.json",
                "matcher": {"gather_radius": 1000, "min_fit": 0.2},
                "tau": tau,
                "seed": 0,
            }
        )
    )
    return cfg_path


class TestValidateCommand:
    def test_valid_library(self, tmp_path, capsys):
        p = tmp_path / "lib.json"
        p.write_text(json.dumps(TANK_LIBRARY))
        assert main(["validate", str(p)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_cyclic_isa_exit_one(self, tmp_path, capsys):
        p = tmp_path / "lib.json"
        p.write_text(
            json.dumps(
                {
                    "types": [
                        {"name": "a", "level": "vehicle", "isa": "b"},
                        {"name": "b", "level": "vehicle", "isa": "a"},
                    ]
                }
            )
        )
        assert main(["validate", str(p)]) == 1
        assert "cyclic" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_non_utf8_library_is_domain_error(self, tmp_path, capsys):
        p = tmp_path / "lib.json"
        p.write_bytes(b"\xff\xfe{}")
        assert main(["validate", str(p)]) == 1
        assert "invalid library" in capsys.readouterr().err

    def test_huge_value_gives_a_short_message(self, tmp_path, capsys):
        p = tmp_path / "lib.json"
        p.write_text('{"types": [' + "[" * 900 + "]" * 900 + "]}")
        assert main(["validate", str(p)]) == 1
        err = capsys.readouterr().err
        assert "type entry 0 must be a JSON object, got [[[[" in err
        assert len(err) < 200

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda d: d["doctrine"]["max_heading_delta"][0].update(degrees="x"),
                "max_heading_delta row 0: degrees must be a finite number, got 'x'",
            ),
            (
                lambda d: d["doctrine"]["min_separation"][0].pop("a"),
                "min_separation row 0: missing key 'a'",
            ),
            (
                lambda d: d["types"][0].update(level=5),
                "type 'vehicle': level must be a string, got 5",
            ),
            (
                lambda d: d["models"][0]["constraints"][0].update(slots=[0, "x"]),
                "model 'tank-company-line' constraint 0: slots must be an integer",
            ),
            (
                lambda d: d["models"][0]["constraints"][0].pop("d_min"),
                "model 'tank-company-line' constraint 0: missing key 'd_min'",
            ),
            (
                lambda d: d["models"][0]["slots"][0].update(min="x"),
                "model 'tank-company-line' slot 0: min must be an integer",
            ),
            (
                lambda d: d["models"][1].update(prior="x"),
                "model 'tank-battalion-std': prior must be a finite number",
            ),
            (
                lambda d: d["models"][1].update(prior=True),
                "model 'tank-battalion-std': prior must be a finite number, got True",
            ),
            (
                lambda d: d["models"][0]["slots"][0].update(max=4.0),
                "slot 0: max must be an integer, got 4.0",
            ),
            (
                lambda d: d["models"][0]["constraints"][0].update(bearing_tol=math.inf),
                "constraint 0: bearing_tol must be a finite number, got inf",
            ),
            (
                lambda d: d["doctrine"]["min_separation"][1].update(meters=math.nan),
                "min_separation row 1: meters must be a finite number, got nan",
            ),
            (lambda d: d["types"][2].update(name=["tank"]), "type entry 2: name must be"),
            (lambda d: d["types"][2].update(isa=3), "type 'tank': isa must be a string"),
            (lambda d: d.update(models={}), "library: models must be a list"),
            (lambda d: d["models"][0].pop("type"), "missing key 'type'"),
        ],
    )
    def test_malformed_library_value_is_domain_error(
        self, tmp_path, capsys, edit, message
    ):
        doc = json.loads(json.dumps(TANK_LIBRARY))
        edit(doc)
        p = tmp_path / "lib.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_malformed_library_is_domain_error_for_infer(self, tmp_path, capsys):
        paths = write_battalion_inputs(tmp_path)
        doc = json.loads(json.dumps(TANK_LIBRARY))
        doc["types"][0]["level"] = 5
        paths["library"].write_text(json.dumps(doc))
        assert main(["infer", "--config", str(paths["config"])]) == 1
        assert "level must be a string" in capsys.readouterr().err


class TestInferCommand:
    def test_end_to_end_battalion(self, tmp_path):
        paths = write_battalion_inputs(tmp_path)
        assert simulate_and_infer(paths) == 0
        report = json.loads(paths["report"].read_text())
        battalions = report["levels"]["battalion"]
        assert len(battalions) == 1
        assert battalions[0]["posterior"] > battalions[0]["prior"]
        assert len(report["levels"]["array"]) == 3
        assert report["conflicts"] == []

    def test_empty_scenario(self, tmp_path):
        paths = write_battalion_inputs(tmp_path)
        paths["scenario"].write_text(
            dumps(
                {
                    "schema_version": 1,
                    "scenario_id": "empty",
                    "detections": [],
                    "terrain": [],
                }
            )
        )
        assert main(["infer", "--config", str(paths["config"])]) == 0
        report = json.loads(paths["report"].read_text())
        assert all(not entries for entries in report["levels"].values())

    def test_byte_identical_reruns(self, tmp_path):
        paths = write_battalion_inputs(tmp_path)
        assert simulate_and_infer(paths) == 0
        first = paths["report"].read_bytes()
        assert main(["infer", "--config", str(paths["config"])]) == 0
        assert paths["report"].read_bytes() == first

    def test_unknown_detection_type_is_domain_error(self, tmp_path, capsys):
        paths = write_battalion_inputs(tmp_path)
        paths["scenario"].write_text(
            dumps(
                {
                    "schema_version": 1,
                    "scenario_id": "bad",
                    "detections": [
                        {"id": "d0", "type": "hovercraft", "x": 0, "y": 0,
                         "heading": 0, "lambda": 3.0, "time": 0.0}
                    ],
                    "terrain": [],
                }
            )
        )
        assert main(["infer", "--config", str(paths["config"])]) == 1
        assert "hovercraft" in capsys.readouterr().err

    def test_detection_of_a_higher_level_type_is_refused(self, tmp_path, capsys):
        # three "vehicles" typed tank-company 100 m apart would be
        # resolved against each other under the company's 400 m separation
        paths = write_battalion_inputs(tmp_path)
        detections = [
            {"id": f"d{k}", "type": "tank-company", "x": 100.0 * k, "y": 0.0,
             "heading": 0.0, "lambda": 3.0, "time": 0.0}
            for k in range(3)
        ]
        paths["scenario"].write_text(
            dumps({"schema_version": 1, "scenario_id": "companies",
                   "detections": detections, "terrain": []})
        )
        assert main(["infer", "--config", str(paths["config"])]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert (
            "detection 'd0': type 'tank-company' is not a vehicle-level type "
            "(it is array-level)"
        ) in err
        assert not paths["report"].exists()

    def test_ground_truth_vehicle_of_a_higher_level_type_is_refused(self, tmp_path, capsys):
        paths = write_battalion_inputs(tmp_path)
        gt = battalion_ground_truth()
        gt["forces"][0]["components"][0]["components"][1]["type"] = "tank-company"
        paths["ground_truth"].write_text(json.dumps(gt))
        argv = ["simulate", str(paths["ground_truth"]), str(paths["noise"]),
                "--library", str(paths["library"]), "--out", str(paths["scenario"])]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert (
            "force 0 component 0 component 1: type 'tank-company' is not a "
            "vehicle-level type (it is array-level)"
        ) in err
        assert not paths["scenario"].exists()

    def test_missing_config_exit_two(self, tmp_path):
        assert main(["infer", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_lambda_is_domain_error(self, tmp_path, capsys):
        paths = write_battalion_inputs(tmp_path)
        paths["scenario"].write_text(
            dumps(
                {
                    "schema_version": 1,
                    "scenario_id": "bad",
                    "detections": [
                        {"id": "d0", "type": "tank", "x": 0, "y": 0,
                         "heading": 0, "lambda": -1.0, "time": 0.0}
                    ],
                    "terrain": [],
                }
            )
        )
        assert main(["infer", "--config", str(paths["config"])]) == 1
        assert capsys.readouterr().err == (
            "inference failed: detection 'd0': lambda must be a finite number > 0, "
            "got -1.0\n"
        )

    @pytest.mark.parametrize(
        "key, value, text",
        [
            ("x", None, "null"),
            ("x", math.nan, "NaN"),
            ("y", -math.inf, "-Infinity"),
            ("lambda", None, "null"),
            ("heading", math.nan, "NaN"),
            ("time", None, "null"),
            ("time", math.inf, "Infinity"),
            ("x", "900", '"900"'),
            ("y", True, "true"),
            ("x", 10**400, "1" + "0" * 400),
        ],
    )
    def test_non_finite_detection_field_is_domain_error(
        self, tmp_path, capsys, key, value, text
    ):
        paths = write_battalion_inputs(tmp_path)
        detection = {"id": "d0", "type": "tank", "x": 0.0, "y": 0.0,
                     "heading": 0.0, "lambda": 3.0, "time": 0.0, key: value}
        doc = {"schema_version": 1, "scenario_id": "bad",
               "detections": [detection], "terrain": []}
        # json, not dumps, which refuses NaN and Infinity: the malformed
        # token reaches the file as is
        assert text in json.dumps(doc)
        paths["scenario"].write_text(json.dumps(doc))
        assert main(["infer", "--config", str(paths["config"])]) == 1
        err = capsys.readouterr().err
        assert "'d0'" in err and f"{key} must be a finite number" in err
        assert not paths["report"].exists()

    @pytest.mark.parametrize(
        "detections, message",
        [
            (5, "detections must be a list"),
            ([5], "detection entry 0 must be a JSON object, got 5"),
            (
                [{"id": "d0", "type": ["T-72-tank"], "x": 0.0, "y": 0.0, "lambda": 2.0}],
                "detection 'd0': type must be a string, got ['T-72-tank']",
            ),
        ],
    )
    def test_malformed_detections_are_domain_errors(
        self, tmp_path, capsys, detections, message
    ):
        paths = write_battalion_inputs(tmp_path)
        paths["scenario"].write_text(
            dumps({"schema_version": 1, "scenario_id": "bad",
                   "detections": detections, "terrain": []})
        )
        assert main(["infer", "--config", str(paths["config"])]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("document", [[], [{"detections": []}], 5, "scenario"])
    def test_non_object_scenario_is_domain_error(self, tmp_path, capsys, document):
        paths = write_battalion_inputs(tmp_path)
        paths["scenario"].write_text(dumps(document))
        assert main(["infer", "--config", str(paths["config"])]) == 1
        err = capsys.readouterr().err
        assert "scenario must be a JSON object" in err
        assert not paths["report"].exists()

    @pytest.mark.parametrize(
        "key, value, text",
        [
            ("x", None, "null"),
            ("x", math.nan, "NaN"),
            ("y", "900", '"900"'),
            ("lambda", True, "true"),
            ("radius_m", math.inf, "Infinity"),
        ],
    )
    def test_non_finite_terrain_field_is_domain_error(
        self, tmp_path, capsys, key, value, text
    ):
        paths = write_battalion_inputs(tmp_path)
        terrain = {"id": "t0", "x": 0.0, "y": 0.0, "radius_m": 500.0,
                   "lambda": 2.0, key: value}
        doc = {"schema_version": 1, "scenario_id": "bad",
               "detections": [], "terrain": [terrain]}
        # json, not dumps, which refuses NaN and Infinity: the malformed
        # token reaches the file as is
        assert text in json.dumps(doc)
        paths["scenario"].write_text(json.dumps(doc))
        assert main(["infer", "--config", str(paths["config"])]) == 1
        err = capsys.readouterr().err
        assert f"terrain entry 't0': {key} must be a finite number" in err
        assert "Traceback" not in err
        assert not paths["report"].exists()

    @pytest.mark.parametrize(
        "terrain, message",
        [
            ({"x": 0}, "terrain must be a list"),
            ([None], "terrain entry 0 must be a JSON object, got None"),
            ([{"x": 0.0, "y": None, "lambda": 2.0}], "terrain entry 't0': y must be"),
        ],
    )
    def test_malformed_terrain_is_domain_error(self, tmp_path, capsys, terrain, message):
        paths = write_battalion_inputs(tmp_path)
        paths["scenario"].write_text(
            dumps({"schema_version": 1, "scenario_id": "bad",
                   "detections": [], "terrain": terrain})
        )
        assert main(["infer", "--config", str(paths["config"])]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"detectionz": []}, "scenario: unknown keys ['detectionz']"),
            ({"seed": 0, "notes": ""}, "scenario: unknown keys ['notes', 'seed']"),
            ({"schema_version": 99}, "scenario: schema_version must be 1, got 99"),
            ({"schema_version": "1"}, "schema_version must be 1, got '1'"),
            ({"schema_version": 1.0}, "schema_version must be 1, got 1.0"),
            ({"schema_version": True}, "schema_version must be 1, got True"),
            ({"schema_version": None}, "schema_version must be 1, got None"),
        ],
    )
    def test_malformed_scenario_document_is_domain_error(
        self, tmp_path, capsys, extra, message
    ):
        paths = write_battalion_inputs(tmp_path)
        doc = {"schema_version": 1, "scenario_id": "bad", "detections": [],
               "terrain": [], **extra}
        paths["scenario"].write_text(dumps(doc))
        assert main(["infer", "--config", str(paths["config"])]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not paths["report"].exists()

    def test_scenario_without_schema_version_is_accepted(self, tmp_path):
        paths = write_battalion_inputs(tmp_path)
        doc = {"scenario_id": "bare", "detections": [], "terrain": [],
               "ground_truth": {}}
        paths["scenario"].write_text(dumps(doc))
        assert main(["infer", "--config", str(paths["config"])]) == 0
        assert json.loads(paths["report"].read_text())["scenario_id"] == "bare"

    @pytest.mark.parametrize(
        "section, key, message",
        [
            ("detections", "id", "detection entry 0: missing key 'id'"),
            ("detections", "x", "detection 'd0': missing key 'x'"),
            ("detections", "y", "detection 'd0': missing key 'y'"),
            ("detections", "lambda", "detection 'd0': missing key 'lambda'"),
            ("terrain", "x", "terrain entry 't0': missing key 'x'"),
            ("terrain", "y", "terrain entry 't0': missing key 'y'"),
            ("terrain", "lambda", "terrain entry 't0': missing key 'lambda'"),
        ],
    )
    def test_missing_entry_key_names_entry_and_key(
        self, tmp_path, capsys, section, key, message
    ):
        paths = write_battalion_inputs(tmp_path)
        entries = {
            "detections": {"id": "d0", "type": "tank", "x": 0.0, "y": 0.0,
                           "lambda": 3.0},
            "terrain": {"id": "t0", "x": 0.0, "y": 0.0, "lambda": 2.0},
        }
        del entries[section][key]
        doc = {"schema_version": 1, "scenario_id": "bad",
               "detections": [entries["detections"]], "terrain": [entries["terrain"]]}
        paths["scenario"].write_text(dumps(doc))
        assert main(["infer", "--config", str(paths["config"])]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not paths["report"].exists()

    def test_demo_report_is_byte_identical(self, tmp_path):
        demo = Path(__file__).resolve().parents[1] / "demo"
        out = tmp_path / "report.json"
        rc = main(["infer", "--config", str(demo / "run_config.json"), "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == (demo / "report.json").read_bytes()

    def test_demo_scenario_is_byte_identical(self, tmp_path):
        demo = Path(__file__).resolve().parents[1] / "demo"
        out = tmp_path / "scenario.json"
        rc = main(
            [
                "simulate",
                str(demo / "ground_truth.json"),
                str(demo / "noise_clean.json"),
                "--library",
                str(demo / "library.json"),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert out.read_bytes() == (demo / "scenario.json").read_bytes()

    def test_report_to_stdout_without_out(self, tmp_path, capsys):
        paths = write_battalion_inputs(tmp_path)
        cfg = json.loads(paths["config"].read_text())
        del cfg["out"]
        paths["config"].write_text(json.dumps(cfg))
        paths["scenario"].write_text(
            dumps({"schema_version": 1, "scenario_id": "empty",
                   "detections": [], "terrain": []})
        )
        assert main(["infer", "--config", str(paths["config"])]) == 0
        out = capsys.readouterr().out
        assert '"schema_version"' in out

    def test_overrides(self, tmp_path, capsys):
        paths = write_battalion_inputs(tmp_path)
        out2 = tmp_path / "other.json"
        assert simulate_and_infer(paths, ("--out", str(out2), "--tau", "0.5")) == 0
        report = json.loads(out2.read_text())
        assert report["config"]["tau"] == 0.5

    def test_unprunable_enumeration_is_domain_error(self, tmp_path, capsys, monkeypatch):
        # min_fit 0 prunes nothing: 8 tanks chained 100 m apart are one
        # cluster with C(8,3) + C(8,4) = 126 tank-company-line assignments.
        # The bound is lowered, and the battalion model left out, so that
        # a run past the bound stays small.
        monkeypatch.setattr(matching, "MAX_ASSIGNMENTS", 100)
        config = write_empty_run(tmp_path, matcher={"gather_radius": 1200, "min_fit": 0})
        library = dict(TANK_LIBRARY, models=TANK_LIBRARY["models"][:1])
        (tmp_path / "library.json").write_text(json.dumps(library))
        detections = [
            {"id": f"d{i}", "type": "T-72-tank", "x": 100.0 * i, "y": 0.0,
             "heading": 90.0, "lambda": 4.0, "time": 0.0}
            for i in range(8)
        ]
        (tmp_path / "scenario.json").write_text(
            dumps({"schema_version": 1, "scenario_id": "chain",
                   "detections": detections, "terrain": []})
        )
        assert main(["infer", "--config", str(config)]) == 1
        assert (
            "inference failed: model 'tank-company-line': a cluster of 8 children "
            "has over 100 slot assignments"
        ) in capsys.readouterr().err


def write_empty_run(tmp_path, **config):
    """Library, empty scenario and a run config (the base keys updated by
    ``config``; a value of ``...`` removes the key); returns its path."""
    (tmp_path / "library.json").write_text(json.dumps(TANK_LIBRARY))
    (tmp_path / "scenario.json").write_text(
        dumps({"schema_version": 1, "scenario_id": "empty",
               "detections": [], "terrain": []})
    )
    doc = {"library": "library.json", "scenario": "scenario.json", "out": "report.json"}
    doc.update(config)
    doc = {k: v for k, v in doc.items() if v is not ...}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def write_line_run(tmp_path, slots: int, leaf_prior: float):
    """A run of ``slots`` tanks 10 m apart under a one-model library
    whose array model takes them all, with no doctrine; returns the
    config's path."""
    library = {
        "types": [{"name": "tank", "level": "vehicle"},
                  {"name": "array", "level": "array"}],
        "models": [{"name": "line", "type": "array",
                    "slots": [{"type": "tank", "min": slots, "max": slots}],
                    "constraints": [], "prior": 0.5}],
        "doctrine": {"min_separation": [], "max_heading_delta": []},
    }
    (tmp_path / "library.json").write_text(json.dumps(library))
    detections = [
        {"id": f"d{i:02d}", "type": "tank", "x": 10.0 * i, "y": 0.0,
         "heading": 90.0, "lambda": 4.0, "time": 0.0}
        for i in range(slots)
    ]
    (tmp_path / "scenario.json").write_text(
        dumps({"schema_version": 1, "scenario_id": "line",
               "detections": detections, "terrain": []})
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "library": "library.json", "scenario": "scenario.json",
        "leaf_prior": leaf_prior,
        "matcher": {"gather_radius": 1200, "min_fit": 0, "max_missing": 0},
    }))
    return path


class TestAccrualLimits:
    """Extreme priors end in exit 1 and a message, never in a traceback
    or a report holding a non-finite number."""

    def expect_failure(self, config, capsys, message):
        assert main(["infer", "--config", str(config)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("inference failed: ") and message in err
        assert "Traceback" not in err
        assert out == ""

    def test_underflowing_denominator(self, tmp_path, capsys):
        # P(C) = 1e-160 squares to zero
        demo = Path(__file__).resolve().parents[1] / "demo"
        doc = json.loads((demo / "run_config.json").read_text())
        doc.update(library=str(demo / "library.json"),
                   scenario=str(demo / "scenario.json"), leaf_prior=1e-160)
        del doc["out"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        self.expect_failure(config, capsys, "component 0: p_cet * p_c**2 is zero (p_cet ")

    def test_overflow_in_a_long_product(self, tmp_path, capsys):
        # 32 components: the running product overflows
        config = write_line_run(tmp_path, slots=32, leaf_prior=1e-10)
        self.expect_failure(
            config, capsys,
            "accrual overflows the float range: fit ratio 2.0 times 32 "
            "component factors gives inf",
        )

    def test_overflow_in_the_linear_product(self, tmp_path, capsys):
        # 30 components, the linear product: the value was written as
        # Infinity
        config = write_line_run(tmp_path, slots=30, leaf_prior=1e-20)
        self.expect_failure(
            config, capsys,
            "accrual overflows the float range: fit ratio 2.0 times 30 "
            "component factors gives inf",
        )


class TestRunConfigValidation:
    @pytest.mark.parametrize(
        "config, message",
        [
            ({"tau": None}, "tau must be a finite number"),
            ({"tau": -1}, "tau must be a finite number > 0"),
            ({"tau": 0}, "tau must be a finite number > 0"),
            ({"tau": math.nan}, "tau must be a finite number"),
            ({"tau": math.inf}, "tau must be a finite number"),
            ({"tau": "0.1"}, "tau must be a finite number"),
            ({"tau": True}, "tau must be a finite number"),
            ({"matcher": 5}, "matcher config must be a JSON object, got 5"),
            ({"matcher": {"gather_radius": math.nan}}, "gather_radius must be a finite"),
            ({"matcher": {"min_fit": None}}, "min_fit must be a finite number"),
            ({"matcher": {"max_missing": 2.5}}, "max_missing must be an integer"),
            ({"matcher": {"max_cluster": 12}}, "unknown keys ['max_cluster']"),
            ({"matcher": {"max_missing": -1}},
             "invalid config: matcher config: max_missing must be >= 0, got -1"),
            ({"matcher": {"gather_radius": -5}},
             "invalid config: matcher config: gather_radius must be > 0, got -5"),
            ({"matcher": {"rho": 2}},
             "invalid config: matcher config: rho must be in (0, 1], got 2"),
            ({"matcher": {"radius": 1}}, "unknown keys"),
            ({"library": ...}, "run config: missing key 'library'"),
            ({"scenario": 3}, "run config: scenario must be a string, got 3"),
            ({"out": []}, "run config: out must be a string, got []"),
            ({"max_exact": 1.5}, "max_exact must be an integer"),
            ({"max_exact": -1}, "max_exact must be >= 0"),
            ({"seed": "7"}, "seed must be an integer"),
            ({"exclusion_floor": 1.5}, "exclusion_floor must be in [0, 1]"),
            ({"leaf_prior": -0.1}, "leaf_prior must be in [0, 1]"),
            ({"heuristic": "best"}, "heuristic must be one of"),
            ({"heuristic": 5}, "heuristic must be one of"),
            ({"taus": 0.1}, "unknown keys ['taus']"),
        ],
    )
    def test_invalid_config_is_domain_error(self, tmp_path, capsys, config, message):
        path = write_empty_run(tmp_path, **config)
        assert main(["infer", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "invalid config" in err and message in err

    def test_config_not_an_object_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[]")
        assert main(["infer", "--config", str(path)]) == 1
        assert "run config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", ["-1", "0", "nan", "inf", "-inf"])
    def test_invalid_tau_override_is_domain_error(self, tmp_path, capsys, tau):
        path = write_empty_run(tmp_path)
        assert main(["infer", "--config", str(path), f"--tau={tau}"]) == 1
        assert "tau must be a finite number > 0" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_valid_bounds_accepted(self, tmp_path):
        path = write_empty_run(
            tmp_path, max_exact=0, exclusion_floor=1, leaf_prior=0, seed=-3,
            out=None, matcher={"gather_radius": 900, "max_missing": 0},
        )
        assert main(["infer", "--config", str(path), "--tau", "1e-300"]) == 0


DEMO = Path(__file__).resolve().parents[1] / "demo"

# each input document and the commands that read it
DOCUMENT_COMMANDS = [
    ("library", "validate"),
    ("library", "infer"),
    ("run config", "infer"),
    ("scenario", "infer"),
    ("library", "simulate"),
    ("ground truth", "simulate"),
    ("noise spec", "simulate"),
]


def document_argv(tmp_path, document, command, bad):
    """Arguments of ``command`` on the demo documents, with the file
    ``bad`` in place of ``document``."""
    files = {"library": "library.json", "scenario": "scenario.json",
             "ground truth": "ground_truth.json", "noise spec": "noise_clean.json"}
    path = {
        name: str(bad if name == document else DEMO / file)
        for name, file in files.items()
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"library": path["library"], "scenario": path["scenario"]}))
    path["run config"] = str(bad if document == "run config" else config)
    return {
        "validate": ["validate", path["library"]],
        "infer": ["infer", "--config", path["run config"]],
        "simulate": ["simulate", path["ground truth"], path["noise spec"],
                     "--library", path["library"], "--out", str(tmp_path / "out.json")],
    }[command]


class TestDeeplyNestedInputs:
    """JSON nested deeper than the parser's recursion limit is malformed
    JSON: exit 1 naming the document, never a RecursionError traceback."""

    @pytest.mark.parametrize("document, command", DOCUMENT_COMMANDS)
    def test_deep_document_is_domain_error(self, tmp_path, capsys, document, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        assert main(document_argv(tmp_path, document, command, deep)) == 1
        assert f"{document} is not valid JSON: maximum recursion depth" in capsys.readouterr().err


class TestUndecodableInputs:
    """A document that is not UTF-8 is exit 1 naming the document."""

    @pytest.mark.parametrize("document, command", DOCUMENT_COMMANDS)
    def test_non_utf8_document_is_domain_error(self, tmp_path, capsys, document, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main(document_argv(tmp_path, document, command, bad)) == 1
        assert f"{document} is not UTF-8 text: 'utf-8' codec" in capsys.readouterr().err


class TestLongNamesInMessages:
    """An error naming an entry by a huge input value stays short; names
    of up to 30 characters are shown whole, as ``repr`` writes them."""

    LONG = "n" * 200_000

    def infer_error(self, tmp_path, capsys, detections, terrain=()):
        paths = write_battalion_inputs(tmp_path)
        doc = {"schema_version": 1, "scenario_id": "long",
               "detections": detections, "terrain": list(terrain)}
        paths["scenario"].write_text(dumps(doc))
        assert main(["infer", "--config", str(paths["config"])]) == 1
        return capsys.readouterr().err

    def validate_error(self, tmp_path, capsys, library):
        path = tmp_path / "library.json"
        path.write_text(json.dumps(library))
        assert main(["validate", str(path)]) == 1
        return capsys.readouterr().err

    def test_detection_id(self, tmp_path, capsys):
        detection = {"id": self.LONG, "type": "tank", "x": "bad", "y": 0.0, "lambda": 3.0}
        err = self.infer_error(tmp_path, capsys, [detection])
        assert len(err) < 300
        assert "x must be a finite number, got 'bad'" in err

    def test_detection_id_of_30_characters_is_shown_whole(self, tmp_path, capsys):
        name = "d" * 29 + "'"
        detection = {"id": name, "type": "tank", "x": "bad", "y": 0.0, "lambda": 3.0}
        err = self.infer_error(tmp_path, capsys, [detection])
        assert f"detection {name!r}: x must be a finite number, got 'bad'" in err

    def test_detection_type(self, tmp_path, capsys):
        detection = {"id": "d0", "type": self.LONG, "x": 0.0, "y": 0.0, "lambda": 3.0}
        err = self.infer_error(tmp_path, capsys, [detection])
        assert len(err) < 300 and "unknown force type 'nnn" in err

    def test_terrain_id(self, tmp_path, capsys):
        terrain = {"id": self.LONG, "x": "bad", "y": 0.0, "lambda": 2.0}
        err = self.infer_error(tmp_path, capsys, [], [terrain])
        assert len(err) < 300 and "terrain entry 'nnn" in err

    @pytest.mark.parametrize(
        "section, key, value, where",
        [
            ("types", "isa", 5, "type 'nnn"),
            pytest.param("types", "level", LONG, "unknown level 'nnn", id="level"),
            ("models", "prior", "bad", "model 'nnn"),
            ("models", "prior", 5, "model 'nnn"),
        ],
    )
    def test_library_names(self, tmp_path, capsys, section, key, value, where):
        library = json.loads(json.dumps(TANK_LIBRARY))
        library[section][-1].update({"name": self.LONG, key: value})
        err = self.validate_error(tmp_path, capsys, library)
        assert len(err) < 300 and where in err

    @pytest.mark.parametrize(
        "slot, where",
        [
            pytest.param({"type": LONG}, "slot: dangling type 'nnn", id="dangling"),
            pytest.param({"type": LONG, "min": -1}, "slot 'nnn", id="count_min"),
        ],
    )
    def test_slot_types(self, tmp_path, capsys, slot, where):
        library = json.loads(json.dumps(TANK_LIBRARY))
        library["models"][-1]["slots"][0].update(slot)
        err = self.validate_error(tmp_path, capsys, library)
        assert len(err) < 300 and where in err

    @pytest.mark.parametrize(
        "detections, message",
        [
            pytest.param(
                [{"id": LONG, "type": "tank", "x": 0.0, "y": 0.0, "lambda": -1.0}],
                "detection 'nnn",
                id="lambda",
            ),
            pytest.param(
                [{"id": LONG, "type": "tank", "x": 0.0, "y": 0.0, "lambda": 3.0}] * 2,
                "duplicate evidence id 'nnn",
                id="duplicate",
            ),
        ],
    )
    def test_evidence_ids(self, tmp_path, capsys, detections, message):
        err = self.infer_error(tmp_path, capsys, detections)
        assert len(err) < 300 and message in err

    @pytest.mark.parametrize("section", ["types", "models"])
    def test_duplicate_library_names(self, tmp_path, capsys, section):
        library = json.loads(json.dumps(TANK_LIBRARY))
        library[section] = library[section] + [dict(library[section][-1])]
        for entry in library[section][-2:]:
            entry["name"] = self.LONG
        err = self.validate_error(tmp_path, capsys, library)
        assert len(err) < 300 and "duplicate" in err

    @pytest.mark.parametrize(
        "noise, where",
        [
            pytest.param({"misclassification": {LONG: "x"}},
                         "noise spec misclassification row 'nnn", id="row-object"),
            pytest.param({"misclassification": {LONG: {"BMP": 0.5}}},
                         "misclassification row 'nnn", id="row-sum"),
            pytest.param({"misclassification": {LONG: {"BMP": -1.0, "tank": 2.0}}},
                         "negative entry in row 'nnn", id="row-negative"),
            pytest.param({"misclassification": {"BMP": {LONG: 1.0}}},
                         "label 'nnn", id="observed-label"),
            pytest.param({"false_alarm_types": [LONG]},
                         "entry 0: unknown force type 'nnn", id="false-alarm-type"),
        ],
    )
    def test_noise_spec_names(self, tmp_path, capsys, noise, where):
        paths = write_battalion_inputs(tmp_path)
        paths["noise"].write_text(json.dumps(noise))
        argv = ["simulate", str(paths["ground_truth"]), str(paths["noise"]),
                "--library", str(paths["library"]), "--out", str(tmp_path / "s.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err) < 300 and where in err

    def test_ground_truth_model_name(self, tmp_path, capsys):
        paths = write_battalion_inputs(tmp_path)
        vehicle = {"type": "T-72-tank", "x": 0.0, "y": 0.0}
        paths["ground_truth"].write_text(
            json.dumps({"forces": [{"model": self.LONG, "components": [vehicle]}]})
        )
        argv = ["simulate", str(paths["ground_truth"]), str(paths["noise"]),
                "--library", str(paths["library"]), "--out", str(tmp_path / "s.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err) < 300 and "unknown model 'nnn" in err


def assert_skip_estimates(report: dict) -> None:
    """A skipped conflict bounds exactly the parents of its members, in
    id order, each by min(its accrual's raw, 1) * (1 - k) / k; a resolved
    one bounds none."""
    entries = {e["id"]: e for level in report["levels"].values() for e in level}
    for c in report["conflicts"]:
        estimates = c["skip_error_estimates"]
        if c["decision"] != "skip":
            assert estimates == {}
            continue
        members = set(c["members"])
        parents = sorted(
            h for h, e in entries.items() if members & set(e["components"])
        )
        assert list(estimates) == parents
        k = c["k"]
        for p, estimate in estimates.items():
            assert estimate == min(entries[p]["accrual"]["raw"], 1) * (1 - k) / k


class TestSkipFlow:
    def test_skip_estimates_and_direct_accrual(self, tmp_path):
        cfg_path = write_skip_scenario(tmp_path)
        cfg = RunConfig.from_file(cfg_path)
        report = run(cfg)
        (conf,) = report["conflicts"]
        assert conf["level"] == "vehicle"
        assert conf["decision"] == "skip"
        assert set(conf["members"]) == {"v.d0", "v.d4"}
        assert conf["measure"] < 0.1
        assert list(conf["skip_error_estimates"]) == ["a0"]
        assert conf["skip_error_estimates"]["a0"] > 0.0
        company = report["levels"]["array"][0]
        assert company["id"] == "a0"
        assert set(company["accrual"]) == {"raw", "ratios"}
        # a0 accrues directly, so its posterior is the direct posterior
        # that the skip-error bound scales
        assert conf["skip_error_estimates"]["a0"] == (
            company["posterior"] * (1 - conf["k"]) / conf["k"]
        )
        assert_skip_estimates(report)
        statuses = {e["id"]: e["status"] for e in report["levels"]["vehicle"]}
        assert statuses["v.d0"] == "skipped" and statuses["v.d4"] == "skipped"

    def test_low_tau_resolves_instead(self, tmp_path):
        cfg_path = write_skip_scenario(tmp_path, tau=1e-9)
        report = run(RunConfig.from_file(cfg_path))
        (conf,) = report["conflicts"]
        assert conf["decision"] == "resolve"
        assert conf["consistent_sets"] is not None
        assert_skip_estimates(report)
        beliefs = {tuple(cs["members"]): cs["belief"] for cs in conf["consistent_sets"]}
        assert math.fsum(beliefs.values()) == pytest.approx(1.0, abs=1e-12)
        company = report["levels"]["array"][0]
        assert set(company["accrual"]) == {"raw", "fit", "components"}


def reference_leaves(detections, lib):
    """Each detection read through its own ``Fields`` object, as
    ``build_graph`` once read them: (id, type, x, y, heading, lambda,
    time) per detection, or the message of the first refusal."""
    out = []
    try:
        for k, raw in enumerate(detections):
            d = Fields(raw, pipeline._DETECTION_KEYS, f"detection entry {k}", ScenarioError)
            did = str(d.value("id"))
            d.where = f"detection {shown_name(raw['id'])}"
            force_type = d.text("type")
            check_vehicle_type(force_type, lib, d.where)
            x, y = d.number("x"), d.number("y")
            heading = d.number("heading") if d.given("heading") else None
            lam = d.check("lambda", d.value("lambda"), "a finite number > 0")
            out.append((did, force_type, x, y, heading, lam, d.number("time", 0.0)))
    except ScenarioError as exc:
        return str(exc)
    return out


DETECTION_VALUES = st.sampled_from(
    [1.5, 1.5, 1.5, 7, 0.0, -2.5, 10**400, True, None, math.nan, math.inf, "1", [1]]
)


@st.composite
def detection_entries(draw, k):
    """A detection, usually well formed, else with one or more fields
    missing, of the wrong kind, not finite or not positive (which only
    ``lambda`` must be), an unknown key, an array-level
    or unknown type, or not an object at all."""
    if draw(st.integers(0, 39)) == 0:
        return draw(st.sampled_from([5, [], "d", None]))
    raw = {}
    if draw(st.integers(0, 29)):
        raw["id"] = draw(st.sampled_from([f"d{k}", f"d{k}", k, "x" * 40 + str(k)]))
    if draw(st.integers(0, 29)):
        raw["type"] = draw(
            st.sampled_from(["T-72-tank"] * 6 + ["BMP", "tank-company", "nope", 5])
        )
    for key in ("x", "y", "lambda", "heading", "time"):
        if draw(st.integers(0, 19)):
            raw[key] = draw(DETECTION_VALUES) if draw(st.integers(0, 19)) == 0 else 2.5
    if "heading" in raw and draw(st.integers(0, 3)) == 0:
        raw["heading"] = None  # an unknown heading, which reads
    if draw(st.integers(0, 39)) == 0:
        raw["z"] = 1.0
    return raw


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_detections_read_as_the_strict_read_reads_them(data):
    # build_graph reads each field once and checks each type once; its
    # leaves, or its refusal word for word, are those of a Fields object
    # per detection
    lib = load_library(json.dumps(TANK_LIBRARY))
    n = data.draw(st.integers(1, 4))
    detections = [data.draw(detection_entries(k)) for k in range(n)]
    expected = reference_leaves(detections, lib)
    try:
        g = pipeline.build_graph({"detections": detections}, lib, 0.5)
    except ScenarioError as exc:
        assert str(exc) == expected
        return
    leaves = []
    for h in g.hypotheses.values():
        (did,) = h.own_evidence
        item = g.evidence[did]
        x, y = h.location
        leaves.append((did, h.force_type, x, y, h.heading, item.likelihood_ratio, h.time))
    assert leaves == expected
    assert all(type(value) is float for leaf in leaves for value in leaf[2:] if value is not None)


# The names perfbench/tracer.py wraps on echelon.pipeline: a stage that
# stops looking its name up there at call time reads 0 when traced.
TRACED_NAMES = (
    "load_library",
    "build_graph",
    "match_level",
    "candidate_to_hypothesis",
    "propagate_level",
    "detect_conflicts",
    "decide",
    "skip_error_estimate",
)


def test_run_calls_every_traced_name_through_the_pipeline_module(tmp_path, monkeypatch):
    calls = dict.fromkeys(TRACED_NAMES, 0)

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in TRACED_NAMES:
        monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
    demo = Path(__file__).resolve().parents[1] / "demo"
    run(RunConfig.from_file(demo / "run_config.json"))
    # the demo has no conflict, so nothing to decide or skip
    assert {name for name, n in calls.items() if n == 0} == {
        "decide", "skip_error_estimate"
    }
    run(RunConfig.from_file(write_skip_scenario(tmp_path)))
    assert all(calls.values()), calls


def test_oracle_calls_every_traced_name_through_its_owner(monkeypatch):
    # perfbench/tracer.py wraps these three names; a suite that stops
    # looking one up at call time reads 0 when traced
    owners = {
        "fill_joint": kernels,
        "event_prob": oracle.OracleNetwork,
        "_suite_reports": cli,
    }
    calls = dict.fromkeys(owners, 0)

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name, owner in owners.items():
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    assert main(["oracle", "all"]) == 0
    # one joint per network: 100 skip, 13 accrual and 12 approx-k
    assert calls["fill_joint"] == 125
    assert calls["_suite_reports"] == 3
    assert calls["event_prob"] > 0


class TestCompanyLevelConflict:
    def test_overlapping_companies_resolved(self, tmp_path):
        # five tanks in a line admit three overlapping three-tank
        # companies; their shared vehicles force a company-level
        # conflict that resolves to mutually exclusive singletons
        lib_path = tmp_path / "library.json"
        lib_doc = json.loads(json.dumps(TANK_LIBRARY))
        lib_doc["models"][0]["slots"][0]["max"] = 3  # exactly three tanks
        lib_path.write_text(json.dumps(lib_doc))
        detections = [
            {"id": f"d{i}", "type": "T-72-tank", "x": 100.0 * i, "y": 0.0,
             "heading": 90.0, "lambda": 6.0, "time": 0.0}
            for i in range(5)
        ]
        scen = {"schema_version": 1, "scenario_id": "overlap",
                "detections": detections, "terrain": []}
        (tmp_path / "scenario.json").write_text(dumps(scen))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "library": "library.json",
                    "scenario": "scenario.json",
                    "matcher": {"gather_radius": 1000, "min_fit": 0.2},
                    "tau": 0.1,
                    "seed": 0,
                }
            )
        )
        report = run(RunConfig.from_file(cfg_path))
        companies = report["levels"]["array"]
        assert len(companies) == 3
        (conf,) = report["conflicts"]
        assert conf["level"] == "array" and conf["decision"] == "resolve"
        assert len(conf["members"]) == 3
        # every factor equals the full company posterior here, so k is
        # the product of the three stored posteriors
        posts = {e["id"]: e["posterior"] for e in companies}
        sets = {tuple(cs["members"]): cs["belief"] for cs in conf["consistent_sets"]}
        assert all(len(m) == 1 for m in sets)  # pairwise conflicting
        assert math.fsum(sets.values()) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(posts.values()) == pytest.approx(1.0, abs=1e-12)


def key_orders(report):
    """Each dict below the report's top level, as its path and its keys
    in the order the dict lists them."""
    found = []

    def walk(obj, path):
        if isinstance(obj, dict):
            found.append((path, list(obj)))
            for key, value in obj.items():
                walk(value, f"{path}.{key}")
        elif isinstance(obj, list):
            for i, value in enumerate(obj):
                walk(value, f"{path}[{i}]")

    for key, value in report.items():
        walk(value, key)
    return found


class TestReportKeyOrder:
    """The report's dicts are built with their keys in the order ``dumps``
    writes them, sorted, so json's encoder meets each dict's items in
    order.  Bytes cannot show this: ``dumps`` sorts either way."""

    def test_demo_report(self):
        report = run(RunConfig.from_file(DEMO / "run_config.json"))
        orders = key_orders(report)
        assert [(path, keys) for path, keys in orders if keys != sorted(keys)] == []
        # the config echo, its matcher block, the levels, their rows and
        # the rows' rule records, positions left out
        paths = {re.sub(r"\[\d+\]", "", path) for path, _ in orders}
        assert {"config", "config.matcher", "levels", "levels.vehicle",
                "levels.array", "levels.array.accrual"} <= paths

    def test_grid_noisy_seed_2_scene_15(self, tmp_path):
        # the scene TestBenchmarkReportBytes pins: resolved and skipped
        # groups, and direct-path ``ratios`` records beside rule records
        cfg = perfbench_scene(tmp_path, "grid-noisy", 2, 15)
        report, _ = run_counting_refusals(cfg)
        orders = key_orders(report)
        assert [(path, keys) for path, keys in orders if keys != sorted(keys)] == []
        shapes = {tuple(keys) for _, keys in orders}
        assert {
            ("belief", "members", "weight"),  # a consistent set
            ("pair", "reasons"),  # a conflict's pair row
            ("ratios", "raw"),  # a direct-path accrual record
            ("components", "fit", "raw"),  # a rule accrual record
        } <= shapes
        assert any(c["skip_error_estimates"] for c in report["conflicts"])
        assert {c["decision"] for c in report["conflicts"]} == {"skip", "resolve"}


def run_counting_refusals(cfg):
    """The report of ``run(cfg)`` and how many conflict groups were
    refused exact resolution (each warns "resolution too large")."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run(cfg)
    return report, sum("resolution too large" in str(w.message) for w in caught)


class TestNoisyEndToEnd:
    def test_noisy_battalion_runs_and_scores(self, tmp_path):
        from echelon.models import load_library
        from echelon.scenario import generate, load_ground_truth, load_noise_spec, score
        from conftest import battalion_ground_truth

        paths = write_battalion_inputs(tmp_path)
        lib = load_library(paths["library"].read_text())
        gt = load_ground_truth(battalion_ground_truth(), lib)
        noise = load_noise_spec(
            {
                "p_detect": 0.9,
                "false_alarm_density": 0.3,
                "location_jitter": 8.0,
                "misclassification": {"T-72-tank": {"T-72-tank": 0.85, "BMP": 0.15}},
                "seed": 5,
            }
        )
        scenario = generate(gt, noise, lib)
        paths["scenario"].write_text(dumps(scenario))
        cfg = RunConfig.from_file(paths["config"])
        cfg.matcher = type(cfg.matcher)(
            gather_radius=1200, min_fit=0.2, max_missing=1, lambda_max=9.0
        )
        # the jittered scene's false alarms face every way, yet conflicts
        # stay local: each vehicle group is small enough to resolve exactly
        report, refused = run_counting_refusals(cfg)
        rerun, _ = run_counting_refusals(cfg)
        assert dumps(rerun) == dumps(report)  # deterministic despite the mess
        assert refused == 0
        vehicle_groups = [c for c in report["conflicts"] if c["level"] == "vehicle"]
        assert vehicle_groups
        assert max(len(c["members"]) for c in vehicle_groups) <= cfg.max_exact
        metrics = score(report, scenario, match_radius=100.0)
        vehicle = metrics["levels"]["vehicle"]
        detected = sum(1 for v in scenario["ground_truth"]["vehicles"] if v["detected"])
        assert vehicle["truth_units"] == 9
        assert vehicle["matched"] <= detected
        assert metrics["levels"]["array"]["recall"] > 0.0


def noisy_grid_config(tmp_path, battalions=4, seed=0):
    """Run config and scenario of tank battalions on a 5 km grid seen
    through a noisy channel (p_detect 0.9, 0.5 false alarms per km^2,
    15 m jitter, the given noise seed)."""
    from echelon.models import load_library
    from echelon.scenario import NoiseSpec, generate, load_ground_truth
    from conftest import company_node

    library_text = json.dumps(TANK_LIBRARY)
    lib = load_library(library_text)
    cols = math.ceil(math.sqrt(battalions))
    forces = []
    for i in range(battalions):
        bx, by = (i % cols) * 5000.0, (i // cols) * 5000.0
        forces.append(
            {
                "model": "tank-battalion-std",
                "components": [
                    company_node(bx + 1000.0, by + 1000.0),
                    company_node(bx + 2000.0, by + 1000.0),
                    company_node(bx + 1500.0, by + 1900.0),
                ],
            }
        )
    side = cols * 5000.0
    gt = load_ground_truth(
        {"id": f"grid-{battalions}", "area": {"width_m": side, "height_m": side},
         "forces": forces},
        lib,
    )
    noise = NoiseSpec(
        p_detect=0.9, false_alarm_density=0.5, location_jitter=15.0, seed=seed
    )
    scenario = generate(gt, noise, lib)
    (tmp_path / "library.json").write_text(library_text)
    (tmp_path / "scenario.json").write_text(dumps(scenario))
    cfg = RunConfig.from_dict(
        {
            "library": "library.json",
            "scenario": "scenario.json",
            "matcher": {"gather_radius": 1200, "min_fit": 0.2},
            "tau": 0.1,
        },
        base_dir=tmp_path,
    )
    return cfg, scenario


def noisy_grid_report(tmp_path):
    """The report of four noisy battalions (noise seed 0)."""
    cfg, _ = noisy_grid_config(tmp_path)
    return run(cfg)


def with_per_member_conditioning(report):
    """The report with each conflict's ``per_member_conditioning`` put
    back, derived from the report alone: a member's closure is its
    ``own_evidence`` and its ``components``' closures, and its set is the
    union of the members' closures minus those of the members after it
    in ``ordering``."""
    records = {e["id"]: e for entries in report["levels"].values() for e in entries}
    closures = {}

    def closure(hid):
        if hid not in closures:
            e = records[hid]
            closures[hid] = set(e["own_evidence"]).union(
                *(closure(c) for c in e["components"])
            )
        return closures[hid]

    for c in report["conflicts"]:
        pooled = set().union(*(closure(m) for m in c["members"]))
        later = set()
        conditioning = []
        for m in reversed(c["ordering"]):
            conditioning.append(sorted(pooled - later))
            later |= closure(m)
        c["per_member_conditioning"] = conditioning[::-1]
    return report


class TestConflictReportBytes:
    # sha256 of the noisy grid report as indent-2 JSON with sorted keys,
    # with per_member_conditioning derived from the report (the field
    # the report once wrote), so every value of the conflicts section
    # (reasons, orderings, measures, consistent_sets) is pinned by it;
    # recorded once orientation conflicts became local, again when each
    # record's accrual trace became its ``accrual`` inputs, again when
    # the config echo lost ``max_cluster``, and again when products took
    # their factors in ascending value order
    REPORT_SHA256 = "35cda9a7a38612a4917bed3ffed91797e0de578f5d25b4a86235d9c0d66ad8ad"

    def test_noisy_grid_report_is_byte_identical(self, tmp_path):
        report = noisy_grid_report(tmp_path)
        by_level = {}
        for c in report["conflicts"]:
            by_level.setdefault(c["level"], []).append(c)
        # the false alarms that face apart from nearby tanks form ten
        # small vehicle groups joined by orientation alone, and the
        # overlapping company candidates one array group; every group is
        # resolved exactly, none skipped, and no battalions conflict
        vehicle = by_level.pop("vehicle")
        assert sorted(len(c["members"]) for c in vehicle) == [2] * 5 + [3, 4, 4, 8, 10]
        assert all(
            r["reasons"] == ["orientation"] for c in vehicle for r in c["reasons"]
        )
        assert [len(c["members"]) for c in by_level.pop("array")] == [9]
        assert not by_level
        for c in report["conflicts"]:
            assert c["decision"] == "resolve" and c["consistent_sets"]
            assert c["measure"] >= report["config"]["tau"]
            assert not c["skip_error_estimates"]
        assert all("per_member_conditioning" not in c for c in report["conflicts"])
        derived = with_per_member_conditioning(json.loads(dumps(report)))
        text = json.dumps(derived, sort_keys=True, indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == self.REPORT_SHA256


class TestBenchmarkReportBytes:
    """sha256 of ``dumps(run(cfg))`` on two benchmark scenes, recorded
    while every parent still re-derived each child's belief from its
    evidence (reading a child's accrual record instead must not move a
    byte), and again when products took their factors in ascending
    value order."""

    def test_grid_clean_seed_0(self, tmp_path):
        cfg = perfbench_scene(tmp_path, "grid-clean", 0, 0)
        text = dumps(run(cfg))
        digest = "816dc3a0df9184f8ec999920e3ba0f12b00270f6a2a8e56a1f6814dc000f2d03"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_grid_noisy_scene_seed_51(self, tmp_path):
        # grid-noisy seed 2, scene 15: two 25-member groups (arrays and
        # battalions) are refused exact resolution and skipped, others
        # skip under tau or resolve, and parents of skipped arrays take
        # the direct path
        cfg = perfbench_scene(tmp_path, "grid-noisy", 2, 15)
        assert cfg.seed == 51
        report, refused = run_counting_refusals(cfg)
        assert refused == 2
        decisions = {(c["level"], c["decision"]) for c in report["conflicts"]}
        assert {("vehicle", "resolve"), ("array", "skip"), ("battalion", "skip")} <= decisions
        big = [(c["level"], len(c["members"])) for c in report["conflicts"]]
        assert ("array", 25) in big and ("battalion", 25) in big
        assert any("ratios" in (e["accrual"] or {}) for e in report["levels"]["battalion"])
        digest = "4f0b54d5c8d62d6561d5d88c7e82cbedc4e6f23d057191e8ae316ca92b7c9393"
        assert hashlib.sha256(dumps(report).encode()).hexdigest() == digest


class TestLargeScene:
    """576 noisy battalions (noise seed 0: p_detect 0.9, 0.5 false alarms
    per km^2, 15 m jitter), 11,909 detections, nine times the benchmark's
    largest scene.  The report is finite and strict JSON, but the engine
    degrades there and nothing in the report flags it; the counts below
    pin how, so a change that moves them says why."""

    def test_noisy_576_seed_0(self, tmp_path):
        workloads = perfbench_workloads()
        workload = workloads.SceneWorkload("noisy-576", 576, 0.9, 0.5, 15.0, scenes=1)
        cfg = perfbench_scene(tmp_path, workload, 0, 0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run(cfg)
        text = dumps(report)
        assert workloads.strict_loads(text) == report  # no NaN or Infinity
        # two resolutions in which every consistent set weighs 0 share
        # the belief out evenly, each with a warning
        zero = [
            (c["level"], len(c["members"]))
            for c in report["conflicts"]
            if c["decision"] == "resolve"
            and all(cs["weight"] == 0.0 for cs in c["consistent_sets"])
        ]
        assert zero == [("battalion", 17), ("battalion", 16)]
        assert sum("weights are zero" in str(w.message) for w in caught) == 2
        # groups past max_exact are skipped at measure 0, never refused
        large = [
            (c["level"], len(c["members"]), c["k"], c["measure"], c["decision"])
            for c in report["conflicts"]
            if len(c["members"]) > cfg.max_exact
        ]
        assert large == [("battalion", 25, 1.0, 0.0, "skip")] * 2
        assert not any("resolution too large" in str(w.message) for w in caught)
        battalions = report["levels"]["battalion"]
        assert (sum(e["out_of_range"] for e in battalions), len(battalions)) == (523, 532)
        digest = "7f20c884580a4f661bf739bdacdf4249a54a87e6e9ece87dd4a48eeb9ab247ee"
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestReportBuildConsumesTheGraph:
    def test_graph_is_empty_after_the_report(self, tmp_path):
        # grid-noisy seed 2, scene 15 skips groups, so its skip estimates
        # read parents through the graph: the conflicts are written first
        cfg = perfbench_scene(tmp_path, "grid-noisy", 2, 15)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # refusals are warned
            scenario_id, g, conflict_log = pipeline._infer(cfg)
            n = len(g.hypotheses)
            report = pipeline._build_report(cfg, scenario_id, g, conflict_log)
            assert report == run(cfg)
        assert any(c["skip_error_estimates"] for c in report["conflicts"])
        assert sum(len(entries) for entries in report["levels"].values()) == n
        assert not g.hypotheses and not g.evidence and not g.terrain
        assert all(not g.at_level(level) for level in pipeline.LEVELS)


class TestEvidenceOrder:
    """Evidence ids are unordered sets, iterated in the order
    ``PYTHONHASHSEED`` gives every set of strings.  A product takes its
    factors in ascending value order and the report lists ids in id
    order, so a report does not depend on the hash seed."""

    def test_report_lists_evidence_in_id_order(self, tmp_path):
        report, _ = run_counting_refusals(RunConfig.from_file(weak_ratio_scene(tmp_path)))
        entries = [e for level in report["levels"].values() for e in level]
        assert all(e["own_evidence"] == sorted(e["own_evidence"]) for e in entries)
        assert any(len(e["own_evidence"]) > 1 for e in entries)
        direct = [e["accrual"]["ratios"] for e in entries if "ratios" in (e["accrual"] or {})]
        assert direct and all(list(r) == sorted(r) for r in direct)

    def test_report_bytes_equal_under_four_hash_seeds(self, tmp_path):
        config = weak_ratio_scene(tmp_path)
        src = str(Path(echelon.__file__).resolve().parents[1])
        outputs = []
        for seed in range(4):
            out = tmp_path / f"report-{seed}.json"
            env = {
                **os.environ,
                "PYTHONHASHSEED": str(seed),
                "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            }
            subprocess.run(
                [sys.executable, "-m", "echelon.cli", "infer",
                 "--config", str(config), "--out", str(out)],
                env=env, check=True, capture_output=True,
            )
            outputs.append(out.read_bytes())
        assert outputs[1:] == outputs[:1] * 3


class TestNoCyclicGarbage:
    """A run's hypothesis graph is freed by reference counting alone:
    with the cyclic collector off, a run and the writing of its report
    leave nothing for it to find, so memory does not wait on when a
    collection happens to run."""

    @staticmethod
    def garbage_of(cfg):
        dumps(run(cfg))  # the first run fills import-time and module caches
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.garbage.clear()
            dumps(run(cfg))
            assert gc.collect() == len(gc.garbage)
            return list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()

    def test_demo_run_leaves_no_cycles(self):
        demo = Path(__file__).resolve().parents[1] / "demo"
        assert self.garbage_of(RunConfig.from_file(demo / "run_config.json")) == []

    def test_noisy_run_leaves_no_cycles(self, tmp_path):
        # matching, and exact resolution of the local vehicle groups
        cfg, _ = noisy_grid_config(tmp_path)
        assert self.garbage_of(cfg) == []

    @pytest.mark.parametrize(
        "workload, seed, scene", [("grid-clean", 0, 0), ("grid-noisy", 2, 15)]
    )
    def test_benchmark_scene_leaves_no_cycles(self, tmp_path, workload, seed, scene):
        # grid-noisy seed 2, scene 15 refuses exact resolution, skips
        # groups and warns on the way
        cfg = perfbench_scene(tmp_path, workload, seed, scene)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert self.garbage_of(cfg) == []


class TestRunPausesTheCollector:
    """``run`` turns the cyclic collector off for its length and leaves
    it as it found it, on return and on raise."""

    @pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
    def collector(self, request):
        enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if enabled else gc.disable)()

    def test_a_run_restores_the_state_it_found(self, collector, monkeypatch):
        seen = []
        build_graph = pipeline.build_graph

        def recording(*args):
            seen.append(gc.isenabled())
            return build_graph(*args)

        monkeypatch.setattr(pipeline, "build_graph", recording)
        demo = Path(__file__).resolve().parents[1] / "demo"
        run(RunConfig.from_file(demo / "run_config.json"))
        assert seen == [False]
        assert gc.isenabled() is collector

    def test_a_run_refusing_a_detection_restores_it(self, collector, tmp_path):
        path = write_empty_run(tmp_path)
        (tmp_path / "scenario.json").write_text(json.dumps({
            "detections": [{"id": "d0", "type": "T-72-tank", "x": 0.0,
                            "y": 0.0, "lambda": "six"}],
        }))
        with pytest.raises(ScenarioError, match="detection 'd0'"):
            run(RunConfig.from_file(path))
        assert gc.isenabled() is collector

    def test_a_run_missing_its_scenario_restores_it(self, collector, tmp_path):
        path = write_empty_run(tmp_path, scenario="missing.json")
        with pytest.raises(OSError):
            run(RunConfig.from_file(path))
        assert gc.isenabled() is collector


def test_scene_peak_memory_follows_the_report(tmp_path):
    # The benchmark's grid-clean scene, run and written as the benchmark
    # does.  Its peak was 12.6 times the report's length while the run
    # kept the scenario document and json's encoder held the tokens of
    # the whole report; 7.0 times with the document freed after the
    # graph is built, slotted records and a slicing writer, the peak
    # then being the whole graph and the whole report alive together;
    # and it is 6.0 times with the report build draining the graph, the
    # peak now the writer's: the report plus about twice its text.
    cfg = perfbench_scene(tmp_path, "grid-clean", 0, 0)
    dumps(run(cfg))  # the first run fills import-time and module caches
    gc.collect()
    tracemalloc.start()
    try:
        text = dumps(run(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * len(text)


def rule_raw(prior, accrual):
    """``raw`` of the parent rule from a report record, with P(H) the
    record's prior: the fit ratio and the component brackets multiplied
    in ascending value order."""
    fit_num, fit_den = accrual["fit"]
    factors = [fit_num / fit_den] + [
        (p_ce * p_ct * prior) / (p_cet * (p_c * p_c))
        for p_ce, p_ct, p_cet, p_c in accrual["components"]
    ]
    raw = 1.0
    for f in sorted(factors):
        raw *= f
    return raw


def audit(report):
    """Recompute every record's ``raw``, posterior and ``out_of_range``
    exactly from its ``prior`` and ``accrual``, and check each rule-path
    component row against the component's own record; counts of the
    records audited by path, of those out of range, of the component
    rows read and of those whose P(C|e) is not the component's
    ``posterior``."""
    resolved = {
        m for c in report["conflicts"] if c["decision"] == "resolve" for m in c["members"]
    }
    records = {e["id"]: e for level in report["levels"].values() for e in level}
    counts = {"leaf": 0, "rule": 0, "direct": 0, "out_of_range": 0, "links": 0, "moved": 0}
    for level in report["levels"].values():
        for e in level:
            a = e["accrual"]
            if a is None:
                assert not e["out_of_range"]
                counts["leaf"] += 1
                continue
            if "ratios" in a:
                assert set(a) == {"raw", "ratios"}
                raw = posterior_from_evidence(e["prior"], list(a["ratios"].values()))
                counts["direct"] += 1
            else:
                assert set(a) == {"raw", "fit", "components"}
                raw = rule_raw(e["prior"], a)
                counts["rule"] += 1
                for cid, row in zip(e["components"], a["components"], strict=True):
                    audit_component_link(row, records[cid], cid in resolved, counts)
            assert a["raw"] == raw, e["id"]
            assert e["out_of_range"] == (raw > 1.0)
            counts["out_of_range"] += e["out_of_range"]
            if e["id"] not in resolved:
                assert e["posterior"] == min(raw, 1.0), e["id"]
    return counts


def audit_component_link(row, child, resolved, counts):
    """A parent's row for ``child`` holds its prior as P(C) and, as
    P(C|e), its belief before conflict resolution: ``min(raw, 1)`` of
    its accrual, or for a vehicle its posterior unless resolution moved
    it.  Only resolution may make P(C|e) differ from ``posterior``."""
    p_ce, _, _, p_c = row
    assert p_c == child["prior"], child["id"]
    if child["accrual"] is not None:
        assert p_ce == min(child["accrual"]["raw"], 1.0), child["id"]
    elif not resolved:
        assert p_ce == child["posterior"], child["id"]
    counts["links"] += 1
    if p_ce != child["posterior"]:
        assert resolved, child["id"]
        counts["moved"] += 1


class TestReportAudit:
    def test_demo_report_recomputable_from_accrual(self):
        demo = Path(__file__).resolve().parents[1] / "demo"
        counts = audit(json.loads((demo / "report.json").read_text()))
        assert counts["rule"] > 0 and counts["out_of_range"] > 0
        assert counts["links"] > 0 and counts["moved"] == 0  # nothing resolved

    def test_noisy_report_recomputable_from_accrual(self, tmp_path):
        # tau 1 skips some vehicle groups and resolves others, so the
        # scene has direct-path, rule-path and out-of-range records
        cfg, _ = noisy_grid_config(tmp_path)
        report = run(dataclasses.replace(cfg, tau=1.0))
        decisions = {c["decision"] for c in report["conflicts"]}
        assert decisions == {"skip", "resolve"}
        counts = audit(report)
        assert counts["direct"] > 0 and counts["rule"] > 0
        assert counts["out_of_range"] > 0
        assert 0 < counts["moved"] < counts["links"]  # resolved children are read

    def test_terrain_report_recomputable_from_accrual(self, tmp_path):
        # terrain on every hypothesis, skipped and resolved groups, and
        # parents of skipped arrays on the direct path
        report, _ = run_counting_refusals(RunConfig.from_file(weak_ratio_scene(tmp_path)))
        counts = audit(report)
        assert counts["direct"] > 0 and counts["rule"] > 0
        assert 0 < counts["moved"] < counts["links"]
        arrays = [e["accrual"] for e in report["levels"]["array"]]
        rows = [row for a in arrays if a and "components" in a for row in a["components"]]
        assert any(p_ct != p_c for _, p_ct, _, p_c in rows)  # terrain reaches the rows

    def test_long_rule_product_recomputable_from_accrual(self, tmp_path):
        # 32 components: the array's raw is the written rule, bit for bit
        report = run(RunConfig.from_file(write_line_run(tmp_path, 32, 0.3)))
        (array,) = report["levels"]["array"]
        assert len(array["accrual"]["components"]) == 32
        assert audit(report) == {
            "leaf": 32, "rule": 1, "direct": 0, "out_of_range": 1, "links": 32, "moved": 0
        }


class TestSimulateCommand:
    @pytest.mark.parametrize("density", [1e10, 1e300])
    def test_oversized_false_alarm_count_is_domain_error(self, tmp_path, capsys, density):
        # the demo's 6 km x 6 km area would expect 3.6e11 false alarms at
        # 1e10 per km^2, and numpy cannot draw a Poisson count at 1e300
        demo = Path(__file__).resolve().parents[1] / "demo"
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps({"false_alarm_density": density}))
        out = tmp_path / "scenario.json"
        argv = ["simulate", str(demo / "ground_truth.json"), str(noise), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "noise spec: false_alarm_density" in err
        assert "more than 100000" in err
        assert not out.exists()

    def test_missing_input_exit_two(self, tmp_path):
        assert (
            main(
                [
                    "simulate",
                    str(tmp_path / "nope.json"),
                    str(tmp_path / "nope2.json"),
                    "--out",
                    str(tmp_path / "out.json"),
                ]
            )
            == 2
        )

    def test_seed_override_changes_output(self, tmp_path):
        paths = write_battalion_inputs(tmp_path)
        paths["noise"].write_text(
            json.dumps({"p_detect": 0.5, "seed": 1, "location_jitter": 5.0})
        )
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out, seed in ((out_a, "1"), (out_b, "2")):
            rc = main(
                [
                    "simulate",
                    str(paths["ground_truth"]),
                    str(paths["noise"]),
                    "--library",
                    str(paths["library"]),
                    "--out",
                    str(out),
                    "--seed",
                    seed,
                ]
            )
            assert rc == 0
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_invalid_ground_truth_exit_one(self, tmp_path, capsys):
        paths = write_battalion_inputs(tmp_path)
        doc = json.loads(paths["ground_truth"].read_text())
        # 10 m from its neighbour: below the 50 m slot minimum
        doc["forces"][0]["components"][0]["components"][0]["x"] = 990.0
        bad = tmp_path / "bad_gt.json"
        bad.write_text(json.dumps(doc))
        rc = main(
            [
                "simulate",
                str(bad),
                str(paths["noise"]),
                "--library",
                str(paths["library"]),
                "--out",
                str(tmp_path / "out.json"),
            ]
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(
                lambda d: d.update(ground_truth=[]),
                "ground truth must be a JSON object, got []",
                id="ground-truth-list",
            ),
            pytest.param(
                lambda d: d["ground_truth"].update(area="big"),
                "ground truth area must be a JSON object, got 'big'",
                id="area-string",
            ),
            pytest.param(
                lambda d: d["ground_truth"].update(area=[1]),
                "ground truth area must be a JSON object, got [1]",
                id="area-list",
            ),
            pytest.param(
                lambda d: d["ground_truth"].update(area={"width_m": "6 km"}),
                "ground truth area: width_m must be a finite number > 0, got '6 km'",
                id="area-width-string",
            ),
            pytest.param(
                lambda d: d["ground_truth"].update(forcez=[]),
                "ground truth: unknown keys ['forcez']",
                id="ground-truth-unknown-key",
            ),
            pytest.param(
                lambda d: d["ground_truth"].update(id=5),
                "ground truth: id must be a string, got 5",
                id="id-number",
            ),
            pytest.param(
                lambda d: first_tank(d["ground_truth"], x=math.nan),
                "force 0 component 0 component 0: x must be a finite number, got nan",
                id="vehicle-x-nan",
            ),
            pytest.param(
                lambda d: first_tank(d["ground_truth"], x=None),
                "force 0 component 0 component 0: x must be a finite number, got None",
                id="vehicle-x-null",
            ),
            pytest.param(
                lambda d: first_tank(d["ground_truth"], heading="east"),
                "force 0 component 0 component 0: heading must be a finite number",
                id="vehicle-heading-string",
            ),
            pytest.param(
                lambda d: first_tank(d["ground_truth"], colour="green"),
                "force 0 component 0 component 0: unknown keys ['colour']",
                id="vehicle-unknown-key",
            ),
            pytest.param(
                lambda d: first_company(d["ground_truth"], components=[]),
                "force 0 component 0: components must not be empty",
                id="components-empty",
            ),
            pytest.param(
                lambda d: first_company(d["ground_truth"], model=None),
                "force 0 component 0: model must be a string, got None",
                id="model-null",
            ),
            # a child's model is checked before its parent's slots look it up
            pytest.param(
                lambda d: first_company(d["ground_truth"], model="x"),
                "unknown model 'x' in ground truth",
                id="child-model-unknown",
            ),
            pytest.param(
                lambda d: d.update(noise=[]),
                "noise spec must be a JSON object, got []",
                id="noise-list",
            ),
            pytest.param(
                lambda d: d["noise"].update(seed=1.5),
                "noise spec: seed must be an integer, got 1.5",
                id="seed-float",
            ),
            pytest.param(
                lambda d: d["noise"].update(seed=-1),
                "noise spec: seed must be >= 0, got -1",
                id="seed-negative",
            ),
            pytest.param(
                lambda d: d["noise"].update(p_detect="x"),
                "noise spec: p_detect must be a finite number, got 'x'",
                id="p-detect-string",
            ),
            # an integer beyond the float range is not a finite number
            pytest.param(
                lambda d: d["noise"].update(false_alarm_density=10**400),
                "noise spec: false_alarm_density must be a finite number",
                id="density-huge-integer",
            ),
            pytest.param(
                lambda d: d["noise"].update(misclassification="x"),
                "noise spec misclassification must be a JSON object, got 'x'",
                id="misclassification-string",
            ),
            pytest.param(
                lambda d: d["noise"].update(
                    misclassification={"T-72-tank": {"T-72-tank": True}}
                ),
                "noise spec misclassification row 'T-72-tank': T-72-tank must be a "
                "finite number, got True",
                id="misclassification-entry-bool",
            ),
            pytest.param(
                lambda d: d["noise"].update(false_alarm_types=["BMP", 1]),
                "noise spec: false_alarm_types must be a string, got 1",
                id="false-alarm-type-number",
            ),
            # simulate reports a malformed library as validate does
            pytest.param(
                lambda d: d["library"].update(doctrine=[]),
                "doctrine must be a JSON object, got []",
                id="library-doctrine-list",
            ),
        ],
    )
    def test_malformed_input_names_entry_and_key(self, tmp_path, capsys, edit, message):
        paths = write_battalion_inputs(tmp_path)
        docs = {
            key: json.loads(paths[key].read_text())
            for key in ("ground_truth", "noise", "library")
        }
        edit(docs)
        for key, doc in docs.items():
            paths[key].write_text(json.dumps(doc))
        rc = main(
            [
                "simulate",
                str(paths["ground_truth"]),
                str(paths["noise"]),
                "--library",
                str(paths["library"]),
                "--out",
                str(paths["scenario"]),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1 and message in err, err
        assert not paths["scenario"].exists()

    def test_null_heading_is_no_heading(self, tmp_path):
        paths = write_battalion_inputs(tmp_path)
        gt = first_tank(json.loads(paths["ground_truth"].read_text()), heading=None)
        paths["ground_truth"].write_text(json.dumps(gt))
        assert simulate_and_infer(paths) == 0
        scenario = json.loads(paths["scenario"].read_text())
        assert scenario["ground_truth"]["vehicles"][0]["heading"] is None
        assert scenario["detections"][0]["heading"] is None


def first_company(gt: dict, **fields) -> dict:
    """Set ``fields`` on the first component of ``gt``'s first force."""
    gt["forces"][0]["components"][0].update(fields)
    return gt


def first_tank(gt: dict, **fields) -> dict:
    """Set ``fields`` on the first vehicle of ``gt``'s first company."""
    gt["forces"][0]["components"][0]["components"][0].update(fields)
    return gt


class TestOracleCommand:
    def test_packaged_fixtures_match(self):
        assert main(["oracle", "all"]) == 0

    def test_record_and_tamper(self, tmp_path, capsys):
        fixtures = tmp_path / "fx"
        assert main(["oracle", "accrual", "--fixtures", str(fixtures), "--record"]) == 0
        assert main(["oracle", "accrual", "--fixtures", str(fixtures)]) == 0
        path = fixtures / "accrual.json"
        doc = json.loads(path.read_text())
        doc["records"][0]["approx"] = (0.123).hex()
        path.write_text(json.dumps(doc))
        assert main(["oracle", "accrual", "--fixtures", str(fixtures)]) == 1
        assert "drift" in capsys.readouterr().err

    def test_duplicate_network_fails(self, tmp_path, capsys):
        # a wrong first copy of a network must not hide behind the right one
        fixtures = tmp_path / "fx"
        assert main(["oracle", "accrual", "--fixtures", str(fixtures), "--record"]) == 0
        path = fixtures / "accrual.json"
        doc = json.loads(path.read_text())
        doc["records"].insert(0, {**doc["records"][0], "approx": (0.5).hex()})
        path.write_text(json.dumps(doc))
        assert main(["oracle", "accrual", "--fixtures", str(fixtures)]) == 1
        assert "record 1: duplicate network 'chain'" in capsys.readouterr().err

    def test_missing_fixture_fails(self, tmp_path):
        assert main(["oracle", "skip", "--fixtures", str(tmp_path / "empty")]) == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("not json", "skip.json is not valid JSON"),
            ('{"records": 5}', "skip.json: records must be a list, got 5"),
            ('{"records": [5]}', "skip.json: record 0 must be a JSON object"),
            ('{"records": [{"network": 5}]}',
             "skip.json: record 0: network must be a string, got 5"),
            ('{"records": [{"network": "skip-0", "colour": 1}]}',
             "skip.json: record 0: unknown keys ['colour']"),
            ('{"records": [], "version": 2}', "skip.json: unknown keys ['version']"),
            (b"\xff", "skip.json is not UTF-8 text"),
            ('{"records": [{"network": "skip-0"}, {"network": "skip-0"}]}',
             "skip.json: record 1: duplicate network 'skip-0'"),
        ],
    )
    def test_malformed_fixture_is_domain_error(self, tmp_path, capsys, text, message):
        fixture = tmp_path / "skip.json"
        if isinstance(text, bytes):
            fixture.write_bytes(text)
        else:
            fixture.write_text(text)
        assert main(["oracle", "skip", "--fixtures", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"[skip] fixture {fixture}" in err and message in err
        assert "Traceback" not in err

    def test_unreadable_fixture_is_io_error(self, tmp_path, capsys):
        (tmp_path / "skip.json").mkdir()
        assert main(["oracle", "skip", "--fixtures", str(tmp_path)]) == 2
        assert "error: cannot read fixture: " in capsys.readouterr().err

    def test_unwritable_fixture_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main(["oracle", "skip", "--record", "--fixtures", str(blocker / "sub")])
        assert rc == 2
        assert "error: cannot write fixture: " in capsys.readouterr().err

    def test_unknown_suite_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "warp-drive"])
        assert exc.value.code == 2
