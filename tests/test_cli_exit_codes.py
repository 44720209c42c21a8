"""The failure surface of every command, as one table: command and
failure -> exit code and the start of the message on standard error.

Exit 2 is a file that cannot be read or written, or a usage error;
exit 1 is a domain error.  No failure prints a traceback.  ``simulate``
reads its three documents before it parses any of them, so a missing
document is exit 2 even when another one is malformed.
"""

import json

import pytest

from echelon.cli import main
from echelon.scenario import dumps

from conftest import TANK_LIBRARY, battalion_ground_truth, write_battalion_inputs

NOT_FOUND = "error: [Errno 2] No such file or directory: "

# (id, argv with {tmp} for the input directory, exit code, stderr prefix)
CASES = [
    ("validate-missing", ["validate", "{tmp}/missing.json"], 2,
     "error: cannot read {tmp}/missing.json: "),
    ("validate-malformed", ["validate", "{tmp}/bad.json"], 1, "invalid library: "),
    ("validate-duplicate-doctrine-pair", ["validate", "{tmp}/dup-doctrine.json"], 1,
     "invalid library: min_separation row 2: duplicate pair 'vehicle', 'vehicle' "
     "(first in row 0)"),
    ("infer-missing-config", ["infer", "--config", "{tmp}/missing.json"], 2,
     "error: cannot read config: "),
    ("infer-config-not-json", ["infer", "--config", "{tmp}/bad.json"], 1,
     "invalid config: "),
    ("infer-bad-tau", ["infer", "--config", "{tmp}/config.json", "--tau", "-1"], 1,
     "invalid config: "),
    ("infer-matcher-out-of-range", ["infer", "--config", "{tmp}/bad-matcher.json"], 1,
     "invalid config: matcher config: gather_radius must be > 0, got -5"),
    ("infer-k-underflow", ["infer", "--config", "{tmp}/k-underflow.json"], 1,
     "inference failed: vehicle conflict of ['v.d0', 'v.d1']: k is 0.0, so its "
     "measure (1-k)/k is not finite\n"),
    ("infer-missing-scenario", ["infer", "--config", "{tmp}/no-scenario.json"], 2,
     NOT_FOUND),
    ("infer-malformed-library", ["infer", "--config", "{tmp}/bad-library.json"], 1,
     "inference failed: "),
    ("infer-unwritable-out",
     ["infer", "--config", "{tmp}/config.json", "--out", "{tmp}/no-dir/r.json"], 2,
     "error: cannot write report: "),
    ("infer-no-config", ["infer"], 2, "usage: "),
    ("simulate-missing-ground-truth",
     ["simulate", "{tmp}/missing.json", "{tmp}/noise.json", "--out", "{tmp}/s.json"],
     2, NOT_FOUND),
    ("simulate-malformed-ground-truth",
     ["simulate", "{tmp}/bad.json", "{tmp}/noise.json", "--out", "{tmp}/s.json"],
     1, "simulation failed: "),
    ("simulate-malformed-library",
     ["simulate", "{tmp}/gt.json", "{tmp}/noise.json", "--library", "{tmp}/bad.json",
      "--out", "{tmp}/s.json"],
     1, "simulation failed: "),
    ("simulate-malformed-library-missing-noise",
     ["simulate", "{tmp}/gt.json", "{tmp}/missing.json", "--library", "{tmp}/bad.json",
      "--out", "{tmp}/s.json"],
     2, NOT_FOUND),
    ("simulate-malformed-ground-truth-missing-library",
     ["simulate", "{tmp}/bad.json", "{tmp}/noise.json", "--library",
      "{tmp}/missing.json", "--out", "{tmp}/s.json"],
     2, NOT_FOUND),
    ("simulate-noise-false-alarm-type-not-vehicle",
     ["simulate", "{tmp}/gt.json", "{tmp}/noise-company.json", "--library",
      "{tmp}/library.json", "--out", "{tmp}/s.json"],
     1, "simulation failed: noise spec false_alarm_types entry 0: type 'tank-company' "
     "is not a vehicle-level type (it is array-level)"),
    ("simulate-noise-unknown-observed-label",
     ["simulate", "{tmp}/gt.json", "{tmp}/noise-unknown.json", "--library",
      "{tmp}/library.json", "--out", "{tmp}/s.json"],
     1, "simulation failed: noise spec misclassification row 'T-72-tank' label "
     "'Abrams': unknown force type 'Abrams'"),
    ("simulate-noise-row-type-not-vehicle",
     ["simulate", "{tmp}/gt.json", "{tmp}/noise-row.json", "--library",
      "{tmp}/library.json", "--out", "{tmp}/s.json"],
     1, "simulation failed: noise spec misclassification row 'battalion': type "
     "'battalion' is not a vehicle-level type (it is battalion-level)"),
    ("simulate-noise-lambda-hit-zero",
     ["simulate", "{tmp}/gt.json", "{tmp}/noise-lambda-zero.json", "--out", "{tmp}/s.json"],
     1, "simulation failed: noise spec: lambda_hit must be a finite number > 0, got 0"),
    ("simulate-noise-lambda-hit-negative",
     ["simulate", "{tmp}/gt.json", "{tmp}/noise-lambda-negative.json", "--out",
      "{tmp}/s.json"],
     1, "simulation failed: noise spec: lambda_hit must be a finite number > 0, "
     "got -6.0"),
    ("simulate-noise-ratio-overflow",
     ["simulate", "{tmp}/gt.json", "{tmp}/noise-overflow.json", "--out", "{tmp}/s.json"],
     1, "simulation failed: noise spec misclassification row 'T-72-tank' label 'BMP': "
     "its detection ratio lambda_hit * 0.9 / 0.1 is not finite"),
    ("simulate-noise-jitter-overflow",
     ["simulate", "{tmp}/gt.json", "{tmp}/noise-jitter.json", "--out", "{tmp}/s.json"],
     1, "simulation failed: noise spec: location_jitter 1e+308 moves vehicle 'gv4' to "
     "a location that is not finite"),
    ("simulate-terrain-negative-lambda",
     ["simulate", "{tmp}/gt-terrain.json", "{tmp}/noise.json", "--out", "{tmp}/s.json"],
     1, "simulation failed: ground truth terrain entry 't0': lambda must be a finite "
     "number > 0, got -2.0"),
    ("simulate-terrain-unknown-key",
     ["simulate", "{tmp}/gt-terrain-key.json", "{tmp}/noise.json", "--out",
      "{tmp}/s.json"],
     1, "simulation failed: ground truth terrain entry 0: unknown keys ['radius']"),
    ("simulate-ground-truth-negative-area",
     ["simulate", "{tmp}/gt-area.json", "{tmp}/noise-false-alarms.json", "--out",
      "{tmp}/s.json"],
     1, "simulation failed: ground truth area: width_m must be a finite number > 0, "
     "got -5000"),
    ("simulate-ground-truth-zero-area",
     ["simulate", "{tmp}/gt-area-zero.json", "{tmp}/noise.json", "--out", "{tmp}/s.json"],
     1, "simulation failed: ground truth area: height_m must be a finite number > 0, "
     "got 0"),
    ("simulate-unwritable-out",
     ["simulate", "{tmp}/gt.json", "{tmp}/noise.json", "--out", "{tmp}/no-dir/s.json"],
     2, "error: cannot write scenario: "),
    ("oracle-missing-fixture", ["oracle", "skip", "--fixtures", "{tmp}/no-dir"], 1,
     "[skip] no fixture at {tmp}/no-dir/skip.json; run with --record"),
    ("oracle-malformed-fixture", ["oracle", "skip", "--fixtures", "{tmp}/bad-fixtures"],
     1, "[skip] fixture {tmp}/bad-fixtures/skip.json is not valid JSON: "),
    ("oracle-unreadable-fixture",
     ["oracle", "skip", "--fixtures", "{tmp}/dir-fixtures"], 2,
     "error: cannot read fixture: "),
    ("oracle-unwritable-fixture",
     ["oracle", "skip", "--record", "--fixtures", "{tmp}/bad.json/sub"], 2,
     "error: cannot write fixture: "),
    ("oracle-unknown-suite", ["oracle", "warp-drive"], 2, "usage: "),
]

# noise specs that would write detections of types ``infer`` refuses
NOISE_NAMING_OTHER_TYPES = {
    "noise-company.json": {
        "false_alarm_density": 1.0, "false_alarm_types": ["tank-company"], "seed": 7,
    },
    "noise-unknown.json": {
        "misclassification": {"T-72-tank": {"T-72-tank": 0.9, "Abrams": 0.1}}, "seed": 7,
    },
    "noise-row.json": {"misclassification": {"battalion": {"BMP": 1.0}}, "seed": 7},
}

# inputs that simulate refuses, where it used to write a scenario that
# every infer then refused: a duplicate doctrine row, noise specs whose
# detections would carry a ratio <= 0 or one that overflows to infinity,
# or whose jitter moves a vehicle past the float range, and ground-truth
# terrain that infer's reader rejects; ground-truth areas of no size,
# which simulate refuses by name rather than with numpy's message (or
# none, where no false alarm is drawn); and a scenario whose report infer
# refuses to write, rather than write Infinity
REFUSED_INPUTS = {
    "dup-doctrine.json": {
        **TANK_LIBRARY,
        "doctrine": {
            "min_separation": [
                *TANK_LIBRARY["doctrine"]["min_separation"],
                {"a": "vehicle", "b": "vehicle", "meters": 5},
            ],
        },
    },
    "noise-lambda-zero.json": {"lambda_hit": 0, "seed": 7},
    "noise-lambda-negative.json": {"lambda_hit": -6.0, "seed": 7},
    "noise-overflow.json": {
        "lambda_hit": 1e308,
        "misclassification": {"T-72-tank": {"T-72-tank": 0.1, "BMP": 0.9}},
        "seed": 7,
    },
    "noise-jitter.json": {"location_jitter": 1e308, "seed": 7},
    "gt-terrain.json": {
        **battalion_ground_truth(),
        "terrain": [{"id": "t0", "x": 0.0, "y": 0.0, "lambda": -2.0}],
    },
    # two tanks 10 m apart, inside the 25 m separation, whose posteriors'
    # product k underflows to 0: the report build refuses the group, whose
    # measure is infinite
    "k-underflow-scenario.json": {
        "schema_version": 1, "scenario_id": "k-underflow", "terrain": [],
        "detections": [
            {"id": f"d{i}", "type": "T-72-tank", "x": 10.0 * i, "y": 0.0,
             "lambda": 1e-200}
            for i in range(2)
        ],
    },
    "gt-area.json": {
        **battalion_ground_truth(), "area": {"width_m": -5000, "height_m": 5000},
    },
    "noise-false-alarms.json": {"false_alarm_density": 0.5, "seed": 3},
    "gt-area-zero.json": {
        **battalion_ground_truth(), "area": {"width_m": 5000, "height_m": 0},
    },
    "gt-terrain-key.json": {
        **battalion_ground_truth(),
        "terrain": [{"id": "t0", "x": 0.0, "y": 0.0, "lambda": 2.0, "radius": 9.0}],
    },
}


def write_inputs(tmp_path):
    """A valid library, ground truth, noise spec, empty scenario and run
    config, a document that is not JSON, configs that point at a missing
    scenario, at a scenario whose conflict measure is infinite or at that
    document as their library, or hold a matcher value out of range, noise
    specs that name
    types other than the library's vehicle types, the ``REFUSED_INPUTS``
    documents, and two fixture
    directories: one whose ``skip.json`` is not JSON, one whose
    ``skip.json`` is a directory."""
    paths = write_battalion_inputs(tmp_path)
    paths["scenario"].write_text(
        dumps({"schema_version": 1, "scenario_id": "empty", "detections": [], "terrain": []})
    )
    (tmp_path / "bad.json").write_text("not json")
    config = json.loads(paths["config"].read_text())
    for name, key, value in (
        ("no-scenario.json", "scenario", "missing.json"),
        ("bad-library.json", "library", "bad.json"),
        ("bad-matcher.json", "matcher", {"gather_radius": -5}),
        ("k-underflow.json", "scenario", "k-underflow-scenario.json"),
    ):
        (tmp_path / name).write_text(json.dumps({**config, key: value}))
    for name, doc in {**NOISE_NAMING_OTHER_TYPES, **REFUSED_INPUTS}.items():
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "bad-fixtures").mkdir()
    (tmp_path / "bad-fixtures" / "skip.json").write_text("not json")
    (tmp_path / "dir-fixtures" / "skip.json").mkdir(parents=True)


@pytest.mark.parametrize("argv, code, prefix", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_failure_exit_code_and_message(tmp_path, capsys, argv, code, prefix):
    write_inputs(tmp_path)
    argv = [a.format(tmp=tmp_path) for a in argv]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == code, err
    assert err.startswith(prefix.format(tmp=tmp_path)), err
    assert "Traceback" not in err


@pytest.mark.parametrize("noise", sorted(NOISE_NAMING_OTHER_TYPES))
def test_noise_types_are_checked_against_a_library_only(tmp_path, capsys, noise):
    write_inputs(tmp_path)
    argv = ["simulate", f"{tmp_path}/gt.json", f"{tmp_path}/{noise}",
            "--out", f"{tmp_path}/s.json"]
    assert main(argv) == 0, capsys.readouterr().err
