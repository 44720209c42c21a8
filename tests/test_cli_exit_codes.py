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

from conftest import write_battalion_inputs

NOT_FOUND = "error: [Errno 2] No such file or directory: "

# (id, argv with {tmp} for the input directory, exit code, stderr prefix)
CASES = [
    ("validate-missing", ["validate", "{tmp}/missing.json"], 2,
     "error: cannot read {tmp}/missing.json: "),
    ("validate-malformed", ["validate", "{tmp}/bad.json"], 1, "invalid library: "),
    ("infer-missing-config", ["infer", "--config", "{tmp}/missing.json"], 2,
     "error: cannot read config: "),
    ("infer-config-not-json", ["infer", "--config", "{tmp}/bad.json"], 1,
     "invalid config: "),
    ("infer-bad-tau", ["infer", "--config", "{tmp}/config.json", "--tau", "-1"], 1,
     "invalid config: "),
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


def write_inputs(tmp_path):
    """A valid library, ground truth, noise spec, empty scenario and run
    config, a document that is not JSON, configs that point at a missing
    scenario or at that document as their library, and two fixture
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
    ):
        (tmp_path / name).write_text(json.dumps({**config, key: value}))
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
