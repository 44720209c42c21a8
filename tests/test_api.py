"""The top-level package must import cleanly and export what it claims."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import echelon

SRC = str(Path(echelon.__file__).resolve().parents[1])
DEMO = Path(__file__).resolve().parents[1] / "demo"

# Imports echelon, then runs its arguments as ``python -m echelon.cli``
# does, or, given only ``OracleNetwork``, resolves that export; prints the
# exit code and the numpy modules loaded by the end.
PROBE = """
import json, runpy, sys
import echelon
code = 0
if sys.argv[1:] == ["OracleNetwork"]:
    echelon.OracleNetwork
elif sys.argv[1:]:
    sys.argv = ["echelon", *sys.argv[1:]]
    try:
        runpy.run_module("echelon.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.partition(".")[0] == "numpy")]))
"""


def numpy_at_exit(*args: str, code: int = 0) -> list[str]:
    """The numpy modules loaded by a fresh process that imports echelon
    and runs ``args``, which must end in exit ``code``."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]),
    }
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *args],
        env=env, check=True, capture_output=True, text=True,
    )
    got, modules = json.loads(done.stdout.splitlines()[-1])
    assert got == code, done.stderr
    return modules


def test_public_names_resolve():
    for name in echelon.__all__:
        assert getattr(echelon, name) is not None


def test_version():
    assert echelon.__version__


def test_lazy_and_unknown_names():
    from echelon.oracle import OracleNetwork
    from echelon.scenario import generate

    assert echelon.OracleNetwork is OracleNetwork
    assert echelon.generate is generate
    names: dict = {}
    exec("from echelon import *", names)
    assert set(echelon.__all__) <= names.keys()
    assert names["OracleNetwork"] is OracleNetwork
    with pytest.raises(AttributeError, match="no attribute 'NoSuchName'"):
        echelon.NoSuchName  # noqa: B018


class TestNoNumpyOnTheInferencePath:
    """``import echelon``, ``echelon validate`` and ``echelon infer`` load
    no numpy: only the oracle and scenario generation need it, and
    ``simulate`` loads it only once it draws."""

    def test_import_echelon(self):
        assert numpy_at_exit() == []

    def test_validate_the_demo_library(self):
        assert numpy_at_exit("validate", str(DEMO / "library.json")) == []

    def test_infer_the_demo_scenario(self, tmp_path):
        out = tmp_path / "report.json"
        found = numpy_at_exit(
            "infer", "--config", str(DEMO / "run_config.json"), "--out", str(out)
        )
        assert found == []
        assert out.read_bytes() == (DEMO / "report.json").read_bytes()

    def test_the_oracle_loads_numpy(self):
        # the probe can see numpy: resolving the oracle's export loads it
        assert "numpy" in numpy_at_exit("OracleNetwork")

    def test_a_refused_noise_spec_is_refused_before_any_draw(self, tmp_path):
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps({"false_alarm_types": ["tank-company"]}))
        found = numpy_at_exit(
            "simulate", str(DEMO / "ground_truth.json"), str(noise),
            "--library", str(DEMO / "library.json"), "--out", str(tmp_path / "s.json"),
            code=1,
        )
        assert found == []
        assert not (tmp_path / "s.json").exists()
