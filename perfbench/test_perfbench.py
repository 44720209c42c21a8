"""Self-test of the benchmark at a tiny scene size.

    python3 -m pytest perfbench -q

Checks that the metric names each mode prints are exactly the ones
BENCHMARK.json declares, that a seed fixes the inputs, that the speed
reference leaves no timer behind, and that the benchmark refuses to run
without the source tree.
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from reference import NOMINAL_S, Speedometer  # noqa: E402
from workloads import WORKLOADS, OracleWorkload, SceneWorkload, runner_for  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = [
    SceneWorkload("tiny-clean", 2, 1.0, 0.0, 5.0, scenes=1),
    SceneWorkload("tiny-noisy", 2, 0.9, 0.5, 15.0, scenes=2),
    OracleWorkload("oracle", batch=2),
]


def test_declared_workloads_exist():
    assert {w["name"] for w in DECLARED["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
@pytest.mark.parametrize("wl", TINY, ids=lambda w: w.name)
def test_printed_metrics_are_the_declared_ones(wl, trace, section):
    result, _ = bench.measure(wl, seed=3, seconds=0.0, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_seed_fixes_the_inputs():
    wl = TINY[1]
    out = bench.OUT / "tiny-seed-check"
    first = runner_for(wl, 3, ROOT, out).fingerprint(3)
    again = runner_for(wl, 3, ROOT, out).fingerprint(3)
    other = runner_for(wl, 4, ROOT, out).fingerprint(4)
    assert first == again
    assert first["scenes"] != other["scenes"]


def test_speedometer_samples_and_cleans_up():
    before = signal.getsignal(signal.SIGALRM)
    with Speedometer() as speed:
        sum(i * i for i in range(2_000_000))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert speed._loops > 1 and 0 < speed.seconds
    assert speed.normalised == pytest.approx(speed.seconds * NOMINAL_S / speed.loop_s)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
