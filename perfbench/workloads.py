"""Seeded workloads: scene files generated from a seed, and one unit of
work on them, with the check that the unit's output is correct.

A scene unit is ``pipeline.run`` on the generated files plus the
canonical ``scenario.dumps`` of the report; an oracle unit is one
``echelon oracle all`` pass against the packaged fixtures.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import math
import re
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import ClassVar
from pathlib import Path

from echelon import cli, pipeline
from echelon.models import load_library
from echelon.scenario import NoiseSpec, dumps, generate, load_ground_truth, score

GRID_SPACING_M = 5000.0
TAU = 0.1
MATCHER = {"gather_radius": 1200, "min_fit": 0.2}


@dataclass(frozen=True)
class SceneWorkload:
    """k tank battalions on a square grid, seen through a noise channel.

    A run generates ``scenes`` scenes from consecutive seeds and cycles
    through them, so one run's figures average over scene structure.
    """

    name: str
    battalions: int
    p_detect: float
    false_alarm_density: float  # per km^2
    jitter_m: float
    scenes: int
    batch: ClassVar[int] = 1  # units per timed sample


@dataclass(frozen=True)
class OracleWorkload:
    """Oracle passes, timed ``batch`` at a time: one 0.1 s pass holds
    too few of the reference loop's speed samples (reference.py)."""

    name: str
    batch: int


WORKLOADS = {
    w.name: w
    for w in (
        SceneWorkload("grid-clean", 64, 1.0, 0.0, 5.0, scenes=1),
        SceneWorkload("grid-noisy", 16, 0.9, 0.5, 15.0, scenes=18),
        OracleWorkload("oracle", batch=8),
    )
}


def _tank_library_module(root: Path):
    """The test suite's tank library and company layout (tests/conftest.py)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tank_conftest", root / "tests" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def grid_ground_truth(battalions: int, company_node) -> dict:
    cols = math.ceil(math.sqrt(battalions))
    rows = math.ceil(battalions / cols)
    forces = []
    for i in range(battalions):
        bx, by = (i % cols) * GRID_SPACING_M, (i // cols) * GRID_SPACING_M
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
    return {
        "id": f"grid-{battalions}",
        "area": {"width_m": cols * GRID_SPACING_M, "height_m": rows * GRID_SPACING_M},
        "forces": forces,
    }


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in report")


def strict_loads(text: str):
    """JSON parse that rejects NaN and Infinity tokens."""
    return json.loads(text, parse_constant=_reject_constant)


class SceneRunner:
    """Generated scene files of one seed, and units run on them."""

    def __init__(self, wl: SceneWorkload, seed: int, root: Path, workdir: Path):
        conftest = _tank_library_module(root)
        library_text = json.dumps(conftest.TANK_LIBRARY)
        lib = load_library(library_text)
        gt = load_ground_truth(grid_ground_truth(wl.battalions, conftest.company_node), lib)
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "library.json").write_text(library_text)
        self.lib = lib
        self.scenarios: list[dict] = []
        self.configs: list[pipeline.RunConfig] = []
        self.scenario_sha: list[str] = []
        for j in range(wl.scenes):
            scene_seed = seed * wl.scenes + j
            noise = NoiseSpec(
                p_detect=wl.p_detect,
                false_alarm_density=wl.false_alarm_density,
                location_jitter=wl.jitter_m,
                seed=scene_seed,
            )
            scenario = generate(gt, noise, lib)
            text = dumps(scenario)
            (workdir / f"scenario-{j}.json").write_text(text)
            config = {
                "library": "library.json",
                "scenario": f"scenario-{j}.json",
                "matcher": MATCHER,
                "tau": TAU,
                "seed": scene_seed,
            }
            config_path = workdir / f"config-{j}.json"
            config_path.write_text(json.dumps(config))
            self.scenarios.append(scenario)
            self.configs.append(pipeline.RunConfig.from_file(config_path))
            self.scenario_sha.append(sha256(text))
        self.library_sha = sha256(library_text)
        self.report_sha: dict[int, str] = {}
        self.last_report: dict[int, str] = {}

    def scene(self, unit: int) -> int:
        return unit % len(self.configs)

    def items(self, unit: int) -> int:
        return len(self.scenarios[self.scene(unit)]["detections"])

    def largest_unit(self) -> int:
        """The unit on the scene with the most detections (first on ties)."""
        return max(range(len(self.scenarios)), key=lambda j: (self.items(j), -j))

    def run(self, unit: int, tracer) -> str:
        with tracer.span("pipeline.run"):
            report = pipeline.run(self.configs[self.scene(unit)])
        with tracer.span("scenario.dumps"):
            return dumps(report)

    def check(self, unit: int, text: str) -> bool:
        """Same bytes as the scene's first report, and strictly valid JSON."""
        j = self.scene(unit)
        digest = sha256(text)
        expected = self.report_sha.setdefault(j, digest)
        self.last_report[j] = text
        try:
            strict_loads(text)
        except ValueError:
            return False
        return digest == expected

    def output_bytes(self) -> float:
        return sum(len(t.encode()) for t in self.last_report.values()) / len(self.last_report)

    def recall(self) -> dict[str, float]:
        """Array and battalion recall against the ground-truth sidecar,
        pooled over the run's scenes."""
        matched = {"array": 0, "battalion": 0}
        truth = {"array": 0, "battalion": 0}
        for j, text in sorted(self.last_report.items()):
            levels = score(strict_loads(text), self.scenarios[j], lib=self.lib)["levels"]
            for level in matched:
                matched[level] += levels[level]["matched"]
                truth[level] += levels[level]["truth_units"]
        return {level: matched[level] / truth[level] for level in matched}

    def fingerprint(self, seed: int) -> dict:
        per_scene = []
        for j, scenario in enumerate(self.scenarios):
            report = strict_loads(self.last_report[j]) if j in self.last_report else None
            per_scene.append(
                {
                    "scene_seed": self.configs[j].seed,
                    "detections": len(scenario["detections"]),
                    "hypotheses": (
                        {lvl: len(hs) for lvl, hs in report["levels"].items()}
                        if report
                        else None
                    ),
                    "scenario_sha256": self.scenario_sha[j],
                }
            )
        return {"seed": seed, "library_sha256": self.library_sha, "scenes": per_scene}


_NETWORKS = re.compile(r"\] (\d+) networks match the fixture")


class OracleRunner:
    """``echelon oracle all`` against the packaged fixtures."""

    def __init__(self, wl: OracleWorkload, seed: int, root: Path, workdir: Path):
        self.last_output = ""
        self.networks = 0

    def items(self, unit: int) -> int:
        return self.networks

    def largest_unit(self) -> int:
        return 0

    def run(self, unit: int, tracer) -> tuple[int, str]:
        buf = io.StringIO()
        with redirect_stdout(buf), tracer.span("cli.oracle"):
            code = cli.main(["oracle", "all"])
        return code, buf.getvalue()

    def check(self, unit: int, out: tuple[int, str]) -> bool:
        """The pass returns 0 with every suite matching its fixture."""
        code, text = out
        found = _NETWORKS.findall(text)
        self.last_output = text
        self.networks = sum(int(n) for n in found)
        return code == 0 and len(found) == len(cli.SUITES)

    def output_bytes(self) -> float:
        return float(len(self.last_output.encode()))

    def recall(self) -> dict[str, float]:
        return {}

    def fingerprint(self, seed: int) -> dict:
        fixtures = {
            suite: sha256(cli._fixture_path(None, suite).read_text()) for suite in cli.SUITES
        }
        return {"seed": seed, "networks": self.networks, "fixture_sha256": fixtures}


def runner_for(wl, seed: int, root: Path, workdir: Path):
    cls = SceneRunner if isinstance(wl, SceneWorkload) else OracleRunner
    return cls(wl, seed, root, workdir)
