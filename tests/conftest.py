import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from echelon.evidence import EvidenceItem, EvidenceKind
from echelon.hypotheses import Hypothesis, HypothesisGraph
from echelon.models import Level, load_library

TANK_LIBRARY = {
    "types": [
        {"name": "vehicle", "level": "vehicle"},
        {"name": "tracked-vehicle", "level": "vehicle", "isa": "vehicle"},
        {"name": "tank", "level": "vehicle", "isa": "tracked-vehicle"},
        {"name": "T-72-tank", "level": "vehicle", "isa": "tank"},
        {"name": "BMP", "level": "vehicle", "isa": "tracked-vehicle"},
        {"name": "array", "level": "array"},
        {"name": "company", "level": "array", "isa": "array"},
        {"name": "tank-company", "level": "array", "isa": "company"},
        {"name": "battalion", "level": "battalion"},
        {"name": "tank-battalion", "level": "battalion", "isa": "battalion"},
        {"name": "regiment", "level": "regiment"},
        {"name": "division", "level": "division"},
    ],
    "models": [
        {
            "name": "tank-company-line",
            "type": "tank-company",
            "slots": [{"type": "tank", "min": 3, "max": 4}],
            "constraints": [{"slots": [0, 0], "d_min": 50, "d_max": 250}],
            "prior": 0.3,
        },
        {
            "name": "tank-battalion-std",
            "type": "tank-battalion",
            "slots": [{"type": "tank-company", "min": 3, "max": 3}],
            "constraints": [{"slots": [0, 0], "d_min": 500, "d_max": 1500}],
            "prior": 0.25,
        },
    ],
    "doctrine": {
        "min_separation": [
            {"a": "vehicle", "b": "vehicle", "meters": 25},
            {"a": "company", "b": "company", "meters": 400},
        ],
        "max_heading_delta": [{"a": "tank", "b": "tank", "degrees": 120}],
    },
}


@pytest.fixture
def tank_lib():
    return load_library(json.dumps(TANK_LIBRARY))


def add_leaf(
    g,
    hid,
    lam=None,
    force_type="tank",
    location=(0.0, 0.0),
    prior=0.5,
    heading=None,
    items=None,
):
    """Insert a leaf hypothesis; detection items created from `lam` (one
    ratio) or `items` [(id, ratio), ...]."""
    own = []
    if lam is not None:
        items = [(f"e.{hid}", lam)]
    for item_id, ratio in items or []:
        if item_id not in g.evidence:
            g.add_evidence(
                EvidenceItem(
                    id=item_id,
                    kind=EvidenceKind.DETECTION,
                    likelihood_ratio=ratio,
                    location=location,
                )
            )
        own.append(item_id)
    h = Hypothesis(
        id=hid,
        force_type=force_type,
        level=Level.VEHICLE,
        location=location,
        own_evidence=frozenset(own),
        prior=prior,
        posterior=prior,
        heading=heading,
    )
    g.insert(h)
    return h


def add_parent(
    g,
    hid,
    components,
    level=Level.ARRAY,
    force_type="tank-company",
    model="tank-company-line",
    prior=0.3,
    location=(0.0, 0.0),
    items=None,
):
    own = []
    for item in items or []:
        if item.id not in g.evidence:
            g.add_evidence(item)
        own.append(item.id)
    h = Hypothesis(
        id=hid,
        force_type=force_type,
        level=level,
        location=location,
        model=model,
        components=tuple(components),
        own_evidence=frozenset(own),
        prior=prior,
        posterior=prior,
    )
    g.insert(h)
    return h


@pytest.fixture
def empty_graph():
    return HypothesisGraph()


def company_node(cx, cy):
    return {
        "model": "tank-company-line",
        "components": [
            {"type": "T-72-tank", "x": cx - 100.0, "y": cy, "heading": 90.0},
            {"type": "T-72-tank", "x": cx, "y": cy, "heading": 90.0},
            {"type": "T-72-tank", "x": cx + 100.0, "y": cy, "heading": 90.0},
        ],
    }


def battalion_ground_truth():
    return {
        "id": "bn-test",
        "area": {"width_m": 6000, "height_m": 6000},
        "forces": [
            {
                "model": "tank-battalion-std",
                "components": [
                    company_node(1000, 1000),
                    company_node(2000, 1000),
                    company_node(1500, 1900),
                ],
            }
        ],
    }


def write_battalion_inputs(tmp_path, seed=7, tau=0.1):
    """Write library/ground-truth/noise/config files; returns the config
    path (scenario must be generated first by the caller or via CLI)."""
    lib_path = tmp_path / "library.json"
    lib_path.write_text(json.dumps(TANK_LIBRARY))
    gt_path = tmp_path / "gt.json"
    gt_path.write_text(json.dumps(battalion_ground_truth()))
    noise_path = tmp_path / "noise.json"
    noise_path.write_text(
        json.dumps({"p_detect": 1.0, "false_alarm_density": 0.0, "seed": seed})
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "library": "library.json",
                "scenario": "scenario.json",
                "out": "report.json",
                "matcher": {
                    "gather_radius": 1200,
                    "min_fit": 0.2,
                    "max_missing": 0,
                    "lambda_max": 9.0,
                },
                "tau": tau,
                "heuristic": "highest_posterior",
                "leaf_prior": 0.5,
                "seed": seed,
            }
        )
    )
    return {
        "library": lib_path,
        "ground_truth": gt_path,
        "noise": noise_path,
        "config": cfg_path,
        "scenario": tmp_path / "scenario.json",
        "report": tmp_path / "report.json",
    }


def perfbench_workloads():
    """``perfbench/workloads.py``, imported by path as the benchmark runs it."""
    name = "tests_perfbench_workloads"
    workloads = sys.modules.get(name)
    if workloads is None:
        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            name, root / "perfbench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[name] = workloads  # its dataclasses look their module up
        spec.loader.exec_module(workloads)
    return workloads


def perfbench_scene(tmp_path, workload, seed, scene):
    """The run config of scene ``scene`` of ``workload`` at ``seed``, its
    files written under ``tmp_path`` by ``perfbench/workloads.py``.
    ``workload`` is a benchmark workload's name or a ``SceneWorkload``."""
    workloads = perfbench_workloads()
    if isinstance(workload, str):
        workload = workloads.WORKLOADS[workload]
    root = Path(__file__).resolve().parents[1]
    runner = workloads.SceneRunner(workload, seed, root, tmp_path)
    return runner.configs[scene]


def weak_ratio_scene(tmp_path):
    """The run config of grid-noisy seed 2's scene 15, whose skipped
    arrays send their parents down the direct path, with weak, unequal
    detection ratios and three terrain patches over every hypothesis.
    With the benchmark's ratios the direct-path posteriors sit near
    0.9995, where the last bit of an odds product is lost; with these
    it shows."""
    cfg = perfbench_scene(tmp_path, "grid-noisy", 2, 15)
    scenario = json.loads(Path(cfg.scenario).read_text())
    detections = scenario["detections"]
    for k, d in enumerate(detections):
        d["lambda"] = 0.41 + 0.0171 * (k % 9)
    cx = sum(d["x"] for d in detections) / len(detections)
    cy = sum(d["y"] for d in detections) / len(detections)
    scenario["terrain"] = [
        {"id": f"patch-{k}", "x": cx, "y": cy, "radius_m": 1e6, "lambda": lam}
        for k, lam in enumerate((1.07, 0.93, 1.013))
    ]
    (tmp_path / "weak.json").write_text(json.dumps(scenario))
    config = tmp_path / "weak-config.json"
    config.write_text(
        json.dumps(
            {
                "library": cfg.library,
                "scenario": "weak.json",
                "matcher": dataclasses.asdict(cfg.matcher),
                "tau": cfg.tau,
            }
        )
    )
    return config
