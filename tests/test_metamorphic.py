"""Metamorphic relations of the whole pipeline: changes to a scene whose
effect on the report is known without knowing the report.

- Detection order carries no information: a permuted detection list
  gives the same report, byte for byte.
- Inference is local: a scene beside a copy of itself shifted far past
  any model's extent gives the union of the two reports.
- Inference sees no absolute direction: rotating the scene by 90°, and
  its headings with it (on every other detection by a further 360°),
  gives the same report rotated.
- Detection ids are names: renaming every detection gives the same
  report up to those names.

Where ids differ between two runs, records are matched by what they are
built from, and a posterior or a conflict's k is compared to 1e-9: a tie
broken by id may order a product differently.
"""

import dataclasses
import json
import math
import random
from pathlib import Path

import pytest

from echelon.pipeline import run
from echelon.scenario import dumps

from conftest import perfbench_scene

SHIFT_M = 1e6
FAR = "far."  # id prefix of the shifted copy's detections


@pytest.fixture
def scene(tmp_path):
    """Run config and scenario of a grid-noisy benchmark scene (16
    noisy battalions, 314 detections, groups both skipped and resolved)."""
    cfg = perfbench_scene(tmp_path, "grid-noisy", 0, 0)
    return cfg, json.loads(Path(cfg.scenario).read_text())


def run_on(cfg, scenario, path):
    path.write_text(json.dumps(scenario))
    return run(dataclasses.replace(cfg, scenario=str(path)))


def test_permuted_detections_give_the_same_bytes(scene, tmp_path):
    cfg, scenario = scene
    expected = dumps(run(cfg))
    detections = scenario["detections"]
    shuffled = random.Random(0).sample(detections, len(detections))
    for k, order in enumerate((detections[::-1], shuffled)):
        permuted = dict(scenario, detections=order)
        assert dumps(run_on(cfg, permuted, tmp_path / f"permuted-{k}.json")) == expected


def by_origin(report, detection_origin=lambda d: d.removeprefix(FAR)):
    """The report's records and conflicts keyed by (in the shifted half,
    what they are built from).  A vehicle is keyed by the origin of its
    detection's id (by default the id without the copy's prefix), any
    other hypothesis by its model and its components' keys, and a
    conflict by its level and members' keys."""
    records = {e["id"]: e for level in report["levels"].values() for e in level}
    keys = {}

    def key(hid):
        if hid not in keys:
            e = records[hid]
            if e["components"]:
                keys[hid] = (e["model"], frozenset(map(key, e["components"])))
            else:
                (detection,) = e["own_evidence"]
                keys[hid] = detection_origin(detection)
        return keys[hid]

    def shifted(hid):
        return records[hid]["x"] >= SHIFT_M / 2

    keyed = {(shifted(hid), key(hid)): e for hid, e in records.items()}
    conflicts = {
        (shifted(c["members"][0]), (c["level"], frozenset(map(key, c["members"])))): c
        for c in report["conflicts"]
    }
    assert (len(keyed), len(conflicts)) == (len(records), len(report["conflicts"]))
    return keyed, conflicts


def assert_same_record(f, e, x, y):
    """``f`` is record ``e`` of another run, placed at (x, y)."""
    assert (f["type"], f["model"], f["status"], f["out_of_range"]) == (
        e["type"], e["model"], e["status"], e["out_of_range"]
    ), e["id"]
    assert math.isclose(f["x"], x, abs_tol=1e-6) and math.isclose(f["y"], y, abs_tol=1e-6)
    assert math.isclose(f["posterior"], e["posterior"], rel_tol=1e-9), e["id"]


def assert_same_conflict(f, c):
    assert f["decision"] == c["decision"], c["members"]
    assert math.isclose(f["k"], c["k"], rel_tol=1e-9), c["members"]


def test_shifted_copy_gives_the_union_of_two_reports(scene, tmp_path):
    cfg, scenario = scene
    alone = run(cfg)
    copy = [
        dict(d, id=FAR + str(d["id"]), x=d["x"] + SHIFT_M) for d in scenario["detections"]
    ]
    both = run_on(
        cfg, dict(scenario, detections=scenario["detections"] + copy), tmp_path / "both.json"
    )

    records, conflicts = by_origin(alone)
    union, union_conflicts = by_origin(both)
    assert len(union) == 2 * len(records)
    assert len(union_conflicts) == 2 * len(conflicts)
    for (_, origin), e in records.items():
        for shifted in (False, True):
            assert_same_record(union[(shifted, origin)], e, e["x"] + shifted * SHIFT_M, e["y"])

    assert {c["decision"] for c in conflicts.values()} == {"skip", "resolve"}
    for (_, origin), c in conflicts.items():
        for shifted in (False, True):
            assert_same_conflict(union_conflicts[(shifted, origin)], c)


def assert_same_report(got, expected, place, detection_origin=lambda d: d):
    """``got`` holds the records and conflicts of ``expected``, each
    record moved by ``place``, and nothing else."""
    records, conflicts = by_origin(expected)
    got_records, got_conflicts = by_origin(got, detection_origin)
    assert got_records.keys() == records.keys()
    assert got_conflicts.keys() == conflicts.keys()
    for origin, e in records.items():
        assert_same_record(got_records[origin], e, *place(e["x"], e["y"]))
    for origin, c in conflicts.items():
        assert_same_conflict(got_conflicts[origin], c)


def test_rotated_scene_gives_the_rotated_report(scene, tmp_path):
    cfg, scenario = scene
    rotated = []
    for k, d in enumerate(scenario["detections"]):
        r = dict(d, x=-d["y"], y=d["x"])
        if d.get("heading") is not None:
            # every other heading also turns a full circle, so some pairs
            # of headings differ by more than 360 degrees
            r["heading"] = d["heading"] + 90.0 + 360.0 * (k % 2)
        rotated.append(r)
    got = run_on(cfg, dict(scenario, detections=rotated), tmp_path / "rotated.json")
    assert_same_report(got, run(cfg), lambda x, y: (-y, x))


def test_renamed_detections_give_the_same_report(scene, tmp_path):
    cfg, scenario = scene
    n = len(scenario["detections"])
    renamed = [dict(d, id=f"r{n - k}") for k, d in enumerate(scenario["detections"])]
    origin = {r["id"]: d["id"] for r, d in zip(renamed, scenario["detections"])}
    got = run_on(cfg, dict(scenario, detections=renamed), tmp_path / "renamed.json")
    assert_same_report(got, run(cfg), lambda x, y: (x, y), origin.__getitem__)
