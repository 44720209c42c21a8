"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import itertools
import json
import math
import time
from importlib import resources

import numpy as np
import pytest

from echelon.accrual import AccrualInputs, ComponentBelief, accrue_parent, propagate_level
from echelon.cli import _suite_reports, main
from echelon.conflict import (
    ConflictReason,
    Decision,
    approx_joint,
    conflict_measure,
    decide,
    detect_conflicts,
    resolve_exact,
)
from echelon.hypotheses import HypothesisGraph
from echelon.matching import MatchConfig, match_level
from echelon.models import Level, load_library
from echelon.oracle import IDENTITY_TOL, random_skip_network, skip_identity_report
from echelon.pipeline import RunConfig, run
from echelon.scenario import (
    dumps,
    generate,
    load_ground_truth,
    load_noise_spec,
    score,
)

from conftest import add_leaf, battalion_ground_truth, write_battalion_inputs
from test_conflict import brute_force_mis, make_conflict_set
from test_matching import brute_force_candidates, candidate_keys
from test_pipeline_cli import (
    assert_skip_estimates,
    noisy_grid_config,
    run_counting_refusals,
)


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_skip_identity():
    t0 = time.monotonic()
    for seed in range(100):
        net = random_skip_network(seed, max_vars=12)
        assert len(net.variables) <= 12
        deviation = skip_identity_report(net).deviation
        assert deviation <= IDENTITY_TOL, f"identity failed on seed {seed}"
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    report(1, f"skip identity within 1e-12 on 100 networks in {elapsed:.2f}s")


def test_criterion_2_two_hypothesis_factorizations():
    g = HypothesisGraph()
    add_leaf(g, "C1", items=[("e1", 9.0), ("e12", 2.0)], location=(0, 0))
    add_leaf(g, "C2", items=[("e2", 2.0), ("e12", 2.0)], location=(5, 0))
    propagate_level(g, Level.VEHICLE)
    s = make_conflict_set(g, ["C1", "C2"], reason=ConflictReason.SHARED_EVIDENCE)

    from echelon.accrual import posterior_given_subset

    res = approx_joint(s, ("C1", "C2"), g)
    assert res.factors[0] == posterior_given_subset(g, "C1", frozenset({"e1"}))
    assert res.factors[1] == posterior_given_subset(g, "C2", frozenset({"e2", "e12"}))
    swapped = approx_joint(s, ("C2", "C1"), g)
    assert swapped.factors[0] == posterior_given_subset(g, "C2", frozenset({"e2"}))
    assert swapped.factors[1] == posterior_given_subset(g, "C1", frozenset({"e1", "e12"}))

    # disjoint closures: every ordering yields the identical k
    g2 = HypothesisGraph()
    for i, lam in enumerate([2.0, 3.0, 5.0, 7.0, 11.0]):
        add_leaf(g2, f"m{i}", items=[(f"e{i}", lam)], location=(i * 30.0, 0))
    propagate_level(g2, Level.VEHICLE)
    members = [f"m{i}" for i in range(5)]
    s2 = make_conflict_set(g2, members)
    ks = {approx_joint(s2, perm, g2).k for perm in itertools.permutations(members)}
    assert len(ks) == 1
    report(2, "both displayed factorizations reproduced; 120 orderings give one k")


def test_criterion_3_accrual_formula_audit():
    # bit-stable deviations against the packaged fixture, twice in-process
    fresh_a = [r.to_record() for r in _suite_reports("accrual")]
    fresh_b = [r.to_record() for r in _suite_reports("accrual")]
    assert fresh_a == fresh_b
    packaged = json.loads(
        (resources.files("echelon.data") / "oracle" / "accrual.json").read_text()
    )
    assert fresh_a == packaged["records"], "deviation records drifted from fixture"

    res = accrue_parent(
        AccrualInputs(
            fit_num=0.7,
            fit_den=0.7,
            per_component=(ComponentBelief(0.41, 0.41, 0.41, 0.41),),
            p_h=0.41,
        )
    )
    assert res.raw == 1.0

    res = accrue_parent(
        AccrualInputs(
            fit_num=0.8,
            fit_den=0.5,
            per_component=(ComponentBelief(0.9, 0.6, 0.95, 0.5),),
            p_h=0.3,
        )
    )
    assert abs(res.raw - 1.091) <= 1e-3
    assert res.out_of_range
    report(3, f"{len(fresh_a)} deviation records bit-stable; raw=1 exact; "
              f"out-of-range example raw={res.raw:.6f}")


def test_criterion_4_conflict_measure_contract(tank_lib):
    assert conflict_measure(1.0) == 0.0
    grid = [i / 100 for i in range(1, 101)]
    measures = [conflict_measure(k) for k in grid]
    assert all(a > b for a, b in zip(measures, measures[1:]))

    # decide skips iff measure < tau; boundary measure == tau resolves
    g = HypothesisGraph()
    add_leaf(g, "v0", prior=0.5, location=(0, 0))
    with pytest.warns(UserWarning):
        add_leaf(g, "v1", prior=1.0, location=(10, 0))
        propagate_level(g, Level.VEHICLE)
        (s,) = detect_conflicts(g, tank_lib, level=Level.VEHICLE)
        rep = decide(s, g, tau=1.0)
    assert rep.measure == 1.0 and rep.decision is Decision.RESOLVE

    for tau, expected in ((1.0001, Decision.SKIP), (0.9999, Decision.RESOLVE)):
        g2 = HypothesisGraph()
        add_leaf(g2, "v0", prior=0.5, location=(0, 0))
        with pytest.warns(UserWarning):
            add_leaf(g2, "v1", prior=1.0, location=(10, 0))
            propagate_level(g2, Level.VEHICLE)
            (s2,) = detect_conflicts(g2, tank_lib, level=Level.VEHICLE)
            rep2 = decide(s2, g2, tau=tau)
        assert rep2.decision is expected, tau
    report(4, "measure contract holds; boundary measure == tau resolves")


def test_criterion_5_exact_resolution_matches_brute_force():
    import random

    rng = random.Random(4242)
    checked = 0
    for trial in range(100):
        g = HypothesisGraph()
        n = rng.randint(2, 8)
        members = [f"m{i}" for i in range(n)]
        for i, m in enumerate(members):
            add_leaf(g, m, location=(i * 5.0, 0))
            g.get(m).posterior = rng.uniform(0.05, 0.95)
        edges = [
            pair
            for pair in itertools.combinations(members, 2)
            if rng.random() < 0.4
        ] or [(members[0], members[1])]
        s = make_conflict_set(g, members, edges=edges)
        sets = resolve_exact(s, g)
        assert sorted(cs.included for cs in sets) == brute_force_mis(members, edges)
        assert math.fsum(cs.normalized_belief for cs in sets) == pytest.approx(
            1.0, abs=1e-12
        )
        checked += 1
    report(5, f"{checked} conflict graphs: maximal consistent sets equal brute "
              "force, beliefs normalized")


def test_criterion_6_matcher_oracle_equivalence(tank_lib):
    import random

    rng = random.Random(77)
    scenes = 0
    for trial in range(12):
        g = HypothesisGraph()
        n = rng.randint(3, 10)
        for i in range(n):
            add_leaf(
                g,
                f"v{i}",
                lam=6.0,
                force_type=rng.choice(["T-72-tank", "tank", "BMP"]),
                location=(rng.uniform(0, 700), rng.uniform(0, 700)),
            )
        cfg = MatchConfig(gather_radius=9000, min_fit=0.05, max_missing=1)
        got = candidate_keys(match_level(g, tank_lib, Level.ARRAY, cfg))
        assert got == brute_force_candidates(g, tank_lib, Level.ARRAY, cfg)
        scenes += 1

    # split scene: clustered search must still equal global enumeration
    g = HypothesisGraph()
    for i in range(3):
        add_leaf(g, f"a{i}", lam=6.0, force_type="T-72-tank",
                 location=(1000.0 + 100.0 * i, 1000.0))
        add_leaf(g, f"b{i}", lam=6.0, force_type="T-72-tank",
                 location=(9000.0 + 100.0 * i, 9000.0))
    cfg = MatchConfig(gather_radius=500, min_fit=0.2)
    got = candidate_keys(match_level(g, tank_lib, Level.ARRAY, cfg))
    assert got == brute_force_candidates(g, tank_lib, Level.ARRAY, cfg)
    assert len(got) == 2
    report(6, f"{scenes + 1} scenes: match_level equals exhaustive enumeration")


def test_criterion_7_noiseless_pipeline(tmp_path):
    t0 = time.monotonic()
    paths = write_battalion_inputs(tmp_path)
    lib = load_library(paths["library"].read_text())
    gt = load_ground_truth(battalion_ground_truth(), lib)
    noise = load_noise_spec({"p_detect": 1.0, "false_alarm_density": 0.0, "seed": 7})
    scenario = generate(gt, noise, lib)
    paths["scenario"].write_text(dumps(scenario))
    rep = run(RunConfig.from_file(paths["config"]))
    metrics = score(rep, scenario, match_radius=100.0)
    for level in ("array", "battalion"):
        assert metrics["levels"][level]["precision"] == 1.0, level
        assert metrics["levels"][level]["recall"] == 1.0, level
    (bn,) = rep["levels"]["battalion"]
    assert bn["posterior"] > bn["prior"]
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(7, f"precision=recall=1 at company and battalion; battalion "
              f"posterior {bn['posterior']:.3f} > prior {bn['prior']}; "
              f"{elapsed:.2f}s")


def test_criterion_8_determinism(tmp_path):
    paths = write_battalion_inputs(tmp_path)
    lib = load_library(paths["library"].read_text())
    gt = load_ground_truth(battalion_ground_truth(), lib)
    noise = load_noise_spec(
        {"p_detect": 0.8, "false_alarm_density": 1.0, "location_jitter": 10.0,
         "seed": 13}
    )
    assert dumps(generate(gt, noise, lib)) == dumps(generate(gt, noise, lib))

    noise0 = load_noise_spec({"p_detect": 1.0, "seed": 7})
    paths["scenario"].write_text(dumps(generate(gt, noise0, lib)))
    assert main(["infer", "--config", str(paths["config"])]) == 0
    first = paths["report"].read_bytes()
    assert main(["infer", "--config", str(paths["config"])]) == 0
    assert paths["report"].read_bytes() == first
    report(8, "scenario generation and inference reports byte-identical")


# criterion 9's fixed bound: the realized error is within SKIPERR_FACTOR
# times the estimate in at least SKIPERR_RATE of the scenes
SKIPERR_FACTOR = 3.0
SKIPERR_RATE = 0.9

SKIPERR_LIBRARY_TYPES = [
    {"name": "vehicle", "level": "vehicle"},
    {"name": "tank", "level": "vehicle", "isa": "vehicle"},
    {"name": "T-72-tank", "level": "vehicle", "isa": "tank"},
    {"name": "BMP", "level": "vehicle", "isa": "vehicle"},
    {"name": "array", "level": "array"},
    {"name": "tank-company", "level": "array", "isa": "array"},
]


def _skiperr_library(prior):
    return {
        "types": SKIPERR_LIBRARY_TYPES,
        "models": [
            {
                "name": "quad",
                "type": "tank-company",
                "slots": [{"type": "tank", "min": 4, "max": 4}],
                "constraints": [{"slots": [0, 0], "d_min": 25, "d_max": 400}],
                "prior": prior,
            }
        ],
        "doctrine": {
            "min_separation": [{"a": "vehicle", "b": "vehicle", "meters": 40}]
        },
    }


def _skiperr_scenario(seed, rng):
    dets = []
    for i in range(4):
        dets.append(
            {
                "id": f"d{i}",
                "type": "T-72-tank",
                "x": 100.0 * i + float(rng.uniform(-10, 10)),
                "y": float(rng.uniform(-10, 10)),
                "heading": 90.0,
                "lambda": float(rng.uniform(25, 80)),
                "time": 0.0,
            }
        )
    ang = float(rng.uniform(0, 2 * math.pi))
    radius = float(rng.uniform(28, 35))
    dets.append(
        {
            "id": "d4",
            "type": "BMP",
            "x": dets[0]["x"] + radius * math.cos(ang),
            "y": dets[0]["y"] + radius * math.sin(ang),
            "heading": 90.0,
            "lambda": float(rng.uniform(25, 80)),
            "time": 0.0,
        }
    )
    return {
        "schema_version": 1,
        "scenario_id": f"skiperr-{seed}",
        "detections": dets,
        "terrain": [
            {
                "id": "t0",
                "x": 150.0,
                "y": 0.0,
                "radius_m": 5000.0,
                "lambda": float(rng.uniform(2, 8)),
            }
        ],
    }


def test_criterion_9_skip_error_realism(tmp_path):
    """50 seeded low-conflict scenes (an intact four-tank company plus a
    doctrine-conflicting stray): the realized skip-vs-resolve parent
    posterior difference must fall within SKIPERR_FACTOR x the reported
    estimate in at least SKIPERR_RATE of the cases."""
    outcomes = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        prior = float(rng.uniform(0.23, 0.45))
        (tmp_path / "library.json").write_text(json.dumps(_skiperr_library(prior)))
        (tmp_path / "scenario.json").write_text(dumps(_skiperr_scenario(seed, rng)))
        base = {
            "library": str(tmp_path / "library.json"),
            "scenario": str(tmp_path / "scenario.json"),
            "matcher": {"gather_radius": 1000, "min_fit": 0.2},
            "seed": seed,
        }
        rep_skip = run(RunConfig.from_dict({**base, "tau": 0.1}))
        rep_resolve = run(RunConfig.from_dict({**base, "tau": 1e-12}))

        (conf,) = rep_skip["conflicts"]
        assert conf["decision"] == "skip" and conf["measure"] < 0.1, seed
        assert rep_resolve["conflicts"][0]["decision"] == "resolve", seed
        assert_skip_estimates(rep_skip)
        estimate = conf["skip_error_estimates"]["a0"]
        post_skip = {e["id"]: e["posterior"] for e in rep_skip["levels"]["array"]}["a0"]
        post_res = {e["id"]: e["posterior"] for e in rep_resolve["levels"]["array"]}["a0"]
        realized = abs(post_skip - post_res)
        ok = realized <= SKIPERR_FACTOR * estimate
        outcomes.append(ok)
        print(
            f"  skip-error seed={seed:2d} measure={conf['measure']:.4f} "
            f"estimate={estimate:.4f} realized={realized:.6f} "
            f"{'ok' if ok else 'OVER'}"
        )

    achieved = sum(outcomes) / len(outcomes)
    assert achieved >= SKIPERR_RATE, (
        f"only {achieved:.0%} within {SKIPERR_FACTOR}x estimate"
    )
    report(9, f"{sum(outcomes)}/50 scenes within {SKIPERR_FACTOR}x of the skip-error "
              f"estimate (need {SKIPERR_RATE:.0%})")


# (battalions, noise seed): array and battalion matches at 100 m before
# orientation conflicts needed nearness, when every vehicle was skipped
# in one refused group (vehicles matched 0 of 81, 81 and 144)
NOISY_SCENES = {(9, 1): (15, 2), (9, 2): (12, 3), (16, 0): (24, 2)}


@pytest.mark.parametrize("battalions, seed", sorted(NOISY_SCENES))
def test_criterion_10_noisy_conflicts_stay_local(tmp_path, battalions, seed):
    """Noisy multi-battalion scenes (p_detect 0.9, 0.5 false alarms per
    km^2, 15 m jitter): every vehicle conflict group is small enough to
    resolve exactly, none is refused, and recall at 100 m does not fall.
    With local orientation conflicts the scenes match vehicles 70/81,
    75/81 and 128/144, arrays 15/27, 12/27 and 28/48 (24 before), and
    battalions 2/9, 3/9 and 3/16 (2 before)."""
    cfg, scenario = noisy_grid_config(tmp_path, battalions, seed)
    out, refused = run_counting_refusals(cfg)
    assert refused == 0
    vehicle_groups = [
        len(c["members"]) for c in out["conflicts"] if c["level"] == "vehicle"
    ]
    assert vehicle_groups and max(vehicle_groups) <= cfg.max_exact
    levels = score(out, scenario, match_radius=100.0)["levels"]
    arrays, battalions_before = NOISY_SCENES[(battalions, seed)]
    assert levels["array"]["matched"] >= arrays
    assert levels["battalion"]["matched"] >= battalions_before
    assert levels["vehicle"]["matched"] > 0
    report(
        10,
        f"{battalions} noisy battalions (seed {seed}): largest vehicle group "
        f"{max(vehicle_groups)} <= {cfg.max_exact}, none refused, arrays "
        f"{levels['array']['matched']}/{levels['array']['truth_units']} at 100 m",
    )
