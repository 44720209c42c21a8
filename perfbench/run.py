#!/usr/bin/env python3
"""Seeded whole-scene benchmark for echelon, with per-layer tracing.

    python3 perfbench/run.py --workload grid-clean --seed 0 --seconds 20 --trace 0

Runs one workload (see ``workloads.WORKLOADS`` and README.md) in this
process, one unit at a time, for ``--seconds`` seconds, checking every
unit's output.  With ``--trace 0`` it reports the end-to-end metrics,
measured untraced and scaled to a nominal machine speed by a reference
loop sampled all through the timed work (``reference.py``); with
``--trace 1`` it alternates untraced and traced units on the same scene
and reports the per-layer metrics plus the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a
readable summary and the input fingerprint go to standard error, and
the samples (and spans, when traced) to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import tracemalloc
import warnings
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from reference import Speedometer

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "norm_s.p50": "s",
    "norm_s.p90": "s",
    "norm_items_per_s": "1/s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
    "report_bytes": "B",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "coverage")) or name.startswith("recall."):
        return "ratio"
    return "count"


class _Untraced:
    @staticmethod
    def span(name: str):
        return nullcontext()


UNTRACED = _Untraced()


def run_sample(runner, unit: int, batch: int = 1, tracer=UNTRACED, gauge: bool = True):
    """``batch`` runs of one unit with warnings recorded, never printed;
    returns the outputs, the warnings, the wall seconds per unit (less
    the reference loop's time) and, with ``gauge``, the Speedometer of
    the sample.  Traced and memory
    passes run without it: its loop would show in spans and in the
    allocation peak."""
    gc.collect()
    speed = Speedometer() if gauge else None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with speed or nullcontext():
            t0 = perf_counter()
            outs = [runner.run(unit, tracer) for _ in range(batch)]
            wall = perf_counter() - t0
    if speed:
        wall = speed.seconds
    return outs, caught, wall / batch, speed


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(wl, seed: int, seconds: float, trace: bool, import_s: float = 0.0):
    """Run one workload; returns the result object and the run's record."""
    from tracer import Tracer, medians
    from workloads import runner_for

    workdir = OUT / f"{wl.name}-seed{seed}"
    checks: list[bool] = []

    # Set-up: generate and write the inputs, then one warm-up unit.
    setup_times, setup_norm, warm_outputs = [], [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        with Speedometer() as speed:
            runner = runner_for(wl, seed, ROOT, workdir)
            outs, _, _, _ = run_sample(runner, 0, gauge=False)
        setup_times.append(speed.seconds)
        setup_norm.append(speed.normalised)
        warm_outputs += outs
    # Every set-up must produce the same bytes as the first one.
    checks += [runner.check(0, out) for out in warm_outputs]
    del warm_outputs

    walls: list[float] = []  # seconds per unit, one entry per sample
    norm: list[float] = []  # the same, normalised
    loops: list[float] = []  # the reference's mean seconds per loop in each sample
    traced_walls: list[float] = []
    per_unit: list[dict] = []
    items = 0
    tracer = Tracer()
    deadline = perf_counter() + seconds
    unit = 0
    while unit == 0 or perf_counter() < deadline:
        unit += 1
        outs, _, wall, speed = run_sample(runner, unit, wl.batch)
        checks += [runner.check(unit, out) for out in outs]
        walls.append(wall)
        norm.append(speed.normalised / wl.batch)
        loops.append(speed.loop_s)
        items += runner.items(unit) * wl.batch
        if not trace:
            continue
        tracer.begin_unit(unit)
        tracer.instrument()
        try:
            outs, caught, wall, _ = run_sample(runner, unit, wl.batch, tracer, gauge=False)
        finally:
            tracer.restore()
        checks += [runner.check(unit, out) for out in outs]
        traced_walls.append(wall)
        tracer.tally_warnings(caught)
        per_unit.append(tracer.unit_metrics(wall, wl.batch))

    if trace:
        metrics = medians(per_unit)
        recall = runner.recall()
        metrics["recall.array"] = recall.get("array", 0.0)
        metrics["recall.battalion"] = recall.get("battalion", 0.0)
        metrics["trace.overhead_s"] = statistics.median(
            traced - untraced for traced, untraced in zip(traced_walls, walls)
        )
        metrics["reference.loop_s"] = statistics.median(loops)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        # Peak memory of the run's largest input, in its own untimed pass.
        largest = runner.largest_unit()
        gc.collect()
        tracemalloc.start()
        try:
            outs, _, _, _ = run_sample(runner, largest, gauge=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        checks += [runner.check(largest, out) for out in outs]
        metrics = {
            "norm_s.p50": statistics.median(norm),
            "norm_s.p90": quantile(norm, 90),
            "norm_items_per_s": items / (sum(norm) * wl.batch),
            "setup_s": import_s + statistics.median(setup_norm),
            "peak_mem_mb": peak / 1e6,
            "report_bytes": runner.output_bytes(),
        }
        units = END_TO_END_UNITS

    failed = checks.count(False)
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": wl.name,
        "trace": trace,
        "fingerprint": runner.fingerprint(seed),
        "samples": len(walls),
        "batch": wl.batch,
        "wall_s": walls,
        "norm_s": norm,
        "loop_s": loops,
        "traced_wall_s": traced_walls,
        "setup_s": setup_times,
        "setup_norm_s": setup_norm,
        "import_norm_s": import_s,
        "spans": tracer.spans,
        "result": result,
    }
    return result, record


def summary(name: str, result: dict, record: dict) -> str:
    lines = [
        f"{name}: {record['samples']} timed samples of {record['batch']} unit(s), "
        f"fail_rate {result['failed']}/{result['attempted']}",
        "fingerprint " + json.dumps(record["fingerprint"], sort_keys=True),
    ]
    for k, m in result["metrics"].items():
        lines.append(f"  {k:36s} {m['value']:>16.6g} {m['unit']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "echelon").is_dir() or not (ROOT / "tests" / "conftest.py").is_file():
        print(f"error: no echelon source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    with Speedometer() as speed:
        import echelon  # noqa: F401  (timed: part of set-up)
    import_s = speed.normalised
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choices: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result, record = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), import_s)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record)
    )
    print(summary(args.workload, result, record), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
