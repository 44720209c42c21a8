"""Command-line surface.

Subcommands: validate a model library, run inference over a scenario,
simulate a scenario from ground truth, and audit the oracle fixtures.
Exit codes: 0 success, 1 domain error, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from importlib import resources
from pathlib import Path

from echelon import oracle
from echelon.conflict import Heuristic
from echelon.exceptions import EchelonError, ScenarioError
from echelon.models import load_library, parse_json
from echelon.pipeline import RunConfig, run, write_report
from echelon.scenario import dumps, generate, load_ground_truth, load_noise_spec

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _read_text(path: str) -> str:
    return Path(path).read_text()


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        lib = load_library(_read_text(args.library))
    except OSError as exc:
        print(f"error: cannot read {args.library}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EchelonError, ValueError) as exc:  # ValueError: not UTF-8 text
        print(f"invalid library: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    print(
        f"ok: {len(lib.types)} types, {len(lib.models)} models, "
        f"{len(lib.doctrine.min_separation)} separation rules"
    )
    return EXIT_OK


def cmd_infer(args: argparse.Namespace) -> int:
    try:
        cfg = RunConfig.from_file(args.config)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, EchelonError) as exc:  # ValueError: not JSON
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    overrides = {
        "seed": args.seed,
        "tau": args.tau,
        "heuristic": None if args.heuristic is None else Heuristic(args.heuristic),
        "out": args.out,
    }
    try:  # replace re-runs the config's range checks on the overrides
        cfg = dataclasses.replace(
            cfg, **{k: v for k, v in overrides.items() if v is not None}
        )
    except EchelonError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        report = run(cfg)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EchelonError, ValueError) as exc:
        # ValueError: a scenario that is not JSON, or an evidence value
        # out of its range
        print(f"inference failed: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        if cfg.out:
            write_report(report, cfg.out)
            print(f"report written to {cfg.out}")
        else:
            sys.stdout.write(dumps(report))
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        gt_text = _read_text(args.ground_truth)
        noise_text = _read_text(args.noise)
        library_text = _read_text(args.library) if args.library else None
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # not UTF-8 text
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        lib = None if library_text is None else load_library(library_text)
        gt = load_ground_truth(parse_json(gt_text, "ground truth", ScenarioError), lib)
        noise = load_noise_spec(parse_json(noise_text, "noise spec", ScenarioError))
        if args.seed is not None:
            noise = dataclasses.replace(noise, seed=args.seed)
        scenario = generate(gt, noise, lib)
    except (EchelonError, ValueError) as exc:  # ValueError: from numpy's draws
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        Path(args.out).write_text(dumps(scenario))
    except OSError as exc:
        print(f"error: cannot write scenario: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"scenario written to {args.out}")
    return EXIT_OK


# -- oracle suites -------------------------------------------------------

SUITES = ("skip", "accrual", "approx-k")


def _suite_reports(suite: str) -> list[oracle.DeviationReport]:
    if suite == "skip":
        return [
            oracle.skip_identity_report(oracle.random_skip_network(seed))
            for seed in range(100)
        ]
    if suite == "accrual":
        nets = [oracle.make_chain_network()] + [
            oracle.random_accrual_network(seed) for seed in range(12)
        ]
        return [oracle.check_accrual_formula(n) for n in nets]
    if suite == "approx-k":
        nets = [
            oracle.random_conflict_network(seed, shared=bool(seed % 2))
            for seed in range(12)
        ]
        return [oracle.check_approx_k(n) for n in nets]
    raise ValueError(f"unknown suite {suite!r}")


def _fixture_path(fixtures_dir: str | None, suite: str) -> Path:
    if fixtures_dir is not None:
        return Path(fixtures_dir) / f"{suite}.json"
    return Path(str(resources.files("echelon.data") / "oracle" / f"{suite}.json"))


def cmd_oracle(args: argparse.Namespace) -> int:
    suites = SUITES if args.suite == "all" else (args.suite,)
    if any(s not in SUITES for s in suites):
        print(f"unknown suite {args.suite!r}; choices: {SUITES + ('all',)}",
              file=sys.stderr)
        return EXIT_USAGE

    failed = False
    for suite in suites:
        reports = _suite_reports(suite)
        if suite == "skip":
            bad = [r.network for r in reports if r.deviation > oracle.IDENTITY_TOL]
            if bad:
                print(f"[{suite}] identity FAILED on: {bad}", file=sys.stderr)
                failed = True
        records = [r.to_record() for r in reports]
        path = _fixture_path(args.fixtures, suite)
        if args.record:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(dumps({"suite": suite, "records": records}))
            print(f"[{suite}] recorded {len(records)} networks -> {path}")
            continue
        if not path.exists():
            print(f"[{suite}] no fixture at {path}; run with --record",
                  file=sys.stderr)
            failed = True
            continue
        stored = json.loads(path.read_text())["records"]
        drift = _diff_records(stored, records)
        if drift:
            for line in drift:
                print(f"[{suite}] drift: {line}", file=sys.stderr)
            failed = True
        else:
            print(f"[{suite}] {len(records)} networks match the fixture")
    return EXIT_DOMAIN if failed else EXIT_OK


def _diff_records(stored: list[dict], fresh: list[dict]) -> list[str]:
    out = []
    by_name = {r["network"]: r for r in stored}
    for rec in fresh:
        name = rec["network"]
        if name not in by_name:
            out.append(f"{name}: missing from fixture")
            continue
        if by_name[name] != rec:
            for key in ("approx", "exact", "deviation"):
                if by_name[name].get(key) != rec.get(key):
                    out.append(
                        f"{name}.{key}: fixture {by_name[name].get(key)} "
                        f"!= fresh {rec.get(key)}"
                    )
            if by_name[name].get("annotations") != rec.get("annotations"):
                out.append(f"{name}.annotations differ")
    for rec in stored:
        if rec["network"] not in {r["network"] for r in fresh}:
            out.append(f"{rec['network']}: extra in fixture")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echelon",
        description="Hierarchical evidence accrual over force-deployment models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model library file")
    p.add_argument("library")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("infer", help="run the inference pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument(
        "--heuristic", choices=[h.value for h in Heuristic]
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("simulate", help="generate a scenario from ground truth")
    p.add_argument("ground_truth")
    p.add_argument("noise")
    p.add_argument("--out", required=True)
    p.add_argument("--library", help="validate placements and label unit levels")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="run oracle suites against fixtures")
    p.add_argument("suite", choices=SUITES + ("all",))
    p.add_argument("--fixtures", help="fixture directory (default: packaged)")
    p.add_argument("--record", action="store_true")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
