"""Command-line surface.

Subcommands: validate a model library, run inference over a scenario,
simulate a scenario from ground truth, and audit the oracle fixtures.
Exit codes: 0 success, 1 domain error, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from echelon.conflict import Heuristic
from echelon.exceptions import EchelonError, FixtureError, LibraryFormatError, ScenarioError
from echelon.models import Fields, load_library, parse_json, read_document
from echelon.pipeline import RunConfig, run
from echelon.scenario import dumps, generate, load_ground_truth, load_noise_spec

if TYPE_CHECKING:
    from echelon import oracle

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


class _Failure(Exception):
    """A command's failure: ``main`` prints the message to standard error
    and returns the exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextmanager
def _failing(io: str, domain: str | None = None) -> Iterator[None]:
    """The one mapping from errors to exit codes: an ``OSError`` in the
    block is exit 2 with ``"<io>: <error>"``, an ``EchelonError`` or a
    ``ValueError`` (a document that is not JSON, a value numpy rejects)
    exit 1 with ``"<domain>: <error>"``.  A block given no ``domain``
    raises no domain error."""
    try:
        yield
    except OSError as exc:
        raise _Failure(EXIT_USAGE, f"{io}: {exc}") from exc
    except (EchelonError, ValueError) as exc:
        if domain is None:
            raise
        raise _Failure(EXIT_DOMAIN, f"{domain}: {exc}") from exc


def cmd_validate(args: argparse.Namespace) -> int:
    with _failing(f"error: cannot read {args.library}", "invalid library"):
        lib = load_library(read_document(args.library, "library", LibraryFormatError))
    print(
        f"ok: {len(lib.types)} types, {len(lib.models)} models, "
        f"{len(lib.doctrine.min_separation)} separation rules"
    )
    return EXIT_OK


def cmd_infer(args: argparse.Namespace) -> int:
    with _failing("error: cannot read config", "invalid config"):
        cfg = RunConfig.from_file(args.config)
        overrides = {
            "tau": args.tau,
            "heuristic": None if args.heuristic is None else Heuristic(args.heuristic),
            "out": args.out,
        }
        # replace re-runs the config's range checks on the overrides
        cfg = dataclasses.replace(
            cfg, **{k: v for k, v in overrides.items() if v is not None}
        )
    with _failing("error", "inference failed"):
        report = run(cfg)
    with _failing("error: cannot write report", "inference failed"):
        if cfg.out:
            Path(cfg.out).write_text(dumps(report))
            print(f"report written to {cfg.out}")
        else:
            sys.stdout.write(dumps(report))
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    with _failing("error", "simulation failed"):
        # every document is read before any is parsed
        gt_text = read_document(args.ground_truth, "ground truth", ScenarioError)
        noise_text = read_document(args.noise, "noise spec", ScenarioError)
        library_text = (
            read_document(args.library, "library", LibraryFormatError)
            if args.library
            else None
        )
        lib = None if library_text is None else load_library(library_text)
        gt = load_ground_truth(parse_json(gt_text, "ground truth", ScenarioError), lib)
        noise = load_noise_spec(parse_json(noise_text, "noise spec", ScenarioError))
        if args.seed is not None:
            noise = dataclasses.replace(noise, seed=args.seed)
        scenario = generate(gt, noise, lib)
    with _failing("error: cannot write scenario", "simulation failed"):
        Path(args.out).write_text(dumps(scenario))
    print(f"scenario written to {args.out}")
    return EXIT_OK


# -- oracle suites -------------------------------------------------------

SUITES = ("skip", "accrual", "approx-k")


def _suite_reports(suite: str) -> list[oracle.DeviationReport]:
    # each network is built inside the check that reads it, so its joint
    # table is freed before the next one is filled
    from echelon import oracle

    if suite == "skip":
        return [
            oracle.skip_identity_report(oracle.random_skip_network(seed))
            for seed in range(100)
        ]
    if suite == "accrual":
        return [oracle.check_accrual_formula(oracle.make_chain_network())] + [
            oracle.check_accrual_formula(oracle.random_accrual_network(seed))
            for seed in range(12)
        ]
    if suite == "approx-k":
        return [
            oracle.check_approx_k(
                oracle.random_conflict_network(seed, shared=bool(seed % 2))
            )
            for seed in range(12)
        ]
    raise ValueError(f"unknown suite {suite!r}")


def _fixture_path(fixtures_dir: str | None, suite: str) -> Path:
    if fixtures_dir is not None:
        return Path(fixtures_dir) / f"{suite}.json"
    return Path(str(resources.files("echelon.data") / "oracle" / f"{suite}.json"))


# the keys of ``oracle.DeviationReport.to_record``
RECORD_KEYS = ("network", "approx", "exact", "deviation", "annotations")


def _read_fixture(path: Path) -> list[dict]:
    """The records of the fixture at ``path``: an object whose ``records``
    is a list of objects, each with a string ``network`` that no other
    record names.  A malformed fixture raises ``FixtureError`` naming it;
    ``OSError`` passes through."""
    what = f"fixture {path}"
    raw = parse_json(read_document(path, what, FixtureError), what, FixtureError)
    records = Fields(raw, ("suite", "records"), what, FixtureError).list("records")
    seen: set[str] = set()
    for k, record in enumerate(records):
        where = f"{what}: record {k}"
        name = Fields(record, RECORD_KEYS, where, FixtureError).text("network")
        if name in seen:
            raise FixtureError(f"{where}: duplicate network {name!r}")
        seen.add(name)
    return records


def _fixture_faults(path: Path, records: list[dict]) -> list[str]:
    """Why the fixture at ``path`` does not hold ``records``: no fixture,
    a malformed one, or one line per drifted value; empty when it
    matches.  ``OSError`` passes through."""
    if not path.exists():
        return [f"no fixture at {path}; run with --record"]
    try:
        stored = _read_fixture(path)
    except FixtureError as exc:
        return [str(exc)]
    return [f"drift: {line}" for line in _diff_records(stored, records)]


def cmd_oracle(args: argparse.Namespace) -> int:
    # imported by the oracle command alone: the oracle loads numpy, which
    # no other command needs
    from echelon import oracle

    suites = SUITES if args.suite == "all" else (args.suite,)
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
            with _failing("error: cannot write fixture"):
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(dumps({"suite": suite, "records": records}))
            print(f"[{suite}] recorded {len(records)} networks -> {path}")
            continue
        with _failing("error: cannot read fixture"):
            faults = _fixture_faults(path, records)
        for line in faults:
            print(f"[{suite}] {line}", file=sys.stderr)
        if faults:
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
    fresh_names = {r["network"] for r in fresh}
    for rec in stored:
        if rec["network"] not in fresh_names:
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
    try:
        return args.func(args)
    except _Failure as exc:
        print(exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
