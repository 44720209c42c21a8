"""Mutated input documents through the command line: every one ends in
exit code 0, 1 or 2, never in an exception.

Each example takes the five demo documents (library, scenario, run config,
ground truth and noise spec), makes one mutation in one of them, writes
them to a fresh directory and runs each command that reads the mutated
document.  The report's numbers are not checked: a ``k`` that underflows
ends in exit 1, since no command writes ``Infinity``.
"""

import json
import math
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from echelon.cli import main

DEMO = Path(__file__).resolve().parents[1] / "demo"
DOCUMENTS = {
    "library.json": json.loads((DEMO / "library.json").read_text()),
    "scenario.json": json.loads((DEMO / "scenario.json").read_text()),
    "run_config.json": json.loads((DEMO / "run_config.json").read_text()),
    "ground_truth.json": json.loads((DEMO / "ground_truth.json").read_text()),
    "noise.json": json.loads((DEMO / "noise_clean.json").read_text()),
}
# the commands that read each document
READERS = {
    "library.json": ("validate", "simulate", "infer"),
    "scenario.json": ("infer",),
    "run_config.json": ("infer",),
    "ground_truth.json": ("simulate",),
    "noise.json": ("simulate",),
}
REPLACEMENTS = (None, math.nan, "x", [], True, 10**400)


def sites(doc, path=()):
    """The path of every value in ``doc``, the document itself first."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from sites(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from sites(value, path + (i,))


def value_at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def mutations_at(doc, path) -> list[tuple[str, object]]:
    """The mutations that apply at ``path``: swapping the value for each
    replacement, dropping it when it is an object's field, and adding an
    unknown key or turning it into a list when it is an object."""
    out = [("swap", r) for r in REPLACEMENTS]
    if path and isinstance(path[-1], str):
        out.append(("drop", None))
    if isinstance(value_at(doc, path), dict):
        out += [("add key", None), ("as list", None)]
    return out


def mutated(doc, path, mutation):
    """A copy of ``doc`` with ``mutation`` (from ``mutations_at``) made
    at ``path``."""
    kind, replacement = mutation
    doc = json.loads(json.dumps(doc))
    node = value_at(doc, path)
    if kind == "add key":
        new = {**node, "zz_unknown": 1}
    elif kind == "as list":
        new = list(node.values())
    else:
        new = replacement
    if not path:
        return new
    parent = value_at(doc, path[:-1])
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


def run_commands(directory: Path, name: str, doc) -> list[int]:
    """Write the demo documents, ``name`` replaced by ``doc``, and return
    the exit codes of the commands that read it."""
    for other, original in DOCUMENTS.items():
        text = json.dumps(doc if other == name else original)
        (directory / other).write_text(text)
    argv = {
        "validate": ["validate", str(directory / "library.json")],
        "simulate": [
            "simulate",
            str(directory / "ground_truth.json"),
            str(directory / "noise.json"),
            "--library",
            str(directory / "library.json"),
            "--out",
            str(directory / "simulated.json"),
        ],
        "infer": ["infer", "--config", str(directory / "run_config.json")],
    }
    return [main(argv[command]) for command in READERS[name]]


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = DOCUMENTS[name]
    path = draw(st.sampled_from(list(sites(doc))))
    mutation = draw(st.sampled_from(mutations_at(doc, path)))
    return name, path, mutation, mutated(doc, path, mutation)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(mutations())
def test_mutated_document_ends_in_an_exit_code(tmp_path, capsys, case):
    name, path, mutation, doc = case
    codes = run_commands(tmp_path, name, doc)
    capsys.readouterr()
    assert all(code in (0, 1, 2) for code in codes), (name, path, mutation, codes)
