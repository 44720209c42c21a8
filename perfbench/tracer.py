"""Outside-in tracing of echelon's layers.

The benchmark never edits the package: it replaces the names that
``echelon.pipeline`` and ``echelon.cli`` look up at call time, plus a
few public methods, with wrappers, and puts the originals back when
tracing ends.  Layer calls become spans (name, start, end, parent span,
unit id) kept in memory; hot methods, called hundreds of thousands of
times per scene, only add to a call count and a summed time.
"""

from __future__ import annotations

import functools
import statistics
from contextlib import contextmanager
from time import perf_counter

from echelon import cli, kernels, pipeline
from echelon.conflict import Decision
from echelon.exceptions import (
    ClusterCapWarning,
    DegeneratePriorWarning,
    DegenerateThresholdWarning,
)
from echelon.hypotheses import HypothesisGraph, Status
from echelon.models import ModelLibrary
from echelon.oracle import OracleNetwork

# Spans opened directly under the unit's root span ("pipeline.run" or
# "cli.oracle"); the root's self time is its duration minus theirs.
SCENE_LAYERS = (
    "models.load_library",
    "pipeline.build_graph",
    "matching.match_level",
    "accrual.propagate",
    "conflict.detect",
    "conflict.decide",
    "conflict.skip_error",
)
ORACLE_LAYERS = ("oracle.skip", "oracle.accrual", "oracle.approx_k")
ROOTS = ("pipeline.run", "cli.oracle")

ADDITIVE_TALLIES = (
    "matching.candidates",
    "conflict.pairs_tested",
    "conflict.edges",
    "conflict.groups",
    "conflict.resolved",
    "conflict.skipped",
    "conflict.refused",
    "accrual.hypotheses",
    "accrual.out_of_range",
    "kernels.states",
)
WARNING_TALLIES = (
    (ClusterCapWarning, "matching.cluster_cap_warnings"),
    (DegenerateThresholdWarning, "conflict.degenerate_tau_warnings"),
    (DegeneratePriorWarning, "evidence.degenerate_prior_warnings"),
)


class Tracer:
    """Spans and per-unit counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, unit id]
        self.unit: int | None = None
        self.counters: dict[str, list] = {}  # name -> [calls, seconds]
        self.tallies: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.unit])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def add(self, name: str, amount: float) -> None:
        self.tallies[name] = self.tallies.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        self.tallies[name] = max(self.tallies.get(name, 0), value)

    def begin_unit(self, unit: int) -> None:
        self.unit = unit
        self.tallies = {}
        for c in self.counters.values():
            c[0], c[1] = 0, 0.0

    # -- wrappers --------------------------------------------------------

    def _patch(self, owner: object, attr: str, make) -> None:
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make(original))
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def spanned(self, owner: object, attr: str, name: str) -> None:
        def make(original):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, make)

    def counted(self, owner: object, attr: str, name: str, on_call=None) -> None:
        counter = self.counters.setdefault(name, [0, 0.0])

        def make(original):
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(*args, **kwargs)
                t0 = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    counter[1] += perf_counter() - t0
                    counter[0] += 1

            return wrapper

        self._patch(owner, attr, make)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- instrumentation -------------------------------------------------

    def instrument(self) -> None:
        """Wrap every traced layer; undo with ``restore``."""
        self.spanned(pipeline, "load_library", "models.load_library")
        self.spanned(pipeline, "build_graph", "pipeline.build_graph")
        self.spanned(pipeline, "skip_error_estimate", "conflict.skip_error")
        self.counted(ModelLibrary, "min_separation", "models.doctrine")
        self.counted(ModelLibrary, "max_heading_delta", "models.doctrine")
        self.counted(HypothesisGraph, "parents_of", "hypotheses.parents_of")
        self.counted(pipeline, "candidate_to_hypothesis", "matching.kept")
        self.counted(OracleNetwork, "event_prob", "oracle.event_prob")
        self.counted(
            kernels,
            "fill_joint",
            "kernels.fill_joint",
            on_call=lambda n, *a, **k: self.add("kernels.states", 1 << int(n)),
        )

        def match_level(original):
            def wrapper(*args, **kwargs):
                with self.span("matching.match_level"):
                    candidates = original(*args, **kwargs)
                self.add("matching.candidates", len(candidates))
                return candidates

            return wrapper

        def propagate_level(original):
            def wrapper(g, level, *args, **kwargs):
                with self.span("accrual.propagate"):
                    out = original(g, level, *args, **kwargs)
                ids = g.at_level(level)
                self.add("accrual.hypotheses", len(ids))
                self.add(
                    "accrual.out_of_range",
                    sum(1 for i in ids if (a := g.get(i).accrual) and a.out_of_range),
                )
                return out

            return wrapper

        def detect_conflicts(original):
            def wrapper(g, lib, level=None, *args, **kwargs):
                n = len(g.at_level(level, statuses={Status.ACTIVE}))
                self.add("conflict.pairs_tested", n * (n - 1) // 2)
                with self.span("conflict.detect"):
                    sets = original(g, lib, level, *args, **kwargs)
                self.add("conflict.groups", len(sets))
                self.add("conflict.edges", sum(len(s.reasons) for s in sets))
                for s in sets:
                    self.maximum("conflict.max_group", len(s.members))
                return sets

            return wrapper

        def decide(original):
            def wrapper(s, g, tau, *args, **kwargs):
                with self.span("conflict.decide"):
                    report = original(s, g, tau, *args, **kwargs)
                if report.decision is Decision.RESOLVE:
                    self.add("conflict.resolved", 1)
                else:
                    self.add("conflict.skipped", 1)
                    if report.measure >= tau:
                        self.add("conflict.refused", 1)
                return report

            return wrapper

        def suite_reports(original):
            def wrapper(suite, *args, **kwargs):
                with self.span("oracle." + suite.replace("-", "_")):
                    return original(suite, *args, **kwargs)

            return wrapper

        self._patch(pipeline, "match_level", match_level)
        self._patch(pipeline, "propagate_level", propagate_level)
        self._patch(pipeline, "detect_conflicts", detect_conflicts)
        self._patch(pipeline, "decide", decide)
        self._patch(cli, "_suite_reports", suite_reports)

    def tally_warnings(self, caught) -> None:
        for category, name in WARNING_TALLIES:
            self.add(name, sum(1 for w in caught if issubclass(w.category, category)))

    # -- per-unit metrics ------------------------------------------------

    def unit_metrics(self, wall: float, batch: int) -> dict:
        """Layer metrics of the current sample of ``batch`` units, per unit."""
        top_s: dict[str, float] = {}
        child_s: dict[str, float] = {}
        for name, start, end, parent, unit in self.spans:
            if unit != self.unit:
                continue
            if parent is None:
                top_s[name] = top_s.get(name, 0.0) + (end - start)
            elif self.spans[parent][0] in ROOTS:
                child_s[name] = child_s.get(name, 0.0) + (end - start)
        root_self = {r: top_s.get(r, 0.0) for r in ROOTS}
        for name, seconds in child_s.items():
            root = "cli.oracle" if name in ORACLE_LAYERS else "pipeline.run"
            root_self[root] -= seconds
        t, c = self.tallies, self.counters
        total = {f"{name}_s": child_s.get(name, 0.0) for name in SCENE_LAYERS + ORACLE_LAYERS}
        total.update(
            {
                "pipeline.self_s": root_self["pipeline.run"],
                "cli.oracle_self_s": root_self["cli.oracle"],
                "scenario.dumps_s": top_s.get("scenario.dumps", 0.0),
                "models.doctrine_lookups": c["models.doctrine"][0],
                "models.doctrine_s": c["models.doctrine"][1],
                "hypotheses.parents_of_calls": c["hypotheses.parents_of"][0],
                "hypotheses.parents_of_s": c["hypotheses.parents_of"][1],
                "kernels.fill_joint_calls": c["kernels.fill_joint"][0],
                "kernels.fill_joint_s": c["kernels.fill_joint"][1],
                "oracle.event_prob_calls": c["oracle.event_prob"][0],
                "oracle.event_prob_s": c["oracle.event_prob"][1],
            }
        )
        for name in ADDITIVE_TALLIES:
            total[name] = t.get(name, 0)
        for _, name in WARNING_TALLIES:
            total[name] = t.get(name, 0)
        out = {name: value / batch for name, value in total.items()}
        pairs = total["conflict.pairs_tested"]
        candidates = total["matching.candidates"]
        out["conflict.edge_ratio"] = total["conflict.edges"] / pairs if pairs else 0.0
        out["conflict.max_group"] = t.get("conflict.max_group", 0)
        out["matching.kept_ratio"] = c["matching.kept"][0] / candidates if candidates else 0.0
        out["trace.coverage"] = sum(top_s.values()) / (wall * batch)
        return out


def medians(per_unit: list[dict]) -> dict:
    return {k: statistics.median(u[k] for u in per_unit) for k in per_unit[0]}
