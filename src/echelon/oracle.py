"""Ground-truth engine: exact inference on small explicit joint
distributions.

Networks here are binary Bayesian networks built to honor the engine's
independence assumptions, so every approximation in the package can be
measured against exact conditionals computed by full state enumeration.
Variable roles follow a naming convention: "H" is the parent-force
variable, "C*" are components, "e*" detection evidence, "t*" terrain
evidence, and "f" formation fit.  Part-of links are deterministic:
P(C=1 | H=1) = 1 in every table row where H is true.

The joint table is filled with a fixed multiplication order (see
``kernels``), once per network, and split at once into K rows
(``kernels.split_exact``, K is 2 or 3 on the suites' networks) whose
columns sum exactly to the joint; the network keeps the rows, not the
joint.  State s sets variable i in bit i, so the rows reshaped to
``(K,) + (2,) * n`` hold variable i on axis n - i, and an event's states
form the sub-cube that fixes the assigned axes.  ``event_prob`` sums
each row over that sub-cube with one numpy reduction, exact in any
order, and ``math.fsum`` rounds the K sums once: the exactly rounded
sum of the event's state probabilities, the same float as math.fsum
over those states.  It depends only on the multiset of state
probabilities, not on their order, so recorded values are bit-stable
across runs and platforms.  Each network keeps the sum of every
assignment it has been asked for, and a suite builds each network
inside the check that reads it, so one network's rows are alive at a
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from echelon import kernels
from echelon.accrual import AccrualInputs, ComponentBelief, accrue_parent
from echelon.evidence import product
from echelon.exceptions import OracleStructureError, ZeroProbabilityEvent

MAX_VARIABLES = 20
IDENTITY_TOL = 1e-12


@dataclass(eq=False)
class OracleNetwork:
    """An explicit joint distribution over binary variables; networks
    compare by identity.

    ``tables[v]`` stores P(v=1 | parent row) indexed by the packed
    parent state: parent j of v (in ``parents[v]`` order) contributes
    bit j of the row index.  A variable's parents are a tuple or list
    of distinct names, each before it in ``variables``, and every key
    of ``parents`` and ``tables`` names a variable.  The network keeps
    its own copies of both dicts and of every table, read-only, so the
    rows and sums it caches stay true to its tables.
    """

    variables: tuple[str, ...]
    parents: dict[str, tuple[str, ...]]
    tables: dict[str, np.ndarray]
    name: str = "network"
    _rows: np.ndarray | None = field(default=None, init=False, repr=False)
    _sums: dict[frozenset[tuple[str, int]], float] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        n = len(self.variables)
        if n == 0:
            raise OracleStructureError("network has no variables")
        if n > MAX_VARIABLES:
            raise OracleStructureError(
                f"{n} variables exceeds the enumeration cap of {MAX_VARIABLES}"
            )
        index = {v: i for i, v in enumerate(self.variables)}
        if len(index) != n:
            raise OracleStructureError("duplicate variable names")
        for kind, given in (("parents", self.parents), ("tables", self.tables)):
            for key in given:
                if key not in index:
                    raise OracleStructureError(f"{kind}: unknown variable {key!r}")
        # own dicts: the caller's are never written to
        parents: dict[str, tuple[str, ...]] = {}
        tables: dict[str, np.ndarray] = {}
        for i, v in enumerate(self.variables):
            ps = self.parents.get(v, ())
            # a string would read as one parent per character
            if not isinstance(ps, (tuple, list)):
                raise OracleStructureError(
                    f"{v}: parents must be a tuple or list of names, "
                    f"got {type(ps).__name__}"
                )
            ps = parents[v] = tuple(ps)
            for p in ps:
                if p not in index:
                    raise OracleStructureError(f"{v}: unknown parent {p!r}")
                # parents first: no self-parent and no cycle
                if index[p] >= i:
                    raise OracleStructureError(f"{v}: parent {p!r} must come before it")
            if len(ps) > 1 and len(set(ps)) < len(ps):
                twice = next(p for p in ps if ps.count(p) > 1)
                raise OracleStructureError(f"{v}: parent {twice!r} is listed twice")
            if v not in self.tables:
                raise OracleStructureError(f"{v}: no table")
            table = np.asarray(self.tables[v], dtype=np.float64)
            if table.shape != (1 << len(ps),):
                raise OracleStructureError(
                    f"{v}: table needs {1 << len(ps)} rows, got {table.shape}"
                )
            tables[v] = table
        # one read-only copy holds every table, so the caller's arrays are
        # never read again and the rows and sums cached from it stay true;
        # copying and checking all tables at once is cheaper than per table
        flat = np.concatenate(list(tables.values()))
        flat.setflags(write=False)
        start = 0
        for v, table in tables.items():
            tables[v] = flat[start : start + table.size]
            start += table.size

        def in_range(t: np.ndarray) -> bool:
            # a NaN fails both comparisons, wherever it sits
            return all(0.0 <= x <= 1.0 for x in t.tolist())

        if not in_range(flat):
            bad = next(v for v, t in tables.items() if not in_range(t))
            raise OracleStructureError(f"{bad}: table entries must lie in [0,1]")
        self.parents = parents
        self.tables = tables
        self._index = index

    # -- enumeration ---------------------------------------------------

    def joint(self) -> np.ndarray:
        """Probability of every one of the 2**n states, filled afresh
        on every call: the network keeps only the rows of the joint's
        exact split that ``event_prob`` reads, not the joint beside
        them, so peak memory stays flat."""
        return kernels.fill_joint(
            len(self.variables),
            [[self._index[p] for p in self.parents[v]] for v in self.variables],
            [self.tables[v] for v in self.variables],
        )

    def _checked(self, assignment: Mapping[str, int]) -> list[tuple[str, int]]:
        """The assignment's (variable, value) pairs, values as ints;
        an unknown variable or a non-binary value raises."""
        items = []
        for var, val in assignment.items():
            if var not in self._index:
                raise OracleStructureError(f"unknown variable {var!r}")
            if val not in (0, 1):
                raise OracleStructureError(f"{var}: binary value expected, got {val!r}")
            # numpy reads a bool inside an index tuple as a mask
            items.append((var, int(val)))
        return items

    def event_prob(self, assignment: Mapping[str, int]) -> float:
        """P(assignment) by exactly-rounded summation over states.

        The first call splits the joint into K rows (``kernels.
        split_exact``) and keeps them, not the joint; an event sums each
        row over its sub-cube, exactly, and ``math.fsum`` rounds the K
        sums once: the float ``math.fsum`` gives over the event's
        states.  Sums are cached per network, keyed by the set of
        (variable, value) pairs; the tables they come from are the
        network's read-only copies.
        """
        items = self._checked(assignment)
        key = frozenset(items)
        total = self._sums.get(key)
        if total is None:
            n = len(self.variables)
            if self._rows is None:
                rows = kernels.split_exact(self.joint())
                self._rows = rows.reshape((len(rows),) + (2,) * n)
            # row k, then variable i on axis n - i
            where: list[int | slice] = [slice(None)] * (n + 1)
            for var, val in items:
                where[n - self._index[var]] = val
            view = self._rows[tuple(where)]
            sums = np.add.reduce(view, axis=tuple(range(1, view.ndim)))
            total = self._sums[key] = math.fsum(sums.tolist())
        return total

    def exact_conditional(
        self, query: Mapping[str, int], given: Mapping[str, int]
    ) -> float:
        """P(query | given), exact up to float rounding.

        Contradictory overlap between query and given yields 0; an
        unknown variable, a non-binary value or a zero-probability
        conditioning event raises.
        """
        denom = self.event_prob(given)
        if denom == 0.0:
            raise ZeroProbabilityEvent(f"P{dict(given)!r} = 0")
        merged = dict(given)
        for var, val in query.items():
            if merged.setdefault(var, val) != val:
                # a contradiction, unless the query itself is invalid
                self._checked(query)
                return 0.0
        return self.event_prob(merged) / denom

    # -- roles ---------------------------------------------------------

    def role_vars(self, prefix: str) -> list[str]:
        return [v for v in self.variables if v.startswith(prefix)]

    def components(self) -> list[str]:
        return self.role_vars("C")

    def evidence_of(self, component: str, prefix: str = "e") -> list[str]:
        """Evidence variables having ``component`` among their parents."""
        return [
            v
            for v in self.role_vars(prefix)
            if component in self.parents[v]
        ]


def _all_true(vars_: Iterable[str]) -> dict[str, int]:
    return {v: 1 for v in vars_}


@dataclass(frozen=True)
class DeviationReport:
    """An approximation measured against the exact conditional."""

    network: str
    approx: float
    exact: float
    annotations: dict[str, Any] = field(default_factory=dict)

    @property
    def deviation(self) -> float:
        return abs(self.approx - self.exact)

    def to_record(self) -> dict[str, Any]:
        """Bit-exact record: floats serialized as hex strings."""
        ann = {
            k: (float(v).hex() if isinstance(v, float) else v)
            for k, v in sorted(self.annotations.items())
        }
        return {
            "network": self.network,
            "approx": float(self.approx).hex(),
            "exact": float(self.exact).hex(),
            "deviation": float(self.deviation).hex(),
            "annotations": ann,
        }


def check_accrual_formula(net: OracleNetwork) -> DeviationReport:
    """Evaluate the hierarchical update rule on exactly-computed inputs
    and report its deviation from the exact conditional.

    Whether the ratio-product rule agrees with exact Bayes on networks
    satisfying its assumptions is answered by this measurement, not
    assumed; the suite records the deviations and regression-tests
    their stability.
    """
    comps = net.components()
    if "H" not in net.variables or not comps:
        raise OracleStructureError(f"{net.name}: accrual check needs H and C* roles")
    all_e = net.role_vars("e")
    all_t = net.role_vars("t")
    fit = net.role_vars("f")

    per_component = []
    for c in comps:
        e_c = net.evidence_of(c, "e")
        t_c = net.evidence_of(c, "t")
        p_c = net.event_prob({c: 1}) / net.event_prob({})
        p_ce = net.exact_conditional({c: 1}, _all_true(e_c))
        p_ct = net.exact_conditional({c: 1}, _all_true(t_c))
        p_cet = net.exact_conditional({c: 1}, _all_true(e_c + t_c))
        per_component.append(ComponentBelief(p_ce=p_ce, p_ct=p_ct, p_cet=p_cet, p_c=p_c))

    p_h = net.event_prob({"H": 1}) / net.event_prob({})
    if fit:
        fit_num = net.exact_conditional(
            _all_true(fit), {**_all_true(comps), "H": 1}
        )
        fit_den = net.exact_conditional(_all_true(fit), _all_true(all_e + all_t))
    else:
        fit_num = fit_den = 1.0

    result = accrue_parent(
        AccrualInputs(
            fit_num=fit_num,
            fit_den=fit_den,
            per_component=tuple(per_component),
            p_h=p_h,
        )
    )
    exact = net.exact_conditional(
        {"H": 1}, _all_true(comps + all_e + all_t + fit)
    )
    return DeviationReport(
        network=net.name,
        approx=result.raw,
        exact=exact,
        annotations={
            "out_of_range": result.out_of_range,
            "components": len(comps),
            "fit_num": fit_num,
            "fit_den": fit_den,
        },
    )


def check_skip_identity(net: OracleNetwork) -> bool:
    """Verify the level-skip error algebra as an exact identity.

    With evidence = every e/t/f variable observed true, and writing
    q = P(all C | evidence):

        |P(H | all C, evidence) - P(H | evidence)|
            = P(H | evidence) * (1 - q) / q

    holds whenever P(all C | H, evidence) = 1, which the deterministic
    part-of rows guarantee.  Returns True when both sides agree within
    1e-12.
    """
    comps = net.components()
    if "H" not in net.variables or not comps:
        raise OracleStructureError(f"{net.name}: skip check needs H and C* roles")
    ev = net.role_vars("e") + net.role_vars("t") + net.role_vars("f")
    ev_true = _all_true(ev)
    linked = net.exact_conditional(_all_true(comps), {**ev_true, "H": 1})
    if abs(linked - 1.0) > IDENTITY_TOL:
        raise OracleStructureError(
            f"{net.name}: P(all C | H, evidence) = {linked}, not 1"
        )
    return skip_identity_report(net).deviation <= IDENTITY_TOL


def skip_identity_report(net: OracleNetwork) -> DeviationReport:
    """The skip identity as a measurement: exact side is the realized
    |P(H|all C, evidence) - P(H|evidence)|, approx side the error
    formula P(H|evidence)*(1-q)/q.  Deviation is ~0 whenever the
    deterministic-link precondition holds."""
    comps = net.components()
    if "H" not in net.variables or not comps:
        raise OracleStructureError(f"{net.name}: skip check needs H and C* roles")
    ev = net.role_vars("e") + net.role_vars("t") + net.role_vars("f")
    ev_true = _all_true(ev)
    p_h_ce = net.exact_conditional({"H": 1}, {**ev_true, **_all_true(comps)})
    p_h_e = net.exact_conditional({"H": 1}, ev_true)
    q = net.exact_conditional(_all_true(comps), ev_true)
    return DeviationReport(
        network=net.name,
        approx=p_h_e * (1.0 - q) / q,
        exact=abs(p_h_ce - p_h_e),
        annotations={"q": q, "p_h_given_evidence": p_h_e},
    )


def check_approx_k(
    net: OracleNetwork, ordering: Sequence[str] | None = None
) -> DeviationReport:
    """Measure the ordered-product approximation of the joint component
    posterior against the exact P(all C | all evidence).

    Factor i conditions on the total evidence minus the evidence of
    every later member, mirroring the engine's conflict analysis.  The
    annotation records whether cross-component independence
    (P(C_i | own evidence of C_j) = P(C_i)) actually holds in the
    network: when it does and evidence sets are disjoint, the deviation
    is zero to rounding.  A single component degenerates to
    k = P(C | evidence) exactly.
    """
    comps = net.components()
    if not comps:
        raise OracleStructureError(f"{net.name}: approx-k check needs C* roles")
    order = list(ordering) if ordering is not None else list(comps)
    if sorted(order) != sorted(comps):
        raise OracleStructureError(f"{net.name}: ordering must permute the components")

    e_of = {c: set(net.evidence_of(c, "e")) for c in comps}
    total = sorted(set().union(*e_of.values()))

    factors = []
    for i, c in enumerate(order):
        later: set[str] = set()
        for d in order[i + 1 :]:
            later |= e_of[d]
        cond = [v for v in total if v not in later]
        if cond:
            factors.append(net.exact_conditional({c: 1}, _all_true(cond)))
        else:
            factors.append(net.event_prob({c: 1}) / net.event_prob({}))

    k = product(factors)
    exact = net.exact_conditional(_all_true(comps), _all_true(total))

    indep = True
    for ci in comps:
        for cj in comps:
            if ci == cj:
                continue
            own_j = [v for v in net.role_vars("e") if net.parents[v] == (cj,)]
            if not own_j:
                continue
            marginal = net.event_prob({ci: 1}) / net.event_prob({})
            conditioned = net.exact_conditional({ci: 1}, _all_true(own_j))
            if abs(conditioned - marginal) > IDENTITY_TOL:
                indep = False
    shared = [v for v in total if len([c for c in comps if c in net.parents[v]]) > 1]
    return DeviationReport(
        network=net.name,
        approx=k,
        exact=exact,
        annotations={
            "factors": [float(f) for f in factors],
            "independence_holds": indep,
            "shared_evidence_vars": shared,
            "ordering": list(order),
        },
    )


# -- network builders ----------------------------------------------------

# (variable, parents, table), one per variable in variable order
Row = tuple[str, tuple[str, ...], Any]


def _network(rows: Sequence[Row], name: str) -> OracleNetwork:
    return OracleNetwork(
        variables=tuple(v for v, _, _ in rows),
        parents={v: ps for v, ps, _ in rows},
        tables={v: table for v, _, table in rows},
        name=name,
    )


def _uniform(
    rng: np.random.Generator, bounds: Sequence[tuple[float, float]]
) -> list[float]:
    """One draw from each [lo, hi) of ``bounds``, in order, from one
    ``rng.random`` block: lo + (hi - lo) * u is the float
    ``rng.uniform(lo, hi)`` makes of the same u, so the block gives what
    one scalar call per bound in a row gives."""
    draws = rng.random(len(bounds)).tolist()
    return [lo + (hi - lo) * u for (lo, hi), u in zip(bounds, draws)]


# an evidence table's rows parent=0, parent=1: an item more likely
# when its parent holds
EVIDENCE_BOUNDS = [(0.05, 0.45), (0.55, 0.95)]


def _evidence_tables(rng: np.random.Generator, count: int) -> list[list[float]]:
    """``count`` evidence tables from one block of draws."""
    u = _uniform(rng, EVIDENCE_BOUNDS * count)
    return [u[k : k + 2] for k in range(0, 2 * count, 2)]


def _force_rows(
    rng: np.random.Generator,
    e_counts: Iterable[int],
    with_t: Sequence[bool],
    with_f: bool,
) -> list[Row]:
    """H, components C1..Cm under deterministic part-of links, each
    component's evidence e{i}_j and terrain t{i}, then the fit f.

    ``e_counts`` is read just before each component's evidence rows,
    so a generator may draw the counts from ``rng`` as it goes.
    """
    comps = [f"C{i + 1}" for i in range(len(with_t))]
    # one block: H, then each component's row H=0 (its row H=1 is 1)
    h, *links = _uniform(rng, [(0.15, 0.85)] + [(0.05, 0.6)] * len(comps))
    rows: list[Row] = [("H", (), [h])]
    rows += [(c, ("H",), [x, 1.0]) for c, x in zip(comps, links)]
    for i, (c, count, t) in enumerate(zip(comps, e_counts, with_t), 1):
        # one block per component: its evidence tables, then its terrain's
        tables = _evidence_tables(rng, count + t)
        rows += [(f"e{i}_{j}", (c,), e) for j, e in enumerate(tables[:count], 1)]
        if t:
            rows.append((f"t{i}", (c,), tables[count]))
    if with_f:
        f_table = rng.uniform(0.05, 0.95, size=1 << (1 + len(comps)))
        rows.append(("f", ("H", *comps), f_table))
    return rows


def make_chain_network() -> OracleNetwork:
    """Three-node chain: force -> component -> detection."""
    return _network(
        [
            ("H", (), [0.5]),
            # rows: H=0, H=1 (deterministic part-of link)
            ("C1", ("H",), [0.2, 1.0]),
            # rows: C1=0, C1=1
            ("e1", ("C1",), [0.1, 0.9]),
        ],
        "chain",
    )


def make_two_evidence_network(
    prior: float, lr_pairs: Sequence[tuple[float, float]]
) -> OracleNetwork:
    """One component with independent evidence children.

    Each (p1, p0) pair sets P(e=1|C=1) and P(e=1|C=0), i.e. a
    likelihood ratio of p1/p0, for cross-checking the odds combiner.
    """
    rows: list[Row] = [("C1", (), [prior])]
    rows += [(f"e{i + 1}", ("C1",), [p0, p1]) for i, (p1, p0) in enumerate(lr_pairs)]
    return _network(rows, "two-evidence")


def random_skip_network(seed: int, max_vars: int = 12) -> OracleNetwork:
    """Seeded force/component/evidence network with deterministic
    part-of links, sized for fast enumeration.

    ``max_vars`` is a soft cap: over it the fit variable is dropped
    first, then terrain variables, but the force, its one to three
    components and their evidence (up to 10 variables) always stay.  Of
    seeds 0-49, 26 networks exceed ``max_vars=6`` and 5 exceed 9; none
    of seeds 0-99 exceeds the default of 12.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    e_counts = rng.integers(1, 3, size=m).tolist()
    # one block: each component's terrain flag, then the fit's
    u = rng.random(m + 1)
    with_t = (u[:m] < 0.4).tolist()
    with_f = bool(u[m] < 0.3)

    def total(tf: list[bool], f: bool) -> int:
        return 1 + m + sum(e_counts) + sum(tf) + (1 if f else 0)

    if total(with_t, with_f) > max_vars:
        with_f = False
    while total(with_t, with_f) > max_vars and any(with_t):
        with_t[with_t.index(True)] = False
    return _network(_force_rows(rng, e_counts, with_t, with_f), f"skip-{seed}")


def random_accrual_network(seed: int) -> OracleNetwork:
    """Seeded network with the full H/C/e/t/f role structure."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    e_counts = (int(rng.integers(1, 3)) for _ in range(m))
    return _network(_force_rows(rng, e_counts, [True] * m, True), f"accrual-{seed}")


def random_conflict_network(seed: int, shared: bool) -> OracleNetwork:
    """Seeded component-root network for the approx-k check.

    Components are roots (marginally independent), each with its own
    evidence children; with ``shared``, one extra evidence variable has
    two component parents, modelling an ambiguously associated item.
    """
    rng = np.random.default_rng(seed)
    comps = [f"C{i + 1}" for i in range(int(rng.integers(2, 4)))]
    priors = _uniform(rng, [(0.2, 0.8)] * len(comps))
    rows: list[Row] = [(c, (), [prior]) for c, prior in zip(comps, priors)]
    for i, c in enumerate(comps, 1):
        count = int(rng.integers(1, 3))
        tables = _evidence_tables(rng, count)
        rows += [(f"e{i}_{j}", (c,), e) for j, e in enumerate(tables, 1)]
    if shared:
        # rows packed (C1 bit 0, C2 bit 1): 00, 10, 01, 11
        bounds = [(0.02, 0.2), (0.4, 0.7), (0.4, 0.7), (0.75, 0.98)]
        rows.append(("e_shared", ("C1", "C2"), _uniform(rng, bounds)))
    kind = "shared" if shared else "disjoint"
    return _network(rows, f"conflict-{seed}-{kind}")
