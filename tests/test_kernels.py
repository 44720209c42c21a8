import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from echelon import kernels
from echelon.oracle import (
    OracleNetwork,
    make_chain_network,
    random_accrual_network,
    random_conflict_network,
    random_skip_network,
)


def _args(net):
    return (
        len(net.variables),
        [[net.variables.index(p) for p in net.parents[v]] for v in net.variables],
        [net.tables[v] for v in net.variables],
    )


def test_joint_normalized_and_deterministic():
    net = random_accrual_network(0)
    j1 = net.joint()
    j2 = kernels.fill_joint(*_args(net))
    assert np.array_equal(j1, j2)
    assert abs(j1.sum() - 1.0) < 1e-12


def _scalar_state(s, n, parents, tables):
    """State s's probability: multiply each variable's factor in
    ascending variable order, the complement 1 - p when its bit is 0."""
    acc = 1.0
    for v in range(n):
        row = 0
        for j, u in enumerate(parents[v]):
            row |= ((s >> u) & 1) << j
        p = float(tables[v][row])
        if (s >> v) & 1:
            acc *= p
        else:
            acc *= 1.0 - p
    return acc


def _scalar_fill(n, parents, tables):
    """One state at a time, in state order."""
    return [_scalar_state(s, n, parents, tables) for s in range(1 << n)]


def _suite_networks():
    """Every network the three oracle suites build."""
    yield from (random_skip_network(seed) for seed in range(100))
    yield make_chain_network()
    yield from (random_accrual_network(seed) for seed in range(12))
    yield from (
        random_conflict_network(seed, shared=bool(seed % 2)) for seed in range(12)
    )


def _hand_built_network():
    """A 3-parent variable listing its parents out of index order, and
    a 4-parent table."""
    rng = np.random.default_rng(7)
    parents = {"B": ("A",), "C": ("B", "A"), "D": ("C", "A", "B")}
    parents["F"] = ("D", "B", "E", "A")
    variables = ("A", "B", "C", "D", "E", "F")
    return OracleNetwork(
        variables=variables,
        parents=parents,
        tables={
            v: rng.uniform(0.0, 1.0, size=1 << len(parents.get(v, ())))
            for v in variables
        },
        name="hand-built",
    )


def test_fill_matches_scalar_order_bit_for_bit():
    for net in [*_suite_networks(), _hand_built_network()]:
        args = _args(net)
        assert kernels.fill_joint(*args).tolist() == _scalar_fill(*args), net.name


def test_sixteen_variables_match_scalar_order_at_sampled_states():
    rng = np.random.default_rng(16)
    n = 16
    parents = []
    for v in range(n):
        k = int(rng.integers(0, min(v, 4) + 1))
        # parents in a random order, not index order
        parents.append([int(u) for u in rng.permutation(v)[:k]])
    tables = [rng.uniform(0.0, 1.0, size=1 << len(ps)) for ps in parents]
    joint = kernels.fill_joint(n, parents, tables)
    assert joint.shape == (1 << n,)
    for s in rng.integers(0, 1 << n, size=256).tolist():
        assert joint[s] == _scalar_state(s, n, parents, tables), f"state {s}"
    assert abs(math.fsum(joint.tolist()) - 1.0) < 1e-12


@pytest.mark.parametrize("bad", [-1, 1, 2])
def test_parent_not_below_its_child_is_refused(bad):
    # variable 1 may only read variable 0
    tables = [np.array([0.5]), np.array([0.2, 0.9])]
    with pytest.raises(ValueError, match="not below"):
        kernels.fill_joint(2, [(), (bad,)], tables)


def test_duplicate_parent_is_refused():
    # rows 1 and 2 of the table could never be read
    tables = [np.array([0.5]), np.array([0.1, 0.2, 0.3, 0.9])]
    with pytest.raises(ValueError, match="listed twice"):
        kernels.fill_joint(2, [(), (0, 0)], tables)


def test_single_variable_network():
    out = kernels.fill_joint(1, [()], [np.array([0.3])])
    assert out.tolist() == [0.7, 0.3]


# -- the parent-row cache -------------------------------------------------


@pytest.fixture
def empty_row_cache(monkeypatch):
    rows = {}
    monkeypatch.setattr(kernels, "_ROWS", rows)
    return rows


def _uncached_joints(nets):
    """Each network's joint bytes, filled with the row cache emptied
    first."""
    joints = []
    for net in nets:
        kernels._ROWS.clear()
        joints.append(kernels.fill_joint(*_args(net)).tobytes())
    return joints


def test_cached_rows_fill_the_same_joints_in_any_order(empty_row_cache):
    nets = list(_suite_networks())
    want = _uncached_joints(nets)
    empty_row_cache.clear()
    assert [kernels.fill_joint(*_args(net)).tobytes() for net in nets] == want
    backward = [kernels.fill_joint(*_args(net)).tobytes() for net in nets[::-1]]
    assert backward[::-1] == want
    # parents out of index order, read through a cache the suites filled
    args = _args(_hand_built_network())
    assert kernels.fill_joint(*args).tolist() == _scalar_fill(*args)


def test_cached_rows_are_read_only(empty_row_cache):
    kernels.fill_joint(*_args(random_accrual_network(0)))
    assert empty_row_cache
    for rows in empty_row_cache.values():
        with pytest.raises(ValueError, match="read-only"):
            rows[0] = 1


def test_row_cache_stays_within_its_bound(empty_row_cache, monkeypatch):
    monkeypatch.setattr(kernels, "ROW_CACHE_BYTES", 4096)
    nets = list(_suite_networks())
    want = _uncached_joints(nets)
    empty_row_cache.clear()
    for net, joint in zip(nets, want):
        assert kernels.fill_joint(*_args(net)).tobytes() == joint, net.name
        assert sum(r.nbytes for r in empty_row_cache.values()) <= 4096
    # a 2**10-state index (8 KiB) is larger than the whole bound
    empty_row_cache.clear()
    tables = [np.array([0.5])] * 10 + [np.array([0.25, 0.75])]
    kernels.fill_joint(11, [()] * 10 + [(9,)], tables)
    assert not empty_row_cache


# -- the error-free split -------------------------------------------------

SPECIAL = st.sampled_from([0.0, 1.0, 5e-324, 2.2250738585072014e-308])


@st.composite
def split_inputs(draw):
    """Up to 4096 floats: random mantissas over a drawn exponent range
    within 2**-1074..1 (the low end underflows to subnormals and zero),
    some entries zeroed or replaced by special values, some negated."""
    n = draw(st.integers(1, 4096))
    lo = draw(st.integers(-1073, 0))
    hi = draw(st.integers(lo, 0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(lo, hi + 1, n))
    x[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    for value in draw(st.lists(SPECIAL, max_size=4)):
        x[rng.integers(n)] = value
    if draw(st.booleans()):
        x[rng.random(n) < 0.5] *= -1.0
    return x, rng


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(split_inputs())
def test_split_rows_sum_exactly_over_any_subset(case):
    x, rng = case
    rows = kernels.split_exact(x)
    assert rows.shape[1:] == x.shape
    # smallest row first, the columns rebuild x exactly
    rebuilt = np.zeros_like(x)
    for row in rows[::-1]:
        rebuilt += row
    assert np.array_equal(rebuilt, x)
    for _ in range(4):
        subset = rng.random(x.size) < rng.random()
        want = math.fsum(x[subset].tolist())
        sums = rows[:, subset].sum(axis=1)
        assert math.fsum(sums.tolist()).hex() == want.hex()
        for row, total in zip(rows[:, subset], sums.tolist()):
            # exact in numpy's pairwise order and in reverse sequential order
            assert total == math.fsum(row.tolist()) == sum(row[::-1].tolist())


def test_split_of_zeros_has_no_rows():
    assert kernels.split_exact(np.zeros(8)).shape == (0, 8)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_split_refuses_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        kernels.split_exact(np.array([0.25, bad]))


def test_suite_joints_split_into_two_or_three_rows():
    rows = [kernels.split_exact(net.joint()).shape[0] for net in _suite_networks()]
    assert sorted(set(rows)) == [2, 3] and rows.count(3) == 1
