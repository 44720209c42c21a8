import math

import numpy as np
import pytest

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


def test_single_variable_network():
    out = kernels.fill_joint(1, [()], [np.array([0.3])])
    assert out.tolist() == [0.7, 0.3]
