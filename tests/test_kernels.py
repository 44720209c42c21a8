import numpy as np

from echelon import kernels
from echelon.oracle import random_accrual_network, random_skip_network


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


def _scalar_fill(n, parents, tables):
    """One state at a time: multiply each variable's factor in ascending
    variable order, the complement 1 - p when its bit is 0."""
    out = []
    for s in range(1 << n):
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
        out.append(acc)
    return out


def test_fill_matches_scalar_order_bit_for_bit():
    for seed in range(8):
        args = _args(random_skip_network(seed))
        assert kernels.fill_joint(*args).tolist() == _scalar_fill(*args), (
            f"seed {seed}"
        )


def test_single_variable_network():
    out = kernels.fill_joint(1, [()], [np.array([0.3])])
    assert out.tolist() == [0.7, 0.3]
