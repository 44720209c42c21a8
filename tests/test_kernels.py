import numpy as np

from echelon import kernels
from echelon.oracle import random_accrual_network, random_skip_network


def _packed(net):
    idx = {v: i for i, v in enumerate(net.variables)}
    offsets, flat, toff, pflat = [0], [], [], []
    for v in net.variables:
        flat.extend(idx[p] for p in net.parents[v])
        offsets.append(len(flat))
        toff.append(len(pflat))
        pflat.extend(net.tables[v])
    return (
        len(net.variables),
        np.array(offsets, dtype=np.int32),
        np.array(flat, dtype=np.int32),
        np.array(toff, dtype=np.int32),
        np.array(pflat, dtype=np.float64),
    )


def test_joint_normalized_and_deterministic():
    net = random_accrual_network(0)
    j1 = net.joint()
    j2 = kernels.fill_joint(*_packed(net))
    assert np.array_equal(j1, j2)
    assert abs(j1.sum() - 1.0) < 1e-12


def _scalar_fill(n, parent_offset, parent_flat, table_offset, p_true):
    """One state at a time: multiply each variable's factor in ascending
    variable order, the complement 1 - p when its bit is 0."""
    out = []
    for s in range(1 << n):
        acc = 1.0
        for v in range(n):
            base = int(parent_offset[v])
            row = 0
            for j in range(base, int(parent_offset[v + 1])):
                row |= ((s >> int(parent_flat[j])) & 1) << (j - base)
            p = float(p_true[int(table_offset[v]) + row])
            if (s >> v) & 1:
                acc *= p
            else:
                acc *= 1.0 - p
        out.append(acc)
    return out


def test_fill_matches_scalar_order_bit_for_bit():
    for seed in range(8):
        packed = _packed(random_skip_network(seed))
        assert kernels.fill_joint(*packed).tolist() == _scalar_fill(*packed), (
            f"seed {seed}"
        )


def test_single_variable_network():
    out = kernels.fill_joint(
        1,
        np.array([0, 0], dtype=np.int32),
        np.array([], dtype=np.int32),
        np.array([0], dtype=np.int32),
        np.array([0.3]),
    )
    assert out.tolist() == [0.7, 0.3]
