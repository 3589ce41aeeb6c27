"""Dense references for the admittance, and its tree factor on a feeder of any size."""

from unittest import mock

import numpy as np

import opftrack.feeder
from opftrack.feeder import build_admittance
from opftrack.sim import compile_feeder


def dense_admittance(feeder):
    """The full ``(N+1) x (N+1)`` bus admittance matrix, assembled line by line."""
    full = np.zeros((feeder.n_nodes + 1,) * 2, dtype=complex)
    for (a, b), z, y_shunt in zip(feeder.terminals.tolist(), feeder.z, feeder.y_shunt):
        ys = 1.0 / z
        full[a, b] -= ys
        full[b, a] -= ys
        full[a, a] += ys + y_shunt / 2
        full[b, b] += ys + y_shunt / 2
    return full


def tree_admittance(feeder):
    """``build_admittance(feeder)`` with the tree factor, which a feeder of up to 192 buses does not take."""
    with mock.patch.object(opftrack.feeder, "DENSE_Z_MAX_NODES", 0):
        return build_admittance(feeder)


def compile_with_dense_limit(feeder, limit):
    """``compile_feeder(feeder)`` with ``DENSE_Z_MAX_NODES`` at ``limit``: 0 for the tree factor, n_nodes for the dense inverse."""
    with mock.patch.object(opftrack.feeder, "DENSE_Z_MAX_NODES", limit):
        return compile_feeder(feeder)
