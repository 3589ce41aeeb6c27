"""Dense references for the factored admittance, for the assembly and power-flow tests."""

import numpy as np
import scipy.sparse as sp


def factored_matrix(adm):
    """The reduced block that ``adm.lu`` factors, rebuilt densely as ``Pr^T L U Pc^T``."""
    lu = adm.lu
    n = lu.shape[0]
    pr = sp.csc_matrix((np.ones(n), (lu.perm_r, np.arange(n))), shape=(n, n))
    pc = sp.csc_matrix((np.ones(n), (np.arange(n), lu.perm_c)), shape=(n, n))
    return (pr.T @ (lu.L @ lu.U) @ pc.T).toarray()


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
