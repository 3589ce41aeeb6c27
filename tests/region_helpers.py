"""Reference geometry of the inverter operating regions, for the projection tests."""

import math

import numpy as np


def in_region(kind, s, p_av, p, q, tol=1e-9):
    """Whether each setpoint (p, q) lies in its DER's region at availability p_av."""
    s, p_av, p, q = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (s, p_av, p, q)))
    if kind == "real_only":
        return (p >= -tol) & (p <= p_av + tol) & (np.abs(q) <= tol)
    if kind == "reactive_only":
        cap = np.sqrt(np.maximum(s * s - p_av * p_av, 0.0))
        return (np.abs(p - p_av) <= tol) & (np.abs(q) <= cap + tol)
    return (p >= -tol) & (p <= p_av + tol) & (np.hypot(p, q) <= s + tol)


def project_scalar(kind, s, p_av, p, q):
    """One DER's projection and its Jacobian row, case by case in plain floats.

    The per-point reference for the vectorised ``Inverters.project``.
    """
    def clamp(p_fixed, cap):
        if q >= cap:
            return p_fixed, cap, (0.0, 0.0, 0.0, 0.0)
        if q <= -cap:
            return p_fixed, -cap, (0.0, 0.0, 0.0, 0.0)
        return p_fixed, q, (0.0, 0.0, 0.0, 1.0)

    if kind == "real_only":
        if p <= 0.0:
            return 0.0, 0.0, (0.0, 0.0, 0.0, 0.0)
        if p >= p_av:
            return p_av, 0.0, (0.0, 0.0, 0.0, 0.0)
        return p, 0.0, (1.0, 0.0, 0.0, 0.0)
    if kind == "reactive_only":
        return clamp(p_av, math.sqrt(max(s**2 - p_av**2, 0.0)))
    if p <= 0.0:
        return clamp(0.0, s)
    r = math.hypot(p, q)
    chord_cap = math.sqrt(max(s * s - p_av * p_av, 0.0))
    if r <= s:
        return (p, q, (1.0, 0.0, 0.0, 1.0)) if p <= p_av else clamp(p_av, chord_cap)
    scale = s / r
    if p * scale <= p_av:
        n_p, n_q = p / r, q / r
        off = -scale * n_p * n_q
        return p * scale, q * scale, (scale * n_q * n_q, off, off, scale * n_p * n_p)
    return clamp(p_av, chord_cap)


def kink_distance(p, q, s, p_av):
    """Distance to a superset of the points where some region's projection has a kink.

    The lines P = 0, P = p_av, |Q| = S, |Q| = q_cap, the rating circle, and
    the rays from the origin through the chord corners.
    """
    cap = np.sqrt(np.maximum(s * s - p_av * p_av, 0.0))
    return np.min([
        np.abs(p),
        np.abs(p - p_av),
        np.abs(np.abs(q) - s),
        np.abs(np.abs(q) - cap),
        np.abs(np.hypot(p, q) - s),
        np.abs(p * cap - q * p_av) / s,
        np.abs(p * cap + q * p_av) / s,
    ], axis=0)
