"""AC power flow and a linearized voltage-magnitude model.

The AC solver is a Z-bus fixed-point iteration on the slack-reduced
network equations; the linear model maps net nodal injections to
approximate voltage magnitudes around the no-load profile and supplies the
sensitivities used by the voltage-regulation controller. Both apply
``Y^{-1}`` of the reduced admittance as ``build_admittance`` keeps it: on a
feeder of up to ``DENSE_Z_MAX_NODES`` buses a product with the dense
inverse, the only N x N matrix formed, and on a larger one a solve with the
tree factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._pick import every, largest, smallest
from .feeder import AdmittanceMatrix, FeederModel

__all__ = [
    "PFSolution",
    "LinearModel",
    "PowerFlowError",
    "VoltageCollapseError",
    "no_load_voltage",
    "build_linear_model",
    "predict_voltage_magnitude",
    "solve_ac",
    "in_band",
    "constraint_offsets",
]

# magnitudes outside this band, or NaN, abort the fixed-point iteration
COLLAPSE_LO = 0.3
COLLAPSE_HI = 3.0


class PowerFlowError(RuntimeError):
    """Fixed-point iteration failed to converge."""


class VoltageCollapseError(PowerFlowError):
    """Iterates left the physically meaningful magnitude band."""


class PFSolution(NamedTuple):
    """Complex bus voltages ``v`` for buses 1..N, their magnitudes, and how the solve went.

    A named tuple: built once per step, it costs half a frozen dataclass.
    """

    v: np.ndarray
    v_mag: np.ndarray
    iterations: int
    residual: float


@dataclass(frozen=True)
class LinearModel:
    """First-order voltage-magnitude model around the no-load profile.

    ``predict_voltage_magnitude`` evaluates ``R p + B q + a``, where ``a``
    is the no-load magnitude profile ``|vbar|``. Entry (i, j) of ``R + jB``
    is entry (i, j) of ``Y^{-1}`` scaled by ``ebar_j = exp(j theta_j) /
    rho_j``, the no-load angle and magnitude of bus j, and rotated by
    ``exp(-j theta_i)``, so that
    ``R p + B q = Re(exp(-j theta) * Y^{-1} (ebar * (p - jq)))``: the first
    order change of ``|v|`` whatever the slack's reference angle. R and B
    are therefore not stored: :meth:`response` applies them with one
    product or solve, and :meth:`columns` forms only the entries asked for.
    """

    adm: AdmittanceMatrix
    vbar: np.ndarray
    a: np.ndarray
    ebar: np.ndarray

    def response(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """``R p + B q`` for injections of shape (N,), or (N, K) for K at once."""
        scale, rot = self.ebar, np.conj(self.ebar) * self.a  # rot = exp(-j theta)
        if np.ndim(p) == 2:
            scale, rot = scale[:, None], rot[:, None]
        return (rot * self.adm.solve(scale * (p - 1j * q))).real

    def columns(self, idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Rows ``rows`` of columns ``idx`` of R and of B, side by side: ``[R B]``.

        The result is len(rows) x 2 len(idx), from only those entries of
        ``Y^{-1}`` (:meth:`~opftrack.feeder.AdmittanceMatrix.block`).
        """
        idx = np.asarray(idx, dtype=int)
        rows = np.asarray(rows, dtype=int)
        rot = (np.conj(self.ebar) * self.a)[rows, None]  # exp(-j theta)
        h = rot * (self.adm.block(rows, idx) * self.ebar[idx])
        return np.hstack([h.real, h.imag])


def no_load_voltage(adm: AdmittanceMatrix, v0: complex) -> np.ndarray:
    """Zero-injection voltage profile, ``-Y^{-1} ybar V0``."""
    return adm.solve(-adm.ybar * v0)


def build_linear_model(adm: AdmittanceMatrix, v0: complex) -> LinearModel:
    """Linearize voltage magnitudes around the no-load profile.

    With the no-load voltages written as ``rho_bar * exp(j theta)``, the
    magnitude response to injections (p, q) is ``R p + B q + a`` with
    ``R + jB = diag(exp(-j theta)) Y^{-1} diag(exp(j theta) / rho_bar)``
    and ``a = rho_bar``.
    Costs one application of ``Y^{-1}``.
    """
    vbar = no_load_voltage(adm, v0)
    rho = np.abs(vbar)
    if np.any(rho <= 0):
        raise ValueError("no-load profile has a zero-magnitude bus")
    ang = np.angle(vbar)
    ebar = np.cos(ang) / rho + 1j * (np.sin(ang) / rho)
    return LinearModel(adm=adm, vbar=vbar, a=rho, ebar=ebar)


def predict_voltage_magnitude(lm: LinearModel, s: np.ndarray) -> np.ndarray:
    """The linear model's magnitudes at net complex injections ``s = p + jq`` (N,)."""
    return lm.response(s.real, s.imag) + lm.a


def solve_ac(
    adm: AdmittanceMatrix,
    s: np.ndarray,
    v0: complex,
    init: np.ndarray | None = None,
    tol: float = 1e-9,
    max_iter: int = 1000,
    fallback: np.ndarray | None = None,
) -> PFSolution:
    """Z-bus fixed-point AC solve, ``v+ <- Y^{-1}(conj(s / v) - ybar V0)``.

    Each iteration applies ``Y^{-1}`` once, by one call of ``adm.solve``:
    ``z.dot``, a product with the dense inverse, on a small feeder, else a
    solve with the tree factor. Nothing is inverted or factored here.

    Parameters
    ----------
    s : complex array (N,)
        Net complex injections ``p + jq`` at buses 1..N (generation
        positive, pu). A non-finite entry raises ``ValueError``.
    init : array or None
        Warm-start voltages; defaults to the no-load profile. A start with
        a magnitude outside ``[0.3, 3]`` pu, NaN or infinite, raises
        ``ValueError``; an iterate that leaves that band, or has a NaN
        magnitude, aborts the solve with :class:`VoltageCollapseError`.
    fallback : array or None
        The start taken, and only then checked, in place of an ``init``
        outside that band, such as the solution ``init`` extrapolates from.
    tol : float
        Convergence threshold on the infinity norm of the power mismatch
        at the new iterate, ``s (v+ / v - 1)``: the update makes
        ``Y v+ + ybar V0`` equal ``conj(s / v)`` up to the solve's rounding.
        Each iteration forms ``s / v`` once, for the update and for this
        mismatch as ``(s / v) (v+ - v)``. ``ValueError`` unless
        ``0 < tol < inf``.
    max_iter : int
        Iterations before :class:`PowerFlowError`; ``ValueError`` unless
        at least 1.

    The returned ``v_mag`` are the magnitudes of ``v`` that the collapse
    test read.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"power-flow tolerance must be positive and finite, got {tol!r}")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    n = adm.ybar.shape[0]
    s = np.asarray(s, dtype=complex)
    if s.shape != (n,):
        raise ValueError(f"injections must be a vector of length {n}, got shape {s.shape}")
    if not every(np.isfinite(s)):
        raise ValueError("injections must be finite")
    if init is None:
        v = no_load_voltage(adm, v0)
    else:
        v = np.asarray(init, dtype=complex)
        if not in_band(np.abs(v)):
            if fallback is None or not in_band(np.abs(fallback)):
                raise ValueError(
                    f"warm-start magnitudes must be in [{COLLAPSE_LO}, {COLLAPSE_HI}] pu"
                )
            v = np.asarray(fallback, dtype=complex)
    yv0 = adm.slack_term(v0)
    solve = adm.solve
    residual = math.inf
    for it in range(1, max_iter + 1):
        sv = s / v
        v_next = solve(np.conj(sv) - yv0)
        v_mag = np.abs(v_next)
        if not in_band(v_mag):
            raise VoltageCollapseError(
                f"collapse: |v| outside [{COLLAPSE_LO}, {COLLAPSE_HI}] at iteration {it}"
            )
        # s (v+ / v - 1), with the update's s / v
        residual = float(largest(np.abs(sv * (v_next - v))))
        v = v_next
        if residual <= tol:
            return PFSolution(v, v_mag, it, residual)
    raise PowerFlowError(f"no convergence after {max_iter} iterations, residual {residual:.3e}")


def in_band(v_mag: np.ndarray) -> bool:
    """Whether every magnitude ``v_mag`` is in ``[COLLAPSE_LO, COLLAPSE_HI]`` (a NaN is not)."""
    return COLLAPSE_LO <= smallest(v_mag) and largest(v_mag) <= COLLAPSE_HI


def constraint_offsets(
    lm: LinearModel,
    p_load: np.ndarray,
    q_load: np.ndarray,
    feeder: FeederModel,
) -> np.ndarray:
    """Offsets ``c`` of the metered-voltage surrogate at the given loads.

    The offset is the linear model's metered magnitude at the loads with
    every DER off, so that ``r P + b Q + c`` is the model's metered
    magnitude with the DERs at (P, Q). ``p_load``/``q_load`` are full-length
    demand vectors (positive = consumption) for buses 1..N, or arrays of K
    such rows; the result has one row of metered offsets per row, from a
    single solve.
    """
    p = np.asarray(p_load, dtype=float)
    q = np.asarray(q_load, dtype=float)
    n = lm.a.shape[0]
    if p.ndim not in (1, 2) or p.shape[-1] != n or q.shape != p.shape:
        raise ValueError("load vectors must have one entry per non-slack bus")
    return (lm.a - lm.response(p.T, q.T).T)[..., feeder.monitored_indices()]
