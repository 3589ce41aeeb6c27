"""AC power flow and a linearized voltage-magnitude model.

The AC solver is a Z-bus fixed-point iteration on the slack-reduced
network equations; the linear model maps net nodal injections to
approximate voltage magnitudes around the no-load profile and supplies the
sensitivities used by the voltage-regulation controller. Both work through
the sparse LU factor of the reduced admittance that ``build_admittance``
computes once; no N x N matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .feeder import AdmittanceMatrix, FeederModel

__all__ = [
    "PowerInjection",
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

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class VoltageCollapseError(PowerFlowError):
    """Iterates left the physically meaningful magnitude band."""


@dataclass(frozen=True)
class PowerInjection:
    """Net complex injections at buses 1..N (generation positive, pu)."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if p.shape != q.shape or p.ndim != 1:
            raise ValueError("p and q must be 1-d arrays of equal length")
        if not (np.isfinite(p).all() and np.isfinite(q).all()):
            raise ValueError("injections must be finite")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def s(self) -> np.ndarray:
        return self.p + 1j * self.q


@dataclass(frozen=True)
class PFSolution:
    """Complex bus voltages ``v`` for buses 1..N, and how the solve went."""

    v: np.ndarray
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
    are therefore not stored: :meth:`response` applies them with one solve
    of the admittance factor, and :meth:`columns` forms only the entries
    asked for.
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

        The result is len(rows) x 2 len(idx). Solves ``SOLVE_BLOCK`` unit
        right-hand sides at a time and writes only the kept rows of each
        block into it, so no N x len(idx) array is formed.
        """
        idx = np.asarray(idx, dtype=int)
        rows = np.asarray(rows, dtype=int)
        k = idx.size
        rot = (np.conj(self.ebar) * self.a)[rows, None]  # exp(-j theta)
        rb = np.empty((rows.size, 2 * k))

        def units(cols: slice) -> np.ndarray:
            rhs = np.zeros((self.a.shape[0], cols.stop - cols.start), dtype=complex)
            rhs[idx[cols], np.arange(rhs.shape[1])] = self.ebar[idx[cols]]
            return rhs

        for cols, x in self.adm.solve_blocks(k, units):
            h = rot * x[rows]
            rb[:, cols] = h.real
            rb[:, k + cols.start : k + cols.stop] = h.imag
        return rb


def no_load_voltage(adm: AdmittanceMatrix, v0: complex) -> np.ndarray:
    """Zero-injection voltage profile, ``-Y^{-1} ybar V0``."""
    return adm.solve(-adm.ybar * v0)


def build_linear_model(adm: AdmittanceMatrix, v0: complex) -> LinearModel:
    """Linearize voltage magnitudes around the no-load profile.

    With the no-load voltages written as ``rho_bar * exp(j theta)``, the
    magnitude response to injections (p, q) is ``R p + B q + a`` with
    ``R + jB = diag(exp(-j theta)) Y^{-1} diag(exp(j theta) / rho_bar)``
    and ``a = rho_bar``.
    Costs one solve with the stored factor.
    """
    vbar = no_load_voltage(adm, v0)
    rho = np.abs(vbar)
    if np.any(rho <= 0):
        raise ValueError("no-load profile has a zero-magnitude bus")
    ang = np.angle(vbar)
    ebar = np.cos(ang) / rho + 1j * (np.sin(ang) / rho)
    return LinearModel(adm=adm, vbar=vbar, a=rho, ebar=ebar)


def predict_voltage_magnitude(lm: LinearModel, inj: PowerInjection) -> np.ndarray:
    return lm.response(inj.p, inj.q) + lm.a


def solve_ac(
    adm: AdmittanceMatrix,
    inj: PowerInjection,
    v0: complex,
    init: np.ndarray | None = None,
    tol: float = 1e-9,
    max_iter: int = 1000,
) -> PFSolution:
    """Z-bus fixed-point AC solve, ``v+ <- Y^{-1}(conj(s / v) - ybar V0)``.

    Each iteration is one solve with the factor stored in ``adm``; nothing
    is factored here.

    Parameters
    ----------
    init : array or None
        Warm-start voltages; defaults to the no-load profile. A start with
        a magnitude outside ``[0.3, 3]`` pu, NaN or infinite, raises
        ``ValueError``; an iterate that leaves that band, or has a NaN
        magnitude, aborts the solve with :class:`VoltageCollapseError`.
    tol : float
        Convergence threshold on the infinity norm of the power mismatch
        at the new iterate, ``s (v+ / v - 1)``: the update makes
        ``Y v+ + ybar V0`` equal ``conj(s / v)`` up to the solve's rounding.
    """
    n = adm.ybar.shape[0]
    if inj.p.shape[0] != n:
        raise ValueError(f"injection length {inj.p.shape[0]} != network size {n}")
    if init is None:
        v = no_load_voltage(adm, v0)
    else:
        v = np.asarray(init, dtype=complex)
        if not in_band(v):
            raise ValueError(
                f"warm-start magnitudes must be in [{COLLAPSE_LO}, {COLLAPSE_HI}] pu"
            )
    s = inj.s
    yv0 = adm.ybar * v0
    residual = float("inf")
    for it in range(1, max_iter + 1):
        v, v_prev = adm.solve(np.conj(s / v) - yv0), v
        if not in_band(v):
            raise VoltageCollapseError(
                f"collapse: |v| outside [{COLLAPSE_LO}, {COLLAPSE_HI}] at iteration {it}",
                residual,
            )
        residual = float(np.abs(s * (v / v_prev - 1.0)).max())
        if residual <= tol:
            return PFSolution(v, it, residual)
    raise PowerFlowError(
        f"no convergence after {max_iter} iterations, residual {residual:.3e}",
        residual,
    )


def in_band(v: np.ndarray) -> bool:
    """Whether every magnitude of ``v`` is in ``[COLLAPSE_LO, COLLAPSE_HI]`` (a NaN is not)."""
    mags = np.abs(v)
    return COLLAPSE_LO <= mags.min() and mags.max() <= COLLAPSE_HI


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
