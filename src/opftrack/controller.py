"""Primal-dual voltage-regulation controller.

Implements the optimization core: inverter operating regions with
closed-form Euclidean projections, voltage-limit constraint functions built
on the linearized magnitude model, gradients of a doubly regularized
Lagrangian (Tikhonov terms ``+nu/2 ||u||^2`` on the primal side and
``-eps/2 ||duals||^2`` on the dual side), the projected primal-dual step
maps in both model-based and measurement-based form, a high-accuracy saddle
point oracle, and the contraction constants that certify Q-linear
convergence of the step map.

Sign conventions: active/reactive injections positive, absorption negative.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .feeder import FeederModel
from .powerflow import LinearModel

__all__ = [
    "REGION_KINDS",
    "OperatingRegion",
    "CostParams",
    "ControllerParams",
    "DualState",
    "VoltageCoupling",
    "ConvergenceConstants",
    "SaddleProblem",
    "SaddleSolution",
    "OracleError",
    "project_region",
    "eval_constraints",
    "grad_primal",
    "dual_step_feedback",
    "dual_step_model",
    "primal_step",
    "convergence_constants",
    "solve_saddle_oracle",
    "saddle_residual",
    "default_start",
    "pack_state",
]

REGION_KINDS = ("real_only", "reactive_only", "joint")


class OracleError(RuntimeError):
    """Saddle-point oracle failed to reach the requested accuracy."""


@dataclass(frozen=True)
class OperatingRegion:
    """Feasible setpoint set of one inverter.

    kind selects the control capability:

    - ``real_only``:      {(P, 0) : 0 <= P <= p_available}
    - ``reactive_only``:  {(p_available, Q) : Q^2 <= S^2 - p_available^2}
    - ``joint``:          {(P, Q) : 0 <= P <= p_available, P^2 + Q^2 <= S^2}
    """

    kind: str
    s_rating: float
    p_available: float

    def __post_init__(self) -> None:
        if self.kind not in REGION_KINDS:
            raise ValueError(f"unknown region kind {self.kind!r}")
        if self.s_rating <= 0:
            raise ValueError("s_rating must be positive")
        if self.p_available < 0:
            raise ValueError("p_available must be nonnegative")
        if self.kind != "real_only" and self.p_available > self.s_rating:
            warnings.warn(
                f"p_available {self.p_available} exceeds rating {self.s_rating}; clipped",
                stacklevel=2,
            )
            object.__setattr__(self, "p_available", float(self.s_rating))

    @property
    def q_headroom(self) -> float:
        """Largest |Q| available at full active-power output."""
        return math.sqrt(max(self.s_rating**2 - self.p_available**2, 0.0))

    def contains(self, p: float, q: float, tol: float = 1e-9) -> bool:
        if self.kind == "real_only":
            return -tol <= p <= self.p_available + tol and abs(q) <= tol
        if self.kind == "reactive_only":
            return abs(p - self.p_available) <= tol and abs(q) <= self.q_headroom + tol
        return -tol <= p <= self.p_available + tol and math.hypot(p, q) <= self.s_rating + tol


# Generalized (Clarke) Jacobians of the 2-D projections, row-major
# (dP/dp, dP/dq, dQ/dp, dQ/dq), for the cases that do not depend on the point.
_JAC_IDENTITY = (1.0, 0.0, 0.0, 1.0)
_JAC_P_FREE = (1.0, 0.0, 0.0, 0.0)
_JAC_Q_FREE = (0.0, 0.0, 0.0, 1.0)
_JAC_ZERO = (0.0, 0.0, 0.0, 0.0)


def _clamp_q(p: float, q: float, cap: float) -> tuple[float, float, tuple]:
    # P held fixed, Q clamped to [-cap, cap]: a face, or a corner once clamped
    if q >= cap:
        return p, cap, _JAC_ZERO
    if q <= -cap:
        return p, -cap, _JAC_ZERO
    return p, q, _JAC_Q_FREE


def _project_joint(p: float, q: float, s: float, p_av: float) -> tuple[float, float, tuple]:
    # Case analysis over the intersection of the strip 0 <= P <= p_av with
    # the rating disk. Boundaries are resolved with <=, so every input maps
    # to exactly one case and coinciding candidates agree on overlaps.
    if p <= 0.0:
        # left face and its corners
        return _clamp_q(0.0, q, s)
    r = math.hypot(p, q)
    q_cap = math.sqrt(max(s * s - p_av * p_av, 0.0))
    if r <= s:
        if p <= p_av:
            return p, q, _JAC_IDENTITY  # member
        # horizontal projection onto the chord face, corners clamped
        return _clamp_q(p_av, q, q_cap)
    scale = s / r
    if p * scale <= p_av:
        # radial scaling onto the arc; the Jacobian (s/r)(I - n n^T) keeps
        # the tangential direction, shrunk by the radial scale
        np_, nq = p / r, q / r
        off = -scale * np_ * nq
        return p * scale, q * scale, (scale * nq * nq, off, off, scale * np_ * np_)
    # beyond the arc's end: chord face or its corner
    return _clamp_q(p_av, q, q_cap)


def project_region(u: tuple[float, float], region: OperatingRegion) -> tuple[float, float]:
    """Euclidean projection of a (P, Q) setpoint onto the inverter's feasible set.

    Closed form for all three kinds.
    """
    p, q, _ = _project_pair(float(u[0]), float(u[1]), region)
    return p, q


def _project_pair(p: float, q: float, region: OperatingRegion) -> tuple[float, float, tuple]:
    """Projection of (p, q) onto ``region`` and its generalized 2x2 Jacobian there."""
    if region.kind == "real_only":
        if p <= 0.0:
            return 0.0, 0.0, _JAC_ZERO
        if p >= region.p_available:
            return region.p_available, 0.0, _JAC_ZERO
        return p, 0.0, _JAC_P_FREE
    if region.kind == "reactive_only":
        return _clamp_q(region.p_available, q, region.q_headroom)
    return _project_joint(p, q, region.s_rating, region.p_available)


@dataclass(frozen=True)
class CostParams:
    """Per-DER generation cost ``c_p (P_av - P)^2 + c_q Q^2``.

    This quadratic family is the only one shipped; a different convex,
    differentiable cost can be slotted in by providing the same
    ``value`` / ``grad`` / ``lipschitz`` surface.
    """

    c_p: float
    c_q: float

    def __post_init__(self) -> None:
        if self.c_p < 0 or self.c_q < 0:
            raise ValueError("cost weights must be nonnegative")

    def value(self, p: float, q: float, p_av: float) -> float:
        # float_power calls pow() for scalars and arrays alike (``**`` squares
        # arrays, off by one ulp at times), so both give the same bits
        return self.c_p * np.float_power(p_av - p, 2) + self.c_q * q * q

    def grad(self, p: float, q: float, p_av: float) -> tuple[float, float]:
        return -2.0 * self.c_p * (p_av - p), 2.0 * self.c_q * q

    @property
    def lipschitz(self) -> float:
        return 2.0 * max(self.c_p, self.c_q)


@dataclass(frozen=True)
class ControllerParams:
    """Step size, Tikhonov weights, and voltage band."""

    alpha: float
    nu: float
    epsilon: float
    v_min: float = 0.95
    v_max: float = 1.05

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.nu <= 0 or self.epsilon <= 0:
            raise ValueError("alpha, nu, epsilon must be strictly positive")
        if not self.v_min < self.v_max:
            raise ValueError("v_min must be below v_max")


@dataclass(frozen=True)
class DualState:
    """Multipliers of the lower/upper voltage limits, one pair per metered bus."""

    gamma: np.ndarray
    mu: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.gamma, dtype=float)
        m = np.asarray(self.mu, dtype=float)
        if g.shape != m.shape or g.ndim != 1:
            raise ValueError("gamma and mu must be 1-d arrays of equal length")
        if np.any(g < 0) or np.any(m < 0):
            raise ValueError("duals must be nonnegative")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "mu", m)

    @classmethod
    def zeros(cls, m: int) -> "DualState":
        return cls(np.zeros(m), np.zeros(m))


@dataclass(frozen=True)
class VoltageCoupling:
    """Sensitivity of metered voltage magnitudes to DER injections.

    ``r`` and ``b`` hold the active/reactive sensitivity columns of the
    DER buses (shape M x n_der); ``c`` is the load-dependent offset, so the
    model prediction is ``r @ (P - P_load) + b @ (Q - Q_load) + c``.
    """

    r: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=float)
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if r.shape != b.shape or r.ndim != 2 or c.shape != (r.shape[0],):
            raise ValueError("inconsistent coupling shapes")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n_monitored(self) -> int:
        return self.r.shape[0]

    @property
    def n_der(self) -> int:
        return self.r.shape[1]

    @classmethod
    def from_linear_model(
        cls,
        lm: LinearModel,
        feeder: FeederModel,
        c: np.ndarray | None = None,
    ) -> "VoltageCoupling":
        """The (metered x DER) blocks of the linear model: n_der solves, metered rows kept."""
        mi = feeder.monitored_indices()
        r, b = lm.columns(feeder.der_indices())
        if c is None:
            c = lm.a[mi]
        return cls(r=r[mi], b=b[mi], c=np.asarray(c, float))

    def predict(self, u: np.ndarray, p_load_der: np.ndarray, q_load_der: np.ndarray) -> np.ndarray:
        """Model-predicted metered magnitudes for setpoints ``u`` (n_der x 2)."""
        return self.r @ (u[:, 0] - p_load_der) + self.b @ (u[:, 1] - q_load_der) + self.c

    def stacked(self) -> np.ndarray:
        return np.hstack([self.r, self.b])


def eval_constraints(
    coupling: VoltageCoupling,
    u: np.ndarray,
    p_load_der: np.ndarray,
    q_load_der: np.ndarray,
    params: ControllerParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Voltage-limit constraint functions of the linear surrogate.

    Returns ``(g, g_bar)`` with ``g = v_min - w`` and ``g_bar = w - v_max``
    where ``w`` is the model-predicted magnitude; nonpositive values mean
    satisfied. The identity ``g + g_bar = v_min - v_max`` holds exactly.
    """
    w = coupling.predict(u, p_load_der, q_load_der)
    return params.v_min - w, w - params.v_max


def grad_primal(
    u: np.ndarray,
    duals: DualState,
    costs: tuple[CostParams, ...],
    coupling: VoltageCoupling,
    p_av: np.ndarray,
    params: ControllerParams,
) -> np.ndarray:
    """Gradient of the regularized Lagrangian in the setpoints, one row per DER.

    Row i is ``(-2 c_p (P_av - P_i) + r_i^T (mu - gamma) + nu P_i,
    2 c_q Q_i + b_i^T (mu - gamma) + nu Q_i)``.
    """
    lam = duals.mu - duals.gamma
    cp = np.asarray([c.c_p for c in costs])
    cq = np.asarray([c.c_q for c in costs])
    out = np.empty_like(u)
    out[:, 0] = -2.0 * cp * (p_av - u[:, 0]) + coupling.r.T @ lam + params.nu * u[:, 0]
    out[:, 1] = 2.0 * cq * u[:, 1] + coupling.b.T @ lam + params.nu * u[:, 1]
    return out


def dual_step_feedback(duals: DualState, y: np.ndarray, params: ControllerParams) -> DualState:
    """Projected dual ascent driven by measured magnitudes ``y``."""
    a, eps = params.alpha, params.epsilon
    gamma = np.maximum(0.0, duals.gamma + a * (params.v_min - y - eps * duals.gamma))
    mu = np.maximum(0.0, duals.mu + a * (y - params.v_max - eps * duals.mu))
    return DualState(gamma, mu)


def dual_step_model(
    duals: DualState, g: np.ndarray, g_bar: np.ndarray, params: ControllerParams
) -> DualState:
    """Projected dual ascent driven by model-evaluated constraint values."""
    a, eps = params.alpha, params.epsilon
    gamma = np.maximum(0.0, duals.gamma + a * (g - eps * duals.gamma))
    mu = np.maximum(0.0, duals.mu + a * (g_bar - eps * duals.mu))
    return DualState(gamma, mu)


def primal_step(
    u: np.ndarray,
    duals: DualState,
    costs: tuple[CostParams, ...],
    regions: tuple[OperatingRegion, ...],
    coupling: VoltageCoupling,
    params: ControllerParams,
) -> np.ndarray:
    """Projected gradient step on the setpoints, independently per DER."""
    p_av = np.asarray([r.p_available for r in regions])
    grad = grad_primal(u, duals, costs, coupling, p_av, params)
    cand = u - params.alpha * grad
    return _project_all(cand, regions)


def _project_all(u: np.ndarray, regions: tuple[OperatingRegion, ...]) -> np.ndarray:
    out = np.empty_like(u)
    for i, reg in enumerate(regions):
        out[i, 0], out[i, 1], _ = _project_pair(u[i, 0], u[i, 1], reg)
    return out


def _project_all_jac(
    u: np.ndarray, regions: tuple[OperatingRegion, ...]
) -> tuple[np.ndarray, np.ndarray]:
    # projections plus their Jacobians, one row (dP/dp, dP/dq, dQ/dp, dQ/dq) per DER
    out = np.empty_like(u)
    jac = np.empty((len(regions), 4))
    for i, reg in enumerate(regions):
        out[i, 0], out[i, 1], jac[i] = _project_pair(u[i, 0], u[i, 1], reg)
    return out, jac


@dataclass(frozen=True)
class ConvergenceConstants:
    """Constants of the contraction estimate for the regularized step map.

    ``rho_alpha`` is the certified per-step contraction factor at the
    configured stepsize; it is below one exactly when
    ``0 < alpha < alpha_max``.
    """

    L: float
    G: float
    eta: float
    L_reg: float
    rho_alpha: float
    alpha_max: float

    def rho(self, alpha: float) -> float:
        return math.sqrt(max(0.0, 1.0 - 2.0 * self.eta * alpha + alpha**2 * self.L_reg**2))


def convergence_constants(
    costs: tuple[CostParams, ...],
    coupling: VoltageCoupling,
    params: ControllerParams,
) -> ConvergenceConstants:
    """Strong-monotonicity / Lipschitz constants of the regularized step map.

    ``L`` bounds the cost-gradient Lipschitz constant over all DERs, ``G``
    the spectral norm of the stacked sensitivity block, ``eta = min(nu,
    eps)`` the strong monotonicity modulus, and ``L_reg`` the Lipschitz
    constant of the full primal-dual operator.
    """
    L = max(c.lipschitz for c in costs)
    G = float(np.linalg.norm(coupling.stacked(), 2))
    eta = min(params.nu, params.epsilon)
    L_reg = math.sqrt((L + params.nu + 2.0 * G) ** 2 + 2.0 * (G + params.epsilon) ** 2)
    alpha_max = 2.0 * eta / L_reg**2
    rho_alpha = math.sqrt(
        max(0.0, 1.0 - 2.0 * eta * params.alpha + params.alpha**2 * L_reg**2)
    )
    return ConvergenceConstants(
        L=L, G=G, eta=eta, L_reg=L_reg, rho_alpha=rho_alpha, alpha_max=alpha_max
    )


# ---------------------------------------------------------------------------
# static saddle-point problems and their high-accuracy solution


@dataclass(frozen=True)
class SaddleProblem:
    """One time-frozen instance of the regularized saddle-point problem."""

    costs: tuple[CostParams, ...]
    regions: tuple[OperatingRegion, ...]
    coupling: VoltageCoupling
    p_load_der: np.ndarray
    q_load_der: np.ndarray
    params: ControllerParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "costs", tuple(self.costs))
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "p_load_der", np.asarray(self.p_load_der, float))
        object.__setattr__(self, "q_load_der", np.asarray(self.q_load_der, float))
        n = self.coupling.n_der
        if len(self.costs) != n or len(self.regions) != n:
            raise ValueError("costs/regions must match the coupling's DER count")

    @property
    def n_der(self) -> int:
        return self.coupling.n_der

    @property
    def p_av(self) -> np.ndarray:
        return np.asarray([r.p_available for r in self.regions])


@dataclass(frozen=True)
class SaddleSolution:
    u: np.ndarray
    gamma: np.ndarray
    mu: np.ndarray
    iterations: int
    residual: float


def default_start(problem: SaddleProblem) -> tuple[np.ndarray, DualState]:
    """Cost-minimizing feasible start: full available power, unity power factor."""
    u0 = np.column_stack([problem.p_av, np.zeros(problem.n_der)])
    u0 = _project_all(u0, problem.regions)
    return u0, DualState.zeros(problem.coupling.n_monitored)


def pack_state(u: np.ndarray, gamma: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Flatten a primal-dual point into one vector (row-major setpoints first)."""
    return np.concatenate([np.asarray(u, float).ravel(), gamma, mu])


def _penalty_value_grad(
    problem: SaddleProblem,
    u: np.ndarray,
    cp: np.ndarray,
    cq: np.ndarray,
    pav: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    # Maximizing the regularized Lagrangian over nonnegative duals in closed
    # form turns the constraints into one-sided quadratic penalties with
    # weight 1/eps; the saddle's primal part minimizes this smooth strongly
    # convex function over the operating regions. Also returns the mask of
    # violated limits, whose rows enter the generalized Hessian.
    prm = problem.params
    w = problem.coupling.predict(u, problem.p_load_der, problem.q_load_der)
    lo = np.maximum(prm.v_min - w, 0.0)
    hi = np.maximum(w - prm.v_max, 0.0)
    resid = (hi - lo) / prm.epsilon
    g = np.empty_like(u)
    g[:, 0] = -2.0 * cp * (pav - u[:, 0]) + prm.nu * u[:, 0] + problem.coupling.r.T @ resid
    g[:, 1] = 2.0 * cq * u[:, 1] + prm.nu * u[:, 1] + problem.coupling.b.T @ resid
    val = (
        float(np.sum(cp * (pav - u[:, 0]) ** 2 + cq * u[:, 1] ** 2))
        + 0.5 * prm.nu * float(np.sum(u * u))
        + (float(lo @ lo) + float(hi @ hi)) / (2.0 * prm.epsilon)
    )
    return val, g, resid != 0.0


def _closed_form_duals(problem: SaddleProblem, u: np.ndarray) -> DualState:
    g, g_bar = eval_constraints(
        problem.coupling, u, problem.p_load_der, problem.q_load_der, problem.params
    )
    eps = problem.params.epsilon
    return DualState(np.maximum(g, 0.0) / eps, np.maximum(g_bar, 0.0) / eps)


class _NewtonPoint(NamedTuple):
    # an iterate of the oracle with what the next Newton step needs
    u: np.ndarray
    f: float  # penalty objective
    grad: np.ndarray
    act: np.ndarray  # violated voltage limits
    jac: np.ndarray  # projection Jacobians at u - grad, one row per DER
    r: np.ndarray  # natural residual u - proj(u - grad)
    res: float  # ||r||


_ARMIJO = 1e-4  # sufficient-decrease fraction of the line search
_MIN_STEP = 2.0**-20  # shortest Newton step tried before the gradient fallback
_STALL_RES = 1e-9  # residual below which a stalled Newton step means rounding


def solve_saddle_oracle(
    problem: SaddleProblem,
    tol: float = 1e-11,
    max_iter: int = 500_000,
    z0: tuple[np.ndarray, DualState] | None = None,
) -> SaddleSolution:
    """Solve the static regularized saddle-point problem to high accuracy.

    Maximizing over the duals in closed form leaves a strongly convex,
    piecewise quadratic penalty objective F over the operating regions. Its
    minimizer is the root of the natural residual ``r(u) = u - proj(u -
    grad F(u))``, which a semismooth Newton method solves: each step uses the
    generalized Hessian ``2 diag(c) + nu I + (1/eps) A_act^T A_act`` (rows of
    the violated limits) and the generalized Jacobians of the per-DER
    projections, and is globalized by a backtracking line search on F along
    the projected Newton step, with a projected-gradient step as fallback.
    The duals are then recovered in closed form. ``||r||`` equals
    :func:`saddle_residual` at the returned point, and ``iterations`` counts
    the Newton (or fallback) steps taken.

    The solve stops once ``||r|| <= tol``, or, below ``||r|| = 1e-9``, when a
    full Newton step that keeps the set of violated limits fails to reduce
    ``||r||`` (the rounding floor). Only the setpoints of ``z0`` are used as
    the start. Raises :class:`OracleError`
    if ``max_iter`` steps are exhausted or the final residual is non-finite
    or above 1e-6.
    """
    regions = problem.regions
    if z0 is None:
        u, _ = default_start(problem)
    else:
        u = _project_all(np.asarray(z0[0], float), regions)
    prm = problem.params
    n = problem.n_der
    cp = np.asarray([c.c_p for c in problem.costs])
    cq = np.asarray([c.c_q for c in problem.costs])
    pav = problem.p_av
    # sensitivities and curvature in the order of u.ravel(): P_0, Q_0, P_1, ...
    a = np.empty((problem.coupling.n_monitored, 2 * n))
    a[:, 0::2] = problem.coupling.r
    a[:, 1::2] = problem.coupling.b
    h_cost = np.column_stack([2.0 * cp + prm.nu, 2.0 * cq + prm.nu]).ravel()
    der = np.arange(n)

    def evaluate(x: np.ndarray) -> _NewtonPoint:
        f, grad, act = _penalty_value_grad(problem, x, cp, cq, pav)
        v, jac = _project_all_jac(x - grad, regions)
        r = x - v
        return _NewtonPoint(x, f, grad, act, jac, r, float(np.linalg.norm(r)))

    def armijo(old: _NewtonPoint, new: _NewtonPoint) -> bool:
        decrease = float(np.sum(old.grad * (new.u - old.u)))
        return decrease < 0.0 and new.f <= old.f + _ARMIJO * decrease

    cur = evaluate(u)
    its = 0
    while cur.res > tol:
        if its == max_iter:
            raise OracleError(f"saddle oracle: no convergence in {max_iter} iterations")
        # Newton step on r(u) = 0 with r' = I - D (I - H), D the block
        # diagonal of the projection Jacobians and H the generalized Hessian
        d_proj = np.zeros((n, 2, n, 2))
        d_proj[der, :, der, :] = cur.jac.reshape(n, 2, 2)
        d_proj = d_proj.reshape(2 * n, 2 * n)
        a_act = a[cur.act]
        hess = np.diag(h_cost) + (a_act.T @ a_act) / prm.epsilon
        jac_r = np.eye(2 * n) - d_proj + d_proj @ hess
        step = np.linalg.solve(jac_r, -cur.r.ravel()).reshape(n, 2)
        new = evaluate(_project_all(cur.u + step, regions))
        if cur.res <= _STALL_RES and new.res >= cur.res and np.array_equal(new.act, cur.act):
            break  # rounding floor: a full step on the same active set gains nothing
        its += 1
        # backtracking on F along the projected Newton path, tried only when
        # the Newton step is a descent direction for F
        t = 1.0 if float(np.sum(cur.grad * step)) < 0.0 else 0.0
        while t > 0.0 and not armijo(cur, new):
            t = 0.5 * t if t > _MIN_STEP else 0.0
            if t > 0.0:
                new = evaluate(_project_all(cur.u + t * step, regions))
        if t == 0.0:
            # projected-gradient step at 1/L, L the Lipschitz bound of grad F:
            # a descent step whatever the active set
            lip = h_cost.max() + np.linalg.norm(a, 2) ** 2 / prm.epsilon
            new = evaluate(_project_all(cur.u - cur.grad / lip, regions))
        cur = new

    u = cur.u
    duals = _closed_form_duals(problem, u)
    res = saddle_residual(problem, u, duals.gamma, duals.mu)
    if not math.isfinite(res) or res > 1e-6:
        raise OracleError(f"saddle oracle: stationarity residual {res:.3e} out of tolerance")
    return SaddleSolution(u=u, gamma=duals.gamma, mu=duals.mu, iterations=its, residual=res)


def saddle_residual(
    problem: SaddleProblem, u: np.ndarray, gamma: np.ndarray, mu: np.ndarray
) -> float:
    """Projected-stationarity residual ``||z - proj(z - F(z))||_2`` at unit step.

    Zero exactly at the saddle point, independent of the step size used by
    any solver.
    """
    duals = DualState(gamma, mu)
    g, g_bar = eval_constraints(
        problem.coupling, u, problem.p_load_der, problem.q_load_der, problem.params
    )
    gp = grad_primal(u, duals, problem.costs, problem.coupling, problem.p_av, problem.params)
    u2 = _project_all(u - gp, problem.regions)
    eps = problem.params.epsilon
    gamma2 = np.maximum(0.0, gamma + (g - eps * gamma))
    mu2 = np.maximum(0.0, mu + (g_bar - eps * mu))
    return float(
        np.linalg.norm(pack_state(u - u2, gamma - gamma2, mu - mu2))
    )
