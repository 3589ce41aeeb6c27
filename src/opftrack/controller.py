"""Primal-dual voltage-regulation controller.

Implements the optimization core: the inverters of a run held as arrays
(one region kind, per-DER ratings and cost weights) with one vectorised
closed-form Euclidean projection onto their operating regions, the linear
surrogate of the metered magnitudes, gradients of a doubly regularized
Lagrangian (Tikhonov terms ``+nu/2 ||u||^2`` on the primal side and
``-eps/2 ||duals||^2`` on the dual side), the projected primal-dual step
map (its dual step fed measured or model-predicted magnitudes), a
high-accuracy saddle point oracle and residual built on that step map, and
the contraction constants that certify Q-linear convergence of the step map.

Sign conventions: active/reactive injections positive, absorption negative.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

__all__ = [
    "REGION_KINDS",
    "Inverters",
    "CostParams",
    "ControllerParams",
    "DualState",
    "VoltageCoupling",
    "ConvergenceConstants",
    "SaddleProblem",
    "SaddleSolution",
    "OracleError",
    "grad_primal",
    "dual_step_feedback",
    "primal_step",
    "convergence_constants",
    "solve_saddle_oracle",
    "saddle_residual",
    "pack_state",
]

REGION_KINDS = ("real_only", "reactive_only", "joint")


class OracleError(RuntimeError):
    """Saddle-point oracle failed to reach the requested accuracy."""


@dataclass(frozen=True)
class CostParams:
    """Generation cost weights of one DER, ``c_p (P_av - P)^2 + c_q Q^2``."""

    c_p: float
    c_q: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(x) and x >= 0 for x in (self.c_p, self.c_q)):
            raise ValueError(
                f"cost weights must be finite and nonnegative, got ({self.c_p!r}, {self.c_q!r})"
            )


@dataclass(frozen=True)
class ControllerParams:
    """Step size and Tikhonov weights."""

    alpha: float
    nu: float
    epsilon: float

    def __post_init__(self) -> None:
        values = (self.alpha, self.nu, self.epsilon)
        if not all(math.isfinite(x) and x > 0 for x in values):
            raise ValueError(
                f"alpha, nu, epsilon must be finite and strictly positive, got {values}"
            )


@dataclass(frozen=True)
class Inverters:
    """The DERs of a run: one region kind, and per DER a rating and cost weights.

    ``kind`` selects every inverter's feasible setpoint set at availability
    ``p_av``:

    - ``real_only``:      {(P, 0) : 0 <= P <= p_av}
    - ``reactive_only``:  {(p_av, Q) : Q^2 <= S^2 - p_av^2}
    - ``joint``:          {(P, Q) : 0 <= P <= p_av, P^2 + Q^2 <= S^2}

    and DER i costs ``c_p[i] (p_av - P)^2 + c_q[i] Q^2``. Availability varies
    by step, so it is passed to each call.
    """

    kind: str
    s_rating: np.ndarray
    c_p: np.ndarray
    c_q: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in REGION_KINDS:
            raise ValueError(f"unknown region kind {self.kind!r}")
        for name in ("s_rating", "c_p", "c_q"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        shape = self.s_rating.shape
        if not (len(shape) == 1 and self.c_p.shape == self.c_q.shape == shape):
            raise ValueError("s_rating, c_p and c_q need one entry per DER")
        if not all(np.isfinite(getattr(self, n)).all() for n in ("s_rating", "c_p", "c_q")):
            raise ValueError("s_rating, c_p and c_q must be finite")
        if np.any(self.s_rating <= 0):
            raise ValueError("s_rating must be positive")
        if np.any(self.c_p < 0) or np.any(self.c_q < 0):
            raise ValueError("cost weights must be nonnegative")

    @property
    def n_der(self) -> int:
        return self.s_rating.shape[0]

    def available(self, p_av: np.ndarray) -> np.ndarray:
        """Availability ``p_av`` (..., n_der) as the regions use it.

        Every kind but ``real_only`` draws P from the rating, so availability
        above it is clipped to the rating, with one warning per call.
        """
        p_av = np.asarray(p_av, dtype=float)
        over = p_av > self.s_rating
        if self.kind == "real_only" or not over.any():
            return p_av
        warnings.warn(
            f"p_av exceeds the DER rating in {int(over.sum())} of {over.size} entries "
            f"(by up to {float(np.max(p_av - self.s_rating)):.6g}); clipped to the rating",
            stacklevel=2,
        )
        return np.minimum(p_av, self.s_rating)

    def headroom(self, p_av: np.ndarray) -> np.ndarray:
        """Largest |Q| at full active output ``p_av``."""
        # squared through pow() (float_power), where the joint chord cap
        # squares by products: the two can differ in the last place, and each
        # keeps the outputs of its kinds byte-stable
        return np.sqrt(
            np.maximum(np.float_power(self.s_rating, 2) - np.float_power(p_av, 2), 0.0)
        )

    def project(self, u: np.ndarray, p_av: np.ndarray) -> np.ndarray:
        """Euclidean projection of setpoints ``u`` (n_der, 2) onto the regions at ``p_av``."""
        return self._project(u, p_av, with_jacobian=False)[0]

    def project_jacobian(
        self, u: np.ndarray, p_av: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`project`, plus the generalized (Clarke) Jacobian at ``u``.

        The Jacobian has one row (dP/dp, dP/dq, dQ/dp, dQ/dq) per DER.
        Boundaries are resolved with ``<=``, so every point falls in exactly
        one case and neighbouring cases agree on their common boundary.
        """
        return self._project(u, p_av, with_jacobian=True)

    def _project(
        self, u: np.ndarray, p_av: np.ndarray, with_jacobian: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        # one case analysis for both projections; the Jacobian rows are
        # formed only when asked for, after the setpoints
        p, q = u[:, 0], u[:, 1]
        if self.kind == "real_only":
            p_out = np.where(p <= 0.0, 0.0, np.minimum(p, p_av))
            out = np.column_stack([p_out, np.zeros_like(p)])
            if not with_jacobian:
                return out, None
            jac = np.zeros((len(u), 4))
            jac[:, 0] = (p > 0.0) & (p < p_av)
            return out, jac
        if self.kind == "reactive_only":
            cap = self.headroom(p_av)
            out = np.column_stack([np.broadcast_to(p_av, p.shape), _clamp(q, cap)])
            if not with_jacobian:
                return out, None
            jac = np.zeros((len(u), 4))
            jac[:, 3] = (q < cap) & (q > -cap)  # Q free of the clamp
            return out, jac
        # joint: the strip 0 <= P <= p_av cut by the rating disk. Left of the
        # strip, Q is clamped on the P = 0 face; inside the disk beyond the
        # strip, on the chord P = p_av; outside the disk, the radial
        # projection onto the arc holds unless it lands beyond the chord.
        s = self.s_rating
        left = p <= 0.0
        r = np.where(left, s, np.hypot(p, q))  # r = 0 only on the left face
        # the radial scale, used only outside the disk: inside it s / r could
        # overflow (r subnormal)
        scale = np.divide(s, r, out=np.ones_like(r), where=r > s)
        p_arc = p * scale
        inside = r <= s  # left points included
        member = inside & (p <= p_av) & ~left
        arc = ~inside & (p_arc <= p_av)
        face_cap = np.where(left, s, np.sqrt(np.maximum(s * s - p_av * p_av, 0.0)))
        out = np.empty_like(u)
        out[:, 0] = np.where(member, p, np.where(arc, p_arc, np.where(left, 0.0, p_av)))
        out[:, 1] = np.where(member, q, np.where(arc, q * scale, _clamp(q, face_cap)))
        if not with_jacobian:
            return out, None
        # on the arc the Jacobian (s/r)(I - n n^T) keeps the tangential
        # direction, shrunk by the radial scale
        n_p, n_q = p / r, q / r
        jac = np.empty((len(u), 4))
        jac[:, 0] = np.where(arc, scale * n_q * n_q, member)
        jac[:, 1] = jac[:, 2] = np.where(arc, -scale * n_p * n_q, 0.0)
        jac[:, 3] = np.where(arc, scale * n_p * n_p, member | ((q < face_cap) & (q > -face_cap)))
        return out, jac


def _clamp(q: np.ndarray, cap: np.ndarray) -> np.ndarray:
    # Q clamped to [-cap, cap]; q = -0.0 at cap = 0 clamps to +0.0, which
    # np.clip would leave as -0.0
    return np.where(q >= cap, cap, np.maximum(q, -cap))


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
        if g.min(initial=0.0) < 0.0 or m.min(initial=0.0) < 0.0:
            raise ValueError("duals must be nonnegative")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "mu", m)

    @classmethod
    def zeros(cls, m: int) -> "DualState":
        return cls(np.zeros(m), np.zeros(m))


@dataclass(frozen=True)
class VoltageCoupling:
    """The linear surrogate of the metered voltage magnitudes.

    ``rb`` is the stacked sensitivity block ``[r b]`` (M x 2 n_der): ``r``
    and ``b``, views of its two halves, hold the active/reactive sensitivity
    columns of the DER buses. ``c`` is the offset: the linear model's metered
    magnitudes at the loads with every DER off (see
    :func:`~opftrack.powerflow.constraint_offsets`). The prediction for
    setpoints (P, Q) is ``r P + b Q + c``. ``c`` may carry leading axes, one
    offset row per step.
    """

    rb: np.ndarray
    c: np.ndarray
    r: np.ndarray = field(init=False, repr=False, compare=False)
    b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rb = np.asarray(self.rb, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if rb.ndim != 2 or rb.shape[1] % 2 or c.shape[-1:] != (rb.shape[0],):
            raise ValueError("inconsistent coupling shapes")
        object.__setattr__(self, "rb", rb)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "r", rb[:, : rb.shape[1] // 2])
        object.__setattr__(self, "b", rb[:, rb.shape[1] // 2 :])

    @property
    def n_der(self) -> int:
        return self.r.shape[1]

    def predict(self, u: np.ndarray) -> np.ndarray:
        """``r P + b Q + c`` for setpoints ``u`` (..., n_der, 2), shape (..., M)."""
        return u[..., 0] @ self.r.T + u[..., 1] @ self.b.T + self.c


def grad_primal(
    u: np.ndarray,
    duals: DualState,
    inv: Inverters,
    p_av: np.ndarray,
    coupling: VoltageCoupling,
    params: ControllerParams,
) -> np.ndarray:
    """Gradient of the regularized Lagrangian in the setpoints, one row per DER.

    Row i is ``(-2 c_p (P_av - P_i) + r_i^T (mu - gamma) + nu P_i,
    2 c_q Q_i + b_i^T (mu - gamma) + nu Q_i)``.
    """
    lam = duals.mu - duals.gamma
    out = np.empty_like(u)
    out[:, 0] = -2.0 * inv.c_p * (p_av - u[:, 0]) + coupling.r.T @ lam + params.nu * u[:, 0]
    out[:, 1] = 2.0 * inv.c_q * u[:, 1] + coupling.b.T @ lam + params.nu * u[:, 1]
    return out


def dual_step_feedback(
    duals: DualState, y: np.ndarray, v_min: float, v_max: float, params: ControllerParams
) -> DualState:
    """Projected dual ascent driven by metered magnitudes ``y``.

    Fed the model prediction ``coupling.predict(u)`` in place of a
    measurement, it is the model-based dual step.
    """
    a, eps = params.alpha, params.epsilon
    gamma = np.maximum(0.0, duals.gamma + a * (v_min - y - eps * duals.gamma))
    mu = np.maximum(0.0, duals.mu + a * (y - v_max - eps * duals.mu))
    return DualState(gamma, mu)


def primal_step(
    u: np.ndarray,
    duals: DualState,
    inv: Inverters,
    p_av: np.ndarray,
    coupling: VoltageCoupling,
    params: ControllerParams,
) -> np.ndarray:
    """Projected gradient step on the setpoints, independently per DER."""
    grad = grad_primal(u, duals, inv, p_av, coupling, params)
    return inv.project(u - params.alpha * grad, p_av)


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


def _spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of ``a``, ``np.linalg.norm(a, 2)``.

    Computed as the square root of the largest eigenvalue of the smaller
    Gram matrix (``a^T a`` or ``a a^T``): one symmetric eigensolve of the
    short side, where the 2-norm would run a full SVD of ``a``.
    """
    gram = a.T @ a if a.shape[0] >= a.shape[1] else a @ a.T
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def convergence_constants(
    inv: Inverters,
    coupling: VoltageCoupling,
    params: ControllerParams,
) -> ConvergenceConstants:
    """Strong-monotonicity / Lipschitz constants of the regularized step map.

    ``L`` bounds the cost-gradient Lipschitz constant over all DERs, ``G``
    the spectral norm of the stacked sensitivity block, ``eta = min(nu,
    eps)`` the strong monotonicity modulus, and ``L_reg`` the Lipschitz
    constant of the full primal-dual operator.
    """
    L = 2.0 * float(max(inv.c_p.max(), inv.c_q.max()))
    G = _spectral_norm(coupling.rb)
    eta = min(params.nu, params.epsilon)
    L_reg = math.sqrt((L + params.nu + 2.0 * G) ** 2 + 2.0 * (G + params.epsilon) ** 2)
    # rho_alpha is rho(alpha), from the one formula in ConvergenceConstants.rho
    consts = ConvergenceConstants(L, G, eta, L_reg, math.nan, 2.0 * eta / L_reg**2)
    return replace(consts, rho_alpha=consts.rho(params.alpha))


# ---------------------------------------------------------------------------
# static saddle-point problems and their high-accuracy solution


@dataclass(frozen=True)
class SaddleProblem:
    """One time-frozen instance of the regularized saddle-point problem.

    ``p_av`` is the availability as the regions use it (see
    :meth:`Inverters.available`), ``coupling`` the step's linear surrogate
    (its offset ``c`` carries the step's loads) and ``[v_min, v_max]`` the
    voltage band.
    """

    inverters: Inverters
    p_av: np.ndarray
    coupling: VoltageCoupling
    v_min: float
    v_max: float
    params: ControllerParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_av", np.asarray(self.p_av, dtype=float))
        n = self.coupling.n_der
        if self.inverters.n_der != n or self.p_av.shape != (n,):
            raise ValueError("inverters and p_av must match the coupling's DER count")
        if not self.v_min < self.v_max:
            raise ValueError("v_min must be below v_max")


@dataclass(frozen=True)
class SaddleSolution:
    u: np.ndarray
    gamma: np.ndarray
    mu: np.ndarray
    iterations: int
    residual: float


def pack_state(u: np.ndarray, gamma: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Flatten a primal-dual point into one vector (row-major setpoints first)."""
    return np.concatenate([np.asarray(u, float).ravel(), gamma, mu])


def _penalty_value(problem: SaddleProblem, u: np.ndarray) -> tuple[float, DualState]:
    # Maximizing the regularized Lagrangian over nonnegative duals in closed
    # form turns the constraints into one-sided quadratic penalties with
    # weight 1/eps; the saddle's primal part minimizes this smooth strongly
    # convex function F over the operating regions. Returns F(u) and the
    # maximizing duals, all a line search needs of a trial point.
    prm, inv, pav = problem.params, problem.inverters, problem.p_av
    duals = _closed_form_duals(problem, u)
    val = (
        float(np.sum(inv.c_p * (pav - u[:, 0]) ** 2 + inv.c_q * u[:, 1] ** 2))
        + 0.5 * prm.nu * float(np.sum(u * u))
        + 0.5 * prm.epsilon * (float(duals.gamma @ duals.gamma) + float(duals.mu @ duals.mu))
    )
    return val, duals


def _closed_form_duals(problem: SaddleProblem, u: np.ndarray) -> DualState:
    # the maximizing duals: each limit's violation by the surrogate over eps
    w = problem.coupling.predict(u)
    eps = problem.params.epsilon
    return DualState(
        np.maximum(problem.v_min - w, 0.0) / eps, np.maximum(w - problem.v_max, 0.0) / eps
    )


class _NewtonPoint(NamedTuple):
    # an iterate of the oracle with what the next Newton step needs
    u: np.ndarray
    f: float  # penalty objective
    duals: DualState  # its maximizing duals
    grad: np.ndarray
    jac: np.ndarray  # projection Jacobians at u - grad/lip, one row per DER
    r: np.ndarray  # scaled natural residual u - proj(u - grad/lip)
    res: float  # unit-step natural residual ||u - proj(u - grad)||, the stop test


def _newton_point(
    problem: SaddleProblem, u: np.ndarray, f: float, duals: DualState, lip: float
) -> _NewtonPoint:
    # the rest of an accepted point, from F(u) and its duals (_penalty_value):
    # grad F is the Lagrangian's gradient at those duals
    inv, pav = problem.inverters, problem.p_av
    grad = grad_primal(u, duals, inv, pav, problem.coupling, problem.params)
    w = u - grad / lip
    v, jac = inv.project_jacobian(w, pav)
    res = float(np.linalg.norm(u - inv.project(u - grad, pav)))
    # r = u - v summed as grad/lip + (w - v): as u - v, free DERs cancel to
    # |u| eps_mach, lip times that at the scale of the stop test
    return _NewtonPoint(u, f, duals, grad, jac, grad / lip + (w - v), res)


_ARMIJO = 1e-4  # sufficient-decrease fraction of the line search, at most 1/2
_MIN_STEP = 2.0**-20  # shortest Newton step tried before the projected-gradient point
_STALL_RES = 1e-9  # residual below which a step that gains nothing means rounding


def solve_saddle_oracle(
    problem: SaddleProblem,
    tol: float = 1e-11,
    max_iter: int = 500_000,
    u0: np.ndarray | None = None,
) -> SaddleSolution:
    """Solve the static regularized saddle-point problem to high accuracy.

    Maximizing over the duals in closed form leaves a strongly convex,
    piecewise quadratic penalty objective F over the operating regions. A
    projected (semismooth) Newton method finds its minimizer as the root of
    the scaled natural residual ``u - proj(u - grad F(u) / L)``, where ``L =
    max(2 c + nu) + ||A||_F^2 / eps`` bounds the Lipschitz constant of
    grad F (A the stacked sensitivities). Each step uses the generalized
    Hessian ``2 diag(c) + nu I + (1/eps) A_act^T A_act`` (rows of the
    violated limits) and the per-DER projection Jacobians. One backtracking
    line search on F runs from the projected Newton point to the
    projected-gradient point, which always decreases F enough. The stop
    test reads the unit-step residual ``||u - proj(u - grad F(u))||``,
    equal to :func:`saddle_residual` at the returned point; ``iterations``
    counts the Newton steps.

    The solve starts from the setpoints ``u0`` (n_der, 2), projected, by
    default full available power at unity power factor; a warm start needs
    no duals, since they follow from the setpoints in closed form. It stops
    once the residual is at most ``tol``, or, below 1e-9, when the accepted
    step fails to reduce it (the rounding floor). Raises ``ValueError``
    unless ``0 < tol < inf``, and :class:`OracleError` if ``max_iter``
    steps are exhausted or the final residual is non-finite or above
    ``max(tol, 1e-6)``.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"oracle tolerance must be positive and finite, got {tol!r}")
    inv, pav, prm = problem.inverters, problem.p_av, problem.params
    n = problem.coupling.n_der
    u0 = np.column_stack([pav, np.zeros(n)]) if u0 is None else np.asarray(u0, float)

    # sensitivities and curvature in the coupling's order: P_0..P_{n-1}, then Q;
    # the Frobenius norm of a bounds its spectral norm in lip, with no eigensolve
    a = problem.coupling.rb
    h_cost = np.concatenate([2.0 * inv.c_p + prm.nu, 2.0 * inv.c_q + prm.nu])
    lip = h_cost.max() + float(np.sum(a * a)) / prm.epsilon

    der = np.arange(n)
    x = inv.project(u0, pav)
    cur = _newton_point(problem, x, *_penalty_value(problem, x), lip)
    its = 0
    while cur.res > tol:
        if its == max_iter:
            raise OracleError(f"saddle oracle: no convergence in {max_iter} iterations")
        # Newton step on r(u) = 0 with r' = I - D (I - H / lip), D the
        # projection Jacobians (DER k's 2 x 2 block at rows and columns k,
        # n + k) and H the generalized Hessian
        d_proj = np.zeros((2, n, 2, n))
        d_proj[:, der, :, der] = cur.jac.reshape(n, 2, 2)
        d_proj = d_proj.reshape(2 * n, 2 * n)
        a_act = a[cur.duals.mu != cur.duals.gamma]  # rows of the violated limits
        hess = np.diag(h_cost) + (a_act.T @ a_act) / prm.epsilon
        jac_r = np.eye(2 * n) - d_proj + d_proj @ hess / lip
        step = np.linalg.solve(jac_r, -cur.r.T.ravel()).reshape(2, n).T
        # backtracking on F along x(t) = proj(u - r + t (step + r)), t = 1,
        # 1/2, ..., _MIN_STEP, 0; a trial point costs only F and its duals
        t = 1.0
        while True:
            x = inv.project(cur.u - cur.r + t * (step + cur.r), pav)
            f, duals = _penalty_value(problem, x)
            # t = 0 is proj(u - grad/lip), accepted untested: 1/lip <=
            # 1/Lip(grad F), so the descent lemma and the projection give
            # F(x) <= F(u) + grad.(x - u)/2, enough for any _ARMIJO <= 1/2
            decrease = float(np.sum(cur.grad * (x - cur.u)))
            if t == 0.0 or (decrease < 0.0 and f <= cur.f + _ARMIJO * decrease):
                break
            t = 0.5 * t if t > _MIN_STEP else 0.0
        new = _newton_point(problem, x, f, duals, lip)
        if cur.res <= _STALL_RES and new.res >= cur.res:
            break  # rounding floor: the accepted step gains nothing
        its += 1
        cur = new

    u, duals = cur.u, cur.duals
    res = saddle_residual(problem, u, duals.gamma, duals.mu)
    if not math.isfinite(res) or res > max(tol, 1e-6):
        raise OracleError(f"saddle oracle: stationarity residual {res:.3e} out of tolerance")
    return SaddleSolution(u=u, gamma=duals.gamma, mu=duals.mu, iterations=its, residual=res)


def saddle_residual(
    problem: SaddleProblem, u: np.ndarray, gamma: np.ndarray, mu: np.ndarray
) -> float:
    """Fixed-point residual ``||z - T_1(z)||_2`` of the step map at unit step.

    ``T_1`` is :func:`primal_step` together with :func:`dual_step_feedback`
    fed the surrogate's prediction, both at ``alpha = 1``. Zero exactly at
    the saddle point, independent of the step size used by any solver.
    """
    duals = DualState(gamma, mu)
    unit = replace(problem.params, alpha=1.0)
    u2 = primal_step(u, duals, problem.inverters, problem.p_av, problem.coupling, unit)
    d2 = dual_step_feedback(
        duals, problem.coupling.predict(u), problem.v_min, problem.v_max, unit
    )
    return float(np.linalg.norm(pack_state(u - u2, gamma - d2.gamma, mu - d2.mu)))
