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
    "VoltageCoupling",
    "StepMap",
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

    and DER i costs ``c_p[i] (p_av - P)^2 + c_q[i] Q^2`` (:meth:`cost`).
    Availability varies by step, so it is passed to each call. ``m2c``
    holds ``[-2 c_p, -2 c_q]`` per DER, the cost gradient's slopes, and
    ``s2`` the squared ratings. :meth:`headroom` is the one chord formula,
    read by the droop and the ``reactive_only`` and ``joint`` projections.
    """

    kind: str
    s_rating: np.ndarray
    c_p: np.ndarray
    c_q: np.ndarray
    m2c: np.ndarray = field(init=False, repr=False, compare=False)
    s2: np.ndarray = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "m2c", np.column_stack([-2.0 * self.c_p, -2.0 * self.c_q]))
        object.__setattr__(self, "s2", self.s_rating * self.s_rating)

    @property
    def n_der(self) -> int:
        return self.s_rating.shape[0]

    def cost(self, u: np.ndarray, p_av: np.ndarray) -> np.ndarray:
        """Per-DER cost ``c_p (p_av - P)^2 + c_q Q^2`` of setpoints ``u`` (..., n_der, 2)."""
        # float_power squares through pow(); ``**`` would square by a product,
        # which can differ in the last place and move the recorded costs
        return self.c_p * np.float_power(p_av - u[..., 0], 2) + self.c_q * u[..., 1] * u[..., 1]

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
        )
        return np.minimum(p_av, self.s_rating)

    def headroom(self, p_av: np.ndarray) -> np.ndarray:
        """Largest |Q| at full active output ``p_av``: the chord ``sqrt(S^2 - p_av^2)``."""
        return np.sqrt(np.maximum(self.s2 - p_av * p_av, 0.0))

    def _project(
        self, u: np.ndarray, p_av: np.ndarray, with_jacobian: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        # one case analysis for both projections, at availability p_av; the
        # chord (headroom) and the Jacobian rows are formed only where read
        p, q = u[:, 0], u[:, 1]
        if self.kind == "real_only":
            out = np.empty(u.shape)
            out[:, 0] = np.where(p <= 0.0, 0.0, np.minimum(p, p_av))
            out[:, 1] = 0.0
            if not with_jacobian:
                return out, None
            jac = np.zeros((len(u), 4))
            jac[:, 0] = (p > 0.0) & (p < p_av)
            return out, jac
        if self.kind == "reactive_only":
            cap = self.headroom(p_av)
            out = np.empty(u.shape)
            out[:, 0] = p_av
            out[:, 1] = _clamp(q, cap)
            if not with_jacobian:
                return out, None
            jac = np.zeros((len(u), 4))
            jac[:, 3] = (q < cap) & (q > -cap)  # Q free of the clamp
            return out, jac
        # joint: the strip 0 <= P <= p_av cut by the rating disk. A point
        # right of P = 0 keeps its radial scaling by s / max(r, s), exactly 1
        # inside the disk, unless that lands beyond the chord P = p_av; every
        # other point has Q clamped on its face: P = 0 left of the strip, the
        # chord beyond it. In a closed loop most steps keep every point.
        s = self.s_rating
        r = np.hypot(p, q)
        # never s / r for r <= s, where a subnormal r would overflow
        scale = s / np.maximum(r, s)
        out = u * scale[:, None]
        keep = (p > 0.0) & (out[:, 0] <= p_av)  # a NaN fails both tests
        kept = np.logical_and.reduce(keep)
        if kept and not with_jacobian:
            return out, None
        left = p <= 0.0
        face = np.where(left, s, self.headroom(p_av))
        if not kept:
            out[:, 0] = np.where(keep, out[:, 0], np.where(left, 0.0, p_av))
            out[:, 1] = np.where(keep, out[:, 1], _clamp(q, face))
        if not with_jacobian:
            return out, None
        # on the arc the Jacobian (s/r)(I - n n^T) keeps the tangential
        # direction, shrunk by the radial scale; n is formed only there, so a
        # left point at r = 0 divides nothing
        arc = keep & (r > s)
        member = keep & ~arc
        n_p = np.divide(p, r, out=np.zeros_like(r), where=arc)
        n_q = np.divide(q, r, out=np.zeros_like(r), where=arc)
        jac = np.empty((len(u), 4))
        jac[:, 0] = np.where(arc, scale * n_q * n_q, member)
        jac[:, 1] = jac[:, 2] = np.where(arc, -scale * n_p * n_q, 0.0)
        jac[:, 3] = np.where(arc, scale * n_p * n_p, member | ((q < face) & (q > -face)))
        return out, jac


def _clamp(q: np.ndarray, cap: np.ndarray) -> np.ndarray:
    # Q clamped to [-cap, cap]; q = -0.0 at cap = 0 clamps to +0.0, which
    # np.clip would leave as -0.0
    return np.where(q >= cap, cap, np.maximum(q, -cap))


@dataclass(frozen=True)
class VoltageCoupling:
    """The linear surrogate of the metered voltage magnitudes.

    ``rb`` is the stacked sensitivity block ``[r b]`` (M x 2 n_der): ``r``
    and ``b``, views of its two halves, hold the active/reactive sensitivity
    columns of the DER buses. ``rows``, the one layout the steps, the
    gradient, the prediction and the oracle read, is ``[r b]^T`` (2 n_der x
    M, C order) in the setpoints' order: DER i's P and Q rows at 2i and 2i
    + 1. The prediction for setpoints (P, Q) is ``r P + b Q + c``, the
    offset ``c`` a step's metered magnitudes at its loads with every DER
    off (see :func:`~opftrack.powerflow.constraint_offsets`).
    """

    rb: np.ndarray
    r: np.ndarray = field(init=False, repr=False, compare=False)
    b: np.ndarray = field(init=False, repr=False, compare=False)
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rb = np.asarray(self.rb, dtype=float)
        if rb.ndim != 2 or rb.shape[1] % 2:
            raise ValueError("inconsistent coupling shapes")
        m, n = rb.shape[0], rb.shape[1] // 2
        rows = np.empty((n, 2, m))  # C order: its products round as one layout
        rows[:, 0], rows[:, 1] = rb[:, :n].T, rb[:, n:].T
        for name, value in (("rb", rb), ("r", rb[:, :n]), ("b", rb[:, n:])):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "rows", rows.reshape(2 * n, m))

    @property
    def n_der(self) -> int:
        return self.r.shape[1]

    def predict(self, u: np.ndarray, c: np.ndarray) -> np.ndarray:
        """``r P + b Q + c`` for setpoints ``u`` (..., n_der, 2) and offsets ``c`` (..., M)."""
        return u.reshape(u.shape[:-2] + (2 * self.n_der,)) @ self.rows + c


# sign of y in the rows [gamma; mu] of the dual step: v_min - y and y - v_max
_SIGMA = np.array([[-1.0], [1.0]])


@dataclass(frozen=True)
class StepMap:
    """The projected primal-dual step map of a run, with one row per step.

    Built once from what a run holds fixed (``inverters``, ``coupling``,
    ``params``) and its per-step inputs: the availability ``p_av`` (K x
    n_der) as the regions use it (:meth:`Inverters.available`) and the
    voltage band ``v_min`` < ``v_max`` (K,). Per step it stores only these
    and the folded rows ``c0`` and ``aband`` below: the points ``(p_av, 0)``
    and the limits ``[v_min; -v_max]`` are formed where read unfolded, and
    the projection forms the Q caps where it clamps.

    It also holds the steps with the stepsize ``alpha`` folded in, formed
    once for all its rows. The primal step ``u - alpha grad_primal`` is
    ``c1 u + c0[k] + rows (apm [gamma; mu])``, with ``c1 = 1 - alpha nu +
    alpha [-2 c_p, -2 c_q]`` (n_der x 2), ``c0[k] = -alpha [-2 c_p, -2
    c_q] (p_av, 0)`` (K x n_der x 2), ``apm = [alpha, -alpha]``, whose
    product with the duals is ``alpha (gamma - mu)``, and the coupling's
    one alpha-free ``rows`` (:class:`VoltageCoupling`).
    The dual step is ``decay d + (aband[k] + asigma y)``, with ``decay =
    1 - alpha eps``, ``aband[k] = alpha [v_min; -v_max]``, ``asigma = alpha [-1; 1]``.
    """

    inverters: Inverters
    coupling: VoltageCoupling
    params: ControllerParams
    p_av: np.ndarray
    v_min: np.ndarray
    v_max: np.ndarray
    c1: np.ndarray = field(init=False, repr=False, compare=False)
    c0: np.ndarray = field(init=False, repr=False, compare=False)
    apm: np.ndarray = field(init=False, repr=False, compare=False)
    decay: float = field(init=False, repr=False, compare=False)
    aband: np.ndarray = field(init=False, repr=False, compare=False)
    asigma: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p_av = np.asarray(self.p_av, dtype=float)
        v_min = np.asarray(self.v_min, dtype=float)
        v_max = np.asarray(self.v_max, dtype=float)
        n = self.inverters.n_der
        if self.coupling.n_der != n or p_av.ndim != 2 or p_av.shape[1] != n:
            raise ValueError("inverters, coupling and p_av must have one entry per DER")
        if not v_min.shape == v_max.shape == (len(p_av),):
            raise ValueError("v_min and v_max need one entry per p_av row")
        if not np.all(v_min < v_max):
            raise ValueError("v_min must be below v_max")
        target = np.zeros(p_av.shape + (2,))  # the points (p_av, 0)
        target[:, :, 0] = p_av
        band = np.stack([v_min, -v_max], axis=1)[:, :, None]
        a, slope = self.params.alpha, self.params.alpha * self.inverters.m2c
        for name, value in (
            ("p_av", p_av), ("v_min", v_min), ("v_max", v_max),
            ("c1", (1.0 - a * self.params.nu) + slope), ("c0", -slope * target),
            ("apm", np.array([a, -a])),
            ("decay", 1.0 - a * self.params.epsilon), ("aband", a * band),
            ("asigma", a * _SIGMA),
        ):
            object.__setattr__(self, name, value)

    def project(self, k: int, u: np.ndarray) -> np.ndarray:
        """Euclidean projection of setpoints ``u`` (n_der, 2) onto step ``k``'s regions."""
        return self.inverters._project(u, self.p_av[k], with_jacobian=False)[0]

    def project_jacobian(self, k: int, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`project`, plus the generalized (Clarke) Jacobian at ``u``.

        The Jacobian has one row (dP/dp, dP/dq, dQ/dp, dQ/dq) per DER.
        Boundaries are resolved with ``<=``, so every point falls in exactly
        one case and neighbouring cases agree on their common boundary.
        """
        return self.inverters._project(u, self.p_av[k], with_jacobian=True)


def grad_primal(u: np.ndarray, duals: np.ndarray, step_map: StepMap, k: int) -> np.ndarray:
    """Gradient of step ``k``'s regularized Lagrangian in the setpoints, one row per DER.

    ``duals`` is ``[gamma; mu]`` (2 x M), the multipliers of the lower and
    upper voltage limits, one pair per metered bus.

    Row i is ``(-2 c_p (P_av - P_i) + r_i^T (mu - gamma) + nu P_i,
    2 c_q Q_i + b_i^T (mu - gamma) + nu Q_i)``, both columns formed at once
    as ``[-2 c_p, -2 c_q] ((P_av, 0) - u_i) + [r_i, b_i]^T (mu - gamma) +
    nu u_i``: one product with the coupling's ``rows``.
    """
    back = step_map.coupling.rows.dot(duals[1] - duals[0]).reshape(u.shape)
    target = np.column_stack([step_map.p_av[k], np.zeros(len(u))])
    return step_map.inverters.m2c * (target - u) + back + step_map.params.nu * u


def dual_step_feedback(
    duals: np.ndarray, y: np.ndarray, step_map: StepMap, k: int
) -> np.ndarray:
    """Projected dual ascent at step ``k``, driven by metered magnitudes ``y``.

    Both limits in one update of ``[gamma; mu]``: ``max(0, d + alpha
    (([v_min; -v_max] + [-y; y]) - eps d))``, formed as ``max(0, (1 -
    alpha eps) d + (alpha [v_min; -v_max] + alpha [-y; y]))`` from the
    step map's folded rows. Fed the model prediction
    ``coupling.predict(u, c)`` in place of a measurement, it is the
    model-based dual step.
    """
    return np.maximum(0.0, step_map.decay * duals + (step_map.aband[k] + step_map.asigma * y))


def primal_step(u: np.ndarray, duals: np.ndarray, step_map: StepMap, k: int) -> np.ndarray:
    """Projected gradient step on the setpoints at step ``k``, independently per DER.

    ``project(u - alpha grad_primal(u, duals, step_map, k))``, formed as
    ``project(c1 u + c0[k] + rows (apm [gamma; mu]))`` from the step map's
    folded rows: one product with the coupling's rows, of a 2-vector product
    that is exactly ``gamma - mu`` at ``alpha = 1``.
    """
    back = step_map.coupling.rows.dot(step_map.apm.dot(duals)).reshape(u.shape)
    # step_map.project(k, .), with one call fewer on the closed loop's path
    return step_map.inverters._project(
        step_map.c1 * u + step_map.c0[k] + back, step_map.p_av[k], False
    )[0]


@dataclass(frozen=True)
class ConvergenceConstants:
    """Constants of the contraction estimate for the regularized step map.

    ``rho_alpha`` is the certified per-step contraction factor at the
    configured stepsize; it is below one exactly when
    ``0 < alpha < alpha_max``. A constant whose formula overflows a float
    is ``inf``.
    """

    L: float
    G: float
    eta: float
    L_reg: float
    rho_alpha: float
    alpha_max: float

    def rho(self, alpha: float) -> float:
        try:
            rho2 = 1.0 - 2.0 * self.eta * alpha + alpha**2 * self.L_reg**2
        except OverflowError:
            return math.inf
        # NaN is -inf + inf: both terms overflowed
        return math.inf if math.isnan(rho2) else math.sqrt(max(0.0, rho2))


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
    try:
        L_reg = math.sqrt((L + params.nu + 2.0 * G) ** 2 + 2.0 * (G + params.epsilon) ** 2)
    except OverflowError:
        L_reg = math.inf
    # rho_alpha is rho(alpha), from the one formula in ConvergenceConstants.rho
    consts = ConvergenceConstants(L, G, eta, L_reg, math.nan, 2.0 * eta / L_reg**2)
    return replace(consts, rho_alpha=consts.rho(params.alpha))


# ---------------------------------------------------------------------------
# static saddle-point problems and their high-accuracy solution


@dataclass(frozen=True)
class SaddleProblem:
    """One time-frozen instance of the regularized saddle-point problem.

    Row ``k`` of ``step_map``, a unit-step map ``T_1`` (a :class:`StepMap`
    at ``alpha = 1``), holds the step's availability and voltage
    band; the oracle and :func:`saddle_residual` step and project with it.
    ``c`` (M,) is the step's offset, the surrogate's metered magnitudes at
    its loads with every DER off, so the step predicts ``r P + b Q + c``.
    """

    step_map: StepMap
    k: int
    c: np.ndarray


@dataclass(frozen=True)
class SaddleSolution:
    """The oracle's saddle point: setpoints ``u`` (n_der, 2), ``duals`` [gamma; mu] (2, M)."""

    u: np.ndarray
    duals: np.ndarray
    iterations: int
    residual: float


def pack_state(u: np.ndarray, duals: np.ndarray) -> np.ndarray:
    """Flatten a primal-dual point into one vector: row-major setpoints, then gamma, then mu."""
    return np.concatenate([np.asarray(u, float).ravel(), np.asarray(duals, float).ravel()])


def _penalty_value(problem: SaddleProblem, u: np.ndarray) -> tuple[float, np.ndarray]:
    # Maximizing the regularized Lagrangian over nonnegative duals in closed
    # form turns the constraints into one-sided quadratic penalties with
    # weight 1/eps; the saddle's primal part minimizes this smooth strongly
    # convex function F over the operating regions. Returns F(u) and the
    # maximizing duals, all a line search needs of a trial point: each
    # limit's violation by the surrogate over eps, [v_min - w; w - v_max]
    # as in the dual step.
    steps, k = problem.step_map, problem.k
    prm = steps.params
    w = steps.coupling.predict(u, problem.c)
    band = np.array([[steps.v_min[k]], [-steps.v_max[k]]])
    duals = np.maximum(band + _SIGMA * w, 0.0) / prm.epsilon
    val = (
        float(np.sum(steps.inverters.cost(u, steps.p_av[k])))
        + 0.5 * prm.nu * float(np.sum(u * u))
        + 0.5 * prm.epsilon * (float(duals[0] @ duals[0]) + float(duals[1] @ duals[1]))
    )
    return val, duals


class _NewtonPoint(NamedTuple):
    # an iterate of the oracle with what the next Newton step needs
    u: np.ndarray
    f: float  # penalty objective
    duals: np.ndarray  # its maximizing duals [gamma; mu]
    grad: np.ndarray
    jac: np.ndarray  # projection Jacobians at u - grad/lip, one row per DER
    r: np.ndarray  # scaled natural residual u - proj(u - grad/lip)
    res: float  # unit-step natural residual ||u - proj(u - grad)||, the stop test


def _newton_point(
    problem: SaddleProblem, u: np.ndarray, f: float, duals: np.ndarray, lip: float
) -> _NewtonPoint:
    # the rest of an accepted point, from F(u) and its duals (_penalty_value):
    # grad F is the Lagrangian's gradient at those duals
    steps, k = problem.step_map, problem.k
    grad = grad_primal(u, duals, steps, k)
    w = u - grad / lip
    v, jac = steps.project_jacobian(k, w)
    res = float(np.linalg.norm(u - steps.project(k, u - grad)))
    # r = u - v summed as grad/lip + (w - v): as u - v, free DERs cancel to
    # |u| eps_mach, lip times that at the scale of the stop test
    return _NewtonPoint(u, f, duals, grad, jac, grad / lip + (w - v), res)


_ARMIJO = 1e-4  # sufficient-decrease fraction of the line search, at most 1/2
_MIN_STEP = 2.0**-20  # shortest Newton step tried before the projected-gradient point
_STALL_RES = 1e-9  # residual below which a step that gains nothing means rounding
_MAX_ITER = 500_000  # Newton steps before the oracle gives up


def solve_saddle_oracle(
    problem: SaddleProblem,
    tol: float = 1e-11,
    u0: np.ndarray | None = None,
) -> SaddleSolution:
    """Solve the static regularized saddle-point problem to high accuracy.

    Maximizing over the duals in closed form leaves a strongly convex,
    piecewise quadratic penalty objective F over the operating regions. A
    projected (semismooth) Newton method finds its minimizer as the root of
    the scaled natural residual ``u - proj(u - grad F(u) / L)``, where ``L =
    max(2 c + nu) + ||A||_F^2 / eps`` bounds the Lipschitz constant of
    grad F (A the coupling's ``rows``, the setpoints' order the steps
    read). Each step uses the generalized Hessian ``2 diag(c) + nu I +
    (1/eps) A_act A_act^T`` (A's columns of the violated limits) and the
    per-DER projection Jacobians, all in that order. One backtracking
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
    unless ``0 < tol < inf``, and :class:`OracleError` if ``_MAX_ITER``
    steps are exhausted or the final residual is non-finite or above
    ``max(tol, 1e-6)``.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"oracle tolerance must be positive and finite, got {tol!r}")
    steps, k = problem.step_map, problem.k
    inv, prm = steps.inverters, steps.params
    n = inv.n_der
    u0 = np.column_stack([steps.p_av[k], np.zeros(n)]) if u0 is None else np.asarray(u0, float)

    # sensitivities and curvature in the setpoints' order; the Frobenius norm
    # of a bounds its spectral norm in lip, with no eigensolve
    a = steps.coupling.rows
    h_cost = (prm.nu - inv.m2c).ravel()
    lip = h_cost.max() + float(np.sum(a * a)) / prm.epsilon

    x = steps.project(k, u0)
    cur = _newton_point(problem, x, *_penalty_value(problem, x), lip)
    its = 0
    while cur.res > tol:
        if its == _MAX_ITER:
            raise OracleError(f"saddle oracle: no convergence in {_MAX_ITER} iterations")
        # Newton step on r(u) = 0 with r' = I - D (I - H / lip), D the
        # projection Jacobians (DER i's 2 x 2 block on the diagonal, at rows
        # and columns 2i, 2i + 1) and H the generalized Hessian
        d_proj = (np.eye(n)[:, None, :, None] * cur.jac.reshape(n, 2, 1, 2)).reshape(2 * n, 2 * n)
        a_act = a[:, cur.duals[1] != cur.duals[0]]  # columns of the violated limits
        hess = np.diag(h_cost) + (a_act @ a_act.T) / prm.epsilon
        jac_r = np.eye(2 * n) - d_proj + d_proj @ hess / lip
        step = np.linalg.solve(jac_r, -cur.r.ravel()).reshape(n, 2)
        # backtracking on F along x(t) = proj(u - r + t (step + r)), t = 1,
        # 1/2, ..., _MIN_STEP, 0; a trial point costs only F and its duals
        t = 1.0
        while True:
            x = steps.project(k, cur.u - cur.r + t * (step + cur.r))
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

    res = saddle_residual(problem, cur.u, cur.duals)
    if not math.isfinite(res) or res > max(tol, 1e-6):
        raise OracleError(f"saddle oracle: stationarity residual {res:.3e} out of tolerance")
    return SaddleSolution(u=cur.u, duals=cur.duals, iterations=its, residual=res)


def saddle_residual(problem: SaddleProblem, u: np.ndarray, duals: np.ndarray) -> float:
    """Fixed-point residual ``||z - T_1(z)||_2`` of the step map at unit step.

    ``T_1`` is :func:`primal_step` together with :func:`dual_step_feedback`
    fed the surrogate's prediction, both on row ``k`` of the problem's
    unit-step map (``alpha = 1``): the closed loop's step code. Zero exactly
    at the saddle point, independent of the step size used by any solver.
    ``duals`` is ``[gamma; mu]`` (2, M); raises ``ValueError`` for a
    negative dual or any other shape.
    """
    steps, k = problem.step_map, problem.k
    duals = np.asarray(duals, dtype=float)
    if duals.min(initial=0.0) < 0.0:
        raise ValueError("duals must be nonnegative")
    if duals.shape != (2, steps.coupling.rb.shape[0]):
        raise ValueError(f"duals must be [gamma; mu] of shape (2, M), got {duals.shape}")
    u2 = primal_step(u, duals, steps, k)
    d2 = dual_step_feedback(duals, steps.coupling.predict(u, problem.c), steps, k)
    return float(np.linalg.norm(pack_state(u - u2, duals - d2)))
