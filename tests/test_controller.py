import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opftrack import networks
from opftrack.controller import (
    ControllerParams,
    CostParams,
    DualState,
    OperatingRegion,
    OracleError,
    SaddleProblem,
    VoltageCoupling,
    _project_pair,
    convergence_constants,
    default_start,
    dual_step_feedback,
    dual_step_model,
    eval_constraints,
    grad_primal,
    pack_state,
    primal_step,
    project_region,
    saddle_residual,
    solve_saddle_oracle,
)
from opftrack.feeder import build_admittance
from opftrack.powerflow import build_linear_model

JOINT = OperatingRegion("joint", 1.0, 0.8)


def grid_distance(p, q, region, h):
    """Distance from (p, q) to the nearest feasible point on an h-grid."""
    s = region.s_rating
    best = math.inf
    for gp in np.arange(-0.05, min(region.p_available, s) + h, h):
        for gq in np.arange(-s - h, s + h, h):
            if region.contains(float(gp), float(gq), tol=1e-12):
                best = min(best, math.hypot(gp - p, gq - q))
    return best


@pytest.mark.parametrize(
    "point, expected",
    [
        ((0.5, -0.3), (0.5, -0.3)),       # interior
        ((-0.2, 0.4), (0.0, 0.4)),        # left face
        ((-1.0, -2.0), (0.0, -1.0)),      # left corner, q clamped to the disk
        ((0.95, 0.1), (0.8, 0.1)),        # inside the disk, beyond the chord
        ((1.2, 0.9), (0.8, 0.6)),         # outside, radially onto the arc end
        ((1.5, 0.3), (0.8, 0.3)),         # outside, beyond the arc: chord face
        ((1.5, 0.9), (0.8, 0.6)),         # outside, beyond the arc: chord corner
    ],
)
def test_joint_projection_hand_cases(point, expected):
    p, q = project_region(point, JOINT)
    assert p == pytest.approx(expected[0], abs=1e-12)
    assert q == pytest.approx(expected[1], abs=1e-12)
    assert JOINT.contains(p, q)


def test_joint_projection_matches_grid_oracle():
    h = 0.004
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(-0.5, 1.6, 12), rng.uniform(-1.5, 1.5, 12)])
    for p, q in pts:
        p_out, q_out = project_region((p, q), JOINT)
        d_closed = math.hypot(p_out - p, q_out - q)
        d_grid = grid_distance(p, q, JOINT, h)
        # the grid point is feasible, so d_closed <= d_grid; the true optimum
        # is within one grid diagonal of some grid point
        assert d_closed <= d_grid + 1e-12
        assert d_grid <= d_closed + h * math.sqrt(2.0)


def test_real_only_projection():
    reg = OperatingRegion("real_only", 1.0, 0.7)
    assert project_region((0.5, 0.3), reg) == (0.5, 0.0)
    assert project_region((-1.0, 0.0), reg) == (0.0, 0.0)
    assert project_region((2.0, -1.0), reg) == (0.7, 0.0)


def test_reactive_only_projection():
    reg = OperatingRegion("reactive_only", 1.0, 0.8)
    cap = math.sqrt(1.0 - 0.64)
    assert project_region((0.2, 0.1), reg) == (0.8, 0.1)
    _, q = project_region((0.8, -2.0), reg)
    assert q == pytest.approx(-cap, abs=1e-12)
    assert reg.q_headroom == pytest.approx(cap)


def test_projection_nonexpansive_and_idempotent():
    rng = np.random.default_rng(7)
    for kind in ("joint", "real_only", "reactive_only"):
        reg = OperatingRegion(kind, 1.0, 0.8)
        for _ in range(50):
            x = rng.uniform(-2, 2, 2)
            y = rng.uniform(-2, 2, 2)
            px = project_region(tuple(x), reg)
            py = project_region(tuple(y), reg)
            assert math.dist(px, py) <= np.linalg.norm(x - y) + 1e-12
            assert project_region(px, reg) == pytest.approx(px, abs=1e-12)


def test_region_validation():
    with pytest.raises(ValueError, match="unknown region kind"):
        OperatingRegion("boxy", 1.0, 0.5)
    with pytest.raises(ValueError):
        OperatingRegion("joint", 0.0, 0.5)
    with pytest.raises(ValueError):
        OperatingRegion("joint", 1.0, -0.1)
    with pytest.warns(UserWarning, match="clipped"):
        reg = OperatingRegion("joint", 1.0, 1.4)
    assert reg.p_available == 1.0
    assert not OperatingRegion("real_only", 1.0, 0.5).contains(0.2, 0.1)


def test_cost_params():
    c = CostParams(3.0, 1.0)
    assert c.value(0.4, -0.2, 1.0) == pytest.approx(3 * 0.36 + 0.04)
    gp, gq = c.grad(0.4, -0.2, 1.0)
    assert gp == pytest.approx(-2 * 3 * 0.6)
    assert gq == pytest.approx(2 * 1 * -0.2)
    assert c.lipschitz == 6.0
    with pytest.raises(ValueError):
        CostParams(-1.0, 1.0)


def test_controller_params_validation():
    with pytest.raises(ValueError):
        ControllerParams(alpha=0.0, nu=1e-3, epsilon=1e-4)
    with pytest.raises(ValueError):
        ControllerParams(alpha=0.1, nu=0.0, epsilon=1e-4)
    with pytest.raises(ValueError):
        ControllerParams(alpha=0.1, nu=1e-3, epsilon=1e-4, v_min=1.1, v_max=1.0)


def test_dual_state_validation():
    with pytest.raises(ValueError):
        DualState(np.asarray([-0.1]), np.asarray([0.0]))
    z = DualState.zeros(3)
    assert z.gamma.shape == (3,) and z.mu.shape == (3,)


def _tb1_setup(nu=1e-3, eps=1e-4, c=(3.0, 1.0), z=0.1 + 0.1j, pav=0.95, v_max=1.05):
    fd = networks.two_bus(z=z)
    lm = build_linear_model(build_admittance(fd), fd.slack_voltage)
    coupling = VoltageCoupling.from_linear_model(lm, fd)
    params = ControllerParams(alpha=0.2, nu=nu, epsilon=eps, v_max=v_max)
    problem = SaddleProblem(
        costs=(CostParams(*c),),
        regions=(OperatingRegion("joint", 1.0, pav),),
        coupling=coupling,
        p_load_der=np.zeros(1),
        q_load_der=np.zeros(1),
        params=params,
    )
    return problem


def test_constraint_functions_complementary_identity():
    prob = _tb1_setup()
    u = np.asarray([[0.3, -0.1]])
    g, g_bar = eval_constraints(prob.coupling, u, prob.p_load_der, prob.q_load_der, prob.params)
    assert np.allclose(g + g_bar, prob.params.v_min - prob.params.v_max, atol=1e-15)
    w = prob.coupling.predict(u, prob.p_load_der, prob.q_load_der)
    assert np.allclose(g, prob.params.v_min - w)


def _lagrangian_value(problem, u, duals):
    # assembled independently of grad_primal for the finite-difference check
    prm = problem.params
    pav = problem.p_av
    f = sum(
        c.value(u[i, 0], u[i, 1], pav[i]) for i, c in enumerate(problem.costs)
    )
    g, g_bar = eval_constraints(
        problem.coupling, u, problem.p_load_der, problem.q_load_der, prm
    )
    return (
        f
        + 0.5 * prm.nu * float(np.sum(u * u))
        + float(duals.gamma @ g + duals.mu @ g_bar)
        - 0.5 * prm.epsilon * (float(duals.gamma @ duals.gamma) + float(duals.mu @ duals.mu))
    )


def test_gradient_matches_finite_differences():
    fd = networks.feeder36()
    lm = build_linear_model(build_admittance(fd), fd.slack_voltage)
    coupling = VoltageCoupling.from_linear_model(lm, fd)
    params = ControllerParams(alpha=0.2, nu=1e-3, epsilon=1e-4)
    rng = np.random.default_rng(2)
    costs = tuple(CostParams(rng.uniform(0.5, 4), rng.uniform(0.2, 2)) for _ in range(18))
    problem = SaddleProblem(
        costs=costs,
        regions=tuple(OperatingRegion("joint", s, 0.8 * s) for s in fd.der_ratings),
        coupling=coupling,
        p_load_der=rng.uniform(0, 0.01, 18),
        q_load_der=rng.uniform(0, 0.004, 18),
        params=params,
    )
    u = np.column_stack([rng.uniform(0, 0.15, 18), rng.uniform(-0.1, 0.1, 18)])
    duals = DualState(rng.uniform(0, 2, 10), rng.uniform(0, 2, 10))
    grad = grad_primal(u, duals, costs, coupling, problem.p_av, params)
    h = 1e-6
    for i in (0, 7, 17):
        for j in (0, 1):
            up = u.copy()
            um = u.copy()
            up[i, j] += h
            um[i, j] -= h
            fd_ij = (
                _lagrangian_value(problem, up, duals)
                - _lagrangian_value(problem, um, duals)
            ) / (2 * h)
            assert grad[i, j] == pytest.approx(fd_ij, rel=1e-6, abs=1e-9)


def test_dual_steps_hand_values_and_clamping():
    params = ControllerParams(alpha=0.5, nu=1e-3, epsilon=0.01, v_min=0.95, v_max=1.05)
    duals = DualState(np.asarray([0.3, 0.0]), np.asarray([0.1, 0.4]))
    y = np.asarray([0.94, 1.2])
    out = dual_step_feedback(duals, y, params)
    # gamma: [0.3 + 0.5*(0.95-0.94-0.003), 0 + 0.5*(0.95-1.2)] -> clamp
    assert out.gamma[0] == pytest.approx(0.3 + 0.5 * (0.01 - 0.003))
    assert out.gamma[1] == 0.0
    assert out.mu[0] == pytest.approx(max(0.0, 0.1 + 0.5 * (0.94 - 1.05 - 0.001)))
    assert out.mu[1] == pytest.approx(0.4 + 0.5 * (1.2 - 1.05 - 0.004))


def test_dual_routes_coincide_on_exact_measurements():
    prob = _tb1_setup()
    u = np.asarray([[0.5, -0.2]])
    duals = DualState(np.asarray([0.2]), np.asarray([1.1]))
    w = prob.coupling.predict(u, prob.p_load_der, prob.q_load_der)
    g, g_bar = eval_constraints(prob.coupling, u, prob.p_load_der, prob.q_load_der, prob.params)
    via_model = dual_step_model(duals, g, g_bar, prob.params)
    via_meas = dual_step_feedback(duals, w, prob.params)
    assert np.allclose(via_model.gamma, via_meas.gamma, atol=1e-15)
    assert np.allclose(via_model.mu, via_meas.mu, atol=1e-15)


def test_primal_step_fixed_point_without_binding_constraints():
    prob = _tb1_setup(v_max=1.5)  # never binds
    c_p, nu, pav = 3.0, 1e-3, 0.95
    u_star = np.asarray([[2 * c_p * pav / (2 * c_p + nu), 0.0]])
    stepped = primal_step(
        u_star, DualState.zeros(1), prob.costs, prob.regions, prob.coupling, prob.params
    )
    assert np.allclose(stepped, u_star, atol=1e-14)
    far = np.asarray([[0.0, 0.5]])
    once = primal_step(far, DualState.zeros(1), prob.costs, prob.regions, prob.coupling, prob.params)
    assert np.linalg.norm(once - u_star) < np.linalg.norm(far - u_star)


def test_convergence_constants_expressions():
    prob = _tb1_setup(z=0.01 + 0.01j, c=(3.0, 1.0), nu=1e-3, eps=1e-4)
    consts = convergence_constants(prob.costs, prob.coupling, prob.params)
    G = math.hypot(0.01, 0.01)
    L = 6.0
    eta = 1e-4
    L_reg = math.sqrt((L + 1e-3 + 2 * G) ** 2 + 2 * (G + 1e-4) ** 2)
    assert consts.L == L
    assert consts.G == pytest.approx(G, rel=1e-12)
    assert consts.eta == eta
    assert consts.L_reg == pytest.approx(L_reg, rel=1e-12)
    assert consts.alpha_max == pytest.approx(2 * eta / L_reg**2, rel=1e-12)
    # spot magnitudes for this instance
    assert consts.L_reg == pytest.approx(6.0293, rel=1e-4)
    assert consts.alpha_max == pytest.approx(5.5017e-6, rel=1e-4)
    # boundary identities of the contraction factor
    assert consts.rho(consts.alpha_max) == pytest.approx(1.0, abs=1e-12)
    a_best = eta / L_reg**2
    assert consts.rho(a_best) == pytest.approx(
        math.sqrt(1.0 - eta**2 / L_reg**2), rel=1e-12
    )
    assert consts.rho(a_best) < consts.rho(consts.alpha_max)
    assert consts.rho_alpha == pytest.approx(consts.rho(prob.params.alpha), rel=1e-12)


def test_error_free_iteration_contracts_at_certified_rate():
    # well-regularized instance: nu = eps = 0.1 gives a usable alpha_max
    prob = _tb1_setup(nu=0.1, eps=0.1, c=(0.5, 0.5))
    consts = convergence_constants(prob.costs, prob.coupling, prob.params)
    L_reg = math.sqrt((1.0 + 0.1 + 2 * consts.G) ** 2 + 2 * (consts.G + 0.1) ** 2)
    assert consts.L_reg == pytest.approx(L_reg, rel=1e-12)
    alpha = consts.eta / consts.L_reg**2
    assert alpha < consts.alpha_max
    rho = consts.rho(alpha)
    assert rho < 1.0

    from dataclasses import replace

    prm = replace(prob.params, alpha=alpha)
    star = solve_saddle_oracle(prob, tol=1e-12)
    z_star = pack_state(star.u, star.gamma, star.mu)
    u = np.asarray([[0.0, 0.0]])
    duals = DualState(np.asarray([0.5]), np.asarray([2.0]))
    dist = np.linalg.norm(pack_state(u, duals.gamma, duals.mu) - z_star)
    for _ in range(4000):
        g, g_bar = eval_constraints(prob.coupling, u, prob.p_load_der, prob.q_load_der, prm)
        u_new = primal_step(u, duals, prob.costs, prob.regions, prob.coupling, prm)
        duals = dual_step_model(duals, g, g_bar, prm)
        u = u_new
        new_dist = np.linalg.norm(pack_state(u, duals.gamma, duals.mu) - z_star)
        if new_dist <= 1e-10:
            break
        assert new_dist <= dist * (rho + 1e-6)
        dist = new_dist
    assert new_dist <= 1e-10


def test_saddle_oracle_binding_instance():
    prob = _tb1_setup()
    sol = solve_saddle_oracle(prob, tol=1e-11)
    assert sol.residual <= 1e-9
    # upper limit binds: the regularized optimum leaves an eps*mu violation
    w = prob.coupling.predict(sol.u, prob.p_load_der, prob.q_load_der)
    assert w[0] > 1.05
    assert sol.mu[0] == pytest.approx((w[0] - 1.05) / prob.params.epsilon, rel=1e-9)
    assert sol.gamma[0] == 0.0
    assert saddle_residual(prob, sol.u, sol.gamma, sol.mu) == pytest.approx(
        sol.residual, abs=1e-12
    )


def test_saddle_oracle_multi_start_agreement():
    prob = _tb1_setup()
    ref = solve_saddle_oracle(prob, tol=1e-11)
    rng = np.random.default_rng(3)
    for _ in range(3):
        u0 = np.column_stack([rng.uniform(0, 0.95, 1), rng.uniform(-0.3, 0.3, 1)])
        d0 = DualState(rng.uniform(0, 5, 1), rng.uniform(0, 5, 1))
        sol = solve_saddle_oracle(prob, tol=1e-11, z0=(u0, d0))
        assert np.allclose(sol.u, ref.u, atol=1e-8)
        assert np.allclose(sol.mu, ref.mu, atol=1e-8 / prob.params.epsilon * 1e-2)


def test_saddle_oracle_unconstrained_instance():
    prob = _tb1_setup(v_max=1.5)
    sol = solve_saddle_oracle(prob, tol=1e-12)
    c_p, nu, pav = 3.0, 1e-3, 0.95
    assert sol.u[0, 0] == pytest.approx(2 * c_p * pav / (2 * c_p + nu), abs=1e-9)
    assert sol.u[0, 1] == pytest.approx(0.0, abs=1e-9)
    assert sol.gamma[0] == 0.0 and sol.mu[0] == 0.0


def test_saddle_oracle_budget_exhaustion():
    prob = _tb1_setup()
    with pytest.raises(OracleError):
        solve_saddle_oracle(prob, tol=1e-13, max_iter=3)


def test_default_start_and_pack_state():
    prob = _tb1_setup()
    u0, d0 = default_start(prob)
    assert np.allclose(u0, [[0.95, 0.0]])
    assert np.all(d0.gamma == 0) and np.all(d0.mu == 0)
    z = pack_state(u0, np.asarray([1.0]), np.asarray([2.0]))
    assert z.shape == (4,)
    assert z[0] == 0.95 and z[2] == 1.0 and z[3] == 2.0


def test_coupling_slicing_and_validation():
    fd = networks.feeder36()
    lm = build_linear_model(build_admittance(fd), fd.slack_voltage)
    coup = VoltageCoupling.from_linear_model(lm, fd)
    assert coup.n_monitored == 10 and coup.n_der == 18
    mi, di = fd.monitored_indices(), fd.der_indices()
    R, B = lm.columns(np.arange(fd.n_nodes))
    assert coup.r[3, 5] == R[mi[3], di[5]]
    assert coup.b[7, 11] == B[mi[7], di[11]]
    assert np.allclose(coup.stacked(), np.hstack([coup.r, coup.b]))
    with pytest.raises(ValueError, match="inconsistent"):
        VoltageCoupling(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(5))
    with pytest.raises(ValueError, match="DER count"):
        SaddleProblem(
            costs=(CostParams(1, 1),),
            regions=(OperatingRegion("joint", 1.0, 0.5),),
            coupling=coup,
            p_load_der=np.zeros(18),
            q_load_der=np.zeros(18),
            params=ControllerParams(alpha=0.1, nu=1e-3, epsilon=1e-4),
        )


# ---------------------------------------------------------------------------
# property tests

coord = st.floats(-2.0, 2.0, allow_nan=False)
region_st = st.builds(
    lambda kind, s, frac: OperatingRegion(kind, s, frac * s),
    st.sampled_from(("joint", "real_only", "reactive_only")),
    st.floats(0.2, 2.0),
    st.floats(0.0, 1.0),
)


@settings(max_examples=200, deadline=None)
@given(region_st, coord, coord, coord, coord)
def test_projection_property_idempotent_and_nonexpansive(reg, p1, q1, p2, q2):
    a = project_region((p1, q1), reg)
    b = project_region((p2, q2), reg)
    assert reg.contains(*a, tol=1e-12)
    assert math.dist(project_region(a, reg), a) <= 1e-12
    assert math.dist(a, b) <= math.hypot(p1 - p2, q1 - q2) + 1e-12


def _kink_distance(p, q, reg):
    # distance to a superset of the points where some region's projection is
    # not differentiable: the lines P = 0, P = p_av, |Q| = S, |Q| = q_cap,
    # the rating circle, and the rays from the origin through the chord corners
    s, pav, cap = reg.s_rating, reg.p_available, reg.q_headroom
    return min(
        abs(p),
        abs(p - pav),
        abs(abs(q) - s),
        abs(abs(q) - cap),
        abs(math.hypot(p, q) - s),
        abs(p * cap - q * pav) / s,
        abs(p * cap + q * pav) / s,
    )


@settings(max_examples=300, deadline=None)
@given(region_st, coord, coord)
def test_projection_jacobian_matches_central_differences(reg, p, q):
    assume(_kink_distance(p, q, reg) >= 1e-6)
    _, _, jac = _project_pair(p, q, reg)
    h = 1e-7
    for col, (dp, dq) in enumerate(((h, 0.0), (0.0, h))):
        hi = _project_pair(p + dp, q + dq, reg)
        lo = _project_pair(p - dp, q - dq, reg)
        for row in range(2):
            fd = (hi[row] - lo[row]) / (2.0 * h)
            assert jac[2 * row + col] == pytest.approx(fd, abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 8), st.integers(0, 2**32 - 1))
def test_saddle_oracle_property_random_radial(n, seed):
    rng = np.random.default_rng(seed)
    fd = networks.random_radial(n, seed=int(rng.integers(0, 1000)))
    lm = build_linear_model(build_admittance(fd), fd.slack_voltage)
    coupling = VoltageCoupling.from_linear_model(lm, fd)
    g = coupling.n_der
    kinds = rng.choice(["joint", "joint", "real_only", "reactive_only"], g)
    prob = SaddleProblem(
        costs=tuple(CostParams(*rng.uniform(0.2, 3.0, 2)) for _ in range(g)),
        regions=tuple(
            OperatingRegion(str(kinds[i]), 1.0, float(rng.uniform(0.0, 1.0)))
            for i in range(g)
        ),
        coupling=coupling,
        p_load_der=rng.uniform(0.0, 0.05, g),
        q_load_der=rng.uniform(0.0, 0.02, g),
        params=ControllerParams(alpha=0.2, nu=1e-3, epsilon=1e-4,
                                v_max=float(rng.uniform(1.0, 1.03))),
    )
    sol = solve_saddle_oracle(prob)
    assert saddle_residual(prob, sol.u, sol.gamma, sol.mu) <= 1e-9
    assert sol.iterations <= 50
