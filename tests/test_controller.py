import argparse
import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from region_helpers import in_region, kink_distance, project_scalar
from small_feeders import two_bus
from step_helpers import no_load_offset, one_step, project, project_jacobian, r_and_b, saddle

from opftrack import cli, controller, networks
from opftrack.controller import (
    REGION_KINDS,
    ControllerParams,
    CostParams,
    Inverters,
    OracleError,
    StepMap,
    VoltageCoupling,
    _ARMIJO,
    _newton_point,
    _penalty_value,
    _spectral_norm,
    convergence_constants,
    dual_step_feedback,
    grad_primal,
    pack_state,
    primal_step,
    saddle_residual,
    solve_saddle_oracle,
)
from opftrack.sim import (
    ScenarioParams,
    compile_feeder,
    eval_cost,
    generate_scenario,
    oracle_map,
    step_problem,
)


def fleet(kind, s, n=1):
    """n inverters of one kind and rating, unit cost weights."""
    return Inverters(kind, np.full(n, s), np.ones(n), np.ones(n))


def project_one(inv, point, p_av):
    out = project(inv, np.asarray([point], dtype=float), np.asarray([p_av], dtype=float))
    return tuple(out[0])


JOINT = fleet("joint", 1.0)


def grid_distance(p, q, h):
    """Distance from (p, q) to the nearest point of JOINT at p_av 0.8 on an h-grid."""
    gp, gq = np.meshgrid(np.arange(-0.05, 0.8 + h, h), np.arange(-1.0 - h, 1.0 + h, h))
    inside = in_region("joint", 1.0, 0.8, gp, gq, tol=1e-12)
    return float(np.min(np.hypot(gp[inside] - p, gq[inside] - q)))


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
    p, q = project_one(JOINT, point, 0.8)
    assert p == pytest.approx(expected[0], abs=1e-12)
    assert q == pytest.approx(expected[1], abs=1e-12)
    assert in_region("joint", 1.0, 0.8, p, q)


def test_joint_projection_matches_grid_oracle():
    h = 0.004
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(-0.5, 1.6, 12), rng.uniform(-1.5, 1.5, 12)])
    out = project(fleet("joint", 1.0, 12), pts, np.full(12, 0.8))
    for (p, q), (p_out, q_out) in zip(pts, out):
        d_closed = math.hypot(p_out - p, q_out - q)
        d_grid = grid_distance(p, q, h)
        # the grid point is feasible, so d_closed <= d_grid; the true optimum
        # is within one grid diagonal of some grid point
        assert d_closed <= d_grid + 1e-12
        assert d_grid <= d_closed + h * math.sqrt(2.0)


def test_real_only_projection():
    reg = fleet("real_only", 1.0)
    assert project_one(reg, (0.5, 0.3), 0.7) == (0.5, 0.0)
    assert project_one(reg, (-1.0, 0.0), 0.7) == (0.0, 0.0)
    assert project_one(reg, (2.0, -1.0), 0.7) == (0.7, 0.0)


def test_reactive_only_projection():
    reg = fleet("reactive_only", 1.0)
    cap = math.sqrt(1.0 - 0.64)
    assert project_one(reg, (0.2, 0.1), 0.8) == (0.8, 0.1)
    _, q = project_one(reg, (0.8, -2.0), 0.8)
    assert q == pytest.approx(-cap, abs=1e-12)
    assert reg.headroom(np.asarray([0.8]))[0] == pytest.approx(cap)


def test_projection_nonexpansive_and_idempotent():
    rng = np.random.default_rng(7)
    for kind in REGION_KINDS:
        reg, p_av = fleet(kind, 1.0, 50), np.full(50, 0.8)
        x = rng.uniform(-2, 2, (50, 2))
        y = rng.uniform(-2, 2, (50, 2))
        px, py = project(reg, x, p_av), project(reg, y, p_av)
        assert np.all(np.linalg.norm(px - py, axis=1) <= np.linalg.norm(x - y, axis=1) + 1e-12)
        assert np.allclose(project(reg, px, p_av), px, rtol=0.0, atol=1e-12)


def test_projection_matches_the_scalar_reference():
    # every case of every kind, the edges p_av = 0 and p_av = S included;
    # np.hypot and math.hypot may differ in the last place, nothing else does
    rng = np.random.default_rng(5)
    n = 400
    s = rng.uniform(0.2, 2.0, n)
    p_av = s * rng.choice([0.0, 1.0, 0.3, 0.8], n)
    u = np.column_stack([rng.uniform(-2.5, 2.5, n), rng.uniform(-2.5, 2.5, n)])
    u[::7, 0] = 0.0
    u[::5, 1] = -0.0  # signed zeros reach the trajectory file as "-0.0"
    for kind in REGION_KINDS:
        out, jac = project_jacobian(Inverters(kind, s, np.ones(n), np.ones(n)), u, p_av)
        for i in range(n):
            p, q, row = project_scalar(kind, s[i], p_av[i], u[i, 0], u[i, 1])
            assert np.allclose(out[i], (p, q), rtol=4e-16, atol=0.0), (kind, i)
            assert np.signbit(out[i]).tolist() == [math.copysign(1.0, x) < 0 for x in (p, q)]
            assert np.allclose(jac[i], row, rtol=1e-15, atol=1e-15), (kind, i)


def test_values_only_projection_equals_the_projection_with_its_jacobian():
    # bit for bit, sign bits included: the two share one case analysis
    rng = np.random.default_rng(11)
    n = 600
    s = rng.uniform(0.2, 2.0, n)
    p_av = s * rng.choice([0.0, 1.0, 0.3, 0.8], n)
    u = np.column_stack([rng.uniform(-2.5, 2.5, n), rng.uniform(-2.5, 2.5, n)])
    u[::7, 0] = 0.0
    u[1::7, 0] = -0.0
    u[::5, 1] = -0.0
    u[2::9, 0] = p_av[2::9]  # on the chord P = p_av
    for kind in REGION_KINDS:
        inv = Inverters(kind, s, np.ones(n), np.ones(n))
        values = project(inv, u, p_av)
        with_jac, jac = project_jacobian(inv, u, p_av)
        assert values.view(np.int64).tolist() == with_jac.view(np.int64).tolist(), kind
        assert jac.shape == (n, 4)


def _joint_by_cases(s, p_av, p, q):
    # the joint projection as one case test per region piece: the left face,
    # the disk, the arc, the chord; the step code takes it in fewer operations
    left = p <= 0.0
    r = np.where(left, s, np.hypot(p, q))
    scale = np.divide(s, r, out=np.ones_like(r), where=r > s)
    inside = r <= s
    member = inside & (p <= p_av) & ~left
    arc = ~inside & (p * scale <= p_av)
    cap = np.where(left, s, np.sqrt(np.maximum(s * s - p_av * p_av, 0.0)))
    clamped = np.where(q >= cap, cap, np.maximum(q, -cap))
    return np.column_stack([
        np.where(member, p, np.where(arc, p * scale, np.where(left, 0.0, p_av))),
        np.where(member, q, np.where(arc, q * scale, clamped)),
    ])


def _special_points(s, p_av, rng, n):
    # random points, and points on every edge: the circle, the chord, the
    # axes, signed zeros, subnormals and huge coordinates
    special = np.asarray([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300])
    p = rng.uniform(-2.5, 2.5, n)
    q = rng.uniform(-2.5, 2.5, n)
    pick = rng.integers(0, 6, n)
    theta = rng.uniform(-np.pi, np.pi, n)
    chord = np.sqrt(np.maximum(s * s - p_av * p_av, 0.0))
    on_circle, on_chord = pick == 1, pick == 2
    p[on_circle], q[on_circle] = (s * np.cos(theta))[on_circle], (s * np.sin(theta))[on_circle]
    p[on_chord] = p_av[on_chord]
    q[on_chord] = (chord * rng.choice([-1.0, 1.0, 0.5, 2.0], n))[on_chord]
    p[pick == 3] = rng.choice(special, n)[pick == 3]
    q[pick == 4] = rng.choice(special, n)[pick == 4]
    both = pick == 5
    p[both], q[both] = rng.choice(special, n)[both], rng.choice(special, n)[both]
    return np.column_stack([p, q])


def test_joint_projection_equals_its_case_analysis_bit_for_bit():
    # signed zeros included: the recorded setpoints are byte-stable
    rng = np.random.default_rng(25)
    n = 200_000
    s = rng.uniform(0.2, 2.0, n)
    p_av = s * rng.choice([0.0, 1.0, 0.3, 0.8, 0.999999], n)
    u = _special_points(s, p_av, rng, n)
    inv = Inverters("joint", s, np.ones(n), np.ones(n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = project(inv, u, p_av)
        with np.errstate(all="ignore"):  # the case analysis may overflow s / r
            want = _joint_by_cases(s, p_av, u[:, 0], u[:, 1])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def _reactive_by_cases(s, p_av, q):
    # the reactive-only projection as one case test per piece: P at the
    # availability, Q above the chord, below its mirror, or between
    cap = np.sqrt(np.maximum(s * s - p_av * p_av, 0.0))
    return np.column_stack([p_av, np.where(q >= cap, cap, np.where(q <= -cap, -cap, q))])


def test_reactive_projection_equals_its_case_analysis_bit_for_bit():
    # signed zeros included: q = -0.0 at a zero chord clamps to +0.0, and a
    # negative subnormal Q to -0.0
    rng = np.random.default_rng(26)
    n = 200_000
    s = rng.uniform(0.2, 2.0, n)
    p_av = s * rng.choice([0.0, 1.0, 0.3, 0.8, 0.999999], n)
    u = _special_points(s, p_av, rng, n)
    inv = Inverters("reactive_only", s, np.ones(n), np.ones(n))
    want = _reactive_by_cases(s, p_av, u[:, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = project(inv, u, p_av)
        with_jac, _ = project_jacobian(inv, u, p_av)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert with_jac.view(np.int64).tolist() == want.view(np.int64).tolist()
    # the droop's headroom is the same chord, bit for bit
    assert inv.headroom(p_av).tobytes() == np.sqrt(np.maximum(s * s - p_av * p_av, 0.0)).tobytes()


@pytest.mark.parametrize("kind", REGION_KINDS)
def test_projection_raises_no_warning_on_zeros_subnormals_and_huge_points(kind):
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300, 0.5, -0.5]
    pts = np.asarray([(p, q) for p in special for q in special])
    n = len(pts)
    for frac in (0.0, 0.5, 1.0):
        inv = Inverters(kind, np.full(n, 0.8), np.ones(n), np.ones(n))
        p_av = np.full(n, 0.8 * frac)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = project(inv, pts, p_av)
            again, jac = project_jacobian(inv, pts, p_av)
        assert np.isfinite(out).all() and np.isfinite(jac).all()
        assert np.all(in_region(kind, 0.8, p_av, out[:, 0], out[:, 1], tol=1e-12))
        assert out.view(np.int64).tolist() == again.view(np.int64).tolist()


@pytest.mark.parametrize("kind", REGION_KINDS)
def test_an_empty_point_set_projects_to_an_empty_one(kind):
    # the joint kind's test that every point keeps its radial scaling is a
    # pick, which an empty array has none of; no point fails it
    inv = Inverters(kind, np.zeros(0), np.zeros(0), np.zeros(0))
    none = np.zeros((0, 2))
    out = project(inv, none, np.zeros(0))
    again, jac = project_jacobian(inv, none, np.zeros(0))
    assert out.shape == again.shape == (0, 2) and jac.shape == (0, 4)


def test_region_validation():
    with pytest.raises(ValueError, match="unknown region kind"):
        fleet("boxy", 1.0)
    with pytest.raises(ValueError, match="s_rating"):
        fleet("joint", 0.0)
    with pytest.raises(ValueError, match="one entry per DER"):
        Inverters("joint", np.ones(2), np.ones(3), np.ones(2))
    reg = fleet("joint", 1.0, 2)
    with pytest.warns(UserWarning, match="clipped") as caught:
        p_av = reg.available(np.asarray([[1.4, 0.5], [0.2, 1.1]]))
    assert len(caught) == 1
    assert np.array_equal(p_av, [[1.0, 0.5], [0.2, 1.0]])
    # a real-only inverter's P is bounded by its availability alone
    assert np.array_equal(fleet("real_only", 1.0).available(np.asarray([1.4])), [1.4])


def test_cost_params():
    with pytest.raises(ValueError):
        CostParams(-1.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        Inverters("joint", np.ones(1), np.ones(1), -np.ones(1))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            CostParams(bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            CostParams(1.0, bad)
        for field in range(3):
            args = [np.ones(2), np.ones(2), np.ones(2)]
            args[field][1] = bad
            with pytest.raises(ValueError, match="finite"):
                Inverters("joint", *args)


def test_controller_params_validation():
    with pytest.raises(ValueError):
        ControllerParams(alpha=0.0, nu=1e-3, epsilon=1e-4)
    with pytest.raises(ValueError):
        ControllerParams(alpha=0.1, nu=0.0, epsilon=1e-4)
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("alpha", "nu", "epsilon"):
            values = {"alpha": 0.1, "nu": 1e-3, "epsilon": 1e-4, name: bad}
            with pytest.raises(ValueError, match="finite"):
                ControllerParams(**values)


def test_step_map_needs_v_min_below_v_max_on_every_row():
    coupling = compile_feeder(two_bus()).coupling
    params = ControllerParams(alpha=0.2, nu=1e-3, epsilon=1e-4)
    inv = fleet("joint", 1.0)
    with pytest.raises(ValueError, match="v_min must be below v_max"):
        StepMap(inv, coupling, params, [[0.95]], [1.1], [1.0])
    # one bad row of many, an empty band and a NaN limit are each refused
    for v_max in ([1.05, 0.9, 1.05], [1.05, 0.95, 1.05], [1.05, math.nan, 1.05]):
        with pytest.raises(ValueError, match="v_min must be below v_max"):
            StepMap(inv, coupling, params, np.full((3, 1), 0.95), np.full(3, 0.95), v_max)
    StepMap(inv, coupling, params, np.full((3, 1), 0.95), np.full(3, 0.95), np.full(3, 1.05))


def test_saddle_residual_validates_duals():
    prob, u = _tb1_setup(), np.asarray([[0.5, 0.0]])
    with pytest.raises(ValueError):
        saddle_residual(prob, u, np.asarray([[-0.1], [0.0]]))
    with pytest.raises(ValueError):  # more dual pairs than metered buses
        saddle_residual(prob, u, np.zeros((2, 2)))
    assert saddle_residual(prob, u, np.zeros((2, 1))) >= 0.0


def test_saddle_residual_refuses_duals_of_any_shape_but_two_by_m():
    prob, _ = _penalty_instance()
    sol = solve_saddle_oracle(prob)
    m = sol.duals.shape[1]
    assert sol.duals.shape == (2, m) and m > 1
    for shape in ((m,), (3, m), (2, m + 1)):
        with pytest.raises(ValueError, match=r"shape \(2, M\)"):
            saddle_residual(prob, sol.u, np.zeros(shape))
    assert saddle_residual(prob, sol.u, sol.duals) == sol.residual


def test_saddle_residual_rejects_any_negative_dual():
    prob, u = _tb1_setup(), np.asarray([[0.5, 0.0]])
    for bad in ([0.0, 2.0, -1e-300], [-5e-324], [3.0, -1.0]):
        zeros = np.zeros(len(bad))
        with pytest.raises(ValueError, match="nonnegative"):
            saddle_residual(prob, u, np.stack([bad, zeros]))
        with pytest.raises(ValueError, match="nonnegative"):
            saddle_residual(prob, u, np.stack([zeros, bad]))
    # a signed zero is not negative, and no multipliers at all is a valid state
    zero = saddle_residual(prob, u, np.zeros((2, 1)))
    assert saddle_residual(prob, u, np.asarray([[-0.0], [0.0]])) == zero
    none = saddle(fleet("joint", 1.0), [0.5], VoltageCoupling(np.zeros((0, 2))), np.zeros(0),
                  0.95, 1.05, ControllerParams(0.2, 1e-3, 1e-4))
    assert math.isfinite(saddle_residual(none, u, np.zeros((2, 0))))


TB1_ALPHA = 0.2  # the run's stepsize on the two-bus instances


def _tb1_setup(nu=1e-3, eps=1e-4, c=(3.0, 1.0), z=0.1 + 0.1j, pav=0.95, v_min=0.95, v_max=1.05):
    net = compile_feeder(two_bus(z=z))
    params = ControllerParams(alpha=TB1_ALPHA, nu=nu, epsilon=eps)
    return saddle(Inverters("joint", [1.0], [c[0]], [c[1]]), [pav], net.coupling,
                  no_load_offset(net), v_min, v_max, params)


def _step_map(prob, alpha=TB1_ALPHA):
    # the one-step map of a saddle instance at the given stepsize
    steps = prob.step_map
    return replace(steps, params=replace(steps.params, alpha=alpha))


def _model_dual_step(prob, duals, u, params):
    # the model-based dual step written out from the constraint values
    steps = prob.step_map
    r, b = r_and_b(steps.coupling)
    w = r @ u[:, 0] + b @ u[:, 1] + prob.c
    g, g_bar = steps.v_min[0] - w, w - steps.v_max[0]
    a, eps = params.alpha, params.epsilon
    return np.stack([
        np.maximum(0.0, duals[0] + a * (g - eps * duals[0])),
        np.maximum(0.0, duals[1] + a * (g_bar - eps * duals[1])),
    ])


def test_coupling_predicts_over_leading_axes():
    prob = _tb1_setup()
    coup, c = prob.step_map.coupling, prob.c
    u = np.asarray([[0.3, -0.1]])
    r, b = r_and_b(coup)
    assert np.allclose(coup.predict(u, c), r @ u[:, 0] + b @ u[:, 1] + c, rtol=0.0, atol=1e-15)
    # K setpoints against K offset rows give K predictions, row by row
    us = np.asarray([[[0.3, -0.1]], [[0.5, 0.2]], [[0.0, 0.0]]])
    cs = c + np.asarray([[0.0], [0.01], [-0.02]])
    stacked = coup.predict(us, cs)
    assert stacked.shape == (3, 1)
    for k in range(3):
        assert np.allclose(stacked[k], coup.predict(us[k], cs[k]), rtol=0.0, atol=1e-15)
    assert stacked[2, 0] == cs[2, 0]


def _lagrangian_value(problem, u, duals):
    # assembled independently of grad_primal for the finite-difference check
    steps = problem.step_map
    prm, inv, coup = steps.params, steps.inverters, steps.coupling
    f = float(np.sum(inv.c_p * (steps.p_av[0] - u[:, 0]) ** 2 + inv.c_q * u[:, 1] ** 2))
    r, b = r_and_b(coup)
    w = r @ u[:, 0] + b @ u[:, 1] + problem.c
    g, g_bar = steps.v_min[0] - w, w - steps.v_max[0]
    return (
        f
        + 0.5 * prm.nu * float(np.sum(u * u))
        + float(duals[0] @ g + duals[1] @ g_bar)
        - 0.5 * prm.epsilon * (float(duals[0] @ duals[0]) + float(duals[1] @ duals[1]))
    )


def test_gradient_matches_finite_differences():
    fd = networks.feeder36()
    net = compile_feeder(fd)
    coupling = net.coupling
    params = ControllerParams(alpha=0.2, nu=1e-3, epsilon=1e-4)
    rng = np.random.default_rng(2)
    w = np.asarray([(rng.uniform(0.5, 4), rng.uniform(0.2, 2)) for _ in range(18)])
    inv = Inverters("joint", fd.der_ratings, w[:, 0], w[:, 1])
    # demand at the DER buses, folded into the offset
    p_load, q_load = rng.uniform(0, 0.01, 18), rng.uniform(0, 0.004, 18)
    r, b = r_and_b(coupling)
    c = no_load_offset(net) - r @ p_load - b @ q_load
    problem = saddle(inv, 0.8 * inv.s_rating, coupling, c, 0.95, 1.05, params)
    u = np.column_stack([rng.uniform(0, 0.15, 18), rng.uniform(-0.1, 0.1, 18)])
    duals = np.stack([rng.uniform(0, 2, 10), rng.uniform(0, 2, 10)])
    grad = grad_primal(u, duals, _step_map(problem, params.alpha), 0)
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
    params = ControllerParams(alpha=0.5, nu=1e-3, epsilon=0.01)
    duals = np.asarray([[0.3, 0.0], [0.1, 0.4]])  # [gamma; mu]
    y = np.asarray([0.94, 1.2])
    coupling = VoltageCoupling(np.zeros((2, 2)))  # two metered buses, one DER
    steps = one_step(fleet("joint", 1.0), coupling, params, [0.5], 0.95, 1.05)
    gamma, mu = dual_step_feedback(duals, y, steps, 0)
    # gamma: [0.3 + 0.5*(0.95-0.94-0.003), 0 + 0.5*(0.95-1.2)] -> clamp
    assert gamma[0] == pytest.approx(0.3 + 0.5 * (0.01 - 0.003))
    assert gamma[1] == 0.0
    assert mu[0] == pytest.approx(max(0.0, 0.1 + 0.5 * (0.94 - 1.05 - 0.001)))
    assert mu[1] == pytest.approx(0.4 + 0.5 * (1.2 - 1.05 - 0.004))


def test_dual_routes_coincide_on_exact_measurements():
    prob = _tb1_setup()
    u = np.asarray([[0.5, -0.2]])
    duals = np.asarray([[0.2], [1.1]])
    steps = _step_map(prob)
    w = steps.coupling.predict(u, prob.c)
    via_model = _model_dual_step(prob, duals, u, steps.params)
    via_meas = dual_step_feedback(duals, w, steps, 0)
    assert np.array_equal(via_model, via_meas)


def test_primal_step_fixed_point_without_binding_constraints():
    prob = _tb1_setup(v_max=1.5)  # never binds
    c_p, nu, pav = 3.0, 1e-3, 0.95
    u_star = np.asarray([[2 * c_p * pav / (2 * c_p + nu), 0.0]])
    steps = _step_map(prob)
    stepped = primal_step(u_star, np.zeros((2, 1)), steps, 0)
    assert np.allclose(stepped, u_star, atol=1e-14)
    far = np.asarray([[0.0, 0.5]])
    once = primal_step(far, np.zeros((2, 1)), steps, 0)
    assert np.linalg.norm(once - u_star) < np.linalg.norm(far - u_star)


def test_convergence_constants_expressions():
    prob = _tb1_setup(z=0.01 + 0.01j, c=(3.0, 1.0), nu=1e-3, eps=1e-4)
    steps = _step_map(prob)
    consts = convergence_constants(steps.inverters, steps.coupling, steps.params)
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
    assert consts.rho_alpha == pytest.approx(consts.rho(TB1_ALPHA), rel=1e-12)


def test_a_constant_that_overflows_is_infinite():
    steps = _step_map(_tb1_setup())
    base = convergence_constants(steps.inverters, steps.coupling, steps.params)
    # alpha**2 overflows in rho alone; the other constants keep their bits
    big = convergence_constants(steps.inverters, steps.coupling, replace(steps.params, alpha=1e200))
    assert big.rho_alpha == math.inf == base.rho(1e155)
    assert (big.L, big.G, big.eta, big.L_reg, big.alpha_max) == (
        base.L, base.G, base.eta, base.L_reg, base.alpha_max)
    # nu or epsilon squared overflows L_reg, so no stepsize contracts
    for name in ("nu", "epsilon"):
        params = replace(steps.params, **{name: 1e200})
        consts = convergence_constants(steps.inverters, steps.coupling, params)
        assert consts.L_reg == math.inf and consts.rho_alpha == math.inf
        assert consts.alpha_max == 0.0
    # both terms of rho^2 overflow, -inf + inf: still inf, never 0
    both = replace(steps.params, alpha=1e150, nu=1e200, epsilon=1e200)
    assert convergence_constants(steps.inverters, steps.coupling, both).rho_alpha == math.inf


@pytest.mark.parametrize("shape", [(1, 1), (3, 40), (40, 3), (200, 60), (60, 200), (50, 50)])
def test_spectral_norm_matches_the_two_norm(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
    assert _spectral_norm(a) == pytest.approx(float(np.linalg.norm(a, 2)), rel=1e-13)


@pytest.mark.parametrize(
    "fd",
    [
        networks.feeder36(),  # 10 metered x 18 DERs: the stack is wide
        networks.random_radial(120, 3, der_nodes=tuple(range(4, 121, 4))),  # tall
    ],
)
def test_convergence_constants_g_is_the_stacked_two_norm(fd):
    coupling = compile_feeder(fd).coupling
    inv = Inverters("joint", fd.der_ratings, np.ones(fd.n_der), np.ones(fd.n_der))
    consts = convergence_constants(inv, coupling, ControllerParams(0.2, 1e-3, 1e-4))
    want = float(np.linalg.norm(np.hstack(r_and_b(coupling)), 2))
    assert consts.G == pytest.approx(want, rel=1e-12)


def test_error_free_iteration_contracts_at_certified_rate():
    # well-regularized instance: nu = eps = 0.1 gives a usable alpha_max
    prob = _tb1_setup(nu=0.1, eps=0.1, c=(0.5, 0.5))
    steps = _step_map(prob)
    consts = convergence_constants(steps.inverters, steps.coupling, steps.params)
    L_reg = math.sqrt((1.0 + 0.1 + 2 * consts.G) ** 2 + 2 * (consts.G + 0.1) ** 2)
    assert consts.L_reg == pytest.approx(L_reg, rel=1e-12)
    alpha = consts.eta / consts.L_reg**2
    assert alpha < consts.alpha_max
    rho = consts.rho(alpha)
    assert rho < 1.0

    steps = _step_map(prob, alpha)
    prm = steps.params
    star = solve_saddle_oracle(prob, tol=1e-12)
    z_star = pack_state(star.u, star.duals)
    u = np.asarray([[0.0, 0.0]])
    duals = np.asarray([[0.5], [2.0]])
    dist = np.linalg.norm(pack_state(u, duals) - z_star)
    for _ in range(4000):
        u_new = primal_step(u, duals, steps, 0)
        duals = _model_dual_step(prob, duals, u, prm)
        u = u_new
        new_dist = np.linalg.norm(pack_state(u, duals) - z_star)
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
    w = prob.step_map.coupling.predict(sol.u, prob.c)
    assert w[0] > 1.05
    gamma, mu = sol.duals
    assert mu[0] == pytest.approx((w[0] - 1.05) / prob.step_map.params.epsilon, rel=1e-9)
    assert gamma[0] == 0.0
    assert saddle_residual(prob, sol.u, sol.duals) == pytest.approx(
        sol.residual, abs=1e-12
    )


def test_saddle_oracle_multi_start_agreement():
    prob = _tb1_setup()
    ref = solve_saddle_oracle(prob, tol=1e-11)
    rng = np.random.default_rng(3)
    for _ in range(3):
        u0 = np.column_stack([rng.uniform(0, 0.95, 1), rng.uniform(-0.3, 0.3, 1)])
        sol = solve_saddle_oracle(prob, tol=1e-11, u0=u0)
        assert np.allclose(sol.u, ref.u, atol=1e-8)
        mu, ref_mu = sol.duals[1], ref.duals[1]
        assert np.allclose(mu, ref_mu, atol=1e-8 / prob.step_map.params.epsilon * 1e-2)


def test_saddle_oracle_unconstrained_instance():
    prob = _tb1_setup(v_max=1.5)
    sol = solve_saddle_oracle(prob, tol=1e-12)
    c_p, nu, pav = 3.0, 1e-3, 0.95
    assert sol.u[0, 0] == pytest.approx(2 * c_p * pav / (2 * c_p + nu), abs=1e-9)
    assert sol.u[0, 1] == pytest.approx(0.0, abs=1e-9)
    assert sol.duals[0, 0] == 0.0 and sol.duals[1, 0] == 0.0


def test_saddle_oracle_budget_exhaustion(monkeypatch):
    prob = _tb1_setup()
    monkeypatch.setattr(controller, "_MAX_ITER", 0)
    with pytest.raises(OracleError, match="no convergence in 0 iterations"):
        solve_saddle_oracle(prob, tol=1e-13)


def test_saddle_oracle_stops_at_the_rounding_floor_of_a_small_epsilon(monkeypatch):
    # at eps = 1e-8 the penalty's curvature is 1e4 times config36's, and so
    # is the residual's rounding floor: step 300's stalls near 2.6e-9, above
    # an absolute 1e-9, and the oracle must stop there, not after 2000 or
    # _MAX_ITER steps that gain nothing
    monkeypatch.setattr(controller, "_MAX_ITER", 2000)
    config = os.path.join(os.path.dirname(os.path.dirname(__file__)), "data", "config36.json")
    cfg, net, scen, inv = cli._load_run(argparse.Namespace(config=config))
    steps, c = oracle_map(net, scen, inv, replace(cfg.controller, epsilon=1e-8))
    sol = solve_saddle_oracle(step_problem(steps, c, 300))
    assert sol.iterations <= 50
    assert sol.residual <= 1e-8


def test_saddle_oracle_large_feeder_last_ramp_step():
    # 3000 buses and 300 DERs at the last step of a ramp, with many limits
    # violated at the start: the residual must reach 1e-11, below where
    # u - proj(u - grad/lip) summed as written stalls on rounding
    fd = networks.random_radial(
        3000, 0, z_mag_range=(0.0005, 0.002), der_nodes=tuple(range(10, 3001, 10))
    )
    scen = generate_scenario("ramp", fd, 0, ScenarioParams(n_steps=30))
    inv = Inverters("joint", fd.der_ratings, np.full(fd.n_der, 3.0), np.ones(fd.n_der))
    steps, c = oracle_map(
        compile_feeder(fd), scen, inv, ControllerParams(alpha=0.2, nu=1e-3, epsilon=1e-4)
    )
    prob = step_problem(steps, c, scen.n_steps - 1)
    sol = solve_saddle_oracle(prob)
    assert sol.residual <= 1e-11
    assert sol.iterations <= 50


def test_saddle_oracle_rejects_a_tolerance_that_is_not_positive_and_finite():
    prob = _tb1_setup()
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            solve_saddle_oracle(prob, tol=tol)


def _lipschitz_bound(prob):
    # the oracle's bound on the Lipschitz constant of grad F: the largest
    # cost curvature plus the squared Frobenius norm of the sensitivities / eps
    steps = prob.step_map
    inv, prm, coup = steps.inverters, steps.params, steps.coupling
    curvature = 2.0 * max(inv.c_p.max(), inv.c_q.max()) + prm.nu
    r, b = r_and_b(coup)
    return curvature + float(np.sum(r**2) + np.sum(b**2)) / prm.epsilon


def _penalty_instance():
    # feeder36 with offsets alternating below v_min and above v_max, so that
    # both limits are violated at different metered buses
    fd = networks.feeder36()
    coupling = compile_feeder(fd).coupling
    m = coupling.n_metered
    c = np.where(np.arange(m) % 2 == 0, 0.90, 1.10)
    rng = np.random.default_rng(11)
    w = rng.uniform(0.5, 3.0, (18, 2))
    inv = Inverters("joint", fd.der_ratings, w[:, 0], w[:, 1])
    params = ControllerParams(alpha=0.2, nu=1e-3, epsilon=1e-4)
    return saddle(inv, 0.7 * inv.s_rating, coupling, c, 0.95, 1.05, params), rng


def test_penalty_value_matches_its_gradient_with_both_limits_violated():
    prob, rng = _penalty_instance()
    u = np.column_stack([rng.uniform(0, 0.1, 18), rng.uniform(-0.05, 0.05, 18)])
    f, duals = _penalty_value(prob, u)
    # the maximizing duals are each limit's violation by the surrogate over eps
    steps = prob.step_map
    w, eps = steps.coupling.predict(u, prob.c), steps.params.epsilon
    gamma, mu = duals
    assert np.array_equal(gamma, np.maximum(steps.v_min[0] - w, 0.0) / eps)
    assert np.array_equal(mu, np.maximum(w - steps.v_max[0], 0.0) / eps)
    assert gamma.max() > 0.0 and mu.max() > 0.0
    # the oracle takes the Hessian rows of the violated limits as mu != gamma
    assert np.array_equal(mu != gamma, (gamma > 0.0) | (mu > 0.0))
    lip = _lipschitz_bound(prob)
    point = _newton_point(prob, u, f, duals, lip)
    grad = point.grad
    assert point.f == f
    # r is the 1/lip-scaled natural residual, summed from the gradient step
    w = u - grad / lip
    assert np.array_equal(point.r, grad / lip + (w - steps.project(0, w)))
    assert np.allclose(point.r, u - steps.project(0, w), rtol=0, atol=1e-15)
    # res stays the unit-step residual, the stop test and saddle_residual
    unit = u - steps.project(0, u - grad)
    assert point.res == np.linalg.norm(unit)
    assert point.res == pytest.approx(saddle_residual(prob, u, duals), rel=1e-12)
    # F is quadratic between kinks, so central differences are exact up to
    # rounding as long as no limit crosses its kink within h
    h = 1e-5
    for i in (0, 5, 17):
        for j in (0, 1):
            up, dn = u.copy(), u.copy()
            up[i, j] += h
            dn[i, j] -= h
            f_up, f_dn = _penalty_value(prob, up)[0], _penalty_value(prob, dn)[0]
            fd_ij = (f_up - f_dn) / (2 * h)
            assert grad[i, j] == pytest.approx(fd_ij, rel=1e-7, abs=1e-7)


def test_the_oracle_objective_and_the_recorded_cost_share_one_formula():
    # F's cost term and the recorded cost are both Inverters.cost, bit for
    # bit, at a P where pow() squares p_av - P differently from a product.
    # Only DER 0 is available, and no limit is violated, so its cost is
    # nearly all of F and a last-place change in it moves F
    base, rng = _penalty_instance()
    inv, prm, coupling = base.step_map.inverters, base.step_map.params, base.step_map.coupling
    p_av = np.zeros(inv.n_der)
    p_av[0] = 0.7 * inv.s_rating[0]
    prob = saddle(inv, p_av, coupling, base.c, 0.5, 1.5, prm)
    p = rng.uniform(0.0, 0.1, 10_000)
    d = p_av[0] - p
    u = np.zeros((inv.n_der, 2))
    u[0, 0] = p[inv.c_p[0] * np.float_power(d, 2) != inv.c_p[0] * (d * d)][0]
    f, duals = _penalty_value(prob, u)
    assert f == (
        float(np.sum(inv.cost(u, p_av)))
        + 0.5 * prm.nu * float(np.sum(u * u))
        + 0.5 * prm.epsilon * (float(duals[0] @ duals[0]) + float(duals[1] @ duals[1]))
    )
    # K = 2 steps of setpoints, each summed in DER order
    us, p_avs = np.stack([u, u + 0.01]), np.stack([p_av, p_av])
    assert np.array_equal(eval_cost(us, inv, p_avs), sum(inv.cost(us, p_avs).T, np.zeros(2)))


def _saddle_residual_reference(problem, u, gamma, mu):
    # the residual written out from the costs, the sensitivities and the
    # constraint values, in the folded order of the step map at unit step:
    # u - grad_primal is (1 - nu - 2 c) u + 2 c (P_av, 0) + [r b]^T (gamma - mu),
    # the product with the rows of [r b]^T in the setpoints' order, and
    # d + (g - eps d) is (1 - eps) d + g
    steps = problem.step_map
    inv, prm, coupling = steps.inverters, steps.params, steps.coupling
    w = coupling.predict(u, problem.c)
    g, g_bar = steps.v_min[0] - w, w - steps.v_max[0]
    c = np.column_stack([inv.c_p, inv.c_q])
    pa0 = np.column_stack([steps.p_av[0], np.zeros(inv.n_der)])
    back = (coupling.rows @ (gamma - mu)).reshape(u.shape)
    u2 = steps.project(0, ((1.0 - prm.nu) - 2.0 * c) * u + 2.0 * c * pa0 + back)
    eps = prm.epsilon
    gamma2 = np.maximum(0.0, (1.0 - eps) * gamma + g)
    mu2 = np.maximum(0.0, (1.0 - eps) * mu + g_bar)
    return float(np.linalg.norm(pack_state(u - u2, np.stack([gamma - gamma2, mu - mu2]))))


def test_saddle_residual_equals_its_written_out_formula():
    prob, rng = _penalty_instance()
    sol = solve_saddle_oracle(prob)
    points = [(sol.u, *sol.duals)]
    for _ in range(20):
        points.append((
            np.column_stack([rng.uniform(-0.1, 0.3, 18), rng.uniform(-0.2, 0.2, 18)]),
            rng.uniform(0, 5, 10) * (rng.uniform(size=10) < 0.5),
            rng.uniform(0, 5, 10) * (rng.uniform(size=10) < 0.5),
        ))
    for u, gamma, mu in points:
        assert saddle_residual(prob, u, np.stack([gamma, mu])) == _saddle_residual_reference(
            prob, u, gamma, mu
        )
    assert sol.residual == saddle_residual(prob, sol.u, sol.duals) <= 1e-9


def test_pack_state_layout():
    z = pack_state(np.asarray([[0.95, -0.1]]), np.asarray([[1.0], [2.0]]))
    assert z.tolist() == [0.95, -0.1, 1.0, 2.0]


def test_coupling_slicing_and_validation():
    fd = networks.feeder36()
    net = compile_feeder(fd)
    coup, lm = net.coupling, net.lm
    assert coup.n_metered == 10 and coup.n_der == 18
    mi, di = fd.monitored_indices(), fd.der_indices()
    R, B = np.hsplit(lm.columns(np.arange(fd.n_nodes), np.arange(fd.n_nodes)), 2)
    r, b = r_and_b(coup)
    assert r[3, 5] == R[mi[3], di[5]]
    assert b[7, 11] == B[mi[7], di[11]]
    with pytest.raises(ValueError, match="inconsistent"):
        VoltageCoupling(np.zeros(6))  # not a block
    with pytest.raises(ValueError, match="inconsistent"):
        VoltageCoupling(np.zeros((2, 3)))  # no even split into r and b
    params = ControllerParams(alpha=0.1, nu=1e-3, epsilon=1e-4)
    with pytest.raises(ValueError, match="one entry per DER"):
        one_step(fleet("joint", 1.0), coup, params, [0.5], 0.95, 1.05)
    # a single step's 1-d availability is not a K-row map
    with pytest.raises(ValueError, match="one entry per DER"):
        StepMap(fleet("joint", 1.0, 18), coup, params, np.full(18, 0.5), [0.95], [1.05])


# ---------------------------------------------------------------------------
# property tests


@st.composite
def fleets(draw):
    """A batch of 1-6 inverters of one kind, availability at 0, S or between."""
    kind = draw(st.sampled_from(REGION_KINDS))
    n = draw(st.integers(1, 6))
    s = np.asarray(draw(st.lists(st.floats(0.2, 2.0), min_size=n, max_size=n)))
    frac = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    p_av = s * np.asarray(draw(st.lists(frac, min_size=n, max_size=n)))
    return Inverters(kind, s, np.ones(n), np.ones(n)), p_av


def setpoints(n):
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    return st.lists(st.tuples(coord, coord), min_size=n, max_size=n).map(np.asarray)


@settings(max_examples=200, deadline=None)
@given(fleets(), st.data())
def test_projection_property_idempotent_and_nonexpansive(batch, data):
    inv, p_av = batch
    x, y = data.draw(setpoints(inv.n_der)), data.draw(setpoints(inv.n_der))
    a, b = project(inv, x, p_av), project(inv, y, p_av)
    assert np.all(in_region(inv.kind, inv.s_rating, p_av, a[:, 0], a[:, 1], tol=1e-12))
    assert np.all(np.linalg.norm(project(inv, a, p_av) - a, axis=1) <= 1e-12)
    assert np.all(np.linalg.norm(a - b, axis=1) <= np.linalg.norm(x - y, axis=1) + 1e-12)


@settings(max_examples=300, deadline=None)
@given(fleets(), st.data())
def test_projection_property_variational_inequality(batch, data):
    # P z is the nearest point of the region: <z - P z, x - P z> <= 0 for
    # every feasible x, here region points sampled as projections
    inv, p_av = batch
    z = data.draw(setpoints(inv.n_der))
    x = project(inv, data.draw(setpoints(inv.n_der)), p_av)
    pz = project(inv, z, p_av)
    assert np.all(np.sum((z - pz) * (x - pz), axis=1) <= 1e-12)


@settings(max_examples=300, deadline=None)
@given(fleets(), st.data())
def test_projection_jacobian_matches_central_differences(batch, data):
    inv, p_av = batch
    u = data.draw(setpoints(inv.n_der))
    smooth = kink_distance(u[:, 0], u[:, 1], inv.s_rating, p_av) >= 1e-6
    assume(smooth.any())
    _, jac = project_jacobian(inv, u, p_av)
    h = 1e-7
    for col, d in enumerate(((h, 0.0), (0.0, h))):
        fd = (project(inv, u + d, p_av) - project(inv, u - d, p_av)) / (2.0 * h)
        for row in range(2):
            assert np.allclose(jac[smooth, 2 * row + col], fd[smooth, row], rtol=0.0, atol=1e-6)


@settings(max_examples=100, deadline=None)
@given(fleets(), st.data())
def test_projected_gradient_point_meets_the_armijo_condition(batch, data):
    # the oracle's line search accepts its last point, proj(u - grad F/lip),
    # without the Armijo test: 1/lip is short enough for it to hold always
    inv, p_av = batch
    n, m = inv.n_der, data.draw(st.integers(1, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    inv = Inverters(inv.kind, inv.s_rating, *rng.uniform(0.0, 3.0, (2, n)))
    coupling = VoltageCoupling(
        np.hstack([rng.normal(0.0, 0.05, (m, n)), rng.normal(0.0, 0.05, (m, n))]),
    )
    c = rng.uniform(0.9, 1.1, m)
    eps = data.draw(st.sampled_from([1e-4, 1e-2, 1.0]))
    prob = saddle(inv, p_av, coupling, c, 0.95, 1.05, ControllerParams(0.2, 1e-3, eps))
    u = project(inv, data.draw(setpoints(n)), p_av)
    f, duals = _penalty_value(prob, u)
    grad = grad_primal(u, duals, prob.step_map, 0)
    x = project(inv, u - grad / _lipschitz_bound(prob), p_av)
    decrease = float(np.sum(grad * (x - u)))
    assert decrease <= 0.0
    assert _penalty_value(prob, x)[0] <= f + _ARMIJO * decrease


@settings(max_examples=200, deadline=None)
@given(fleets(), st.data())
def test_folded_steps_equal_the_written_out_steps(batch, data):
    # the step map's folded rows give the steps as written out,
    # proj(u - alpha grad_primal) and max(0, d + alpha ((band + sigma y) -
    # eps d)), within a few ulps of the terms each one sums, on a two-row
    # map, at setpoints inside and outside the regions (|P|, |Q| <= 2
    # against ratings of 0.2-2) and at duals at and above 0
    inv, p_av = batch
    n, m = inv.n_der, data.draw(st.integers(1, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    inv = Inverters(inv.kind, inv.s_rating, *rng.uniform(0.0, 3.0, (2, n)))
    coupling = VoltageCoupling(rng.normal(0.0, 0.05, (m, 2 * n)))
    unit = st.floats(1e-3, 1.0)
    params = ControllerParams(data.draw(unit), data.draw(st.floats(1e-4, 1.0)), data.draw(unit))
    rows = np.stack([p_av, inv.s_rating * rng.uniform(0.0, 1.0, n)])
    steps = StepMap(inv, coupling, params, rows, rng.uniform(0.9, 1.0, 2), rng.uniform(1.0, 1.1, 2))
    k = data.draw(st.integers(0, 1))
    u = data.draw(setpoints(n))
    duals = rng.uniform(0.0, 5.0, (2, m)) * (rng.uniform(size=(2, m)) < 0.7)
    y = rng.uniform(0.85, 1.15, m)
    a, ulp = params.alpha, np.finfo(float).eps
    pa0 = np.column_stack([steps.p_av[k], np.zeros(n)])
    band = np.array([[steps.v_min[k]], [-steps.v_max[k]]])

    want = steps.project(k, u - a * grad_primal(u, duals, steps, k))
    back = np.abs(coupling.rows) @ np.abs(duals[1] - duals[0])  # in the setpoints' order
    terms = np.abs(u) + a * (
        np.abs(inv.m2c) * (np.abs(pa0) + np.abs(u)) + params.nu * np.abs(u)
        + back.reshape(n, 2)
    ) + inv.s_rating[:, None]  # the projection's own rounding
    # the projection is non-expansive per DER
    gap = np.linalg.norm(primal_step(u, duals, steps, k) - want, axis=1)
    assert np.all(gap <= 32 * ulp * np.linalg.norm(terms, axis=1))

    sigma = np.asarray([[-1.0], [1.0]])
    want = np.maximum(0.0, duals + a * ((band + sigma * y) - params.epsilon * duals))
    terms = np.abs(duals) + a * (np.abs(band) + y + params.epsilon * np.abs(duals))
    assert np.all(np.abs(dual_step_feedback(duals, y, steps, k) - want) <= 8 * ulp * terms)


def _random_block(rng, m, n):
    # an (m, 2n) sensitivity block with some signed zeros among its entries
    rb = rng.normal(0.0, 0.05, (m, 2 * n))
    rb[rng.uniform(size=rb.shape) < 0.2] = -0.0
    return rb


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(0, 6), st.integers(0, 2**32 - 1))
@example(m=1, n=0, seed=0)
@example(m=1, n=1, seed=0)
def test_coupling_rows_are_the_der_interleaved_block(m, n, seed):
    # [r b]^T, DER i's P and Q rows at 2i and 2i + 1, bit for bit and in C
    # order, also for a coupling with no DER or with one metered bus
    rb = _random_block(np.random.default_rng(seed), m, n)
    coupling = VoltageCoupling(rb)
    want = np.empty((2 * n, m))
    want[0::2], want[1::2] = rb[:, :n].T, rb[:, n:].T
    assert coupling.rows.shape == (2 * n, m) and coupling.rows.flags.c_contiguous
    assert coupling.rows.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(0, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
@example(m=1, n=0, k=1, seed=0)
def test_predict_equals_r_p_plus_b_q_plus_c(m, n, k, seed):
    # within the rounding of the 2n + 1 summed terms, once on each side, for
    # one set of setpoints and for K of them against K offset rows
    rng = np.random.default_rng(seed)
    rb = _random_block(rng, m, n)
    coupling = VoltageCoupling(rb)
    (r, b), ulp = np.hsplit(rb, 2), np.finfo(float).eps
    for shape in ((n, 2), (k, n, 2)):
        u = rng.uniform(-2.0, 2.0, shape)
        c = rng.uniform(0.9, 1.1, shape[:-2] + (m,))
        want = u[..., 0] @ r.T + u[..., 1] @ b.T + c
        terms = np.abs(u[..., 0]) @ np.abs(r.T) + np.abs(u[..., 1]) @ np.abs(b.T) + np.abs(c)
        got = coupling.predict(u, c)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 2 * (2 * n + 1) * ulp * terms)


@settings(max_examples=100, deadline=None)
@given(fleets(), st.data())
def test_grad_primal_equals_its_two_product_form(batch, data):
    # one product with the coupling's rows against r^T (mu - gamma) and
    # b^T (mu - gamma) formed apart, within the rounding of the M terms
    inv, p_av = batch
    n, m = inv.n_der, data.draw(st.integers(1, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    inv = Inverters(inv.kind, inv.s_rating, *rng.uniform(0.0, 3.0, (2, n)))
    rb = _random_block(rng, m, n)
    coupling, (r, b) = VoltageCoupling(rb), np.hsplit(rb, 2)
    params = ControllerParams(0.2, data.draw(st.floats(1e-4, 1.0)), 1e-3)
    steps = one_step(inv, coupling, params, p_av, 0.95, 1.05)
    u = data.draw(setpoints(n))
    duals = rng.uniform(0.0, 5.0, (2, m)) * (rng.uniform(size=(2, m)) < 0.7)
    lam, ulp = duals[1] - duals[0], np.finfo(float).eps
    back = np.column_stack([r.T @ lam, b.T @ lam])
    pa0 = np.column_stack([steps.p_av[0], np.zeros(n)])
    want = inv.m2c * (pa0 - u) + back + params.nu * u
    terms = (
        np.abs(inv.m2c) * (np.abs(pa0) + np.abs(u))
        + np.column_stack([np.abs(r.T) @ np.abs(lam), np.abs(b.T) @ np.abs(lam)])
        + params.nu * np.abs(u)
    )
    assert np.all(np.abs(grad_primal(u, duals, steps, 0) - want) <= (2 * m + 4) * ulp * terms)


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 8), st.integers(0, 2**32 - 1))
@example(n=4, seed=3768957951)  # took 51-54 iterations on the unit-step residual
def test_saddle_oracle_property_random_radial(n, seed):
    rng = np.random.default_rng(seed)
    fd = networks.random_radial(n, seed=int(rng.integers(0, 1000)))
    net = compile_feeder(fd)
    coupling = net.coupling
    g = coupling.n_der
    kind = str(rng.choice(["joint", "joint", "real_only", "reactive_only"]))
    w = rng.uniform(0.2, 3.0, (g, 2))
    p_av = rng.uniform(0.0, 1.0, g)
    p_load, q_load = rng.uniform(0.0, 0.05, g), rng.uniform(0.0, 0.02, g)
    r, b = r_and_b(coupling)
    prob = saddle(
        Inverters(kind, np.ones(g), w[:, 0], w[:, 1]),
        p_av,
        coupling,
        no_load_offset(net) - r @ p_load - b @ q_load,
        0.95,
        float(rng.uniform(1.0, 1.03)),
        ControllerParams(alpha=0.2, nu=1e-3, epsilon=1e-4),
    )
    sol = solve_saddle_oracle(prob)
    assert saddle_residual(prob, sol.u, sol.duals) <= 1e-9
    assert sol.iterations <= 50


def test_a_subnormal_setpoint_projects_without_overflow():
    # inside the disk the radial scale s / r is not formed, so a setpoint of
    # subnormal radius divides nothing by it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, jac = project_jacobian(JOINT, np.asarray([[1e-310, 1e-310]]), np.asarray([0.8]))
    assert out.tolist() == [[1e-310, 1e-310]]
    assert jac.tolist() == [[1.0, 0.0, 0.0, 1.0]]
