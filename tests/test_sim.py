import cProfile
import cmath
import csv
import json
import math
import pstats
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from dense_helpers import compile_with_dense_limit
from hypothesis import given, settings
from hypothesis import strategies as st
from region_helpers import in_region
from scenario_files import csv_reference, write_scenario_file
from small_feeders import chain, two_bus
from step_helpers import saddle

from opftrack import networks
from opftrack.baseline import DROOP_GAIN, droop_q
from opftrack.cli import _emit_json, load_config
from opftrack.controller import (
    REGION_KINDS,
    ControllerParams,
    FactoredCoupling,
    Inverters,
    StepMap,
    convergence_constants,
    dual_step_feedback,
    pack_state,
    primal_step,
    solve_saddle_oracle,
)
from opftrack.feeder import load_feeder
from opftrack import controller, powerflow, sim
from opftrack.powerflow import PowerFlowError, constraint_offsets, in_band, solve_ac
from opftrack.sim import (
    Scenario,
    ScenarioParams,
    TrackingReport,
    Trajectory,
    check_decimation,
    check_trajectory,
    compile_feeder,
    eval_cost,
    generate_scenario,
    measure_tracking,
    oracle_map,
    read_scenario,
    run_closed_loop,
    step_problem,
    write_trajectory,
)

TB_STRONG = two_bus(z=0.33 + 0.33j)  # strong coupling settles fast
STATIC_PAR = ScenarioParams(n_steps=260, tau=1.0, load_p=0.0, load_swing=0.0, pav_peak=0.6)
FAST_PARAMS = ControllerParams(alpha=0.8, nu=1e-5, epsilon=1e-5)
FAST_INV = Inverters("joint", TB_STRONG.der_ratings, [1.0], [1.0])
PARAMS = ControllerParams(alpha=0.2, nu=1e-3, epsilon=1e-4)


def _inverters(fd, c_p=3.0, c_q=1.0, kind="joint"):
    # every DER of ``fd`` with the same cost weights
    return Inverters(kind, fd.der_ratings, [c_p] * fd.n_der, [c_q] * fd.n_der)


def test_static_generator_constant_series():
    fd = networks.feeder36()
    scen = generate_scenario("static", fd, seed=1, params=ScenarioParams(n_steps=20))
    assert scen.n_steps == 20
    assert np.all(scen.p_av == scen.p_av[0])
    assert np.all(scen.p_load == scen.p_load[0])
    assert np.allclose(scen.p_av[0], 0.9 * np.asarray(fd.der_ratings))
    assert np.allclose(scen.q_load, 0.4 * scen.p_load)


def test_ramp_generator_endpoints():
    fd = two_bus()
    par = ScenarioParams(n_steps=50, load_swing=0.0, ramp_start=0.2, ramp_end=0.9)
    scen = generate_scenario("ramp", fd, seed=1, params=par)
    assert scen.p_av[0, 0] == pytest.approx(0.2)
    assert scen.p_av[-1, 0] == pytest.approx(0.9)
    diffs = np.diff(scen.p_av[:, 0])
    assert np.allclose(diffs, diffs[0])


def test_cloud_generator_flat_top_and_bounded_dips():
    fd = networks.feeder36()
    par = ScenarioParams(
        n_steps=400, load_swing=0.0, pav_floor=0.15, pav_peak=0.95,
        bell_center=0.4, bell_width=0.2, bell_clip=0.7, n_dips=3, dip_depth=0.4,
    )
    scen = generate_scenario("cloud_transient", fd, seed=5, params=par)
    frac = scen.p_av[:, 0] / fd.der_ratings[0]
    assert frac.max() == pytest.approx(0.95, abs=1e-12)
    assert np.sum(frac >= 0.95 - 1e-9) > 10  # clipped plateau, not a point
    assert frac.min() >= 0.15 * (1 - 0.4) - 1e-12
    # asymmetric fall: slower decay after the apex widens the right shoulder
    par_slow = ScenarioParams(**{**par.__dict__, "bell_fall": 4.0, "n_dips": 0})
    par_sym = ScenarioParams(**{**par.__dict__, "n_dips": 0})
    slow = generate_scenario("cloud_transient", fd, seed=5, params=par_slow)
    sym = generate_scenario("cloud_transient", fd, seed=5, params=par_sym)
    assert np.all(slow.p_av[250:, 0] >= sym.p_av[250:, 0] - 1e-12)
    assert slow.p_av[350, 0] > sym.p_av[350, 0]


def test_vmax_steps_generator_plateaus():
    fd = two_bus()
    par = ScenarioParams(n_steps=120, load_swing=0.0)
    scen = generate_scenario("vmax_steps", fd, seed=2, params=par)
    b1, b2 = round(7 / 12 * 120), round(8 / 12 * 120)
    assert np.all(scen.v_max[:b1] == 1.05)
    assert np.all(scen.v_max[b1:b2] == 1.035)
    assert np.all(scen.v_max[b2:] == 1.02)
    assert set(np.unique(scen.v_max)) == {1.05, 1.035, 1.02}
    # availability held constant so the limit steps are the only disturbance
    assert np.all(scen.p_av == scen.p_av[0])


def test_generator_determinism_and_seed_sensitivity():
    fd = networks.feeder36()
    a = generate_scenario("cloud_transient", fd, seed=9)
    b = generate_scenario("cloud_transient", fd, seed=9)
    c = generate_scenario("cloud_transient", fd, seed=10)
    assert np.array_equal(a.p_av, b.p_av) and np.array_equal(a.p_load, b.p_load)
    assert not np.array_equal(a.p_av, c.p_av)


def test_generator_time_base_refinement():
    # halving tau with 2n-1 steps samples the same wall-clock trace
    fd = two_bus()
    p1 = ScenarioParams(n_steps=41, tau=1.0, load_swing=0.0, ramp_start=0.2, ramp_end=0.9)
    p2 = ScenarioParams(n_steps=81, tau=0.5, load_swing=0.0, ramp_start=0.2, ramp_end=0.9)
    s1 = generate_scenario("ramp", fd, seed=0, params=p1)
    s2 = generate_scenario("ramp", fd, seed=0, params=p2)
    assert np.allclose(s2.p_av[::2], s1.p_av, atol=1e-12)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown scenario kind"):
        generate_scenario("sunny", two_bus(), seed=0)


def test_scenario_validation():
    ok = dict(
        tau=1.0, p_load=np.zeros((5, 1)), q_load=np.zeros((5, 1)),
        p_av=np.zeros((5, 1)), v_min=np.full(5, 0.95), v_max=np.full(5, 1.05),
    )
    Scenario(**ok)
    with pytest.raises(ValueError, match="same number of steps"):
        Scenario(**{**ok, "q_load": np.zeros((4, 1))})
    with pytest.raises(ValueError, match="nonnegative"):
        Scenario(**{**ok, "p_av": np.full((5, 1), -0.1)})
    with pytest.raises(ValueError, match="tau"):
        Scenario(**{**ok, "tau": 0.0})


def test_scenario_file_round_trip(tmp_path):
    fd = networks.feeder36()
    scen = generate_scenario("cloud_transient", fd, seed=3)
    path = tmp_path / "scenario.csv"
    write_scenario_file(scen, fd, path)
    back = read_scenario(str(path), fd)
    assert back.tau == scen.tau
    assert np.array_equal(back.p_load, scen.p_load)
    assert np.array_equal(back.q_load, scen.q_load)
    assert np.array_equal(back.p_av, scen.p_av)
    assert np.array_equal(back.v_max, scen.v_max)
    with pytest.raises(ValueError, match="columns do not match"):
        read_scenario(str(path), two_bus())


def test_closed_loop_rejects_bad_arguments():
    fd = two_bus()
    net = compile_feeder(fd)
    scen = generate_scenario("static", fd, seed=0, params=ScenarioParams(n_steps=5))
    with pytest.raises(ValueError, match="unknown strategy"):
        run_closed_loop(net, scen, "mppt", FAST_INV, FAST_PARAMS)
    with pytest.raises(ValueError, match="unknown plant"):
        run_closed_loop(net, scen, "none", FAST_INV, FAST_PARAMS, plant="dc")
    with pytest.raises(ValueError, match="DER columns"):
        run_closed_loop(compile_feeder(networks.feeder36()), scen, "none", FAST_INV, FAST_PARAMS)
    two = Inverters("joint", [1.0, 1.0], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="2 inverters for the feeder's 1 DERs"):
        run_closed_loop(net, scen, "none", two, FAST_PARAMS)
    # the noise draw needs a finite interval width 2 * noise_amp
    for amp in (-1e-3, math.nan, math.inf, 1e308):
        with pytest.raises(ValueError, match="noise_amp must be >= 0 with 2 \\* noise_amp finite"):
            run_closed_loop(net, scen, "none", FAST_INV, FAST_PARAMS, noise_amp=amp)


def test_closed_loop_deterministic_with_noise():
    fd = TB_STRONG
    par = ScenarioParams(**{**STATIC_PAR.__dict__, "n_steps": 40})
    scen = generate_scenario("static", fd, seed=0, params=par)
    net = compile_feeder(fd)
    r1, r2, r3 = (
        run_closed_loop(net, scen, "pursuit", FAST_INV, FAST_PARAMS, seed=seed, noise_amp=1e-3)
        for seed in (42, 42, 43)
    )
    assert np.array_equal(r1.u, r2.u) and np.array_equal(r1.y, r2.y)
    assert not np.array_equal(r1.y, r3.y)


def test_uncontrolled_static_run_is_constant():
    scen = generate_scenario("static", TB_STRONG, seed=0, params=STATIC_PAR)
    traj = run_closed_loop(compile_feeder(TB_STRONG), scen, "none", FAST_INV, FAST_PARAMS)
    v = traj.v_mag[:, 0]
    assert np.allclose(v, v[0], atol=1e-9)
    assert v[0] > 1.05  # overvoltage without control
    assert np.all(traj.cost == 0.0)  # full available power, zero reactive


def test_pursuit_settles_on_static_instance():
    # feasible static instance: violation under 5e-4 within a 200-step burn-in
    scen = generate_scenario("static", TB_STRONG, seed=0, params=STATIC_PAR)
    net = compile_feeder(TB_STRONG)
    viol = run_closed_loop(net, scen, "pursuit", FAST_INV, FAST_PARAMS).max_violation
    assert viol[0] > 0.1
    settle = int(np.argmax(viol <= 5e-4))
    assert 0 < settle <= 200
    assert viol[200:].max() <= 5e-4


def test_a_turned_slack_angle_moves_no_run_figure():
    # a common angle of every voltage is not physical: turning the slack by
    # 30 degrees leaves the magnitudes, setpoints, costs and tracking figures
    # of a run on the AC plant where they were, up to rounding
    fd = networks.feeder36()
    turned = replace(fd, slack_voltage=fd.slack_voltage * cmath.rect(1.0, math.radians(30.0)))
    scen = generate_scenario("cloud_transient", fd, 7, ScenarioParams(n_steps=150, load_p=0.008))
    inv = _inverters(fd)
    runs = []
    for f in (fd, turned):
        net = compile_feeder(f)
        traj = run_closed_loop(net, scen, "pursuit", inv, PARAMS)
        runs.append((traj, asdict(measure_tracking(net, scen, inv, PARAMS, traj))))
    (traj0, rep0), (traj1, rep1) = runs
    for name in ("v_mag", "u", "y", "duals"):
        assert np.max(np.abs(getattr(traj1, name) - getattr(traj0, name))) <= 1e-12, name
    np.testing.assert_allclose(traj1.cost, traj0.cost, rtol=1e-9)
    assert rep0["e_measured"] > 0.0
    for name in ("e_measured", "sigma_z_measured", "tracking_error_tail"):
        assert rep1[name] == pytest.approx(rep0[name], rel=1e-9), name


def test_droop_absorbs_and_regulates_here():
    scen = generate_scenario("static", TB_STRONG, seed=0, params=STATIC_PAR)
    net = compile_feeder(TB_STRONG)
    traj = run_closed_loop(net, scen, "droop", FAST_INV, FAST_PARAMS)
    assert traj.u[-1, 0, 1] < -0.3  # deep into absorption
    assert traj.u[-1, 0, 0] == pytest.approx(scen.p_av[-1, 0])  # never curtails
    assert traj.max_violation[-1] == 0.0


def test_droop_output_is_the_clamped_first_order_response():
    # the recorded Q of step k + 1 closes DROOP_GAIN of step k's gap to the
    # curve at step k's local voltage, clamped to step k's headroom, bit for
    # bit; a ramp to the full rating shrinks the headroom onto the output
    par = ScenarioParams(n_steps=120, tau=1.0, load_p=0.0, load_swing=0.0,
                         ramp_start=0.5, ramp_end=1.0)
    scen = generate_scenario("ramp", TB_STRONG, seed=0, params=par)
    traj = run_closed_loop(compile_feeder(TB_STRONG), scen, "droop", FAST_INV, FAST_PARAMS)
    head = FAST_INV.headroom(FAST_INV.available(scen.p_av))
    der = TB_STRONG.der_indices()
    q = traj.u[:, :, 1]
    clamped = 0
    for k in range(scen.n_steps - 1):
        h = head[k]
        step = q[k] + DROOP_GAIN * (droop_q(traj.v_mag[k][der], h) - q[k])
        assert np.array_equal(q[k + 1], np.clip(step, -h, h)), k
        assert np.array_equal(traj.u[k + 1, :, 0], scen.p_av[k]), k
        clamped += int(np.any(np.abs(step) > h))
    assert q[0, 0] == 0.0 and clamped > 0
    assert q.min() < -0.3  # it absorbs: the filter moves


def test_droop_setpoints_stay_in_the_joint_region_of_their_availability():
    # a feeder36 ramp to the full rating shrinks the headroom every step;
    # step k + 1 applies what step k computed at step k's availability
    fd = networks.feeder36()
    par = ScenarioParams(n_steps=120, ramp_start=0.5, ramp_end=1.0)
    scen = generate_scenario("ramp", fd, seed=0, params=par)
    u = run_closed_loop(compile_feeder(fd), scen, "droop", _inverters(fd), PARAMS).u
    p_av = np.concatenate([scen.p_av[:1], scen.p_av[:-1]])
    assert np.all(in_region("joint", fd.der_ratings, p_av, u[:, :, 0], u[:, :, 1], tol=1e-12))
    assert np.any(u[:, :, 1] < 0.0)


def test_eval_cost_conventions():
    scen = generate_scenario("static", TB_STRONG, seed=0, params=STATIC_PAR)
    traj = run_closed_loop(compile_feeder(TB_STRONG), scen, "pursuit", FAST_INV, FAST_PARAMS)
    full = eval_cost(traj.u[-1:], FAST_INV, scen.p_av[-1:])
    # the reactive-only convention: P taken at the full availability
    at_p_av = traj.u[-1:].copy()
    at_p_av[:, :, 0] = scen.p_av[-1:]
    reactive = eval_cost(at_p_av, FAST_INV, scen.p_av[-1:])
    u = traj.u[-1]
    pav = scen.p_av[-1, 0]
    assert full[0] == pytest.approx((pav - u[0, 0]) ** 2 + u[0, 1] ** 2)
    assert reactive[0] == pytest.approx(u[0, 1] ** 2)
    assert full[0] > reactive[0]
    assert full[0] == traj.cost[-1]


def test_derived_columns_match_the_per_step_reference():
    # the run derives cost and max_violation from its arrays after the loop;
    # the reference evaluates each step on its own, DER by DER in order
    fd = networks.feeder36()
    scen = generate_scenario("vmax_steps", fd, seed=2, params=ScenarioParams(n_steps=60))
    c_q = [0.5 + 0.1 * i for i in range(fd.n_der)]
    inv = Inverters("joint", fd.der_ratings, [3.0] * fd.n_der, c_q)
    traj = run_closed_loop(compile_feeder(fd), scen, "pursuit", inv, PARAMS)
    mon = fd.monitored_indices()
    for k in range(scen.n_steps):
        u, v = traj.u[k], traj.v_mag[k, mon]
        cost = sum(3.0 * (scen.p_av[k, i] - u[i, 0]) ** 2 + c_q[i] * u[i, 1] * u[i, 1]
                   for i in range(fd.n_der))
        viol = max(0.0, float(np.max(scen.v_min[k] - v)), float(np.max(v - scen.v_max[k])))
        assert traj.cost[k] == cost
        assert traj.max_violation[k] == viol
    assert traj.max_violation.max() > 0.0


def test_step_problem_uses_scenario_step_data():
    fd = networks.feeder36()
    scen = generate_scenario("vmax_steps", fd, seed=2, params=ScenarioParams(n_steps=120))
    net = compile_feeder(fd)
    k = 100
    inv = _inverters(fd)
    steps, c = oracle_map(net, scen, inv, PARAMS)
    assert len(steps.p_av) == len(c) == scen.n_steps
    assert steps.inverters is inv and steps.params == replace(PARAMS, alpha=1.0)
    assert steps.coupling is net.coupling
    prob = step_problem(steps, c, k)
    assert prob.step_map is steps and prob.k == k
    assert steps.v_min[k] == scen.v_min[k] and steps.v_max[k] == scen.v_max[k]
    assert np.array_equal(steps.p_av[k], scen.p_av[k])
    expect_c = constraint_offsets(net.lm, scen.p_load[k], scen.q_load[k], fd)
    assert np.allclose(prob.c, expect_c, atol=1e-15)


def _own_step_problem(net, scen, inv, params, k):
    # step k's saddle instance built from that step's data alone: its own
    # one-column offset solve and its own clipped availability
    c = constraint_offsets(net.lm, scen.p_load[k], scen.q_load[k], net.feeder)
    return saddle(
        inv, inv.available(scen.p_av[k]), net.coupling, c,
        float(scen.v_min[k]), float(scen.v_max[k]), params,
    )


def _config36(n_steps=None):
    # the shipped config36 run: compiled feeder, scenario, inverters,
    # controller parameters and run seed; n_steps regenerates the scenario
    # over another horizon
    cfg = load_config(str(Path(__file__).resolve().parents[1] / "data" / "config36.json"))
    net = compile_feeder(load_feeder(cfg.feeder))
    gen = cfg.generator if n_steps is None else replace(cfg.generator, n_steps=n_steps)
    scen = generate_scenario(gen.kind, net.feeder, gen.seed, gen)
    inv = _inverters(net.feeder, cfg.cost.c_p, cfg.cost.c_q)
    return net, scen, inv, cfg.controller, cfg.seed


def test_oracle_returns_at_the_rounding_floor_below_an_unreachable_tolerance(monkeypatch):
    # config36 step 300: below ||r|| = 1e-9 the Newton step fails the line
    # search and the accepted steps stop lowering ||r||, which ends the solve
    net, scen, inv, params, _ = _config36()
    prob = _own_step_problem(net, scen, inv, params, 300)
    monkeypatch.setattr(controller, "_MAX_ITER", 200)
    sol = solve_saddle_oracle(prob, tol=1e-15)
    assert sol.iterations < 200
    assert sol.residual <= 1e-12


@pytest.mark.parametrize("kind", REGION_KINDS)
def test_pursuit_setpoints_stay_in_their_regions(kind):
    # step k commands the projection made at step k - 1, onto the region of
    # that step's availability; step 0 commands full availability. Near-rated
    # availability drives the reactive-only setpoints onto their caps.
    fd = networks.feeder36()
    par = ScenarioParams(n_steps=60, pav_peak=0.97, load_swing=0.0)
    scen = generate_scenario("static", fd, seed=4, params=par)
    u = run_closed_loop(compile_feeder(fd), scen, "pursuit", _inverters(fd, kind=kind), PARAMS).u
    p_av = np.concatenate([scen.p_av[:1], scen.p_av[:-1]])
    assert np.all(in_region(kind, fd.der_ratings, p_av, u[:, :, 0], u[:, :, 1], tol=1e-12))
    # the controller acted: it curtailed or moved off unity power factor
    assert np.any(u[:, :, 0] < p_av) or np.any(u[:, :, 1] != 0.0)


@pytest.mark.parametrize("kind", REGION_KINDS)
def test_the_loop_applies_the_public_step_map_at_every_step(kind):
    # a noisy feeder36 pursuit run on either plant, longer than one block of
    # rows: the recorded state of step k + 1 is primal_step and
    # dual_step_feedback on a whole-run step map, applied to step k's
    # recorded state and measurement, bit for bit, sign bits included
    fd = networks.feeder36()
    net = compile_feeder(fd)
    n_steps = sim.ROW_CELLS // fd.n_nodes + 20
    scen = generate_scenario(
        "cloud_transient", fd, seed=5, params=ScenarioParams(n_steps=n_steps)
    )
    inv = _inverters(fd, kind=kind)
    steps = StepMap(inv, net.coupling, PARAMS, inv.available(scen.p_av), scen.v_min, scen.v_max)

    def bits(a):
        return np.ascontiguousarray(a).view(np.int64).tolist()

    for plant in sim.PLANTS:
        traj = run_closed_loop(
            net, scen, "pursuit", inv, PARAMS, seed=3, plant=plant, noise_amp=1e-3
        )
        assert traj.duals[:, 1].max() > 0.0  # mu: the upper limits bind, so the duals move
        for k in range(n_steps - 1):
            duals = traj.duals[k]
            u_next = primal_step(traj.u[k], duals, steps, k)
            assert bits(u_next) == bits(traj.u[k + 1]), (plant, k)
            d_next = dual_step_feedback(duals, traj.y[k], steps, k)
            assert bits(d_next) == bits(traj.duals[k + 1]), (plant, k)


def test_over_rated_availability_is_clipped_once_per_run(tmp_path):
    fd = networks.feeder36()
    net = compile_feeder(fd)
    scen = generate_scenario("cloud_transient", fd, seed=3, params=ScenarioParams(n_steps=40))
    path = tmp_path / "over.csv"
    write_scenario_file(replace(scen, p_av=1.3 * scen.p_av), fd, path)
    over = read_scenario(str(path), fd)
    ratings = np.asarray(fd.der_ratings)
    assert np.any(over.p_av > ratings)
    inv = _inverters(fd)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = run_closed_loop(net, over, "pursuit", inv, PARAMS)
    assert [str(w.message).endswith("clipped to the rating") for w in caught] == [True]
    # the controller sees the clipped availability: the same run on a
    # clipped scenario whose row 0 keeps the raw availability, so that it
    # starts where this one starts (full raw availability)
    clipped_p_av = np.minimum(over.p_av, ratings)
    clipped_p_av[0] = over.p_av[0]
    clipped = replace(over, p_av=clipped_p_av)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = run_closed_loop(net, clipped, "pursuit", inv, PARAMS)
    for name in ("y", "u", "duals", "v_mag", "max_violation", "pf_residual"):
        assert np.array_equal(getattr(traj, name), getattr(ref, name)), name
    # the recorded cost is charged against the raw availability
    assert np.array_equal(traj.cost, eval_cost(traj.u, inv, over.p_av))
    assert not np.array_equal(traj.cost, ref.cost)


def test_plant_failure_reports_step():
    fd = two_bus()
    k = 3
    p_load = np.zeros((6, 1))
    p_load[k, 0] = 80.0  # far beyond any power-flow solution
    scen = Scenario(
        tau=1.0, p_load=p_load, q_load=np.zeros((6, 1)), p_av=np.zeros((6, 1)),
        v_min=np.full(6, 0.95), v_max=np.full(6, 1.05),
    )
    with pytest.raises(PowerFlowError, match=f"^step {k}: "):
        run_closed_loop(compile_feeder(fd), scen, "none", FAST_INV, FAST_PARAMS)


@pytest.mark.parametrize(
    "strategy, three_point_total", [("pursuit", 2653), ("none", 2461)], ids=["pursuit", "none"]
)
def test_extrapolated_ac_start_keeps_the_solution_and_saves_iterations(
    strategy, three_point_total, monkeypatch
):
    # every step re-solved from the no-load profile at the recorded
    # injections lands on the recorded magnitudes, so the extrapolated start
    # keeps the plant on the same solution branch; starting each step at the
    # previous solution instead takes more iterations in total, and so did
    # the three-point extrapolation (three_point_total)
    net, scen, inv, params, seed = _config36()
    counts = []

    def counted(*args, **kwargs):
        sol = solve_ac(*args, **kwargs)
        counts.append(sol.iterations)
        return sol

    monkeypatch.setattr(sim, "solve_ac", counted)
    traj = run_closed_loop(net, scen, strategy, inv, params, seed=seed)
    assert traj.pf_iterations.dtype.kind == "i"
    assert traj.pf_iterations.tolist() == counts
    assert np.all(traj.pf_residual <= 1e-9)

    der, v0 = net.feeder.der_indices(), net.feeder.slack_voltage
    previous_start_total, v_prev = 0, net.lm.vbar
    for k in range(scen.n_steps):
        p, q = -scen.p_load[k], -scen.q_load[k]
        p[der] += traj.u[k, :, 0]
        q[der] += traj.u[k, :, 1]
        inj = p + 1j * q
        cold = solve_ac(net.lm.adm, inj, v0)
        assert np.max(np.abs(np.abs(cold.v) - traj.v_mag[k])) <= 1e-8, k
        previous_start_total += solve_ac(net.lm.adm, inj, v0, init=v_prev).iterations
        v_prev = cold.v
    assert traj.pf_iterations.sum() < min(previous_start_total, three_point_total)


def test_extrapolated_start_outside_the_band_falls_back_to_the_last_solution():
    # 4 pu of generation lifts the bus to 1.31 pu at step 1 and step 2 is
    # unloaded again, so the three-point extrapolation to step 3,
    # 3 (v_2 - v_1) + v_0, has magnitude 0.15 pu: a start solve_ac rejects.
    # 2 pu at step 4 lifts it to 1.17 pu, and the four-point extrapolation
    # to step 6, 4 v_5 - 6 v_4 + 4 v_3 - v_2, has magnitude 0.12 pu. The run
    # starts steps 3 and 6 at the last solution and ends as the cold solves do.
    fd = two_bus(z=0.1 + 0.01j)
    net = compile_feeder(fd)
    p_load = np.zeros((7, 1))
    p_load[1, 0], p_load[4, 0] = -4.0, -2.0
    zeros = np.zeros((7, 1))
    scen = Scenario(
        tau=1.0, p_load=p_load, q_load=zeros, p_av=zeros,
        v_min=np.full(7, 0.95), v_max=np.full(7, 1.05),
    )
    cold = [solve_ac(net.lm.adm, -p + 0j, fd.slack_voltage).v
            for p in p_load]
    for predicted in (3.0 * (cold[2] - cold[1]) + cold[0],
                      4.0 * cold[5] - 6.0 * cold[4] + 4.0 * cold[3] - cold[2]):
        assert np.abs(predicted).max() < 0.3
        with pytest.raises(ValueError, match="warm-start"):
            solve_ac(net.lm.adm, np.zeros(1, dtype=complex), fd.slack_voltage,
                     init=predicted)
    traj = run_closed_loop(net, scen, "none", FAST_INV, FAST_PARAMS)
    assert np.all(traj.pf_residual <= 1e-9)
    assert np.allclose(traj.v_mag, np.abs(cold), rtol=0.0, atol=1e-8)


def test_ac_start_extrapolates_through_up_to_four_solutions(monkeypatch):
    # row i of the start table, times the last four solutions newest first,
    # is the polynomial through the last i + 1 of them; on small-integer
    # complex histories every operation is exact, so the product equals the
    # polynomial, evaluated in this order, to the bit
    rng = np.random.default_rng(0)
    hist = rng.integers(-50, 51, (4, 6)) + 1j * rng.integers(-50, 51, (4, 6))
    v1, v2, v3, v4 = hist
    wants = [v1, 2.0 * v1 - v2, 3.0 * (v1 - v2) + v3, 4.0 * v1 - 6.0 * v2 + 4.0 * v3 - v4]
    for i, want in enumerate(wants):
        got = (sim.AC_START[i] @ hist.view(float)).view(complex)
        assert got.tobytes() == want.tobytes(), i

    # the loop: step 0 starts at the no-load profile with no fallback, and
    # step k at row min(k, 4) - 1 times its last solutions (zeros before
    # step 4), falling back to the newest
    net, scen, inv, params, seed = _config36(n_steps=8)
    calls = []

    def recorded(*args, **kwargs):
        sol = solve_ac(*args, **kwargs)
        calls.append((kwargs["init"], kwargs["fallback"], sol.v))
        return sol

    monkeypatch.setattr(sim, "solve_ac", recorded)
    run_closed_loop(net, scen, "pursuit", inv, params, seed=seed)
    assert calls[0][0] is net.lm.vbar and calls[0][1] is None
    last = np.zeros((4, net.feeder.n_nodes), dtype=complex)
    for k, (init, fallback, v) in enumerate(calls):
        if k:
            want = (sim.AC_START[min(k, 4) - 1] @ last.view(float)).view(complex)
            assert init.tobytes() == want.tobytes(), k
            assert fallback.tobytes() == last[0].tobytes(), k
        last = np.concatenate([v[None], last[:3]])


def test_each_step_tests_its_ac_start_once(monkeypatch):
    # every magnitude band test is either one per fixed-point iterate, in
    # solve_ac, or the one test of the step's start
    net, scen, inv, params, seed = _config36(n_steps=60)
    tests = []

    def counted(v_mag):
        tests.append(v_mag)
        return in_band(v_mag)

    monkeypatch.setattr(powerflow, "in_band", counted)
    # a test the loop made of its own, through an imported in_band, counts too
    monkeypatch.setattr(sim, "in_band", counted, raising=False)
    traj = run_closed_loop(net, scen, "pursuit", inv, params, seed=seed)
    assert len(tests) == traj.pf_iterations.sum() + scen.n_steps


# the per-step calls of a pursuit loop, and what numpy calls a generic reduction
STEP_CALLS = ("solve_ac", "primal_step", "dual_step_feedback", "_project")
UFUNC_REDUCE = "<method 'reduce' of 'numpy.ufunc' objects>"


def test_the_pursuit_step_makes_no_generic_numpy_reduction():
    # a ufunc.reduce (np.minimum.reduce, x.max(), x.all(), ...) costs
    # 1.1-1.9 us a call on a feeder36 vector, several times a pick of the
    # same element (opftrack._pick), and the band, residual and projection
    # tests would make about eight a step. Counted over everything the
    # per-step calls reach, through any helper.
    net, scen, inv, params, seed = _config36(n_steps=50)
    prof = cProfile.Profile()
    prof.runcall(run_closed_loop, net, scen, "pursuit", inv, params, seed=seed)
    stats = pstats.Stats(prof).stats  # callee -> (..., {caller: (calls, ...)})
    callees = {}
    for func, (*_, callers) in stats.items():
        for caller in callers:
            callees.setdefault(caller, set()).add(func)
    step = [f for f in stats if f[2] in STEP_CALLS and "opftrack" in f[0]]
    assert sorted(f[2] for f in step) == sorted(STEP_CALLS)
    assert min(stats[f][1] for f in step) >= 50
    reached, todo = set(), list(step)
    while todo:
        f = todo.pop()
        if f not in reached:
            reached.add(f)
            todo.extend(callees.get(f, ()))
    reduce = [f for f in stats if f[2] == UFUNC_REDUCE]
    made = {caller[2]: calls[0] for f in reduce for caller, calls in stats[f][4].items()
            if caller in reached}
    assert made == {}


def test_runaway_duals_warn():
    # a huge stepsize against an upper limit below the unloaded magnitude
    # drives mu past 1e6 in the first dual step; the recorded duals show it
    # (the run's summary reports their largest value), and the loop warns
    # nothing
    fd = two_bus()
    par = ScenarioParams(n_steps=2, load_p=0.0, v_max=0.96)
    scen = generate_scenario("static", fd, seed=0, params=par)
    params = replace(FAST_PARAMS, alpha=1e8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        traj = run_closed_loop(compile_feeder(fd), scen, "pursuit", FAST_INV, params)
    assert traj.duals[0].max() == 0.0
    assert traj.duals[1, 1].max() > 1e6


def test_trajectory_round_trip(tmp_path):
    fd = networks.feeder36()
    scen = generate_scenario("cloud_transient", fd, seed=3, params=ScenarioParams(n_steps=25))
    net = compile_feeder(fd)
    traj = run_closed_loop(net, scen, "pursuit", _inverters(fd), PARAMS, noise_amp=1e-3)
    path, again = tmp_path / "traj.csv", tmp_path / "again.csv"
    write_trajectory(traj, fd, scen, str(path))
    back = check_trajectory(str(path), net, scen, _inverters(fd))
    for name in ("y", "u", "duals", "v_mag", "cost", "max_violation", "pf_residual"):
        assert np.array_equal(getattr(back, name), getattr(traj, name)), name
    write_trajectory(back, fd, scen, str(again))
    assert again.read_bytes() == path.read_bytes()
    with pytest.raises(ValueError, match="columns do not match"):
        sim._read_trajectory(str(path), two_bus())


# a narrow layout (11 trajectory columns) and one wider than a writer block
# (4845 trajectory and 2423 scenario columns)
WRITER_LAYOUTS = (
    two_bus(),
    chain(1100, der_nodes=tuple(range(5, 1101, 5))),
)
# signed zeros, the smallest subnormal and others, values whose repr
# switches notation or whose digits hold 0.0000 inside a longer number;
# every array repeats values from this pool
SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-5,
                  1e-4, 0.1, 1.0, 1e15, 1e16, -1e16, 1.7976931348623157e308, 1.5e-05,
                  9.999999999999999e-05, 1e-06, 10.00001, -120.00001, 1e+100,
                  9999999999999998.0, 1e-9, 9.999999999999999e-10)
# a trajectory may hold these too; a scenario may not
NON_FINITE = (math.nan, math.inf, -math.inf)


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a, float), np.ascontiguousarray(b, float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=30, deadline=None)
@given(
    layout=st.sampled_from(WRITER_LAYOUTS),
    k=st.integers(1, 4),
    drawn=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8),
    tau=st.one_of(st.sampled_from([0.33, 1e-5, 5e-324, 1e16]), st.floats(1e-300, 1e300)),
    seed=st.integers(0, 2**32 - 1),
)
def test_writers_match_the_csv_reference_and_round_trip(tmp_path_factory, layout, k, drawn, tau,
                                                        seed):
    rng = np.random.default_rng(seed)
    pool = np.asarray(SPECIAL_FLOATS + tuple(drawn))

    def cells(*shape, pool=pool):
        # half the cells from the pool, half spread over every exponent
        wide = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
        return np.where(rng.random(shape) < 0.5, rng.choice(pool, shape), wide)

    def traj_cells(*shape):
        return cells(*shape, pool=np.append(pool, NON_FINITE))

    n, m, g = layout.n_nodes, len(layout.monitored_nodes), layout.n_der
    scen = Scenario(
        tau=tau, p_load=cells(k, n), q_load=cells(k, n), p_av=np.abs(cells(k, g)),
        v_min=-np.abs(cells(k)) - 5e-324, v_max=np.abs(cells(k)),  # v_min < 0 <= v_max
    )
    traj = Trajectory(
        y=traj_cells(k, m), u=traj_cells(k, g, 2), duals=traj_cells(k, 2, m),
        v_mag=traj_cells(k, n), cost=traj_cells(k), max_violation=traj_cells(k),
        pf_residual=traj_cells(k),
    )
    tmp = tmp_path_factory.mktemp("writers")

    # the scenario reader reads csv.writer's bytes back bit for bit
    path = tmp / "scenario.csv"
    write_scenario_file(scen, layout, path)
    if k > 1:
        back = read_scenario(str(path), layout)
        for name in ("p_load", "q_load", "p_av", "v_min", "v_max"):
            assert _same_bits(getattr(back, name), getattr(scen, name)), name
        assert back.tau == tau
    else:  # one row gives no spacing to read tau from
        with pytest.raises(ValueError, match=f"{path}: scenario has one row"):
            read_scenario(str(path), layout)

    path = tmp / "trajectory.csv"
    write_trajectory(traj, layout, scen, str(path))
    parts = [np.arange(k) * tau, traj.cost, traj.max_violation, traj.pf_residual, traj.y,
             traj.u[:, :, 0], traj.u[:, :, 1], traj.duals[:, 0], traj.duals[:, 1], traj.v_mag]
    rows = [[i, *row.tolist()] for i, row in enumerate(np.column_stack(parts))]
    with open(path, encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh))
    assert header[:5] == ["k", "time_s", "cost", "max_violation", "pf_residual"]
    assert len(header) == 5 + 3 * m + 2 * g + n
    assert path.read_bytes() == csv_reference(header, rows)
    back = sim._read_trajectory(str(path), layout)[1]
    for name in ("y", "u", "duals", "v_mag", "cost", "max_violation", "pf_residual"):
        assert _same_bits(getattr(back, name), getattr(traj, name)), name


def test_writer_writes_each_cell_as_repr_with_or_without_a_large_cell(tmp_path):
    # three writer blocks: finite cells of 1e16 and above beside the other
    # notations, 1e16 as the only such cell, and none (9999999999999998.0 is
    # the largest float below 1e16). The e -> e+ pass runs on the first two
    # only, and every cell of all three is its repr
    blocks = (
        [1e16, -3e300, 1e-7, 1.5e-5, math.nan, math.inf],
        [0.25, 1e16, 1e-7, 1.5e-5, math.nan, -math.inf],
        [9999999999999998.0, -1e15, 1e-7, 1.5e-5, -math.inf, 0.5],
    )
    rows = max(1, sim._BLOCK_CELLS // len(blocks[0]))  # one block
    data = np.asarray([cells for cells in blocks for _ in range(rows)])
    path = tmp_path / "cells.csv"
    sim._write_columns(str(path), [f"c{i}" for i in range(len(blocks[0]))], [data])
    lines = path.read_bytes().split(b"\r\n")
    assert len(lines) == len(data) + 2 and lines[-1] == b""
    for k, row in enumerate(data.tolist()):
        assert lines[k + 1] == ",".join([str(k)] + [repr(x) for x in row]).encode(), k


TRACK_FEEDER = two_bus(z=0.1 + 0.1j)
TRACK_NET = compile_feeder(TRACK_FEEDER)
TRACK_INV = _inverters(TRACK_FEEDER, 0.5, 0.5)
TRACK_PARAMS = ControllerParams(alpha=0.05, nu=0.1, epsilon=0.1)


def test_tracking_bound_on_linear_plant_ramp():
    # linear plant makes the measurement-model gap identically zero, and the
    # well-regularized stepsize sits inside the contraction range
    par = ScenarioParams(n_steps=41, tau=1.0, load_p=0.0, load_swing=0.0,
                         ramp_start=0.2, ramp_end=0.9)
    scen = generate_scenario("ramp", TRACK_FEEDER, seed=0, params=par)
    traj = run_closed_loop(TRACK_NET, scen, "pursuit", TRACK_INV, TRACK_PARAMS, plant="linear")
    rep = measure_tracking(TRACK_NET, scen, TRACK_INV, TRACK_PARAMS, traj, decimation=1)
    assert rep.e_measured == 0.0
    assert _rho_alpha(TRACK_NET, TRACK_INV, TRACK_PARAMS) < 1.0
    assert rep.bound_satisfied is True
    assert rep.tracking_error_tail <= rep.bound_rhs
    assert rep.note == ""
    d = asdict(rep)
    assert "constants" not in d  # the run's constants are summary.json's own section
    assert d["bound_satisfied"] is True


def _rho_alpha(net, inv, params):
    return convergence_constants(inv, net.coupling, params).rho_alpha


def test_tracking_sigma_halves_with_tau():
    par1 = ScenarioParams(n_steps=41, tau=1.0, load_p=0.0, load_swing=0.0,
                          ramp_start=0.2, ramp_end=0.9)
    par2 = ScenarioParams(n_steps=81, tau=0.5, load_p=0.0, load_swing=0.0,
                          ramp_start=0.2, ramp_end=0.9)
    s1 = generate_scenario("ramp", TRACK_FEEDER, seed=0, params=par1)
    s2 = generate_scenario("ramp", TRACK_FEEDER, seed=0, params=par2)
    r1, r2 = (run_closed_loop(TRACK_NET, s, "pursuit", TRACK_INV, TRACK_PARAMS, plant="linear")
              for s in (s1, s2))
    t1 = measure_tracking(TRACK_NET, s1, TRACK_INV, TRACK_PARAMS, r1, decimation=1)
    t2 = measure_tracking(TRACK_NET, s2, TRACK_INV, TRACK_PARAMS, r2, decimation=1)
    assert t2.sigma_z_measured == pytest.approx(0.5 * t1.sigma_z_measured, rel=1e-6)


def test_tracking_without_contraction_guarantee():
    par = ScenarioParams(n_steps=30, tau=1.0, load_p=0.0, load_swing=0.0,
                         ramp_start=0.2, ramp_end=0.9)
    scen = generate_scenario("ramp", TRACK_FEEDER, seed=0, params=par)
    inv = _inverters(TRACK_FEEDER)
    traj = run_closed_loop(TRACK_NET, scen, "pursuit", inv, PARAMS, plant="linear")
    rep = measure_tracking(TRACK_NET, scen, inv, PARAMS, traj, decimation=11)
    assert _rho_alpha(TRACK_NET, inv, PARAMS) >= 1.0
    assert rep.bound_satisfied is None
    assert math.isinf(rep.bound_rhs)
    assert "no contraction guarantee" in rep.note
    with pytest.raises(ValueError, match="decimation"):
        measure_tracking(TRACK_NET, scen, inv, PARAMS, traj, decimation=0)
    # steps 0, 10, 20 all lie before the tail, steps 22..29
    with pytest.raises(ValueError, match="decimation 10 samples no step of the tail, steps 22..29"):
        measure_tracking(TRACK_NET, scen, inv, PARAMS, traj, decimation=10)


def test_check_decimation_refuses_exactly_the_decimations_that_miss_the_tail():
    # a report samples the steps 0, d, 2d, ...; its tail figures need one of
    # them in the run's last quarter, from Trajectory.tail_start on
    for n_steps in (1, 2, 3, 4, 30, 40, 600):
        tail = int(0.75 * n_steps)
        for d in range(1, n_steps + 2):
            if any(k >= tail for k in range(0, n_steps, d)):
                check_decimation(n_steps, d)
            else:
                with pytest.raises(ValueError, match=f"decimation {d} samples no step of the "
                                                     f"tail, steps {tail}..{n_steps - 1} of "):
                    check_decimation(n_steps, d)
    with pytest.raises(ValueError, match="decimation must be >= 1"):
        check_decimation(600, 0)


def test_scenario_rejects_non_finite_series():
    ok = dict(tau=1.0, p_load=[[0.0]], q_load=[[0.0]], p_av=[[0.0]],
              v_min=[0.95], v_max=[1.05])
    Scenario(**ok)
    for name, bad in (("p_load", [[np.nan]]), ("p_av", [[np.inf]]), ("v_min", [np.nan])):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            Scenario(**{**ok, name: bad})
    with pytest.raises(ValueError, match="tau"):
        Scenario(**{**ok, "tau": math.nan})


def test_e_measured_is_the_largest_per_step_model_mismatch():
    # reference: each recorded step's measurement against the prediction of
    # that step's own saddle instance; the report takes the offsets of all
    # steps from one multi-column solve, so the two agree to rounding
    fd = networks.feeder36()
    net = compile_feeder(fd)
    scen = generate_scenario("cloud_transient", fd, seed=2, params=ScenarioParams(n_steps=40))
    inv = _inverters(fd)
    traj = run_closed_loop(net, scen, "pursuit", inv, PARAMS, noise_amp=1e-3)
    rep = measure_tracking(net, scen, inv, PARAMS, traj, decimation=30)
    own = [_own_step_problem(net, scen, inv, PARAMS, k) for k in range(scen.n_steps)]
    ref = max(
        np.linalg.norm(traj.y[k] - net.coupling.predict(u, own[k].c))
        for k, u in enumerate(traj.u)
    )
    assert ref > 1e-3
    assert rep.e_measured == pytest.approx(ref, rel=1e-12)


def _reference_report(net, scen, inv, params, traj, decimation):
    # the report built step by step: each sampled step's own saddle instance
    # and an oracle warm started from the previous setpoints, then one pass
    # per figure
    ks = list(range(0, scen.n_steps, decimation))
    sols, u0 = {}, None
    for k in ks:
        sols[k] = solve_saddle_oracle(_own_step_problem(net, scen, inv, params, k), u0=u0)
        u0 = sols[k].u
    stars = {k: pack_state(s.u, s.duals) for k, s in sols.items()}
    sigma_z = max(
        (float(np.linalg.norm(stars[b] - stars[a])) / (b - a) for a, b in zip(ks, ks[1:])),
        default=0.0,
    )
    c = constraint_offsets(net.lm, scen.p_load, scen.q_load, net.feeder)
    w = net.coupling.predict(traj.u, c)
    e = float(np.max(np.linalg.norm(traj.y - w, axis=1)))
    tail = max(
        (float(np.linalg.norm(pack_state(traj.u[k], traj.duals[k]) - stars[k]))
         for k in ks if k >= int(0.75 * scen.n_steps)),
        default=0.0,
    )
    rho = _rho_alpha(net, inv, params)
    bound = (math.sqrt(2.0) * params.alpha * e + sigma_z) / (1.0 - rho) if rho < 1.0 else math.inf
    its = [s.iterations for s in sols.values()]
    return TrackingReport(
        sigma_z_measured=sigma_z, e_measured=e, bound_rhs=bound,
        tracking_error_tail=tail, bound_satisfied=tail <= bound if rho < 1.0 else None,
        decimation=decimation, oracle_iterations_total=sum(its), oracle_iterations_max=max(its),
        oracle_residual_max=max(s.residual for s in sols.values()),
        note="" if rho < 1.0 else "no contraction guarantee: alpha >= alpha_max",
    )


def _config36_run():
    net, scen, inv, params, seed = _config36()
    return net, scen, inv, params, run_closed_loop(net, scen, "pursuit", inv, params, seed=seed), 60


def _config36_short_run():
    # config36 generated over 30 steps: the tail starts at int(0.75 K) = 22,
    # the summary's window, and step 22 has the tail's largest error
    net, scen, inv, params, seed = _config36(n_steps=30)
    return net, scen, inv, params, run_closed_loop(net, scen, "pursuit", inv, params, seed=seed), 1


def _track_ramp_run():
    par = ScenarioParams(n_steps=41, tau=1.0, load_p=0.0, load_swing=0.0,
                         ramp_start=0.2, ramp_end=0.9)
    scen = generate_scenario("ramp", TRACK_FEEDER, seed=0, params=par)
    traj = run_closed_loop(TRACK_NET, scen, "pursuit", TRACK_INV, TRACK_PARAMS, plant="linear")
    return TRACK_NET, scen, TRACK_INV, TRACK_PARAMS, traj, 1


@pytest.mark.parametrize(
    "run", [_config36_run, _config36_short_run, _track_ramp_run],
    ids=["config36-60", "config36-30-steps-1", "track-1"],
)
def test_one_pass_report_equals_the_step_by_step_reference(run, capsys):
    net, scen, inv, params, traj, decimation = run()
    rep = measure_tracking(net, scen, inv, params, traj, decimation=decimation)
    ref = _reference_report(net, scen, inv, params, traj, decimation)
    assert rep == ref
    # the oracle figures summarize real solves, and the JSON form keeps them
    assert rep.oracle_iterations_total >= rep.oracle_iterations_max > 0
    assert 0.0 < rep.oracle_residual_max <= 1e-11
    _emit_json(asdict(rep), None)
    d = json.loads(capsys.readouterr().out)
    assert d["oracle_iterations_total"] == rep.oracle_iterations_total
    assert "constants" not in d
    assert d["bound_rhs"] == (rep.bound_rhs if math.isfinite(rep.bound_rhs) else None)


def test_a_tree_factored_feeder_reports_as_its_dense_inverse():
    # config36 over 30 steps, its feeder compiled with the dense inverse and
    # with the tree factor, whose coupling applies the factor: the two runs
    # and their full-resolution reports differ by rounding only
    net, scen, inv, params, seed = _config36(n_steps=30)
    tree = compile_with_dense_limit(net.feeder, 0)
    assert isinstance(tree.coupling, FactoredCoupling)
    dense, factored = (
        asdict(measure_tracking(
            n, scen, inv, params, run_closed_loop(n, scen, "pursuit", inv, params, seed=seed), 1
        ))
        for n in (net, tree)
    )
    assert dense["oracle_iterations_total"] > 0
    for key, value in dense.items():
        if isinstance(value, float):
            assert math.isclose(factored[key], value, rel_tol=0.0, abs_tol=1e-10), key
        else:
            assert factored[key] == value, key


def test_over_rated_scenario_warns_once_per_report():
    fd = networks.feeder36()
    net = compile_feeder(fd)
    scen = generate_scenario("static", fd, seed=3, params=ScenarioParams(n_steps=20))
    over = replace(scen, p_av=1.3 * scen.p_av)  # every step 17% over the rating
    inv = _inverters(fd)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = run_closed_loop(net, over, "pursuit", inv, PARAMS)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        measure_tracking(net, over, inv, PARAMS, traj, decimation=5)
    assert [str(w.message).endswith("clipped to the rating") for w in caught] == [True]


@pytest.mark.parametrize(
    "body, message",
    [
        # the first bad row is named, whichever fault a later row has
        ("1,2,3\n4,abc,6\n7,8\n", "row 2: could not convert string to float: 'abc'"),
        ("1,2,3\n4,5\n7,x,9\n", "row 2 has 2 columns, expected 3"),
        ("1,2,3,4\n5,6,7,8\n", "row 1 has 4 columns, expected 3"),
        ("1,2,3\n\n4,5,0x10\n", "row 2: could not convert string to float: '0x10'"),
    ],
)
def test_rows_reader_names_the_first_bad_row(tmp_path, body, message):
    path = tmp_path / "rows.csv"
    path.write_text("a,b,c\n" + body, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        sim._read_rows(str(path), ["a", "b", "c"], "test")
    assert str(err.value) == f"{path}: {message}"


def test_rows_reader_reads_the_writers_cells_in_one_numpy_pass(tmp_path, monkeypatch):
    # numpy's parser takes every cell the writer makes, the non-finite and
    # small-exponent ones too, to the bits the writer printed
    values = np.array(SPECIAL_FLOATS + (np.nan, np.inf, -np.inf, 1e-07, -1e-07, 1.5e-300))
    path = str(tmp_path / "rows.csv")
    sim._write_columns(path, ["k", "a", "b"], [values, -values])
    text = (tmp_path / "rows.csv").read_text(encoding="utf-8")
    assert all(f",{cell}," in text for cell in ("nan", "inf", "-inf", "1e-07"))
    monkeypatch.setattr(sim, "chain", None)  # the per-row pass would stop on it
    got = sim._read_rows(path, ["k", "a", "b"], "test")
    want = np.array([[float(c) for c in row.split(",")] for row in text.splitlines()[1:]])
    assert got.tobytes() == want.tobytes()
    assert got[:, 1].tobytes() == values.tobytes()


def test_rows_reader_reads_a_cell_as_float_does(tmp_path):
    cells = ["1_0", " 2.5 ", "nan", "-Infinity", "1e400", "+.5", "5e-324", "-0.0", "١٢"]
    path = tmp_path / "rows.csv"
    path.write_text("a,b,c\n" + "\n".join(",".join(cells[k:k + 3]) for k in (0, 3, 6)) + "\n",
                    encoding="utf-8")
    got = sim._read_rows(str(path), ["a", "b", "c"], "test")
    want = np.asarray([float(c) for c in cells]).reshape(3, 3)
    assert got.tobytes() == want.tobytes()
