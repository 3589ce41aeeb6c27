"""Acceptance gate.

One test per shipped guarantee. Each test prints a single PASS/FAIL line
with the measured quantity, its limit, and the wall-clock budget, then
asserts. Run with ``pytest tests/test_acceptance.py -v -s`` to see the
lines for passing tests too.
"""

import math
import time

import numpy as np
import pytest
from region_helpers import in_region
from small_feeders import two_bus
from step_helpers import no_load_offset, one_step, project, r_and_b, saddle

from opftrack import networks
from opftrack.controller import (
    REGION_KINDS,
    ControllerParams,
    Inverters,
    convergence_constants,
    dual_step_feedback,
    grad_primal,
    pack_state,
    primal_step,
    saddle_residual,
    solve_saddle_oracle,
)
from opftrack.feeder import build_admittance
from opftrack.powerflow import (
    build_linear_model,
    predict_voltage_magnitude,
    solve_ac,
)
from opftrack.sim import (
    ScenarioParams,
    compile_feeder,
    eval_cost,
    generate_scenario,
    measure_tracking,
    run_closed_loop,
)


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# A1: closed-form projection against exhaustive grid search


def _boundary_samples(kind: str, s: float, p_av: float, h: float = 1e-3) -> np.ndarray:
    """Boundary of the feasible set sampled at h arc length, corners exact.

    Interior lattice points alone are not enough for a point-proximity
    check: far from a curved boundary, lattice points at depths up to h tie
    to within h, so the lattice argmin can wander ~sqrt(2 h s) along the
    arc. Boundary samples pin the discrete nearest point to within h/2 of
    the true projection.
    """
    if kind == "real_only":
        return np.array([[0.0, 0.0], [p_av, 0.0]])
    cap = math.sqrt(max(s**2 - p_av**2, 0.0))
    j = np.arange(-math.floor(cap / h), math.floor(cap / h) + 1)
    q = np.append(j * h, (cap, -cap))
    chord = np.column_stack([np.full(len(q), p_av), q])
    if kind == "reactive_only":
        return chord
    th0 = math.acos(min(p_av / s, 1.0))
    th = np.append(np.arange(th0, math.pi / 2, h / s), math.pi / 2)
    arc = np.column_stack([s * np.cos(th), s * np.sin(th)])
    return np.concatenate([chord, arc, arc * np.array([1.0, -1.0])])


def _grid_nearest(xp: float, xq: float, kind: str, s: float, p_av: float,
                  boundary: np.ndarray, h: float = 1e-3):
    """Exhaustive nearest point of the h-discretized region.

    The interior lattice is scanned column-wise (within a column of constant
    P the feasible Q set is an interval, so the best lattice Q is the
    clamped rounding of xq); boundary samples are scanned directly.
    """
    best_p, best_q, best_d2 = np.nan, np.nan, np.inf
    if kind != "reactive_only":
        i = np.arange(math.floor(p_av / h) + 1)
        p = i * h
        if kind == "real_only":
            q = np.zeros(len(p))
        else:
            qmax = np.sqrt(np.maximum(s**2 - p * p, 0.0))
            jmax = np.floor(qmax / h)
            q = np.clip(round(xq / h), -jmax, jmax) * h
        d2 = (xp - p) ** 2 + (xq - q) ** 2
        k = int(np.argmin(d2))
        best_p, best_q, best_d2 = p[k], q[k], d2[k]
    d2b = (boundary[:, 0] - xp) ** 2 + (boundary[:, 1] - xq) ** 2
    k = int(np.argmin(d2b))
    if d2b[k] < best_d2:
        best_p, best_q, best_d2 = boundary[k, 0], boundary[k, 1], d2b[k]
    return (float(best_p), float(best_q)), math.sqrt(float(best_d2))


def test_a1_projection_matches_grid_search():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_gap = 0.0
    checked = 0
    for kind in REGION_KINDS:
        for _ in range(20):
            s = float(rng.uniform(0.3, 2.0))
            if kind == "real_only":
                p_av = float(rng.uniform(0.0, 1.5))
            else:
                p_av = float(rng.uniform(0.0, 1.0) * s)
            boundary = _boundary_samples(kind, s, p_av)
            span = 2.5 * max(s, p_av, 0.2)
            pts = rng.uniform(-span, span, (50, 2)).tolist()
            # boundary-stressing extras: corners and points just off the arc
            q_cap = math.sqrt(max(s**2 - p_av**2, 0.0))
            for dx in (-1.5e-3, 1.5e-3):
                pts += [
                    (p_av + dx, q_cap + dx),
                    (p_av + dx, -q_cap - dx),
                    (dx, s + dx),
                    (s + dx, dx),
                    (p_av / 2 + dx, 0.0),
                ]
            # every point projected at once, as copies of one inverter
            m = len(pts)
            fleet = Inverters(kind, np.full(m, s), np.ones(m), np.ones(m))
            projs = project(fleet, np.asarray(pts), np.full(m, p_av))
            assert np.all(in_region(kind, s, p_av, projs[:, 0], projs[:, 1], tol=1e-9))
            for (xp, xq), proj in zip(pts, projs.tolist()):
                grid_pt, d_grid = _grid_nearest(xp, xq, kind, s, p_av, boundary)
                d_closed = math.hypot(proj[0] - xp, proj[1] - xq)
                # the true projection can never be farther than a grid point
                assert d_closed <= d_grid + 1e-12
                gap = math.dist(proj, grid_pt)
                worst_gap = max(worst_gap, gap)
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 2e-3 and elapsed < 10.0
    _report(
        "A1 projection vs grid search",
        ok,
        f"{checked} points, max gap {worst_gap:.2e} (limit 2e-3), {elapsed:.1f}s (budget 10s)",
    )


# ---------------------------------------------------------------------------
# A2: linear voltage model fidelity on random radial feeders


def test_a2_linear_model_fidelity():
    t0 = time.perf_counter()
    worst = {0.1: 0.0, 0.02: 0.0}
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(4, 21))
        fd = networks.random_radial(n, seed=seed)
        adm = build_admittance(fd)
        lm = build_linear_model(adm, fd.slack_voltage)
        for amp in (0.1, 0.02):
            inj = rng.uniform(-amp, amp, n) + 1j * rng.uniform(-amp, amp, n)
            sol = solve_ac(adm, inj, fd.slack_voltage)
            pred = predict_voltage_magnitude(lm, inj)
            err = float(np.max(np.abs(np.abs(sol.v) - pred)))
            worst[amp] = max(worst[amp], err)
    elapsed = time.perf_counter() - t0
    ok = worst[0.1] <= 1e-2 and worst[0.02] <= 1e-3 and elapsed < 30.0
    _report(
        "A2 linear model fidelity",
        ok,
        f"50 feeders, max err {worst[0.1]:.2e} @0.1pu (limit 1e-2), "
        f"{worst[0.02]:.2e} @0.02pu (limit 1e-3), {elapsed:.1f}s (budget 30s)",
    )


# ---------------------------------------------------------------------------
# A3: per-step contraction of the error-free primal-dual recursion


def test_a3_error_free_contraction():
    t0 = time.perf_counter()
    fd = two_bus(z=0.1 + 0.1j)
    net = compile_feeder(fd)
    coupling, c = net.coupling, no_load_offset(net)
    inv = Inverters("joint", [1.0], [0.5], [0.5])
    p_av = np.asarray([0.95])

    # constants assembled from their definitions, independent of the library
    lip = 2.0 * max(0.5, 0.5)  # 2 max(c_p, c_q)
    gain = float(np.linalg.svd(np.hstack(r_and_b(coupling)), compute_uv=False)[0])
    nu = eps = 0.1
    eta = min(nu, eps)
    l_reg = math.sqrt((lip + nu + 2 * gain) ** 2 + 2 * (gain + eps) ** 2)
    alpha = eta / l_reg**2
    rho = math.sqrt(1 - 2 * eta * alpha + alpha**2 * l_reg**2)

    params = ControllerParams(alpha=alpha, nu=nu, epsilon=eps)
    v_min, v_max = 0.95, 1.04
    consts = convergence_constants(inv, coupling, params)
    assert consts.L_reg == pytest.approx(l_reg, rel=1e-12)
    assert consts.rho(alpha) == pytest.approx(rho, rel=1e-12)
    assert alpha < consts.alpha_max

    g = len(fd.der_nodes)
    prob = saddle(inv, p_av, coupling, c, v_min, v_max, params)
    sol = solve_saddle_oracle(prob, tol=1e-12)
    z_star = pack_state(sol.u, sol.duals)
    assert sol.duals[1, 0] > 0  # mu: the upper limit binds, so the duals are exercised

    # full available power at unity power factor, zero duals
    u, duals = project(inv, np.column_stack([p_av, np.zeros(g)]), p_av), np.zeros((2, 1))
    step_map = one_step(inv, coupling, params, p_av, v_min, v_max)
    dist = float(np.linalg.norm(pack_state(u, duals) - z_star))
    worst_ratio = 0.0
    steps = 0
    while dist > 1e-10 and steps < 60_000:
        # error free: the dual step is fed the model's own prediction
        w = coupling.predict(u, c)
        u_next = primal_step(u, duals, step_map, 0)
        duals = dual_step_feedback(duals, w, step_map, 0)
        u = u_next
        nxt = float(np.linalg.norm(pack_state(u, duals) - z_star))
        worst_ratio = max(worst_ratio, nxt / dist)
        dist = nxt
        steps += 1
    elapsed = time.perf_counter() - t0
    ok = dist <= 1e-10 and worst_ratio <= rho + 1e-6 and elapsed < 5.0
    _report(
        "A3 error-free contraction",
        ok,
        f"worst ratio {worst_ratio:.8f} <= rho+1e-6 = {rho + 1e-6:.8f}, "
        f"{steps} steps to 1e-10, {elapsed:.1f}s (budget 5s)",
    )


# ---------------------------------------------------------------------------
# A4: tracking error bound on a ramp against the nonlinear plant


def test_a4_tracking_bound_on_ramp():
    t0 = time.perf_counter()
    fd = two_bus(z=0.1 + 0.1j)
    par = ScenarioParams(n_steps=100, tau=1.0, load_p=0.0, load_swing=0.0,
                         ramp_start=0.2, ramp_end=0.9)
    scen = generate_scenario("ramp", fd, seed=0, params=par)
    inv = Inverters("joint", fd.der_ratings, [0.5], [0.5])
    params = ControllerParams(alpha=0.05, nu=0.1, epsilon=0.1)
    net = compile_feeder(fd)
    consts = convergence_constants(inv, net.coupling, params)
    traj = run_closed_loop(net, scen, "pursuit", inv, params, plant="ac")
    rep = measure_tracking(net, scen, inv, params, traj, decimation=1)
    elapsed = time.perf_counter() - t0
    ok = (
        consts.rho_alpha < 1.0
        and params.alpha < consts.alpha_max
        and rep.bound_satisfied is True
        and rep.tracking_error_tail <= rep.bound_rhs
        and elapsed < 120.0
    )
    _report(
        "A4 tracking bound on ramp",
        ok,
        f"tail {rep.tracking_error_tail:.3f} <= rhs {rep.bound_rhs:.3f} "
        f"(e {rep.e_measured:.2e}, sigma_z {rep.sigma_z_measured:.2e}, "
        f"rho {consts.rho_alpha:.5f}), {elapsed:.1f}s (budget 120s)",
    )


# ---------------------------------------------------------------------------
# A5/A6: midday overvoltage study on the 36-node feeder


@pytest.fixture(scope="module")
def midday():
    t0 = time.perf_counter()
    fd = networks.feeder36()
    par = ScenarioParams(
        n_steps=6000, tau=0.33, load_p=0.008, load_swing=0.0, n_dips=0,
        pav_floor=0.15, pav_peak=0.95, bell_center=0.25,
        bell_width=500 / 6000, bell_fall=6.0, bell_clip=0.75,
    )
    scen = generate_scenario("cloud_transient", fd, seed=7, params=par)
    params = ControllerParams(alpha=0.2, nu=1e-3, epsilon=1e-4)
    inv = Inverters("joint", fd.der_ratings, [3.0] * 18, [1.0] * 18)
    net = compile_feeder(fd)
    runs = {
        "none": run_closed_loop(net, scen, "none", inv, params),
        "pursuit": run_closed_loop(net, scen, "pursuit", inv, params),
        "droop": run_closed_loop(net, scen, "droop", inv, params),
    }
    burn = scen.n_steps // 4
    v_none = runs["none"].v_mag.max(axis=1)
    window = np.flatnonzero(v_none > 1.05)
    window = window[window >= burn]
    return {
        "feeder": fd, "scenario": scen, "inverters": inv, "runs": runs,
        "burn": burn, "window": window, "v_none": v_none,
        "elapsed": time.perf_counter() - t0,
    }


def test_a5_midday_voltage_regulation(midday):
    t0 = time.perf_counter()
    scen = midday["scenario"]
    runs = midday["runs"]
    window = midday["window"]
    burn = midday["burn"]

    none_peak = float(midday["v_none"].max())
    v_purs = runs["pursuit"].v_mag.max(axis=1)
    purs_peak = float(v_purs[burn:].max())
    purs_std = float(v_purs[window].std())

    # droop violates while the hot node's own inverter has exhausted its
    # reactive headroom at the prevailing availability (applied output at
    # the headroom cap)
    fd = midday["feeder"]
    ratings = np.asarray(fd.der_ratings)
    head = np.sqrt(np.clip(ratings[None, :] ** 2 - scen.p_av**2, 0.0, None))
    q_d = runs["droop"].u[:, :, 1]
    viol_d = runs["droop"].max_violation
    mon = np.asarray(fd.monitored_indices())
    der_pos = {int(d): i for i, d in enumerate(fd.der_indices())}
    exhausted = 0
    for k in window[viol_d[window] > 1e-3]:
        vmag = runs["droop"].v_mag[k]
        hot = int(mon[int(np.argmax(vmag[mon]))])
        i = der_pos.get(hot)
        if i is None:
            continue
        if abs(q_d[k, i]) >= 0.999 * head[k, i]:
            exhausted += 1

    elapsed = midday["elapsed"] + time.perf_counter() - t0
    ok = (
        none_peak > 1.05
        and purs_peak <= 1.0505
        and purs_std <= 2e-3
        and len(window) > 1000
        and exhausted >= 100
        and elapsed < 60.0
    )
    _report(
        "A5 midday voltage regulation",
        ok,
        f"none peak {none_peak:.4f} > 1.05; pursuit max {purs_peak:.5f} <= 1.0505, "
        f"std {purs_std:.2e} <= 2e-3 over {len(window)} steps; droop violates with "
        f"exhausted local headroom on {exhausted} steps; {elapsed:.1f}s (budget 60s)",
    )


def test_a6_cost_dominance_over_droop(midday):
    t0 = time.perf_counter()
    scen = midday["scenario"]
    runs = midday["runs"]
    window = midday["window"]
    cost_p = runs["pursuit"].cost
    # droop's reactive cost: its setpoints with P at the full availability
    u_d = runs["droop"].u.copy()
    u_d[:, :, 0] = scen.p_av
    cost_d = eval_cost(u_d, midday["inverters"], scen.p_av)
    viol_p = runs["pursuit"].max_violation
    viol_d = runs["droop"].max_violation
    both = window[(viol_p[window] <= 5e-4) & (viol_d[window] <= 5e-4)]
    frac = float(np.mean(cost_p[both] <= cost_d[both]))
    elapsed = midday["elapsed"] + time.perf_counter() - t0
    ok = len(both) > 1000 and frac >= 0.95 and elapsed < 60.0
    _report(
        "A6 cost dominance over droop",
        ok,
        f"pursuit cost <= droop reactive cost on {100 * frac:.1f}% of "
        f"{len(both)} jointly regulated steps (limit 95%), {elapsed:.1f}s (budget 60s)",
    )


# ---------------------------------------------------------------------------
# A7: pursuit of a stepped upper voltage limit


def test_a7_stepped_voltage_limit():
    t0 = time.perf_counter()
    fd = networks.feeder36()
    par = ScenarioParams(n_steps=1200, tau=0.33, load_p=0.008, load_swing=0.0,
                         pav_peak=0.95)
    scen = generate_scenario("vmax_steps", fd, seed=3, params=par)
    assert sorted(set(scen.v_max.tolist()), reverse=True) == [1.05, 1.035, 1.02]
    inv = Inverters("joint", fd.der_ratings, [1.0] * 18, [1.0] * 18)
    params = ControllerParams(alpha=0.4, nu=1e-3, epsilon=5e-5)
    viol = run_closed_loop(compile_feeder(fd), scen, "pursuit", inv, params).max_violation
    drops = (np.flatnonzero(np.diff(scen.v_max) != 0.0) + 1).tolist()
    edges = drops + [scen.n_steps]
    details = []
    ok = len(drops) == 2
    for b, end in zip(drops, edges[1:]):
        entry = viol[b]
        rel = viol[b:end]
        settled = np.flatnonzero(rel <= 5e-4)
        settle = int(settled[0]) if len(settled) else -1
        stays = settle >= 0 and bool(np.all(rel[settle:] <= 5e-4))
        ok = ok and entry > 5e-4 and 0 < settle <= 100 and stays
        details.append(f"drop@{b}: entry {entry:.2e}, settled in {settle}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(
        "A7 stepped voltage limit",
        ok,
        "; ".join(details) + f" (limit 100 steps); {elapsed:.1f}s (budget 60s)",
    )


# ---------------------------------------------------------------------------
# A8: gradient and dual-step correctness by central finite differences


V_MIN, V_MAX = 0.95, 1.05


def _lagrangian(u, gamma, mu, cost_w, coupling, c, pl, ql, pav, params, w=None):
    if w is None:
        r, b = r_and_b(coupling)
        w = r @ (u[:, 0] - pl) + b @ (u[:, 1] - ql) + c
    val = params.nu / 2.0 * float(np.sum(u * u))
    for i, (c_p, c_q) in enumerate(cost_w):
        val += c_p * (pav[i] - u[i, 0]) ** 2 + c_q * u[i, 1] ** 2
    val += float(gamma @ (V_MIN - w) + mu @ (w - V_MAX))
    val -= params.epsilon / 2.0 * float(gamma @ gamma + mu @ mu)
    return val


def test_a8_gradients_match_finite_differences():
    t0 = time.perf_counter()
    h = 1e-6
    worst = 0.0
    for inst in range(200):
        rng = np.random.default_rng(4000 + inst)
        n = int(rng.integers(3, 11))
        fd = networks.random_radial(n, seed=200 + inst)
        net = compile_feeder(fd)
        coupling, c = net.coupling, no_load_offset(net)
        g, m = coupling.n_der, coupling.n_metered
        u = rng.normal(0.0, 0.5, (g, 2))
        duals = np.stack([rng.uniform(0.0, 2.0, m), rng.uniform(0.0, 2.0, m)])
        gamma, mu = duals
        pl = rng.uniform(-0.05, 0.05, g)
        ql = rng.uniform(-0.05, 0.05, g)
        pav = rng.uniform(0.0, 1.0, g)
        cost_w = rng.uniform(0.1, 3.0, (g, 2))
        inv = Inverters("joint", np.ones(g), cost_w[:, 0], cost_w[:, 1])
        params = ControllerParams(
            alpha=float(rng.uniform(0.05, 0.5)),
            nu=float(rng.uniform(1e-3, 0.3)),
            epsilon=float(rng.uniform(1e-4, 0.3)),
        )

        def lag(uu, gam, muu, w=None):
            return _lagrangian(uu, gam, muu, cost_w, coupling, c, pl, ql, pav, params, w)

        step_map = one_step(inv, coupling, params, pav, V_MIN, V_MAX)
        grad = grad_primal(u, duals, step_map, 0)
        for i in range(g):
            for j in range(2):
                up, dn = u.copy(), u.copy()
                up[i, j] += h
                dn[i, j] -= h
                fd_ij = (lag(up, gamma, mu) - lag(dn, gamma, mu)) / (2 * h)
                worst = max(worst, abs(grad[i, j] - fd_ij))

        # the model-based step is the feedback step fed the model prediction,
        # the DER-bus demand folded into the offset
        r, b = r_and_b(coupling)
        loaded = c - r @ pl - b @ ql
        stepped = dual_step_feedback(duals, coupling.predict(u, loaded), step_map, 0)
        y = rng.uniform(0.9, 1.1, m)
        fed = dual_step_feedback(duals, y, step_map, 0)
        for j in range(m):
            for which, got in (("model", stepped), ("feedback", fed)):
                w_arg = None if which == "model" else y
                e = np.zeros(m)
                e[j] = h
                dg = (lag(u, gamma + e, mu, w_arg) - lag(u, gamma - e, mu, w_arg)) / (2 * h)
                dm = (lag(u, gamma, mu + e, w_arg) - lag(u, gamma, mu - e, w_arg)) / (2 * h)
                exp_g = max(0.0, gamma[j] + params.alpha * dg)
                exp_m = max(0.0, mu[j] + params.alpha * dm)
                worst = max(worst, abs(got[0, j] - exp_g), abs(got[1, j] - exp_m))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    _report(
        "A8 gradients vs finite differences",
        ok,
        f"200 instances, max deviation {worst:.2e} (limit 1e-6), "
        f"{elapsed:.1f}s (budget 5s)",
    )


# ---------------------------------------------------------------------------
# A9: saddle oracle start-independence and stationarity


def test_a9_oracle_uniqueness_and_stationarity():
    t0 = time.perf_counter()
    worst_spread = 0.0
    worst_res = 0.0
    for inst in range(20):
        rng = np.random.default_rng(3000 + inst)
        n = int(rng.integers(4, 9))
        fd = networks.random_radial(n, seed=500 + inst)
        net = compile_feeder(fd)
        g = net.coupling.n_der
        pav = rng.uniform(0.3, 1.0, g)
        cost_w = rng.uniform(0.2, 3.0, (g, 2))
        prob = saddle(
            Inverters("joint", np.ones(g), cost_w[:, 0], cost_w[:, 1]),
            pav,
            net.coupling,
            no_load_offset(net),
            0.95,
            float(rng.uniform(1.0, 1.03)),
            ControllerParams(alpha=0.2, nu=1e-3, epsilon=1e-4),
        )
        packed = []
        for s in range(10):
            if s == 0:
                u0 = None
            else:
                r2 = np.random.default_rng(7000 + 100 * inst + s)
                u0 = np.column_stack([r2.uniform(0, 1, g), r2.uniform(-1, 1, g)])
            sol = solve_saddle_oracle(prob, u0=u0)
            worst_res = max(worst_res, saddle_residual(prob, sol.u, sol.duals))
            packed.append(pack_state(sol.u, sol.duals))
        for z in packed[1:]:
            worst_spread = max(worst_spread, float(np.max(np.abs(z - packed[0]))))
    elapsed = time.perf_counter() - t0
    ok = worst_spread <= 1e-8 and worst_res <= 1e-9 and elapsed < 30.0
    _report(
        "A9 oracle uniqueness",
        ok,
        f"20 instances x 10 starts: spread {worst_spread:.2e} (limit 1e-8), "
        f"residual {worst_res:.2e} (limit 1e-9), {elapsed:.1f}s (budget 30s)",
    )
