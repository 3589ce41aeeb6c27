import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from dense_helpers import factored_matrix
from hypothesis import given, settings
from hypothesis import strategies as st
from small_feeders import chain, two_bus

from opftrack import networks
from opftrack.feeder import DENSE_Z_MAX_NODES, SOLVE_BLOCK, AdmittanceMatrix, build_admittance
from opftrack.powerflow import (
    LinearModel,
    PowerFlowError,
    VoltageCollapseError,
    build_linear_model,
    constraint_offsets,
    no_load_voltage,
    predict_voltage_magnitude,
    solve_ac,
)


def test_no_load_profile_is_flat_without_shunts():
    adm = build_admittance(chain(5))
    vbar = no_load_voltage(adm, 1.0 + 0j)
    assert np.allclose(vbar, 1.0, atol=1e-12)
    sol = solve_ac(adm, np.zeros(5, dtype=complex), 1.0 + 0j)
    assert np.allclose(sol.v, 1.0, atol=1e-9)
    assert sol.residual <= 1e-9


def test_two_bus_linear_model_hand_values():
    lm = build_linear_model(build_admittance(two_bus()), 1.0 + 0j)
    R, B = np.hsplit(lm.columns([0], [0]), 2)
    assert np.allclose(R, [[0.01]], atol=1e-15)
    assert np.allclose(B, [[0.01]], atol=1e-15)
    assert np.allclose(lm.a, [1.0], atol=1e-15)
    w = predict_voltage_magnitude(lm, np.array([-0.1 - 0.05j]))
    # 1 + 0.01*(-0.1) + 0.01*(-0.05)
    assert w[0] == pytest.approx(0.9985, abs=1e-12)


def test_two_bus_ac_matches_independent_fixed_point():
    # independent scalar route: v <- (conj(s/v) + y) / y for ybar = -y, V0 = 1
    z = 0.01 + 0.01j
    y = 1.0 / z
    s = complex(-0.1, -0.05)
    v = 1.0 + 0j
    for _ in range(200):
        v = (np.conj(s / v) + y) / y
    sol = solve_ac(
        build_admittance(two_bus()), np.array([-0.1 - 0.05j]), 1.0 + 0j
    )
    assert sol.v[0] == pytest.approx(v, abs=1e-10)
    assert abs(sol.v[0]) == pytest.approx(0.9984976, abs=1e-7)
    assert sol.residual <= 1e-9


def _rotated(fd, angle_deg):
    """``fd`` with its slack voltage turned by ``angle_deg``."""
    return replace(fd, slack_voltage=fd.slack_voltage * cmath.rect(1.0, math.radians(angle_deg)))


@pytest.mark.parametrize(
    "fd",
    [
        networks.random_radial(30, 2, shunt_prob=0.5),
        _rotated(networks.feeder36(), 30.0),
        _rotated(networks.random_radial(30, 2, shunt_prob=0.5), 120.0),
        _rotated(networks.feeder36(), -150.0),
    ],
    ids=["radial30-shunts", "feeder36-30deg", "radial30-shunts-120deg", "feeder36-m150deg"],
)
def test_linear_model_is_derivative_at_no_load(fd):
    # every column of R and B against central differences of the AC solve
    n, v0 = fd.n_nodes, fd.slack_voltage
    adm = build_admittance(fd)
    R, B = np.hsplit(build_linear_model(adm, v0).columns(np.arange(n), np.arange(n)), 2)
    h = 1e-4

    def mags(p, q):
        return np.abs(solve_ac(adm, p + 1j * q, v0, tol=1e-12).v)

    zero = np.zeros(n)
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        d_p = (mags(e, zero) - mags(-e, zero)) / (2 * h)
        d_q = (mags(zero, e) - mags(zero, -e)) / (2 * h)
        assert np.max(np.abs(d_p - R[:, j])) <= 1e-8, j
        assert np.max(np.abs(d_q - B[:, j])) <= 1e-8, j


@settings(max_examples=30, deadline=None)
@given(
    fd=st.one_of(
        st.builds(
            lambda n, seed: networks.random_radial(n, seed, shunt_prob=0.5),
            st.integers(2, 40),
            st.integers(0, 2**16),
        ),
        st.just(networks.feeder36()),
    ),
    angle=st.floats(-180.0, 180.0),
)
def test_linear_model_ignores_the_reference_angle(fd, angle):
    # turning every voltage by one angle changes no magnitude, so neither
    # the sensitivities nor the no-load magnitudes may move
    idx = np.arange(fd.n_nodes)
    ref = build_linear_model(build_admittance(fd), fd.slack_voltage)
    turned = _rotated(fd, angle)
    lm = build_linear_model(build_admittance(turned), turned.slack_voltage)
    for got, want in ((lm.columns(idx, idx), ref.columns(idx, idx)), (lm.a, ref.a)):
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("angle", [-150.0, 30.0, 90.0, 180.0])
def test_offsets_and_coupling_ignore_the_reference_angle(angle):
    # the no-load voltages turn with the slack; the metered offsets at any
    # loads and the DER coupling the controller reads stay where they were
    from opftrack.sim import compile_feeder

    fd = networks.feeder36()
    turned = _rotated(fd, angle)
    nets = [compile_feeder(f) for f in (fd, turned)]
    rot = cmath.rect(1.0, math.radians(angle))
    assert np.max(np.abs(nets[1].lm.vbar - rot * nets[0].lm.vbar)) <= 1e-12
    rng = np.random.default_rng(5)
    p_load, q_load = rng.uniform(0.0, 0.01, (4, 36)), rng.uniform(0.0, 0.004, (4, 36))
    c0, c1 = (constraint_offsets(net.lm, p_load, q_load, f) for net, f in zip(nets, (fd, turned)))
    assert np.max(np.abs(c1 - c0)) <= 1e-12
    for name in ("r", "b"):
        got, want = getattr(nets[1].coupling, name), getattr(nets[0].coupling, name)
        assert np.max(np.abs(got - want)) <= 1e-12, name


def test_prediction_error_small_at_light_loading():
    # one instance of the accuracy property: 0.02 pu loading, error <= 1e-3
    fd = networks.random_radial(15, seed=9)
    adm = build_admittance(fd)
    lm = build_linear_model(adm, fd.slack_voltage)
    rng = np.random.default_rng(1)
    inj = rng.uniform(-0.02, 0.02, 15) + 1j * rng.uniform(-0.02, 0.02, 15)
    rho = np.abs(solve_ac(adm, inj, fd.slack_voltage, tol=1e-12).v)
    w = predict_voltage_magnitude(lm, inj)
    assert np.max(np.abs(w - rho)) <= 1e-3


def _dense_sensitivities(adm, vbar):
    # the textbook construction: Z = inv(Y), columns rotated by the no-load
    # angles and scaled by the no-load magnitudes, rows turned back by the
    # no-load angles, since d|v_i| = Re(exp(-j theta_i) dv_i)
    Z = np.linalg.inv(factored_matrix(adm))
    rho, ang = np.abs(vbar), np.angle(vbar)
    S = np.exp(-1j * ang)[:, None] * Z * (np.exp(1j * ang) / rho)[None, :]
    return S.real, S.imag


def test_complex_sensitivity_identities():
    # the one-solve prediction Re(Y^-1 (ebar (p - jq))) + a equals the
    # dense-formula prediction R p + B q + a, and reads a at zero injection
    fd = networks.feeder36()
    lm = build_linear_model(build_admittance(fd), 1.0 + 0j)
    assert np.allclose(lm.a, np.abs(lm.vbar))
    R, B = _dense_sensitivities(lm.adm, lm.vbar)
    rng = np.random.default_rng(8)
    inj = rng.uniform(-0.05, 0.05, 36) + 1j * rng.uniform(-0.05, 0.05, 36)
    dense = R @ inj.real + B @ inj.imag + lm.a
    assert np.allclose(predict_voltage_magnitude(lm, inj), dense, rtol=0, atol=1e-13)
    w0 = predict_voltage_magnitude(lm, np.zeros(36, dtype=complex))
    assert np.array_equal(w0, lm.a)


def test_collapse_detected():
    adm = build_admittance(two_bus())
    with pytest.raises(VoltageCollapseError):
        solve_ac(adm, np.array([-50.0 + 0j]), 1.0 + 0j)


def test_collapse_band_is_checked_on_both_sides():
    # from a warm start at 1 pu, the first two-bus iterate is 1 + z conj(s)
    z = 0.01 + 0.01j
    adm = build_admittance(two_bus(z=z))
    cases = ((0.2, True), (0.31, False), (2.9, False), (4.0, True))
    for target, collapses in cases:
        s = np.conj((target - 1.0) / z)
        inj = np.array([s])
        with pytest.raises(PowerFlowError) as err:
            solve_ac(adm, inj, 1.0 + 0j, init=np.ones(1, dtype=complex), max_iter=1)
        assert isinstance(err.value, VoltageCollapseError) == collapses, target
        if collapses:
            assert "outside [0.3, 3.0] at iteration 1" in str(err.value)


def test_non_convergence_reports_residual():
    adm = build_admittance(two_bus())
    with pytest.raises(PowerFlowError) as err:
        solve_ac(adm, np.array([-0.5 - 0.2j]), 1.0 + 0j, max_iter=1)
    assert not isinstance(err.value, VoltageCollapseError)
    residual = float(str(err.value).rsplit("residual ", 1)[1])
    assert np.isfinite(residual) and residual > 1e-9


def test_warm_start_accepted_and_validated():
    adm = build_admittance(two_bus())
    inj = np.array([-0.3 - 0.1j])
    cold = solve_ac(adm, inj, 1.0 + 0j)
    warm = solve_ac(adm, inj, 1.0 + 0j, init=cold.v)
    assert warm.iterations <= cold.iterations
    assert warm.v[0] == pytest.approx(cold.v[0], abs=1e-9)
    for outside in (0.1, 0.29, 3.01, 10.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="warm-start"):
            solve_ac(adm, inj, 1.0 + 0j, init=np.asarray([outside + 0j]))


def test_fallback_start_replaces_only_a_start_outside_the_band():
    adm = build_admittance(two_bus())
    inj = np.array([-0.3 - 0.1j])
    cold = solve_ac(adm, inj, 1.0 + 0j)
    from_cold = solve_ac(adm, inj, 1.0 + 0j, init=cold.v)
    nan = np.asarray([np.nan + 0j])
    # a start in band is taken as it is, and the fallback is not even read
    kept = solve_ac(adm, inj, 1.0 + 0j, init=cold.v, fallback=nan)
    assert kept.v.tolist() == from_cold.v.tolist() and kept.iterations == from_cold.iterations
    # a start outside it gives way to the fallback
    for outside in (0.1, 3.01, np.nan, np.inf):
        fell = solve_ac(adm, inj, 1.0 + 0j, init=np.asarray([outside + 0j]), fallback=cold.v)
        assert fell.v.tolist() == from_cold.v.tolist()
    # a fallback outside the band is refused as a start is
    for bad in (0.1, np.nan):
        with pytest.raises(ValueError, match="warm-start"):
            solve_ac(adm, inj, 1.0 + 0j, init=nan, fallback=np.asarray([bad + 0j]))


DENSE_FEEDERS = pytest.mark.parametrize(
    "fd", [networks.feeder36(), networks.random_radial(DENSE_Z_MAX_NODES, 3, shunt_prob=0.5)],
    ids=["feeder36", f"radial{DENSE_Z_MAX_NODES}-shunts"],
)


@DENSE_FEEDERS
def test_ac_solve_through_the_dense_inverse_matches_the_factor(fd):
    # the same feeder without z takes the factor's solve: the iterates differ
    # only by rounding, so both accept at the same iteration, at loads that
    # pull the lowest bus to 0.88-0.94 pu
    adm = build_admittance(fd)
    assert adm.z is not None
    factor_only = AdmittanceMatrix(adm.ybar, adm.lu)
    n, v0 = fd.n_nodes, fd.slack_voltage
    rng = np.random.default_rng(0)
    s = -0.02 * (rng.uniform(0.5, 1.5, n) + 0.5j * rng.uniform(0.5, 1.5, n))
    dense, sparse = solve_ac(adm, s, v0), solve_ac(factor_only, s, v0)
    assert np.abs(sparse.v).min() < 0.95
    assert dense.iterations == sparse.iterations
    assert np.max(np.abs(dense.v - sparse.v)) <= 1e-12


class _RecordedSolves:
    """``adm`` as solve_ac reads it, keeping every iterate its solves return."""

    def __init__(self, adm):
        self.ybar, self._solve, self.iterates = adm.ybar, adm.vector_solve, []

    def vector_solve(self, rhs):
        self.iterates.append(self._solve(rhs))
        return self.iterates[-1]


@DENSE_FEEDERS
@pytest.mark.parametrize("path", ["dense", "factor"])
def test_returned_residual_is_the_mismatch_of_the_last_two_iterates(fd, path):
    # solve_ac forms the mismatch as (s / v)(v+ - v), with the update's s / v;
    # it is s (v+ / v - 1) recomputed from the last two iterates, up to the
    # rounding of the two forms, at light loads and at loads that pull the
    # lowest bus to 0.88-0.94 pu
    adm = build_admittance(fd)
    if path == "factor":
        adm = AdmittanceMatrix(adm.ybar, adm.lu)
    n, v0 = fd.n_nodes, fd.slack_voltage
    start = no_load_voltage(adm, v0)
    rng = np.random.default_rng(1)
    for scale in (0.002, 0.02):
        s = -scale * (rng.uniform(0.5, 1.5, n) + 0.5j * rng.uniform(0.5, 1.5, n))
        solves = _RecordedSolves(adm)
        sol = solve_ac(solves, s, v0, init=start)
        assert sol.iterations == len(solves.iterates) >= 2
        assert sol.v is solves.iterates[-1]
        ratio = sol.v / solves.iterates[-2]
        want = float(np.max(np.abs(s * (ratio - 1.0))))
        assert 0.0 < want <= 1e-9
        assert abs(sol.residual - want) <= 8 * np.finfo(float).eps * np.max(np.abs(s * ratio))


@pytest.mark.parametrize(
    "bad", [{"tol": math.nan}, {"tol": -1.0}, {"tol": 0.0}, {"tol": math.inf},
            {"max_iter": 0}, {"max_iter": -1}],
    ids=["tol-nan", "tol-negative", "tol-zero", "tol-inf", "max_iter-0", "max_iter-negative"],
)
def test_solve_ac_rejects_a_tolerance_or_iteration_limit_it_cannot_use(bad):
    # a caller's misuse is a ValueError before any iteration, not a plant
    # failure: with tol = nan or -1 a converged feeder36 solve used to run
    # 1000 iterations and raise "no convergence", and tol = inf accepted the
    # first iterate
    adm = build_admittance(networks.feeder36())
    s = np.full(36, -0.01 - 0.005j)
    with pytest.raises(ValueError, match="tolerance must be positive and finite|max_iter must be"):
        solve_ac(adm, s, 1.0 + 0j, **bad)
    assert solve_ac(adm, s, 1.0 + 0j, tol=1e-9, max_iter=1000).residual <= 1e-9


def test_injection_validation():
    adm = build_admittance(two_bus())
    for bad in (np.nan, np.inf, complex(0.0, -np.inf), complex(np.nan, 1.0)):
        for init in (None, np.ones(1, dtype=complex)):
            with pytest.raises(ValueError, match="injections must be finite"):
                solve_ac(adm, np.array([bad], dtype=complex), 1.0 + 0j, init=init)
    with pytest.raises(ValueError, match="length"):
        solve_ac(adm, np.zeros(4, dtype=complex), 1.0 + 0j)
    with pytest.raises(ValueError, match="length"):
        solve_ac(adm, np.zeros((1, 1), dtype=complex), 1.0 + 0j)


def test_constraint_offsets_consistent_with_full_model():
    # the offset is the model's metered magnitude at the loads with every
    # DER off, so the coupling form r P + b Q + c equals the feeder-wide
    # prediction with loads netted in, at the monitored rows; one load row,
    # or K rows from one solve
    from opftrack.sim import compile_feeder

    fd = networks.feeder36()
    net = compile_feeder(fd)
    lm, coup = net.lm, net.coupling
    rng = np.random.default_rng(4)
    der, mon = fd.der_indices(), fd.monitored_indices()
    for k in (None, 7):
        shape = (36,) if k is None else (k, 36)
        p_load = rng.uniform(0.0, 0.01, shape)
        q_load = rng.uniform(0.0, 0.004, shape)
        c = constraint_offsets(lm, p_load, q_load, fd)
        assert c.shape == shape[:-1] + (len(mon),)
        for p_row, q_row, c_row in zip(np.atleast_2d(p_load), np.atleast_2d(q_load),
                                       np.atleast_2d(c)):
            off = predict_voltage_magnitude(lm, -p_row - 1j * q_row)[mon]
            assert np.allclose(c_row, off, rtol=0.0, atol=1e-15)

            u = np.column_stack([rng.uniform(0, 0.2, 18), rng.uniform(-0.1, 0.1, 18)])
            p_net, q_net = -p_row.copy(), -q_row.copy()
            p_net[der] += u[:, 0]
            q_net[der] += u[:, 1]
            full = predict_voltage_magnitude(lm, p_net + 1j * q_net)
            via_coupling = coup.predict(u, c_row)
            assert np.allclose(via_coupling, full[mon], rtol=0.0, atol=1e-12)

    with pytest.raises(ValueError, match="one entry per"):
        constraint_offsets(lm, p_load[:, :5], q_load[:, :5], fd)


def test_linear_model_requires_nonzero_profile():
    lm = build_linear_model(build_admittance(two_bus()), 1.0 + 0j)
    assert isinstance(lm, LinearModel)
    with pytest.raises(ValueError, match="zero-magnitude"):
        build_linear_model(build_admittance(two_bus()), 0j)


@pytest.mark.parametrize("k", [1, SOLVE_BLOCK, SOLVE_BLOCK + 1, 2 * SOLVE_BLOCK + 1])
def test_an_array_solve_is_its_vector_solves_across_block_boundaries(k):
    # N x K right-hand sides are solved SOLVE_BLOCK columns at a time, each
    # column bit for bit its own vector solve, whether or not the dense z is
    # kept beside the factor
    adm = build_admittance(networks.random_radial(90, 11, shunt_prob=0.3))
    assert adm.z is not None
    rng = np.random.default_rng(k)
    rhs = rng.normal(size=(90, k)) + 1j * rng.normal(size=(90, k))
    want = np.column_stack([adm.lu.solve(rhs[:, j]) for j in range(k)])
    for a in (adm, replace(adm, z=None)):
        assert a.solve(rhs).tobytes() == want.tobytes()


def test_columns_are_their_one_column_forms_across_block_boundaries():
    fd = networks.random_radial(90, 11, shunt_prob=0.3)
    lm = build_linear_model(build_admittance(fd), cmath.rect(1.02, 0.4))
    rng = np.random.default_rng(5)
    k = 2 * SOLVE_BLOCK + 1
    idx, rows = rng.permutation(fd.n_nodes)[:k], rng.permutation(fd.n_nodes)[:37]
    one = [lm.columns(idx[j : j + 1], rows) for j in range(k)]
    want = np.hstack([c[:, :1] for c in one] + [c[:, 1:] for c in one])
    assert lm.columns(idx, rows).tobytes() == want.tobytes()


@pytest.mark.parametrize("n_der", [1, 31, 32, 33, 65])
def test_columns_are_the_response_to_unit_injections(n_der):
    # blocks of SOLVE_BLOCK = 32 right-hand sides, unsorted DER and metered
    # sets, a slack off the real axis
    fd = networks.random_radial(90, 11, shunt_prob=0.3)
    lm = build_linear_model(build_admittance(fd), cmath.rect(1.02, 0.4))
    rng = np.random.default_rng(n_der)
    n = fd.n_nodes
    idx, rows = rng.permutation(n)[:n_der], rng.permutation(n)[:37]
    r, b = np.hsplit(lm.columns(idx, rows), 2)
    unit = np.zeros((n, n_der))
    unit[idx, np.arange(n_der)] = 1.0
    assert np.array_equal(r, lm.response(unit, np.zeros_like(unit))[rows])
    # B is the imaginary part of the same solves, as one N x n_der solve
    # gives it; the response to unit reactive injections solves -j times
    # those right-hand sides, which rounds differently in the last place
    rhs = unit * lm.ebar[:, None]
    h = (np.conj(lm.ebar) * lm.a)[:, None] * lm.adm.solve(rhs)
    assert np.array_equal(r, h.real[rows]) and np.array_equal(b, h.imag[rows])
    want = lm.response(np.zeros_like(unit), unit)[rows]
    assert np.max(np.abs(b - want)) <= 1e-15 * np.max(np.abs(want))
