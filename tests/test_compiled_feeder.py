"""Properties of the sparse, factor-once network against dense references."""

import json
import os

import numpy as np
from dense_helpers import dense_admittance, factored_matrix
from hypothesis import given, settings
from hypothesis import strategies as st
from small_feeders import chain

import opftrack
from opftrack import cli, networks
from opftrack.feeder import FeederModel, _inverse_norm1, build_admittance, save_feeder
from opftrack.powerflow import build_linear_model, solve_ac

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")

feeders = st.one_of(
    st.builds(
        lambda n, seed, shunt: networks.random_radial(n, seed, shunt_prob=shunt),
        st.integers(2, 60),
        st.integers(0, 2**16),
        st.sampled_from([0.0, 0.5]),
    ),
    st.builds(chain, st.integers(2, 60)),
)


def _injection(n: int, seed: int, amp: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-amp, amp, n) + 1j * rng.uniform(-amp, amp, n)


@settings(max_examples=40, deadline=None)
@given(fd=feeders, seed=st.integers(0, 2**16))
def test_solve_ac_matches_dense_fixed_point(fd, seed):
    adm = build_admittance(fd)
    inj = _injection(fd.n_nodes, seed, 0.005)
    v0 = fd.slack_voltage
    sol = solve_ac(adm, inj, v0)
    assert sol.residual <= 1e-9
    # the same iteration, as many steps, with dense solves
    Y = factored_matrix(adm)
    yv0 = adm.ybar * v0
    v = np.linalg.solve(Y, -yv0)
    for _ in range(sol.iterations):
        v = np.linalg.solve(Y, np.conj(inj / v) - yv0)
    assert np.max(np.abs(v - sol.v)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(fd=feeders, seed=st.integers(0, 2**16))
def test_one_solve_response_matches_inverse_sensitivities(fd, seed):
    lm = build_linear_model(build_admittance(fd), fd.slack_voltage)
    Z = np.linalg.inv(factored_matrix(lm.adm))
    # columns scaled by exp(j theta) / rho, rows turned back by exp(-j theta)
    rho, ang = np.abs(lm.vbar), np.angle(lm.vbar)
    S = np.exp(-1j * ang)[:, None] * Z * (np.exp(1j * ang) / rho)[None, :]
    R, B = S.real, S.imag
    inj = _injection(fd.n_nodes, seed, 0.05)
    assert np.max(np.abs(lm.response(inj.real, inj.imag) - (R @ inj.real + B @ inj.imag))) <= 1e-12
    Rc, Bc = np.hsplit(lm.columns(np.arange(fd.n_nodes), np.arange(fd.n_nodes)), 2)
    assert np.max(np.abs(Rc - R)) <= 1e-12
    assert np.max(np.abs(Bc - B)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(fd=feeders)
def test_condition_estimate_within_factor_n_of_svd(fd):
    adm = build_admittance(fd)
    Y = factored_matrix(adm)
    sv = np.linalg.svd(Y, compute_uv=False)
    rcond_svd = sv[-1] / sv[0]
    n = fd.n_nodes
    # the estimate build_admittance holds against RCOND_LIMIT
    rcond = 1.0 / (np.abs(Y).sum(axis=0).max() * _inverse_norm1(adm.lu, n))
    assert rcond_svd / n <= rcond <= n * rcond_svd


# radial1000's family, |z| 0.0005-0.002 pu, is where the residual's rounding is largest
pf_feeders = st.one_of(
    st.builds(
        lambda n, seed: networks.random_radial(n, seed, shunt_prob=0.5),
        st.integers(2, 200),
        st.integers(0, 2**16),
    ),
    st.builds(
        lambda n, seed: networks.random_radial(n, seed, z_mag_range=(0.0005, 0.002)),
        st.integers(2, 1000),
        st.integers(0, 2**16),
    ),
)


@settings(max_examples=40, deadline=None)
@given(fd=pf_feeders, seed=st.integers(0, 2**16), amp=st.sampled_from([0.001, 0.005, 0.02]))
def test_ac_residual_is_the_substituted_mismatch(fd, seed, amp):
    # the solver reads its residual off the fixed-point update; substituting
    # the returned voltages into a dense, line-by-line admittance must agree
    inj = _injection(fd.n_nodes, seed, amp)
    v0 = fd.slack_voltage
    sol = solve_ac(build_admittance(fd), inj, v0)
    full = dense_admittance(fd)
    mismatch = sol.v * np.conj(full[1:, 1:] @ sol.v + full[1:, 0] * v0) - inj
    true = float(np.abs(mismatch).max())
    assert abs(true - sol.residual) <= 1e-11
    assert sol.residual <= 1e-9
    assert true <= 1e-9 + 1e-11


def _count_calls(monkeypatch):
    """Counts of build_admittance and validate_feeder calls, wherever they are bound."""
    counts = {"build_admittance": 0, "validate_feeder": 0}
    sites = (opftrack.cli, opftrack.sim, opftrack.feeder, opftrack.powerflow)
    for name in counts:
        original = getattr(opftrack.feeder, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for site in sites:
            if getattr(site, name, None) is original:
                monkeypatch.setattr(site, name, counted)
    return counts


def test_run_compiles_and_validates_the_feeder_once(tmp_path, monkeypatch):
    counts = _count_calls(monkeypatch)
    with open(os.path.join(DATA, "config36.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["feeder"] = os.path.join(DATA, cfg["feeder"])
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "config36.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["run", "--config", str(path)]) == 0
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["tracking"]
    assert counts == {"build_admittance": 1, "validate_feeder": 1}


def test_validate_command_validates_once(tmp_path, monkeypatch, capsys):
    counts = _count_calls(monkeypatch)
    assert cli.main(["validate", os.path.join(DATA, "feeder36.json")]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert counts == {"build_admittance": 1, "validate_feeder": 1}
    # second segment essentially open: valid, but the reduced block is singular
    path = tmp_path / "open.json"
    save_feeder(
        FeederModel(
            n_nodes=2,
            terminals=[(0, 1), (1, 2)],
            z=[0.01 + 0.01j, 1e12 + 0j],
            y_shunt=[0j, 0j],
            der_nodes=(2,),
            monitored_nodes=(2,),
        ),
        str(path),
    )
    assert cli.main(["validate", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and "degenerate network" in lines[0]
