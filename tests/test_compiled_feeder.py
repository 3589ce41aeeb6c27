"""Properties of the sparse, factor-once network against dense references."""

import json
import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import opftrack
from opftrack import cli, networks
from opftrack.feeder import build_admittance
from opftrack.powerflow import PowerInjection, build_linear_model, solve_ac

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")

feeders = st.one_of(
    st.builds(
        lambda n, seed, shunt: networks.random_radial(n, seed, shunt_prob=shunt),
        st.integers(2, 60),
        st.integers(0, 2**16),
        st.sampled_from([0.0, 0.5]),
    ),
    st.builds(networks.chain, st.integers(2, 60)),
)


def _injection(n: int, seed: int, amp: float) -> PowerInjection:
    rng = np.random.default_rng(seed)
    return PowerInjection(rng.uniform(-amp, amp, n), rng.uniform(-amp, amp, n))


@settings(max_examples=40, deadline=None)
@given(fd=feeders, seed=st.integers(0, 2**16))
def test_solve_ac_matches_dense_fixed_point(fd, seed):
    adm = build_admittance(fd)
    inj = _injection(fd.n_nodes, seed, 0.005)
    v0 = fd.slack_voltage
    sol = solve_ac(adm, inj, v0)
    assert sol.residual <= 1e-9
    # the same iteration, as many steps, with dense solves
    Y = adm.Y.toarray()
    yv0 = adm.ybar * v0
    v = np.linalg.solve(Y, -yv0)
    for _ in range(sol.iterations):
        v = np.linalg.solve(Y, np.conj(inj.s / v) - yv0)
    assert np.max(np.abs(v - sol.v)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(fd=feeders, seed=st.integers(0, 2**16))
def test_one_solve_response_matches_inverse_sensitivities(fd, seed):
    lm = build_linear_model(build_admittance(fd), fd.slack_voltage)
    Z = np.linalg.inv(lm.adm.Y.toarray())
    rho, ang = np.abs(lm.vbar), np.angle(lm.vbar)
    cs, ss = np.cos(ang) / rho, np.sin(ang) / rho
    R = Z.real * cs[None, :] - Z.imag * ss[None, :]
    B = Z.imag * cs[None, :] + Z.real * ss[None, :]
    inj = _injection(fd.n_nodes, seed, 0.05)
    assert np.max(np.abs(lm.response(inj.p, inj.q) - (R @ inj.p + B @ inj.q))) <= 1e-12
    Rc, Bc = lm.columns(np.arange(fd.n_nodes))
    assert np.max(np.abs(Rc - R)) <= 1e-12
    assert np.max(np.abs(Bc - B)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(fd=feeders)
def test_condition_estimate_within_factor_n_of_svd(fd):
    adm = build_admittance(fd)
    sv = np.linalg.svd(adm.Y.toarray(), compute_uv=False)
    rcond_svd = sv[-1] / sv[0]
    n = fd.n_nodes
    assert rcond_svd / n <= adm.rcond <= n * rcond_svd


def test_run_compiles_and_validates_the_feeder_once(tmp_path, monkeypatch):
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
    with open(os.path.join(DATA, "config36.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["feeder"] = os.path.join(DATA, cfg["feeder"])
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "config36.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["run", "--config", str(path)]) == 0
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["tracking"]
    assert counts == {"build_admittance": 1, "validate_feeder": 1}
