"""Properties of the compiled network, inverted or tree-factored once, against dense references."""

import json
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from dense_helpers import compile_with_dense_limit, dense_admittance, tree_admittance
from hypothesis import given, settings
from hypothesis import strategies as st
from small_feeders import chain

import opftrack
from opftrack import cli, networks
from opftrack.controller import (
    ControllerParams,
    FactoredCoupling,
    Inverters,
    VoltageCoupling,
    convergence_constants,
)
from opftrack.feeder import (
    SOLVE_BLOCK,
    FeederError,
    FeederModel,
    _inverse_norm1,
    build_admittance,
    save_feeder,
)
from opftrack.powerflow import build_linear_model, solve_ac
from opftrack.sim import ScenarioParams, compile_feeder, generate_scenario, run_closed_loop

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
    inj = _injection(fd.n_nodes, seed, 0.005)
    v0 = fd.slack_voltage
    Y = dense_admittance(fd)[1:, 1:]
    # the dense inverse and the tree factor of the same feeder
    for adm in (build_admittance(fd), tree_admittance(fd)):
        sol = solve_ac(adm, inj, v0)
        assert sol.residual <= 1e-9
        # the same iteration, as many steps, with dense solves
        yv0 = adm.ybar * v0
        v = np.linalg.solve(Y, -yv0)
        for _ in range(sol.iterations):
            v = np.linalg.solve(Y, np.conj(inj / v) - yv0)
        assert np.max(np.abs(v - sol.v)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(fd=feeders, seed=st.integers(0, 2**16))
def test_one_solve_response_matches_inverse_sensitivities(fd, seed):
    Z = np.linalg.inv(dense_admittance(fd)[1:, 1:])
    inj = _injection(fd.n_nodes, seed, 0.05)
    for adm in (build_admittance(fd), tree_admittance(fd)):
        lm = build_linear_model(adm, fd.slack_voltage)
        # columns scaled by exp(j theta) / rho, rows turned back by exp(-j theta)
        rho, ang = np.abs(lm.vbar), np.angle(lm.vbar)
        S = np.exp(-1j * ang)[:, None] * Z * (np.exp(1j * ang) / rho)[None, :]
        R, B = S.real, S.imag
        want = R @ inj.real + B @ inj.imag
        assert np.max(np.abs(lm.response(inj.real, inj.imag) - want)) <= 1e-12
        Rc, Bc = np.hsplit(lm.columns(np.arange(fd.n_nodes), np.arange(fd.n_nodes)), 2)
        assert np.max(np.abs(Rc - R)) <= 1e-12
        assert np.max(np.abs(Bc - B)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(fd=feeders)
def test_condition_estimate_within_factor_n_of_svd(fd):
    Y = dense_admittance(fd)[1:, 1:]
    sv = np.linalg.svd(Y, compute_uv=False)
    rcond_svd = sv[-1] / sv[0]
    n = fd.n_nodes
    # the estimate build_admittance holds against RCOND_LIMIT on a feeder
    # that takes the tree factor, on the tree factor of this one
    rcond = 1.0 / (np.abs(Y).sum(axis=0).max() * _inverse_norm1(tree_admittance(fd).solve, n))
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


def _meshed(fd: FeederModel, k: int, seed: int) -> FeederModel:
    """``fd`` with ``k`` more lines on corridors it leaves free, every other one from the slack."""
    rng = np.random.default_rng(seed)
    taken = {tuple(sorted(t)) for t in fd.terminals.tolist()}
    extra = []
    while len(extra) < k:
        a = 0 if len(extra) % 2 == 0 else int(rng.integers(1, fd.n_nodes + 1))
        b = int(rng.integers(1, fd.n_nodes + 1))
        if a != b and tuple(sorted((a, b))) not in taken:
            taken.add(tuple(sorted((a, b))))
            extra.append((a, b))
    z = rng.uniform(0.005, 0.05, k) * np.exp(1j * rng.uniform(0.47, 1.1, k))
    return replace(
        fd,
        terminals=np.vstack([fd.terminals, np.reshape(extra, (-1, 2))]),
        z=np.concatenate([fd.z, z]),
        y_shunt=np.concatenate([fd.y_shunt, np.zeros(k)]),
    )


# feeders above DENSE_Z_MAX_NODES, radial or with 1-5 chords
tree_feeders = st.builds(
    lambda n, seed, shunt, k: _meshed(networks.random_radial(n, seed, shunt_prob=shunt), k, seed),
    st.integers(193, 400),
    st.integers(0, 2**16),
    st.sampled_from([0.0, 0.5]),
    st.integers(0, 5),
)


@settings(max_examples=30, deadline=None)
@given(fd=tree_feeders, seed=st.integers(0, 2**16))
def test_the_tree_factor_solves_as_the_dense_admittance(fd, seed):
    # a vector and an N x 40 array against dense
    # solves, within 1e-12 of the largest entry (at most 5.5e-14 seen over
    # 300 such feeders), each column of the array bit for bit its vector
    # solve; the linear model's columns, solved for, against the entries
    # of the dense inverse
    adm = build_admittance(fd)
    assert adm.z is None
    y = dense_admittance(fd)[1:, 1:]
    n = fd.n_nodes
    rng = np.random.default_rng(seed)
    rhs = rng.normal(size=(n, 40)) + 1j * rng.normal(size=(n, 40))
    want = np.linalg.solve(y, rhs)
    got = adm.solve(rhs)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    one = adm.solve(rhs[:, 0])
    assert np.max(np.abs(one - want[:, 0])) <= 1e-12 * np.max(np.abs(want[:, 0]))
    assert np.column_stack([adm.solve(rhs[:, j]) for j in range(40)]).tobytes() == got.tobytes()
    rows, cols = rng.permutation(n)[: n // 2], rng.permutation(n)[:40]
    lm = build_linear_model(adm, fd.slack_voltage)
    h = lm.rot[rows, None] * np.linalg.inv(y)[np.ix_(rows, cols)] * lm.ebar[cols]
    want = np.hstack([h.real, h.imag])
    assert np.max(np.abs(lm.columns(cols, rows) - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=30, deadline=None)
@given(
    fd=st.builds(
        lambda n, seed, k: _meshed(networks.random_radial(n, seed, shunt_prob=0.5), k, seed),
        st.integers(8, 80),
        st.integers(0, 2**16),
        st.integers(0, 3),
    ),
    k=st.sampled_from([0, 1, 5, SOLVE_BLOCK, SOLVE_BLOCK + 1, 2 * SOLVE_BLOCK + 3]),
    data=st.data(),
)
def test_columns_are_the_dense_inverse_entries_on_both_forms(fd, k, data):
    # radial and meshed feeders with shunts; bus sets empty, repeated,
    # unsorted and across SOLVE_BLOCK boundaries. The dense form's unit
    # column products are its z's entries, equal in value (a product may
    # turn a -0.0 into +0.0); the tree factor's solves agree with the dense
    # inverse within 1e-12 of the largest entry
    n = fd.n_nodes
    idx = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)), dtype=int)
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=n + 5)), dtype=int)

    def entries(lm, z):
        h = lm.rot[rows, None] * (z[np.ix_(rows, idx)] * lm.ebar[idx])
        return np.hstack([h.real, h.imag])

    dense = build_linear_model(build_admittance(fd), fd.slack_voltage)
    got = dense.columns(idx, rows)
    assert got.shape == (len(rows), 2 * k)
    assert np.array_equal(got, entries(dense, dense.adm.z))
    tree = build_linear_model(tree_admittance(fd), fd.slack_voltage)
    got, want = tree.columns(idx, rows), entries(tree, np.linalg.inv(dense_admittance(fd)[1:, 1:]))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * np.max(np.abs(want), initial=0.0)


def _within(got, want, rel=1e-12):
    return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@settings(max_examples=25, deadline=None)
@given(fd=tree_feeders, seed=st.integers(0, 2**16), k=st.integers(2, 40))
def test_the_factored_coupling_applies_the_dense_block(fd, seed, k):
    # on random DER and metered sets: the products of the coupling that
    # applies the tree factor against those of the block stored from the
    # dense inverse of the same feeder, the block it forms on demand
    # against that block, and G from Lanczos against the Gram eigensolve
    rng = np.random.default_rng(seed)
    buses = np.arange(1, fd.n_nodes + 1)
    fd = replace(
        fd,
        der_nodes=np.sort(rng.choice(buses, int(rng.integers(1, 31)), replace=False)),
        monitored_nodes=np.sort(rng.choice(buses, int(rng.integers(1, fd.n_nodes + 1)), replace=False)),
        der_ratings=(),
    )
    factored = compile_feeder(fd).coupling
    dense = compile_with_dense_limit(fd, fd.n_nodes).coupling
    assert isinstance(factored, FactoredCoupling) and isinstance(dense, VoltageCoupling)
    n, m = fd.n_der, len(fd.monitored_nodes)
    lam = rng.uniform(0.0, 1.0, m)
    u = rng.normal(size=(k, n, 2))
    assert _within(factored.back(lam), dense.back(lam))
    assert _within(factored.predict(u[0], 0.0), dense.predict(u[0], 0.0))
    assert _within(factored.predict(u, np.zeros((k, m))), dense.predict(u, np.zeros((k, m))))
    assert _within(factored.stored.rows, dense.rows)
    assert abs(factored.norm() - dense.norm()) <= 1e-12 * dense.norm()


def test_a_large_feeder_compiles_and_runs_with_no_metered_by_der_block():
    # 3000 buses, each metered, 300 DERs: [r b] alone is 14.4 MB, and at
    # the stored coupling the compile, constants and a 30-step run peaked
    # at 34 MB of numpy arrays, against 5.6 MB applying the tree factor
    fd = networks.random_radial(
        3000, 0, z_mag_range=(0.0005, 0.002), der_nodes=tuple(range(10, 3001, 10))
    )
    inv = Inverters("joint", fd.der_ratings, np.full(fd.n_der, 3.0), np.ones(fd.n_der))
    params = ControllerParams(alpha=0.2, nu=1e-3, epsilon=1e-4)
    scen = generate_scenario("ramp", fd, 0, ScenarioParams(n_steps=30, load_p=0.0002))
    tracemalloc.start()
    try:
        net = compile_feeder(fd)
        convergence_constants(inv, net.coupling, params)
        run_closed_loop(net, scen, "pursuit", inv, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6, peak


def test_the_stored_block_of_a_large_feeder_peaks_at_two_blocks():
    # the same feeder's [r b] is 14.4 MB. Its columns are solved SOLVE_BLOCK
    # at a time, each block of unit columns 1.5 MB above the result, and
    # the coupling copies [r b] into its rows while the argument lives: two
    # blocks, and the few KB of array and object headers tracemalloc counts
    fd = networks.random_radial(
        3000, 0, z_mag_range=(0.0005, 0.002), der_nodes=tuple(range(10, 3001, 10))
    )
    coupling = compile_feeder(fd).coupling
    block = 8 * coupling.n_metered * 2 * coupling.n_der
    tracemalloc.start()
    try:
        stored = coupling.stored
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block == stored.rows.nbytes == 14_400_000
    assert peak <= 2 * block + 2**16, peak


@pytest.mark.parametrize("chords", [0, 3], ids=["radial", "meshed"])
def test_a_near_open_line_makes_a_tree_factored_feeder_degenerate(chords):
    # the line to a bus that no other line touches, all but open (r = 1e12)
    fd = _meshed(networks.random_radial(250, 4), chords, 4)
    ends, count = np.unique(fd.terminals, return_counts=True)
    bus = ends[count == 1].max()
    z = fd.z.copy()
    line = int(np.flatnonzero((fd.terminals == bus).any(axis=1))[0])
    z[line] = 1e12 + 1j * z[line].imag
    assert build_admittance(fd).z is None
    with pytest.raises(FeederError, match="degenerate network"):
        build_admittance(replace(fd, z=z))


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
