"""The saddle oracle on config36 against recorded outputs, and the report's one step map.

``oracle_reference.json`` holds the JSON of ``opftrack oracle --config
data/config36.json --step k`` for k in {0, 150, 300, 599}, and the
``tracking`` block of ``summary.json`` from ``opftrack run --config
data/config36.json`` at ``report_decimation`` 60 and 1. The outputs are
compared within what the oracle's stop test allows, not byte for byte: the
last bits move with the numpy and BLAS a platform resolves.
"""

import argparse
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from opftrack import cli, controller
from opftrack.sim import measure_tracking, oracle_map, run_closed_loop

ROOT = Path(__file__).resolve().parents[1]
CONFIG = str(ROOT / "data" / "config36.json")
REF = json.loads((Path(__file__).with_name("oracle_reference.json")).read_text())
ROUNDING = 1e-12  # below the stop test's bound at the recorded residuals, rounding decides


@pytest.fixture(scope="module")
def run36():
    cfg, net, scen, inv = cli._load_run(argparse.Namespace(config=CONFIG))
    traj = run_closed_loop(net, scen, cfg.strategy, inv, cfg.controller, seed=cfg.seed)
    return cfg, net, scen, inv, traj


def _distance_bounds(steps, residual):
    """How far apart two oracle solutions can lie whose residuals sum to ``residual``.

    The oracle minimizes a penalty objective F that is strongly convex with
    modulus ``min(2 c) + nu`` and whose gradient is Lipschitz with the
    oracle's ``lip``; its stop test reads the natural residual ``||u -
    proj(u - grad F(u))||``, and ``||u - u*|| <= (1 + lip) / modulus`` times
    that residual. The duals are the limits' violations over eps, so
    ``[gamma; mu]`` moves by at most ``sqrt(2) ||A||_2 / eps`` per unit of u.
    Returns the bounds on the setpoints' and the duals' distances.
    """
    inv, prm, a = steps.inverters, steps.params, steps.coupling.rows
    h_cost = np.concatenate([2.0 * inv.c_p, 2.0 * inv.c_q]) + prm.nu
    lip = h_cost.max() + float(np.sum(a * a)) / prm.epsilon
    du = (1.0 + lip) / h_cost.min() * residual + ROUNDING
    return du, math.sqrt(2.0) * np.linalg.norm(a, 2) / prm.epsilon * du


@pytest.mark.parametrize("k", [0, 150, 300, 599])
def test_oracle_matches_the_recorded_solution(k, run36, tmp_path):
    cfg, net, scen, inv, _ = run36
    path = tmp_path / "oracle.json"
    assert cli.main(["oracle", "--config", CONFIG, "--step", str(k), "--output", str(path)]) == 0
    got, want = json.loads(path.read_text()), REF["oracle"][str(k)]
    assert got["step"] == k and got["kkt_residual"] <= 1e-11
    assert got["iterations"] <= want["iterations"] + 2
    steps, _ = oracle_map(net, scen, inv, cfg.controller)
    du, dd = _distance_bounds(steps, got["kkt_residual"] + want["kkt_residual"])
    u = [np.asarray(d["p_star"] + d["q_star"]) for d in (got, want)]
    duals = [np.asarray(d["gamma_star"] + d["mu_star"]) for d in (got, want)]
    assert np.linalg.norm(u[0] - u[1]) <= du
    assert np.linalg.norm(duals[0] - duals[1]) <= dd


@pytest.mark.parametrize("decimation", [60, 1])
def test_tracking_report_matches_the_recorded_one(decimation, run36, capsys):
    cfg, net, scen, inv, traj = run36
    rep = measure_tracking(net, scen, inv, cfg.controller, traj, decimation=decimation)
    cli._emit_json(asdict(rep), None)  # the JSON form, as the summary writes it
    got = json.loads(capsys.readouterr().out)
    want = REF["tracking"][str(decimation)]
    for key in ("decimation", "note", "bound_rhs", "bound_satisfied"):
        assert got[key] == want[key], key
    assert got["oracle_residual_max"] <= 1e-11
    assert got["oracle_iterations_max"] <= want["oracle_iterations_max"] + 2
    assert got["e_measured"] == pytest.approx(want["e_measured"], rel=1e-9)
    # every sampled optimizer z* moves by at most the stop test's distance
    steps, _ = oracle_map(net, scen, inv, cfg.controller)
    du, dd = _distance_bounds(steps, got["oracle_residual_max"] + want["oracle_residual_max"])
    dz = math.hypot(du, dd)
    assert abs(got["sigma_z_measured"] - want["sigma_z_measured"]) <= 2.0 * dz / decimation
    assert got["tracking_error_tail"] == pytest.approx(
        want["tracking_error_tail"], rel=1e-9, abs=dz
    )


def test_the_report_builds_one_step_map(run36, monkeypatch):
    # every sampled step's saddle problem is a row of the report's one
    # unit-step map, also at decimation 1 (600 sampled steps)
    cfg, net, scen, inv, traj = run36
    built = []
    post_init = controller.StepMap.__post_init__

    def counted(self):
        built.append(len(self.p_av))
        post_init(self)

    monkeypatch.setattr(controller.StepMap, "__post_init__", counted)
    rep = measure_tracking(net, scen, inv, cfg.controller, traj, decimation=1)
    assert built == [scen.n_steps]
    assert rep.oracle_iterations_total > 0
