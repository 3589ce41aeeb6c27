import csv
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from scenario_files import write_scenario_file
from small_feeders import two_bus

from opftrack import cli, controller
from opftrack.controller import OracleError
from opftrack.feeder import feeder_to_dict, save_feeder
from opftrack.networks import feeder36
from opftrack.sim import ScenarioParams, generate_scenario, run_closed_loop

DATA = Path(__file__).resolve().parents[1] / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


@pytest.fixture()
def feeder_file(tmp_path):
    path = tmp_path / "feeder.json"
    save_feeder(two_bus(z=0.1 + 0.1j), str(path))
    return path


@pytest.fixture()
def run_config(tmp_path, feeder_file):
    # ramp on the two-bus feeder with a well-regularized stepsize: the
    # contraction condition holds, so the tracking bound is checkable
    cfg = {
        "feeder": "feeder.json",
        "strategy": "pursuit",
        "plant": "linear",
        "generator": {
            "kind": "ramp", "n_steps": 41, "tau": 1.0, "load_p": 0.0,
            "load_swing": 0.0, "ramp_start": 0.2, "ramp_end": 0.9,
        },
        "controller": {"alpha": 0.05, "nu": 0.1, "epsilon": 0.1},
        "cost": {"c_p": 0.5, "c_q": 0.5},
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
        "report_decimation": 5,
    }
    path = tmp_path / "config.json"
    write_json(path, cfg)
    return path


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "opftrack" in capsys.readouterr().out


def test_validate_ok(feeder_file, capsys):
    assert cli.main(["validate", str(feeder_file)]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_reports_diagnostics(tmp_path, capsys):
    d = feeder_to_dict(two_bus())
    d["lines"][0]["to"] = d["lines"][0]["from"]
    path = tmp_path / "bad.json"
    write_json(path, d)
    assert cli.main(["validate", str(path)]) == 1
    assert "ok" not in capsys.readouterr().out


def test_validate_missing_file(tmp_path, capsys):
    assert cli.main(["validate", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_whole_run_band_figures_are_read_off_the_trajectory(tmp_path):
    # the shipped config leaves the band mid-run; the summary's whole-run
    # figures are those of the trajectory's max_violation column
    cfg = json.loads((DATA / "config36.json").read_text(encoding="utf-8"))
    cfg.update(feeder=str(DATA / "feeder36.json"), output_dir=str(tmp_path), report=False)
    path = tmp_path / "config.json"
    write_json(path, cfg)
    assert cli.main(["run", "--config", str(path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    with open(tmp_path / "trajectory.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    viol = [float(r["max_violation"]) for r in rows]
    worst = max(viol)
    assert summary["max_violation_run"] == worst
    assert summary["max_violation_run_step"] == viol.index(worst)
    assert summary["steps_outside_band"] == sum(v > 0.0 for v in viol)
    assert summary["violation_integral_pu_s"] == summary["tau_s"] * math.fsum(viol)
    assert summary["solver"]["pf_residual_max"] == max(float(r["pf_residual"]) for r in rows)
    # the figures the README quotes for the headline run
    assert (round(worst, 4), viol.index(worst)) == (0.0402, 212)
    assert summary["steps_outside_band"] == 221
    assert round(summary["violation_integral_pu_s"], 3) == 1.370


def test_config_number_json_cannot_convert_names_the_file(tmp_path, run_config, capsys):
    # json parses the 5000-digit integer into a ValueError that is not a
    # JSONDecodeError; the message still names the file
    text = run_config.read_text(encoding="utf-8")
    text = text.replace('"n_steps": 41', '"n_steps": ' + "9" * 5000)
    run_config.write_text(text, encoding="utf-8")
    assert cli.main(["run", "--config", str(run_config)]) == 1
    assert f"error: {run_config}: invalid JSON: Exceeds the limit" in _one_line_error(capsys)


def test_validate_invalid_json(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda c: c.update(solver="fast"), "unknown key"),
        (lambda c: c.update(scenario_file="s.csv"), "exactly one"),
        (lambda c: c.pop("generator"), "exactly one"),
        (lambda c: c["controller"].update(alpha=-0.1), "controller"),
        (lambda c: c["generator"].update(cloud_cover=0.5), "unknown key"),
        (lambda c: c.update(cost={"c_p": 1.0, "weight": 2.0}), "unknown key"),
        # every value is checked against its field's type, naming file and key
        (lambda c: c["controller"].update(alpha="0.1"),
         'bad_config.json:controller:alpha: expected a number, got "0.1"'),
        (lambda c: c.update(seed=None), "bad_config.json:seed: expected an integer, got null"),
        (lambda c: c["generator"].update(n_steps="10"),
         "bad_config.json:generator:n_steps: expected an integer"),
        (lambda c: c["generator"].update(tau="x"), "bad_config.json:generator:tau: expected a number"),
        (lambda c: c.update(feeder=3), "bad_config.json:feeder: expected a string, got 3"),
        (lambda c: c.update(cost=[1.0, 2.0]), "bad_config.json:cost[0]: expected an object, got 1.0"),
        (lambda c: c.update(report="no"), "bad_config.json:report: expected true or false"),
        (lambda c: c.update(report_decimation=2.7),
         "bad_config.json:report_decimation: expected an integer, got 2.7"),
        (lambda c: c.update(controller="x"), "bad_config.json:controller: expected an object"),
        (lambda c: c.update(cost="cheap"),
         "bad_config.json:cost: expected an object or a list, got \"cheap\""),
        (lambda c: c.update(generator=[1, 2]),
         "bad_config.json:generator: expected an object or null, got a list"),
        # generator knobs that would crash the loop or the generator
        (lambda c: c["generator"].update(n_steps=0), "scenario has no steps"),
        (lambda c: c["generator"].update(kind="vmax_steps", vmax_plateaus=[1.05]),
         "bad_config.json:generator:vmax_plateaus: expected a list of 3 entries, got 1"),
        # values outside their choices or ranges, caught before the run starts
        (lambda c: c["generator"].update(kind="sunny"),
         "bad_config.json:generator: kind must be one of static, ramp, cloud_transient, "
         "vmax_steps; got 'sunny'"),
        (lambda c: c["generator"].update(n_steps=-2),
         "bad_config.json:generator: n_steps must be >= 1, got -2"),
        (lambda c: c["generator"].update(load_p=[]),
         "bad_config.json:generator: load_p must be a number or one per bus (1), got shape (0,)"),
        (lambda c: c.update(strategy="magic"),
         "bad_config.json: strategy must be one of pursuit, droop, none; got 'magic'"),
        (lambda c: c.update(plant="dc"),
         "bad_config.json: plant must be one of ac, linear; got 'dc'"),
        (lambda c: c.update(region_kind="both"),
         "bad_config.json: region_kind must be one of real_only, reactive_only, joint; "
         "got 'both'"),
        (lambda c: c["generator"].update(tau=-1),
         "bad_config.json:generator: tau must be positive and finite, got -1.0"),
        # the droop has its own response time: no plant-wide lag, no curve knobs
        (lambda c: c.update(lag_beta=0.9), "unknown key(s) ['lag_beta'] in"),
        (lambda c: c.update(droop={"v_sat": 1.1}), "unknown key(s) ['droop'] in"),
        # measurement noise is the run's, next to its seed; the scenario has none
        (lambda c: c["generator"].update(noise_amp=-0.5), "unknown key(s) ['noise_amp'] in"),
        (lambda c: c.update(noise_amp=-0.5),
         "bad_config.json: noise_amp must be >= 0 with 2 * noise_amp finite, got -0.5"),
        # the noise draw spans 2 * noise_amp, and the generator's time axis
        # runs to (n_steps - 1) * tau: both must be finite
        (lambda c: c.update(noise_amp=math.inf),
         "bad_config.json: noise_amp must be >= 0 with 2 * noise_amp finite, got inf"),
        (lambda c: c.update(noise_amp=1e308),
         "bad_config.json: noise_amp must be >= 0 with 2 * noise_amp finite, got 1e+308"),
        (lambda c: c["generator"].update(tau=1e308),
         "bad_config.json:generator: last time (n_steps - 1) * tau must be finite, "
         "tau = 1e+308"),
        # a step count beyond any float fails in the generator, one line still
        (lambda c: c["generator"].update(n_steps=10**400), "bad_config.json:generator:"),
        # step counts no numpy array holds; at config36's tau the last time
        # (n_steps - 1) * tau passes the overflow check
        pytest.param(
            lambda c: c["generator"].update(n_steps=10**400, tau=0.33),
            f"bad_config.json:generator:n_steps: {10**400} steps do not fit in memory",
            id="n_steps=10**400-tau=0.33"),
        pytest.param(
            lambda c: c["generator"].update(n_steps=2**62),
            f"bad_config.json:generator:n_steps: {2**62} steps do not fit in memory",
            id="n_steps=2**62"),
        (lambda c: c.update(seed=-1), "bad_config.json: seed must be >= 0, got -1"),
        (lambda c: c["generator"].update(seed=-1),
         "bad_config.json:generator: seed must be >= 0, got -1"),
        (lambda c: c["generator"].update(n_dips=-1),
         "bad_config.json:generator: n_dips must be >= 0, got -1"),
        # a negative fraction would slice from the end, a short sum stretch the last plateau
        (lambda c: c["generator"].update(kind="vmax_steps", vmax_fractions=[-0.5, 0.25, 1.25]),
         "bad_config.json:generator: vmax_fractions must be nonnegative and sum to 1, "
         "got (-0.5, 0.25, 1.25)"),
        (lambda c: c["generator"].update(kind="vmax_steps", vmax_fractions=[0.2, 0.2, 0.2]),
         "bad_config.json:generator: vmax_fractions must be nonnegative and sum to 1, "
         "got (0.2, 0.2, 0.2)"),
        (lambda c: c.update(cost=[{"c_p": 1.0, "c_q": 1.0}] * 2),
         "bad_config.json:cost: per-DER list has 2 entries, feeder has 1 DERs"),
        (lambda c: c["generator"].update(v_min=1.1, v_max=1.0),
         "bad_config.json:generator: v_min must be below v_max at every step"),
        # the voltage band is the scenario's; the controller section has none
        (lambda c: c["controller"].update(v_min=0.95, v_max=1.05),
         "unknown key(s) ['v_max', 'v_min'] in"),
        # JSON's NaN and Infinity parse as numbers; none of them is a value
        (lambda c: c["controller"].update(alpha=math.nan),
         "bad_config.json:controller: alpha, nu, epsilon must be finite and strictly positive, "
         "got (nan, 0.1, 0.1)"),
        (lambda c: c["controller"].update(epsilon=-math.inf),
         "bad_config.json:controller: alpha, nu, epsilon must be finite"),
        (lambda c: c["controller"].update(nu=math.inf),
         "bad_config.json:controller: alpha, nu, epsilon must be finite"),
        (lambda c: c.update(cost={"c_p": math.inf, "c_q": 1.0}),
         "bad_config.json:cost: cost weights must be finite and nonnegative, got (inf, 1.0)"),
        (lambda c: c.update(cost=[{"c_p": 1.0, "c_q": math.nan}]),
         "bad_config.json:cost[0]: cost weights must be finite"),
        # the dip width is a fixed share of the scenario's duration
        (lambda c: c["generator"].update(dip_width_s=2.0),
         "unknown key(s) ['dip_width_s'] in"),
    ],
)
def test_config_schema_errors(tmp_path, run_config, capsys, mutate, fragment):
    cfg = json.loads(run_config.read_text(encoding="utf-8"))
    mutate(cfg)
    bad = tmp_path / "bad_config.json"
    write_json(bad, cfg)
    assert cli.main(["run", "--config", str(bad)]) == 1
    assert fragment in _one_line_error(capsys)


def test_scenario_too_large_for_memory_is_one_line(run_config, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setattr(cli, "generate_scenario", no_memory)
    assert cli.main(["run", "--config", str(run_config)]) == 1
    assert f"{run_config}:generator:n_steps: 41 steps do not fit in memory" in _one_line_error(capsys)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d["lines"][3].update({"from": 3.9}),
         "malformed feeder description: lines[3].from: expected an integer, got 3.9"),
        (lambda d: d["lines"][3].update(to=3), "line (3,3) is a self loop"),
        # files written before the base power left the format are rejected
        (lambda d: d.update(base_power_va=1.0e6),
         "unknown key(s) ['base_power_va'] in feeder description"),
    ],
    ids=["load", "compile", "base-power"],
)
@pytest.mark.parametrize("command", ["run", "oracle", "report"])
def test_feeder_errors_name_the_feeder_file(tmp_path, capsys, mutate, fragment, command):
    feeder = json.loads((DATA / "feeder36.json").read_text(encoding="utf-8"))
    mutate(feeder)
    path = tmp_path / "feeder36.json"  # the feeder config36 names, beside the config
    write_json(path, feeder)
    config = tmp_path / "config.json"
    shutil.copy(DATA / "config36.json", config)
    assert cli.main([command, "--config", str(config)]) == 1
    assert f"error: {path}: {fragment}" in _one_line_error(capsys)


@pytest.mark.parametrize("command", ["powerflow", "linearize"])
def test_removed_subcommand_is_a_usage_error(capsys, command):
    # the one-shot diagnostics are gone; solve_ac and build_linear_model stay
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--feeder", str(DATA / "feeder36.json")])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"invalid choice: '{command}'" in err


def test_run_alpha_flag_must_be_finite(run_config, capsys):
    assert cli.main(["run", "--config", str(run_config), "--alpha", "nan"]) == 1
    assert "controller: alpha, nu, epsilon must be finite" in _one_line_error(capsys)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_run_overflowing_stepsize_is_a_plant_failure(tmp_path, capsys):
    # alpha**2 overflows a float: rho(alpha) is inf, and the controller's
    # steps overflow (numpy warns) until the plant collapses
    args = ["run", "--config", str(DATA / "config36.json"), "--alpha", "1e200", "--no-report",
            "--output-dir", str(tmp_path / "out")]
    assert cli.main(args) == 3
    out, err = capsys.readouterr()
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: plant failure: step ")


def test_summary_writes_an_overflowing_constant_as_null(tmp_path):
    # nu = 1e200 overflows L_reg; strategy none runs without the controller
    cfg = json.loads((DATA / "config36.json").read_text(encoding="utf-8"))
    cfg.update(feeder=str(DATA / "feeder36.json"), output_dir=str(tmp_path), strategy="none")
    cfg["controller"]["nu"] = 1e200
    path = tmp_path / "config.json"
    write_json(path, cfg)
    assert cli.main(["run", "--config", str(path)]) == 0
    text = (tmp_path / "summary.json").read_text(encoding="utf-8")
    assert "Infinity" not in text
    consts = json.loads(text)["constants"]
    assert consts["L_reg"] is None and consts["rho_alpha"] is None
    assert consts["alpha_max"] == 0.0 and consts["eta"] == 1e-4


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_summary_is_strict_json_when_the_tracking_error_overflows(tmp_path):
    # on the linear plant a stepsize of 1e200 runs to the end: the setpoints
    # overflow, so the tracking error is infinite and written as null
    args = ["run", "--config", str(DATA / "config36.json"), "--plant", "linear",
            "--alpha", "1e200", "--output-dir", str(tmp_path)]
    assert cli.main(args) == 0
    summary = _strict_json((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert summary["tracking"]["tracking_error_tail"] is None
    assert summary["tracking"]["bound_rhs"] is None
    assert summary["constants"]["rho_alpha"] is None


@pytest.mark.parametrize("strategy", ["pursuit", "none"])
def test_dual_max_is_the_largest_recorded_dual(tmp_path, strategy):
    args = ["run", "--config", str(DATA / "config36.json"), "--strategy", strategy,
            "--no-report", "--output-dir", str(tmp_path)]
    assert cli.main(args) == 0
    summary = _strict_json((tmp_path / "summary.json").read_text(encoding="utf-8"))
    with open(tmp_path / "trajectory.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    duals = [float(v) for r in rows for k, v in r.items() if k.startswith(("gamma_", "mu_"))]
    assert len(duals) == 600 * 2 * len(feeder36().monitored_nodes)
    assert summary["dual_max"] == max(duals)
    # the figure the README quotes for the headline run; no controller, no duals
    assert round(summary["dual_max"], 4) == (0.7558 if strategy == "pursuit" else 0.0)


def test_run_prints_one_clipping_warning(tmp_path):
    # the loop and the report each clip the over-rated availability, from
    # one source line: Python's default filter prints the warning once. A
    # fresh interpreter runs it, since pytest records every warning.
    fd = feeder36()
    scen = generate_scenario("cloud_transient", fd, seed=3, params=ScenarioParams(n_steps=40))
    write_scenario_file(replace(scen, p_av=1.3 * scen.p_av), fd, tmp_path / "over.csv")
    cfg = json.loads((DATA / "config36.json").read_text(encoding="utf-8"))
    del cfg["generator"]
    cfg.update(feeder=str(DATA / "feeder36.json"), scenario_file="over.csv",
               output_dir=str(tmp_path / "out"), report_decimation=5)
    write_json(tmp_path / "config.json", cfg)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "opftrack.cli", "run", "--config", str(tmp_path / "config.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    clipped = [line for line in proc.stderr.splitlines() if "clipped to the rating" in line]
    assert len(clipped) == 1, proc.stderr
    assert "tracking" in json.loads((tmp_path / "out" / "summary.json").read_text())


def test_run_refuses_a_decimation_that_samples_no_tail_step(tmp_path, capsys):
    # config36 has 600 steps: decimation 600 samples step 0 only, the tail is 450..599
    out_dir = tmp_path / "out"
    args = ["run", "--config", str(DATA / "config36.json"), "--decimation", "600",
            "--output-dir", str(out_dir)]
    assert cli.main(args) == 1
    err = _one_line_error(capsys)
    assert "decimation 600 samples no step of the tail, steps 450..599 of 600" in err
    assert not out_dir.exists()
    # the run without a report does not sample at all
    assert cli.main([*args, "--no-report"]) == 0


def test_run_seed_flag_must_be_nonnegative(run_config, capsys):
    assert cli.main(["run", "--config", str(run_config), "--seed", "-1"]) == 1
    assert f"{run_config}: seed must be >= 0, got -1" in _one_line_error(capsys)


def test_run_end_to_end(tmp_path, run_config, capsys):
    assert cli.main(["run", "--config", str(run_config)]) == 0
    out = capsys.readouterr().out
    # the constants are summary.json's; stdout has the verdict and the paths
    assert out.splitlines()[0].startswith("stepsize condition 0 < alpha < alpha_max: satisfied")
    assert len(out.splitlines()) == 4
    traj = tmp_path / "out" / "trajectory.csv"
    summary_path = tmp_path / "out" / "summary.json"
    assert traj.exists() and summary_path.exists()
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    assert summary["strategy"] == "pursuit"
    assert summary["alpha_condition_satisfied"] is True
    assert summary["tracking"]["bound_satisfied"] is True
    # one copy of the convergence constants: the top-level section
    assert set(summary["constants"]) == {"L", "G", "eta", "L_reg", "rho_alpha", "alpha_max"}
    assert "constants" not in summary["tracking"]
    # the linear plant runs no power-flow solve
    assert summary["solver"] == {
        "pf_iterations_total": 0, "pf_iterations_max": 0, "pf_iterations_p99": 0,
        "pf_residual_max": 0.0,
    }
    # byte-stable artifacts for identical configuration
    assert cli.main(["run", "--config", str(run_config),
                     "--output-dir", str(tmp_path / "out2")]) == 0
    assert (tmp_path / "out2" / "summary.json").read_bytes() == summary_path.read_bytes()
    assert (tmp_path / "out2" / "trajectory.csv").read_bytes() == traj.read_bytes()


def test_summary_solver_section_totals_the_plant_iterations(tmp_path, run_config):
    args = ["run", "--config", str(run_config), "--plant", "ac", "--no-report"]
    assert cli.main(args) == 0
    path = tmp_path / "out" / "summary.json"
    first = path.read_bytes()
    assert cli.main(args) == 0
    assert path.read_bytes() == first
    cfg, net, scen, inv = cli._load_run(cli._build_parser().parse_args(args))
    traj = run_closed_loop(net, scen, cfg.strategy, inv, cfg.controller, seed=cfg.seed)
    counts = traj.pf_iterations
    assert counts.min() >= 1
    assert json.loads(first)["solver"] == {
        "pf_iterations_total": int(counts.sum()), "pf_iterations_max": int(counts.max()),
        # 99% of 41 steps rounds up to all 41, so the p99 is the largest count
        "pf_iterations_p99": int(counts.max()),
        "pf_residual_max": float(traj.pf_residual.max()),
    }
    assert 0.0 < traj.pf_residual.max() <= 1e-9


def test_summary_pf_p99_is_the_nearest_rank_step_count(tmp_path):
    # the smallest count that at least 99% of config36's 600 steps do not
    # exceed, an integer from the run's own counts; the run's largest counts
    # lie above it
    cfg = json.loads((DATA / "config36.json").read_text(encoding="utf-8"))
    cfg.update(feeder=str(DATA / "feeder36.json"), output_dir=str(tmp_path), report=False)
    path = tmp_path / "config.json"
    write_json(path, cfg)
    args = ["run", "--config", str(path)]
    assert cli.main(args) == 0
    solver = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))["solver"]
    cfg, net, scen, inv = cli._load_run(cli._build_parser().parse_args(args))
    traj = run_closed_loop(net, scen, cfg.strategy, inv, cfg.controller, seed=cfg.seed,
                           noise_amp=cfg.noise_amp)
    counts = sorted(traj.pf_iterations.tolist())
    n = len(counts)
    p99 = counts[-(-99 * n // 100) - 1]
    assert type(solver["pf_iterations_p99"]) is int and solver["pf_iterations_p99"] == p99
    assert sum(c < p99 for c in counts) < 0.99 * n <= sum(c <= p99 for c in counts)
    assert p99 < solver["pf_iterations_max"] == counts[-1]


def test_run_overrides(tmp_path, run_config, capsys):
    code = cli.main([
        "run", "--config", str(run_config), "--strategy", "droop",
        "--alpha", "0.2", "--seed", "5", "--output-dir", str(tmp_path / "d"),
        "--no-report",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "warning: no theoretical contraction guarantee" in out
    summary = json.loads((tmp_path / "d" / "summary.json").read_text(encoding="utf-8"))
    assert summary["strategy"] == "droop"
    assert summary["seed"] == 5
    assert summary["alpha"] == 0.2
    assert summary["alpha_condition_satisfied"] is False
    assert "tracking" not in summary


def test_run_plant_failure(tmp_path, feeder_file, capsys):
    cfg = {
        "feeder": "feeder.json",
        "strategy": "none",
        "generator": {"kind": "static", "n_steps": 3, "load_p": 50.0},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "blowup.json"
    write_json(path, cfg)
    assert cli.main(["run", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: plant failure: step 0: ")


def test_oracle_output(tmp_path, run_config, capsys):
    out1 = tmp_path / "oracle1.json"
    out2 = tmp_path / "oracle2.json"
    assert cli.main(["oracle", "--config", str(run_config), "--step", "40",
                     "--output", str(out1)]) == 0
    assert "kkt_residual" in capsys.readouterr().err
    assert cli.main(["oracle", "--config", str(run_config), "--step", "40",
                     "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    sol = json.loads(out1.read_text(encoding="utf-8"))
    assert sol["step"] == 40
    assert len(sol["p_star"]) == 1 and len(sol["q_star"]) == 1
    assert sol["kkt_residual"] <= 1e-9
    assert cli.main(["oracle", "--config", str(run_config), "--step", "99"]) == 1
    assert "outside scenario range" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_oracle_tolerance_must_be_positive_and_finite(run_config, capsys, tol):
    assert cli.main(["oracle", "--config", str(run_config), "--tol", tol]) == 1
    assert "oracle tolerance must be positive and finite" in _one_line_error(capsys)


@pytest.mark.parametrize("step, tol", [(0, "1e-1"), (150, "1e-1"), (300, "1e-1"), (0, "1e-2")])
def test_oracle_meets_a_loose_tolerance(step, tol, tmp_path):
    # the final check allows the residual the solve was asked for
    out = tmp_path / "oracle.json"
    args = ["oracle", "--config", str(DATA / "config36.json"), "--step", str(step),
            "--tol", tol, "--output", str(out)]
    assert cli.main(args) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["kkt_residual"] <= float(tol)


def test_oracle_non_finite_residual_exit_code(run_config, monkeypatch, capsys):
    monkeypatch.setattr(controller, "saddle_residual", lambda *args: math.nan)
    assert cli.main(["oracle", "--config", str(run_config), "--tol", "1e-1"]) == 4
    assert "stationarity residual nan" in capsys.readouterr().err


def test_oracle_failure_exit_code(run_config, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise OracleError("did not converge")

    monkeypatch.setattr(cli, "solve_saddle_oracle", boom)
    assert cli.main(["oracle", "--config", str(run_config)]) == 4
    assert "did not converge" in capsys.readouterr().err


def test_report_after_run(tmp_path, run_config, capsys):
    assert cli.main(["run", "--config", str(run_config)]) == 0
    capsys.readouterr()
    out = tmp_path / "report.json"
    assert cli.main(["report", "--config", str(run_config),
                     "--output", str(out)]) == 0
    rep = json.loads(out.read_text(encoding="utf-8"))
    assert rep["e_measured"] == 0.0
    assert rep["bound_satisfied"] is True
    # trajectory that no longer matches the scenario length is refused
    traj = tmp_path / "out" / "trajectory.csv"
    lines = traj.read_text(encoding="utf-8").splitlines(keepends=True)
    traj.write_text("".join(lines[:-1]), encoding="utf-8")
    assert cli.main(["report", "--config", str(run_config)]) == 1
    assert "steps" in capsys.readouterr().err


def test_run_header_only_scenario_file(tmp_path, run_config, capsys):
    from opftrack.sim import ScenarioParams, generate_scenario

    fd = two_bus(z=0.1 + 0.1j)
    spath = tmp_path / "empty.csv"
    write_scenario_file(generate_scenario("static", fd, seed=0, params=ScenarioParams(n_steps=2)),
                        fd, spath)
    header = spath.read_text(encoding="utf-8").splitlines(keepends=True)[0]
    spath.write_text(header, encoding="utf-8")
    cfg = json.loads(run_config.read_text(encoding="utf-8"))
    del cfg["generator"]
    cfg["scenario_file"] = "empty.csv"
    bad = tmp_path / "empty_config.json"
    write_json(bad, cfg)
    assert cli.main(["run", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "scenario has no rows" in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def _scenario_file_config(tmp_path, run_config, edit):
    # the two-bus feeder's scenario as a file, rows changed by ``edit``, and
    # a copy of the run config that reads it, reporting on every step: the
    # run config's decimation 5 samples no step of a 4-step run's tail
    from opftrack.sim import ScenarioParams, generate_scenario

    fd = two_bus(z=0.1 + 0.1j)
    spath = tmp_path / "scen.csv"
    write_scenario_file(generate_scenario("static", fd, seed=0, params=ScenarioParams(n_steps=4)),
                        fd, spath)
    lines = spath.read_text(encoding="utf-8").splitlines()
    spath.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    cfg = json.loads(run_config.read_text(encoding="utf-8"))
    del cfg["generator"]
    cfg["scenario_file"] = "scen.csv"
    cfg["report_decimation"] = 1
    path = tmp_path / "scen_config.json"
    write_json(path, cfg)
    return path, spath


def _one_line_error(capsys) -> str:
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return err


def test_scenario_file_run_measures_with_the_run_noise(tmp_path, run_config):
    # the top-level noise_amp perturbs every metered magnitude of a run
    # read from a scenario file, by at most noise_amp
    path, _ = _scenario_file_config(tmp_path, run_config, lambda lines: lines)
    cfg = json.loads(path.read_text(encoding="utf-8"))
    cfg["noise_amp"] = 1e-3
    write_json(path, cfg)
    assert cli.main(["run", "--config", str(path)]) == 0
    with open(tmp_path / "out" / "trajectory.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        gap = abs(float(row["y_1"]) - float(row["vmag_1"]))
        assert 0.0 < gap <= 1e-3


def test_run_scenario_row_with_wrong_column_count(tmp_path, run_config, capsys):
    def drop_last_cell(lines):
        lines[2] = lines[2].rsplit(",", 1)[0]
        return lines

    cfg, spath = _scenario_file_config(tmp_path, run_config, drop_last_cell)
    assert cli.main(["run", "--config", str(cfg)]) == 1
    assert f"{spath}: row 2 has 5 columns, expected 6" in _one_line_error(capsys)


def test_run_scenario_non_uniform_time_column(tmp_path, run_config, capsys):
    def shift_time(lines):
        cells = lines[3].split(",")
        cells[0] = "0.7"
        lines[3] = ",".join(cells)
        return lines

    cfg, spath = _scenario_file_config(tmp_path, run_config, shift_time)
    assert cli.main(["run", "--config", str(cfg)]) == 1
    err = _one_line_error(capsys)
    assert f"{spath}: time_s is not uniformly spaced" in err


def test_run_scenario_file_of_one_row(tmp_path, run_config, capsys):
    cfg, spath = _scenario_file_config(tmp_path, run_config, lambda lines: lines[:2])
    assert cli.main(["run", "--config", str(cfg)]) == 1
    err = _one_line_error(capsys)
    assert f"{spath}: scenario has one row, so time_s gives no spacing tau" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "column, value, series",
    [(3, "nan", "p_load"), (4, "inf", "q_load"), (5, "nan", "p_av"), (2, "inf", "v_max")],
)
def test_run_scenario_non_finite_value(tmp_path, run_config, capsys, column, value, series):
    def poison(lines):
        cells = lines[2].split(",")
        cells[column] = value
        lines[2] = ",".join(cells)
        return lines

    cfg, spath = _scenario_file_config(tmp_path, run_config, poison)
    assert cli.main(["run", "--config", str(cfg)]) == 1
    assert f"{spath}: {series} must be finite" in _one_line_error(capsys)


def _rewrite(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("".join(line + "\n" for line in edit(lines)), encoding="utf-8")


def _swap_header(old, new):
    def edit(lines):
        lines[0] = lines[0].replace(old, new)
        return lines
    return edit


def _reverse_first_five(lines):
    cells = lines[0].split(",")
    lines[0] = ",".join(cells[:5][::-1] + cells[5:])
    return lines


def _drop_last_cell(lines):
    lines[3] = lines[3].rsplit(",", 1)[0]
    return lines


def _swap_rows_0_and_20(lines):
    lines[1], lines[21] = lines[21], lines[1]
    return lines


def _count_k_from_1(lines):
    for i in range(1, len(lines)):
        k, rest = lines[i].split(",", 1)
        lines[i] = f"{int(k) + 1},{rest}"
    return lines


def _non_numeric_cell(lines):
    cells = lines[2].split(",")
    cells[6] = "abc"
    lines[2] = ",".join(cells)
    return lines


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (lambda lines: [], "trajectory columns do not match the feeder (0 columns, expected 11)"),
        (_swap_header("y_1", "z_1"),
         "trajectory columns do not match the feeder (column 6 is 'z_1', expected 'y_1')"),
        (_reverse_first_five,
         "trajectory columns do not match the feeder (column 1 is 'pf_residual', expected 'k')"),
        (_drop_last_cell, "row 3 has 10 columns, expected 11"),
        (_non_numeric_cell, "row 2: could not convert string to float: 'abc'"),
        (_swap_rows_0_and_20, "row 1 has k = 20, expected 0"),
        (_count_k_from_1, "row 1 has k = 1, expected 0"),
    ],
)
def test_report_rejects_malformed_trajectory(tmp_path, run_config, capsys, edit, fragment):
    assert cli.main(["run", "--config", str(run_config), "--no-report"]) == 0
    capsys.readouterr()
    traj = tmp_path / "out" / "trajectory.csv"
    _rewrite(traj, edit)
    assert cli.main(["report", "--config", str(run_config)]) == 1
    assert f"{traj}: {fragment}" in _one_line_error(capsys)


def _set_cells(column, value_of, rows=None):
    # cell ``column`` of the data rows (all, or those listed) set to value_of(old cell)
    def edit(lines):
        for i in rows or range(1, len(lines)):
            cells = lines[i].split(",")
            cells[column] = value_of(cells[column])
            lines[i] = ",".join(cells)
        return lines
    return edit


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (_set_cells(1, lambda t: repr(2.0 * float(t))), "time_s in row 2 is 2.0, expected 1.0"),
        (_set_cells(2, lambda c: "-5.0"), "cost in row 1 is -5.0, expected "),
        (_set_cells(3, lambda v: "0.5", rows=[10]), "max_violation in row 10 is 0.5, expected 0.0"),
    ],
)
def test_report_checks_the_derived_columns(tmp_path, run_config, capsys, edit, fragment):
    assert cli.main(["run", "--config", str(run_config), "--no-report"]) == 0
    capsys.readouterr()
    traj = tmp_path / "out" / "trajectory.csv"
    _rewrite(traj, edit)
    assert cli.main(["report", "--config", str(run_config)]) == 1
    assert f"{traj}: {fragment}" in _one_line_error(capsys)


def test_report_refuses_config36_trajectory_with_doubled_time_and_fake_cost(tmp_path, capsys):
    # every time_s doubled (as if tau were 0.66) and every cost -5.0: the
    # figures the report computes read neither column, so only the check sees it
    shutil.copytree(DATA, tmp_path / "data")
    config = tmp_path / "data" / "config36.json"
    assert cli.main(["run", "--config", str(config), "--no-report",
                     "--output-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    traj = tmp_path / "out" / "trajectory.csv"
    _rewrite(traj, lambda lines: _set_cells(2, lambda c: "-5.0")(
        _set_cells(1, lambda t: repr(2.0 * float(t)))(lines)))
    assert cli.main(["report", "--config", str(config), "--trajectory", str(traj)]) == 1
    assert f"{traj}: time_s in row 2 is 0.66, expected 0.33" in _one_line_error(capsys)
