"""Command-line front end.

Subcommands: validate, powerflow, linearize, run, oracle, report.
Exit codes: 0 ok, 1 validation failure, 2 I/O failure, 3 plant failure,
4 oracle failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .baseline import DroopCurve
from .controller import (
    ControllerParams,
    CostParams,
    OracleError,
    convergence_constants,
    saddle_residual,
    solve_saddle_oracle,
)
from .feeder import FeederError, FeederModel, build_admittance, load_feeder, validate_feeder
from .powerflow import PowerFlowError, PowerInjection, build_linear_model, solve_ac
from .sim import (
    ControlSetup,
    PlantError,
    Scenario,
    ScenarioParams,
    compile_feeder,
    eval_cost,
    generate_scenario,
    measure_tracking,
    read_scenario,
    read_trajectory,
    run_closed_loop,
    step_problem,
    write_trajectory,
)

__all__ = ["RunConfig", "load_config", "main"]


class ConfigError(ValueError):
    """Run configuration fails schema or invariant checks."""


_CONFIG_KEYS = {
    "feeder",
    "scenario_file",
    "generator",
    "strategy",
    "plant",
    "controller",
    "cost",
    "droop",
    "region_kind",
    "lag_beta",
    "noise_amp",
    "seed",
    "output_dir",
    "report_decimation",
    "report",
}
_CONTROLLER_KEYS = {"alpha", "nu", "epsilon", "v_min", "v_max"}
_COST_KEYS = {"c_p", "c_q"}
_DROOP_KEYS = {"v_zero", "v_sat", "symmetric"}
_GENERATOR_KEYS = {
    "kind",
    "seed",
    "n_steps",
    "tau",
    "v_min",
    "v_max",
    "load_p",
    "load_q_ratio",
    "load_swing",
    "pav_floor",
    "pav_peak",
    "ramp_start",
    "ramp_end",
    "bell_center",
    "bell_width",
    "bell_clip",
    "bell_fall",
    "n_dips",
    "dip_depth",
    "dip_width_s",
    "vmax_plateaus",
    "vmax_fractions",
    "noise_amp",
}


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(f"unknown key(s) {sorted(extra)} in {where}")


@dataclass(frozen=True)
class RunConfig:
    """Everything a closed-loop run needs, loadable from JSON.

    ``cost`` is either one (c_p, c_q) pair applied to every DER or a
    per-DER list. Exactly one of ``scenario_path`` / ``generator`` is set.
    """

    feeder_path: str
    strategy: str = "pursuit"
    plant: str = "ac"
    scenario_path: str | None = None
    generator: dict | None = None
    controller: ControllerParams = field(
        default_factory=lambda: ControllerParams(alpha=0.2, nu=1e-3, epsilon=1e-4)
    )
    cost: dict | list = field(default_factory=lambda: {"c_p": 3.0, "c_q": 1.0})
    droop: DroopCurve = field(default_factory=DroopCurve)
    region_kind: str = "joint"
    lag_beta: float = 0.0
    noise_amp: float = 0.0
    seed: int = 0
    output_dir: str = "out"
    report_decimation: int = 10
    report: bool = True

    def __post_init__(self) -> None:
        if (self.scenario_path is None) == (self.generator is None):
            raise ConfigError("exactly one of scenario_file / generator is required")
        if self.report_decimation < 1:
            raise ConfigError("report_decimation must be >= 1")
        if self.noise_amp < 0:
            raise ConfigError("noise_amp must be nonnegative")

    def to_dict(self) -> dict:
        d: dict = {
            "feeder": self.feeder_path,
            "strategy": self.strategy,
            "plant": self.plant,
            "controller": {
                "alpha": self.controller.alpha,
                "nu": self.controller.nu,
                "epsilon": self.controller.epsilon,
                "v_min": self.controller.v_min,
                "v_max": self.controller.v_max,
            },
            "cost": self.cost if isinstance(self.cost, dict) else list(self.cost),
            "droop": {
                "v_zero": self.droop.v_zero,
                "v_sat": self.droop.v_sat,
                "symmetric": self.droop.symmetric,
            },
            "region_kind": self.region_kind,
            "lag_beta": self.lag_beta,
            "noise_amp": self.noise_amp,
            "seed": self.seed,
            "output_dir": self.output_dir,
            "report_decimation": self.report_decimation,
            "report": self.report,
        }
        if self.scenario_path is not None:
            d["scenario_file"] = self.scenario_path
        else:
            d["generator"] = dict(self.generator)
        return d


def _parse_config(raw: dict, where: str) -> RunConfig:
    _check_keys(raw, _CONFIG_KEYS, where)
    if "feeder" not in raw:
        raise ConfigError(f"missing required key 'feeder' in {where}")
    ctrl_raw = raw.get("controller", {})
    _check_keys(ctrl_raw, _CONTROLLER_KEYS, f"{where}:controller")
    defaults = {"alpha": 0.2, "nu": 1e-3, "epsilon": 1e-4, "v_min": 0.95, "v_max": 1.05}
    defaults.update(ctrl_raw)
    try:
        controller = ControllerParams(**defaults)
    except ValueError as exc:
        raise ConfigError(f"{where}:controller: {exc}") from exc
    cost_raw = raw.get("cost", {"c_p": 3.0, "c_q": 1.0})
    if isinstance(cost_raw, dict):
        _check_keys(cost_raw, _COST_KEYS, f"{where}:cost")
        cost: dict | list = {
            "c_p": float(cost_raw.get("c_p", 3.0)),
            "c_q": float(cost_raw.get("c_q", 1.0)),
        }
    else:
        cost = []
        for i, entry in enumerate(cost_raw):
            _check_keys(entry, _COST_KEYS, f"{where}:cost[{i}]")
            cost.append(
                {"c_p": float(entry.get("c_p", 3.0)), "c_q": float(entry.get("c_q", 1.0))}
            )
    droop_raw = raw.get("droop", {})
    _check_keys(droop_raw, _DROOP_KEYS, f"{where}:droop")
    droop_defaults = {"v_zero": 1.0, "v_sat": 1.05, "symmetric": True}
    droop_defaults.update(droop_raw)
    try:
        droop = DroopCurve(**droop_defaults)
    except ValueError as exc:
        raise ConfigError(f"{where}:droop: {exc}") from exc
    generator = raw.get("generator")
    if generator is not None:
        _check_keys(generator, _GENERATOR_KEYS, f"{where}:generator")
        generator = dict(generator)
        if "kind" not in generator:
            raise ConfigError(f"missing 'kind' in {where}:generator")
    return RunConfig(
        feeder_path=raw["feeder"],
        strategy=raw.get("strategy", "pursuit"),
        plant=raw.get("plant", "ac"),
        scenario_path=raw.get("scenario_file"),
        generator=generator,
        controller=controller,
        cost=cost,
        droop=droop,
        region_kind=raw.get("region_kind", "joint"),
        lag_beta=float(raw.get("lag_beta", 0.0)),
        noise_amp=float(raw.get("noise_amp", 0.0)),
        seed=int(raw.get("seed", 0)),
        output_dir=raw.get("output_dir", "out"),
        report_decimation=int(raw.get("report_decimation", 10)),
        report=bool(raw.get("report", True)),
    )


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    cfg = _parse_config(raw, path)
    base = os.path.dirname(os.path.abspath(path))
    resolved = dict(
        feeder_path=_resolve(cfg.feeder_path, base),
        scenario_path=_resolve(cfg.scenario_path, base),
    )
    return RunConfig(**{**cfg.__dict__, **resolved})


def _resolve(p: str | None, base: str) -> str | None:
    if p is None or os.path.isabs(p):
        return p
    return os.path.join(base, p)


def _costs_for(cfg: RunConfig, n_der: int) -> tuple[CostParams, ...]:
    if isinstance(cfg.cost, dict):
        return tuple(CostParams(cfg.cost["c_p"], cfg.cost["c_q"]) for _ in range(n_der))
    if len(cfg.cost) != n_der:
        raise ConfigError(
            f"per-DER cost list has {len(cfg.cost)} entries, feeder has {n_der} DERs"
        )
    return tuple(CostParams(e["c_p"], e["c_q"]) for e in cfg.cost)


def _setup_for(cfg: RunConfig, feeder: FeederModel) -> ControlSetup:
    return ControlSetup(
        params=cfg.controller,
        costs=_costs_for(cfg, feeder.n_der),
        region_kind=cfg.region_kind,
        droop=cfg.droop,
        lag_beta=cfg.lag_beta,
    )


def _scenario_for(cfg: RunConfig, feeder: FeederModel) -> Scenario:
    if cfg.scenario_path is not None:
        return read_scenario(cfg.scenario_path, feeder, noise_amp=cfg.noise_amp)
    gen = dict(cfg.generator)
    kind = gen.pop("kind")
    seed = int(gen.pop("seed", cfg.seed))
    for key in ("vmax_plateaus", "vmax_fractions"):
        if key in gen:
            gen[key] = tuple(gen[key])
    if "load_p" in gen and isinstance(gen["load_p"], list):
        gen["load_p"] = np.asarray(gen["load_p"], dtype=float)
    noise = float(gen.pop("noise_amp", cfg.noise_amp))
    params = ScenarioParams(noise_amp=noise, **gen)
    return generate_scenario(kind, feeder, seed, params)


def _json_bytes(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args: argparse.Namespace) -> int:
    feeder = load_feeder(args.feeder)
    diags = validate_feeder(feeder)
    if not diags:
        try:
            build_admittance(feeder)
        except FeederError as exc:
            diags = [str(exc)]
    for d in diags:
        print(d)
    if diags:
        return 1
    print("ok")
    return 0


def cmd_powerflow(args: argparse.Namespace) -> int:
    feeder = load_feeder(args.feeder)
    adm = build_admittance(feeder)
    n = feeder.n_nodes
    if args.scenario:
        scen = read_scenario(args.scenario, feeder)
        k = args.step
        if not 0 <= k < scen.n_steps:
            raise ConfigError(f"step {k} outside scenario range [0, {scen.n_steps})")
        p = -scen.p_load[k].copy()
        q = -scen.q_load[k].copy()
        if args.with_der:
            der = feeder.der_indices()
            p[der] += scen.p_av[k]
        inj = PowerInjection(p, q)
    else:
        inj = PowerInjection.zeros(n)
    sol = solve_ac(adm, inj, feeder.slack_voltage)
    v = sol.voltages.v
    print(f"iterations = {sol.iterations}")
    print(f"residual   = {sol.residual:.3e}")
    print("node  magnitude_pu  angle_deg")
    for i in range(n):
        print(f"{i + 1:4d}  {abs(v[i]):12.6f}  {math.degrees(np.angle(v[i])):9.4f}")
    if args.output:
        out = {
            "iterations": sol.iterations,
            "residual": sol.residual,
            "magnitude_pu": [float(abs(x)) for x in v],
            "angle_deg": [float(math.degrees(np.angle(x))) for x in v],
        }
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(_json_bytes(out))
    return 0


def cmd_linearize(args: argparse.Namespace) -> int:
    feeder = load_feeder(args.feeder)
    adm = build_admittance(feeder)
    lm = build_linear_model(adm, feeder.slack_voltage)
    R, B = lm.columns(np.arange(feeder.n_nodes))
    out = {
        "sensitivity_p": [[float(x) for x in row] for row in R],
        "sensitivity_q": [[float(x) for x in row] for row in B],
        "offset_magnitude": [float(x) for x in lm.a],
        "no_load_re": [float(x.real) for x in lm.vbar],
        "no_load_im": [float(x.imag) for x in lm.vbar],
    }
    text = _json_bytes(out)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    raw = cfg.to_dict()
    if getattr(args, "strategy", None):
        raw["strategy"] = args.strategy
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    if getattr(args, "output_dir", None):
        raw["output_dir"] = args.output_dir
    if getattr(args, "alpha", None) is not None:
        raw["controller"]["alpha"] = args.alpha
    if getattr(args, "plant", None):
        raw["plant"] = args.plant
    if getattr(args, "decimation", None) is not None:
        raw["report_decimation"] = args.decimation
    if getattr(args, "no_report", False):
        raw["report"] = False
    return _parse_config(raw, "command line")


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    net = compile_feeder(load_feeder(cfg.feeder_path))
    feeder = net.feeder
    scen = _scenario_for(cfg, feeder)
    setup = _setup_for(cfg, feeder)
    consts = convergence_constants(setup.costs, net.coupling, setup.params)
    alpha = setup.params.alpha
    print(f"eta        = {consts.eta:.6e}")
    print(f"L_reg      = {consts.L_reg:.6e}")
    print(f"rho(alpha) = {consts.rho(alpha):.10f}")
    print(f"alpha_max  = {consts.alpha_max:.6e}")
    if 0.0 < alpha < consts.alpha_max:
        print(f"stepsize condition 0 < alpha < alpha_max: satisfied (alpha = {alpha})")
    else:
        print(
            f"warning: no theoretical contraction guarantee "
            f"(alpha = {alpha} >= alpha_max = {consts.alpha_max:.6e})"
        )

    records = run_closed_loop(
        net, scen, cfg.strategy, setup, seed=cfg.seed, plant=cfg.plant
    )

    os.makedirs(cfg.output_dir, exist_ok=True)
    traj_path = os.path.join(cfg.output_dir, "trajectory.csv")
    write_trajectory(records, feeder, scen, traj_path)

    costs = eval_cost(records, setup.costs, scen.p_av)
    tail = records[int(0.75 * len(records)) :]
    summary: dict = {
        "seed": cfg.seed,
        "strategy": cfg.strategy,
        "plant": cfg.plant,
        "n_steps": scen.n_steps,
        "tau_s": scen.tau,
        "final_cost": float(costs[-1]),
        "mean_cost_tail": float(np.mean(costs[int(0.75 * len(costs)) :])),
        "final_max_violation": records[-1].max_violation,
        "max_violation_tail": float(max(r.max_violation for r in tail)),
        "constants": {
            "eta": consts.eta,
            "L_reg": consts.L_reg,
            "rho_alpha": consts.rho(alpha),
            "alpha_max": consts.alpha_max,
        },
        "alpha": alpha,
        "alpha_condition_satisfied": bool(0.0 < alpha < consts.alpha_max),
    }
    if cfg.strategy == "pursuit" and cfg.report:
        rep = measure_tracking(
            net, scen, setup, records, decimation=cfg.report_decimation
        )
        summary["tracking"] = rep.to_dict()
    summary_path = os.path.join(cfg.output_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(_json_bytes(summary))
    print(f"trajectory -> {traj_path}")
    print(f"summary    -> {summary_path}")
    print(f"final max_violation = {records[-1].max_violation:.6e}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    net = compile_feeder(load_feeder(cfg.feeder_path))
    scen = _scenario_for(cfg, net.feeder)
    setup = _setup_for(cfg, net.feeder)
    k = args.step
    if not 0 <= k < scen.n_steps:
        raise ConfigError(f"step {k} outside scenario range [0, {scen.n_steps})")
    prob = step_problem(net, scen, setup, k)
    sol = solve_saddle_oracle(prob, tol=args.tol)
    residual = saddle_residual(prob, sol.u, sol.gamma, sol.mu)
    out = {
        "step": k,
        "p_star": [float(x) for x in sol.u[:, 0]],
        "q_star": [float(x) for x in sol.u[:, 1]],
        "gamma_star": [float(x) for x in sol.gamma],
        "mu_star": [float(x) for x in sol.mu],
        "iterations": sol.iterations,
        "kkt_residual": float(residual),
    }
    text = _json_bytes(out)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"kkt_residual = {residual:.3e}", file=sys.stderr)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    net = compile_feeder(load_feeder(cfg.feeder_path))
    scen = _scenario_for(cfg, net.feeder)
    setup = _setup_for(cfg, net.feeder)
    traj = args.trajectory or os.path.join(cfg.output_dir, "trajectory.csv")
    records = read_trajectory(traj, net.feeder)
    if len(records) != scen.n_steps:
        raise ConfigError(
            f"trajectory has {len(records)} steps, scenario has {scen.n_steps}"
        )
    rep = measure_tracking(
        net, scen, setup, records, decimation=cfg.report_decimation
    )
    text = _json_bytes(rep.to_dict())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="opftrack",
        description=(
            "Feedback-based setpoint pursuit for distribution feeders: "
            "validation, power-flow solves, closed-loop runs, per-step "
            "optimizer oracles, and tracking reports."
        ),
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a feeder file, print diagnostics")
    sp.add_argument("feeder", help="feeder JSON file")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("powerflow", help="one-shot AC power-flow solve")
    sp.add_argument("--feeder", required=True, help="feeder JSON file")
    sp.add_argument("--scenario", help="scenario file supplying loads")
    sp.add_argument("--step", type=int, default=0, help="scenario step (default 0)")
    sp.add_argument(
        "--with-der",
        action="store_true",
        help="inject available DER power at unity power factor",
    )
    sp.add_argument("--output", help="write the solution as JSON")
    sp.set_defaults(func=cmd_powerflow)

    sp = sub.add_parser("linearize", help="dump the linear voltage model")
    sp.add_argument("--feeder", required=True, help="feeder JSON file")
    sp.add_argument("--output", help="write JSON here instead of stdout")
    sp.set_defaults(func=cmd_linearize)

    sp = sub.add_parser("run", help="closed-loop run: trajectory + summary")
    sp.add_argument("--config", required=True, help="run configuration JSON")
    sp.add_argument("--strategy", choices=["pursuit", "droop", "none"])
    sp.add_argument("--plant", choices=["ac", "linear"])
    sp.add_argument("--seed", type=int)
    sp.add_argument("--alpha", type=float, help="override controller stepsize")
    sp.add_argument("--output-dir")
    sp.add_argument("--decimation", type=int, help="tracking report decimation")
    sp.add_argument(
        "--no-report", action="store_true", help="skip the tracking report"
    )
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("oracle", help="solve one step's optimizer to high accuracy")
    sp.add_argument("--config", required=True, help="run configuration JSON")
    sp.add_argument("--step", type=int, default=0, help="scenario step (default 0)")
    sp.add_argument("--tol", type=float, default=1e-11)
    sp.add_argument("--output", help="write JSON here instead of stdout")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("report", help="tracking report for a recorded trajectory")
    sp.add_argument("--config", required=True, help="run configuration JSON")
    sp.add_argument("--trajectory", help="trajectory CSV (default <output_dir>/trajectory.csv)")
    sp.add_argument("--output", help="write JSON here instead of stdout")
    sp.set_defaults(func=cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PlantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PowerFlowError as exc:
        print(f"error: plant failure: {exc}", file=sys.stderr)
        return 3
    except OracleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FeederError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
