"""Command-line front end.

Subcommands: validate, run, oracle, report.
Exit codes: 0 ok, 1 validation failure, 2 I/O failure, 3 plant failure,
4 oracle failure.
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  (argparse's gettext loads it lazily: at import, not in main())
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from . import __version__
from .controller import (
    REGION_KINDS,
    ControllerParams,
    CostParams,
    Inverters,
    OracleError,
    convergence_constants,
    solve_saddle_oracle,
)
from .feeder import FeederError, build_admittance, load_feeder
from .powerflow import PowerFlowError
from .sim import (
    PLANTS,
    SCENARIO_KINDS,
    STRATEGIES,
    CompiledFeeder,
    Scenario,
    ScenarioParams,
    check_decimation,
    check_trajectory,
    compile_feeder,
    generate_scenario,
    measure_tracking,
    oracle_map,
    read_scenario,
    run_closed_loop,
    step_problem,
    write_trajectory,
)

__all__ = ["RunConfig", "load_config", "main"]


class ConfigError(ValueError):
    """Run configuration fails schema or invariant checks."""


@dataclass(frozen=True, kw_only=True)
class GeneratorConfig(ScenarioParams):
    """The ``generator`` section: a scenario kind plus the ScenarioParams knobs.

    ``seed`` left as None takes the run's ``seed``.
    """

    kind: str
    seed: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_choice("kind", self.kind, SCENARIO_KINDS)
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RunConfig:
    """Everything a closed-loop run needs, loadable from JSON.

    The JSON keys are the field names, and each object-valued key holds the
    fields of its dataclass; a key left out keeps its default, and inside
    ``controller`` and ``cost`` the default object's value.
    ``cost`` is one CostParams applied to every DER or one per DER. Exactly
    one of ``scenario_file`` / ``generator`` is set.
    """

    feeder: str
    strategy: str = "pursuit"
    plant: str = "ac"
    scenario_file: str | None = None
    generator: GeneratorConfig | None = None
    controller: ControllerParams = ControllerParams(alpha=0.2, nu=1e-3, epsilon=1e-4)
    cost: CostParams | tuple[CostParams, ...] = CostParams(c_p=3.0, c_q=1.0)
    region_kind: str = "joint"
    noise_amp: float = 0.0
    seed: int = 0
    output_dir: str = "out"
    report_decimation: int = 10
    report: bool = True

    def __post_init__(self) -> None:
        if (self.scenario_file is None) == (self.generator is None):
            raise ConfigError("exactly one of scenario_file / generator is required")
        _check_choice("strategy", self.strategy, STRATEGIES)
        _check_choice("plant", self.plant, PLANTS)
        _check_choice("region_kind", self.region_kind, REGION_KINDS)
        if self.report_decimation < 1:
            raise ConfigError("report_decimation must be >= 1")
        if not (self.noise_amp >= 0.0 and math.isfinite(2.0 * self.noise_amp)):
            raise ConfigError(
                f"noise_amp must be >= 0 with 2 * noise_amp finite, got {self.noise_amp!r}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _check_choice(key: str, value: str, choices: tuple[str, ...]) -> None:
    if value not in choices:
        raise ConfigError(f"{key} must be one of {', '.join(choices)}; got {value!r}")


# The parser reads each field's annotation string: a ``|`` union of None,
# the scalars below, the sections below, and lists (``tuple[...]`` or a
# numpy array of numbers).
_SCALARS = {"float": (int, float), "int": int, "bool": bool, "str": str}
_SECTIONS = {c.__name__: c for c in (GeneratorConfig, ControllerParams, CostParams)}
_WANTED = {"None": "null", "float": "a number", "int": "an integer",
           "bool": "true or false", "str": "a string"}
_JSON_NAMES = {dict: "an object", list: "a list"}


def _build(cls: type, obj: dict, where: str, base: object = None):
    """A ``cls`` from the JSON object ``obj``, every value type-checked.

    Keys ``obj`` leaves out take their value from ``base`` when it is a
    ``cls``, else the field default; a key without either is required.
    """
    spec = {f.name: f for f in fields(cls)}
    unknown = obj.keys() - spec.keys()
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    values = {}
    for name, f in spec.items():
        if name in obj:
            values[name] = _convert(f.type, obj[name], f"{where}:{name}", f.default)
        elif isinstance(base, cls):
            values[name] = getattr(base, name)
        elif f.default is MISSING:
            raise ConfigError(f"missing required key {name!r} in {where}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _convert(tp: str, value: object, where: str, default: object):
    """``value`` checked against the field annotation ``tp`` and converted."""
    for alt in tp.split(" | "):
        if alt == "None":
            if value is None:
                return None
        elif alt in _SCALARS:
            if isinstance(value, _SCALARS[alt]) and (alt == "bool") == isinstance(value, bool):
                return float(value) if alt == "float" else value
        elif alt in _SECTIONS:
            if isinstance(value, dict):
                return _build(_SECTIONS[alt], value, where, default)
        elif isinstance(value, list):
            # "tuple[float, float, float]" has fixed length, "tuple[T, ...]"
            # and a numpy array of numbers any length
            items = ["float", "..."] if alt == "np.ndarray" else alt[6:-1].split(", ")
            if items[-1] == "...":
                items = items[:1] * len(value)
            if len(items) != len(value):
                raise ConfigError(
                    f"{where}: expected a list of {len(items)} entries, got {len(value)}"
                )
            out = tuple(
                _convert(t, v, f"{where}[{i}]", default)
                for i, (t, v) in enumerate(zip(items, value))
            )
            return np.asarray(out) if alt == "np.ndarray" else out
    wanted = " or ".join(
        _WANTED.get(alt, "an object" if alt in _SECTIONS else "a list")
        for alt in tp.split(" | ")
    )
    got = _JSON_NAMES.get(type(value)) or json.dumps(value)
    raise ConfigError(f"{where}: expected {wanted}, got {got}")


def load_config(path: str, flags: argparse.Namespace | None = None) -> RunConfig:
    """Parse a run config file into a :class:`RunConfig`.

    ``flags`` are parsed command-line flags; those given replace config keys
    before the parse. Relative ``feeder`` / ``scenario_file`` paths resolve
    against the config file's directory.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or a number json cannot convert
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    if flags is not None:
        # the flags' destinations are config keys; --alpha sets controller.alpha
        for key in ("strategy", "plant", "seed", "output_dir", "report_decimation", "report"):
            if getattr(flags, key, None) is not None:
                raw[key] = getattr(flags, key)
        alpha = getattr(flags, "alpha", None)
        if alpha is not None and isinstance(raw.setdefault("controller", {}), dict):
            raw["controller"]["alpha"] = alpha
    base = os.path.dirname(os.path.abspath(path))
    for key in ("feeder", "scenario_file"):
        if isinstance(raw.get(key), str):
            raw[key] = os.path.join(base, raw[key])
    return _build(RunConfig, raw, path)


def _costs_for(cfg: RunConfig, n_der: int, path: str) -> tuple[list[float], list[float]]:
    costs = [cfg.cost] * n_der if isinstance(cfg.cost, CostParams) else cfg.cost
    if len(costs) != n_der:
        raise ConfigError(
            f"{path}:cost: per-DER list has {len(costs)} entries, feeder has {n_der} DERs"
        )
    return [c.c_p for c in costs], [c.c_q for c in costs]


def _load_run(
    args: argparse.Namespace,
) -> tuple[RunConfig, CompiledFeeder, Scenario, Inverters]:
    """The config of ``args.config`` with its flags, compiled feeder, scenario and inverters.

    Every :class:`FeederError` names the feeder file.
    """
    cfg = load_config(args.config, args)
    feeder, gen = load_feeder(cfg.feeder), cfg.generator
    try:
        net = compile_feeder(feeder)
    except FeederError as exc:
        raise FeederError(f"{cfg.feeder}: {exc}") from exc
    if gen is None:
        scen = read_scenario(cfg.scenario_file, feeder)
    else:
        seed = cfg.seed if gen.seed is None else gen.seed
        try:
            scen = generate_scenario(gen.kind, feeder, seed, gen)
        except ValueError as exc:
            raise ConfigError(f"{args.config}:generator: {exc}") from exc
        except MemoryError as exc:
            raise ConfigError(
                f"{args.config}:generator:n_steps: {gen.n_steps} steps do not fit in memory"
            ) from exc
    c_p, c_q = _costs_for(cfg, feeder.n_der, args.config)
    return cfg, net, scen, Inverters(cfg.region_kind, feeder.der_ratings, c_p, c_q)


def _finite(obj: object) -> object:
    # strict JSON has no NaN or Infinity: every non-finite float becomes null
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _emit_json(obj: dict, path: str | None) -> None:
    """``obj`` as strict JSON, each non-finite float ``null``, into ``path`` or on stdout."""
    text = json.dumps(_finite(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args: argparse.Namespace) -> int:
    feeder = load_feeder(args.feeder)
    try:
        build_admittance(feeder)
    except FeederError as exc:
        print("\n".join(exc.diagnostics or [str(exc)]))
        return 1
    print("ok")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cfg, net, scen, inv = _load_run(args)
    report = cfg.strategy == "pursuit" and cfg.report
    if report:  # refused before the run, not after it
        check_decimation(scen.n_steps, cfg.report_decimation)
    consts = convergence_constants(inv, net.coupling, cfg.controller)
    alpha = cfg.controller.alpha
    if 0.0 < alpha < consts.alpha_max:
        print(f"stepsize condition 0 < alpha < alpha_max: satisfied (alpha = {alpha})")
    else:
        print(
            f"warning: no theoretical contraction guarantee "
            f"(alpha = {alpha} >= alpha_max = {consts.alpha_max:.6e})"
        )

    traj = run_closed_loop(
        net, scen, cfg.strategy, inv, cfg.controller, seed=cfg.seed, plant=cfg.plant,
        noise_amp=cfg.noise_amp,
    )

    os.makedirs(cfg.output_dir, exist_ok=True)
    traj_path = os.path.join(cfg.output_dir, "trajectory.csv")
    write_trajectory(traj, net.feeder, scen, traj_path)

    worst = int(np.argmax(traj.max_violation))  # the first step of the run's largest excursion

    summary: dict = {
        "seed": cfg.seed,
        "strategy": cfg.strategy,
        "plant": cfg.plant,
        "n_steps": scen.n_steps,
        "tau_s": scen.tau,
        "final_cost": float(traj.cost[-1]),
        "mean_cost_tail": float(np.mean(traj.cost[traj.tail_start:])),
        "final_max_violation": float(traj.max_violation[-1]),
        "max_violation_tail": float(np.max(traj.max_violation[traj.tail_start:])),
        "max_violation_run": float(traj.max_violation[worst]),
        "max_violation_run_step": worst,
        "steps_outside_band": int(np.count_nonzero(traj.max_violation > 0.0)),
        "violation_integral_pu_s": scen.tau * math.fsum(traj.max_violation),
        "dual_max": float(traj.duals.max()),  # 1e6 and above: perhaps no strictly feasible point
        "constants": asdict(consts),
        "alpha": alpha,
        "alpha_condition_satisfied": bool(0.0 < alpha < consts.alpha_max),
        "solver": {
            "pf_iterations_total": int(traj.pf_iterations.sum()),
            "pf_iterations_max": int(traj.pf_iterations.max()),
            # the smallest count that at least 99% of the steps stay within
            "pf_iterations_p99": int(np.percentile(traj.pf_iterations, 99, method="inverted_cdf")),
            "pf_residual_max": float(traj.pf_residual.max()),
        },
    }
    if report:
        rep = measure_tracking(net, scen, inv, cfg.controller, traj, cfg.report_decimation)
        summary["tracking"] = asdict(rep)
    summary_path = os.path.join(cfg.output_dir, "summary.json")
    _emit_json(summary, summary_path)
    print(f"trajectory -> {traj_path}")
    print(f"summary    -> {summary_path}")
    print(f"final max_violation = {traj.max_violation[-1]:.6e}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    cfg, net, scen, inv = _load_run(args)
    k = args.step
    if not 0 <= k < scen.n_steps:
        raise ConfigError(f"step {k} outside scenario range [0, {scen.n_steps})")
    steps, c = oracle_map(net, scen, inv, cfg.controller)
    sol = solve_saddle_oracle(step_problem(steps, c, k), tol=args.tol)
    out = {
        "step": k,
        "p_star": [float(x) for x in sol.u[:, 0]],
        "q_star": [float(x) for x in sol.u[:, 1]],
        "gamma_star": [float(x) for x in sol.duals[0]],
        "mu_star": [float(x) for x in sol.duals[1]],
        "iterations": sol.iterations,
        "kkt_residual": sol.residual,
    }
    _emit_json(out, args.output)
    print(f"kkt_residual = {sol.residual:.3e}", file=sys.stderr)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    cfg, net, scen, inv = _load_run(args)
    path = args.trajectory or os.path.join(cfg.output_dir, "trajectory.csv")
    traj = check_trajectory(path, net, scen, inv)
    rep = measure_tracking(net, scen, inv, cfg.controller, traj, decimation=cfg.report_decimation)
    _emit_json(asdict(rep), args.output)
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="opftrack",
        description=(
            "Feedback-based setpoint pursuit for distribution feeders: "
            "validation, closed-loop runs, per-step optimizer oracles, "
            "and tracking reports."
        ),
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a feeder file, print diagnostics")
    sp.add_argument("feeder", help="feeder JSON file")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("run", help="closed-loop run: trajectory + summary")
    sp.add_argument("--config", required=True, help="run configuration JSON")
    sp.add_argument("--strategy", choices=STRATEGIES)
    sp.add_argument("--plant", choices=PLANTS)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--alpha", type=float, help="override controller stepsize")
    sp.add_argument("--output-dir")
    sp.add_argument(
        "--decimation", type=int, dest="report_decimation", help="tracking report decimation"
    )
    sp.add_argument(
        "--no-report", action="store_const", const=False, dest="report",
        help="skip the tracking report",
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
