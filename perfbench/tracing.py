"""Spans around calls into opftrack's layers, recorded from outside the package.

A traced process rebinds the public names listed in ``TRACED`` wherever
``opftrack.cli``, ``opftrack.sim``, ``opftrack.feeder`` and
``opftrack.powerflow`` look them up, so every call made through those
modules opens a span. Calls that ``opftrack.controller`` makes to its own
functions (the oracle's inner ``primal_step`` and ``convergence_constants``)
are not rebound: they count toward the oracle span.

Spans live in memory as dicts ``{name, start, end, parent, run}`` plus the
attributes read from a call's result, and are written out once the traced
run ends. ``layer_metrics`` turns a list of spans into the per-layer metrics
of the benchmark. This module imports nothing from numpy or opftrack, so the
orchestrator can aggregate spans without paying for those imports.
"""

from __future__ import annotations

import json
import os
import statistics
import time

# the modules whose global names are rebound; the layer of a span is the
# module that defines the function, not the one that calls it
SITES = ("cli", "sim", "feeder", "powerflow")


def _solver_attrs(result, args, kwargs) -> dict:
    return {"iters": result.iterations, "residual": result.residual}


def _file_bytes(result, args, kwargs) -> dict:
    path = kwargs.get("path", args[3] if len(args) > 3 else None)
    return {"bytes": os.path.getsize(path)}


# (defining module, function, reader of extra attributes from the call)
TRACED = (
    ("feeder", "validate_feeder", None),
    ("feeder", "build_admittance", None),
    ("powerflow", "build_linear_model", None),
    ("powerflow", "no_load_voltage", None),
    ("powerflow", "solve_ac", _solver_attrs),
    ("powerflow", "constraint_offsets", None),
    ("controller", "primal_step", None),
    ("controller", "dual_step_feedback", None),
    ("controller", "convergence_constants", None),
    ("controller", "solve_saddle_oracle", _solver_attrs),
    ("sim", "generate_scenario", None),
    ("sim", "run_closed_loop", None),
    ("sim", "step_problem", None),
    ("sim", "measure_tracking", None),
    ("sim", "write_trajectory", _file_bytes),
)

MAIN_SPAN = "cli.main"


class Tracer:
    """In-memory span recorder for one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """Return ``fn`` wrapped so that each call records a span ``name``."""

        def traced(*args, **kwargs):
            rec = {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
            }
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                rec.update(attrs(out, args, kwargs))
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Rebind every name in ``TRACED`` at each site module of ``package``."""
        sites = [getattr(package, s) for s in SITES]
        for module_name, fname, attrs in TRACED:
            original = getattr(getattr(package, module_name), fname)
            wrapper = self.wrap(f"{module_name}.{fname}", original, attrs)
            for site in sites:
                if getattr(site, fname, None) is original:
                    setattr(site, fname, wrapper)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def read_spans(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span never overlap and
    their durations add up to the part of the parent they cover.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced ``main()`` call.

    Times of the layers that run only inside the tracking report (oracle,
    ``step_problem``, ``constraint_offsets``, the report's own code) are
    given as a share of the traced wall time: they are zero on workloads
    without a report, and a time that reads zero on every run cannot be
    told apart from a timer that does not run.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def dur(i):
        return spans[i]["end"] - spans[i]["start"]

    def calls(name):
        return len(idx(name))

    def total(name):
        return sum(dur(i) for i in idx(name))

    def self_total(name):
        return sum(own[i] for i in idx(name))

    def ms(name, q):
        return percentile([1e3 * dur(i) for i in idx(name)], q)

    def attr(name, key):
        return [spans[i][key] for i in idx(name)]

    (main,) = idx(MAIN_SPAN)
    wall = dur(main)

    def pct(seconds):
        return 100.0 * seconds / wall

    loops = set(idx("sim.run_closed_loop"))
    plant_starts = [
        spans[i]["start"] for i in idx("powerflow.solve_ac") if spans[i]["parent"] in loops
    ]
    steps_ms = [1e3 * (b - a) for a, b in zip(plant_starts, plant_starts[1:])]
    oracle_iters = attr("controller.solve_saddle_oracle", "iters")
    pf_iters = attr("powerflow.solve_ac", "iters")

    return {
        "controller.solve_saddle_oracle.calls": calls("controller.solve_saddle_oracle"),
        "controller.solve_saddle_oracle.wall_pct": pct(total("controller.solve_saddle_oracle")),
        "controller.solve_saddle_oracle.iters_total": sum(oracle_iters),
        "controller.solve_saddle_oracle.iters_max": max(oracle_iters, default=0),
        "controller.solve_saddle_oracle.residual_max": max(
            attr("controller.solve_saddle_oracle", "residual"), default=0.0
        ),
        "powerflow.solve_ac.calls": calls("powerflow.solve_ac"),
        "powerflow.solve_ac.s": total("powerflow.solve_ac"),
        "powerflow.solve_ac.ms_p50": ms("powerflow.solve_ac", 50),
        "powerflow.solve_ac.ms_p99": ms("powerflow.solve_ac", 99),
        "powerflow.solve_ac.iters_total": sum(pf_iters),
        "powerflow.solve_ac.iters_max": max(pf_iters, default=0),
        "powerflow.solve_ac.residual_max": max(
            attr("powerflow.solve_ac", "residual"), default=0.0
        ),
        "feeder.validate_feeder.calls": calls("feeder.validate_feeder"),
        "feeder.build_admittance.calls": calls("feeder.build_admittance"),
        "feeder.build_admittance.s": total("feeder.build_admittance"),
        "powerflow.build_linear_model.calls": calls("powerflow.build_linear_model"),
        "powerflow.build_linear_model.s": total("powerflow.build_linear_model"),
        "powerflow.no_load_voltage.calls": calls("powerflow.no_load_voltage"),
        "controller.primal_step.calls": calls("controller.primal_step"),
        "controller.primal_step.s": total("controller.primal_step"),
        "controller.primal_step.ms_p99": ms("controller.primal_step", 99),
        "controller.dual_step_feedback.calls": calls("controller.dual_step_feedback"),
        "controller.dual_step_feedback.s": total("controller.dual_step_feedback"),
        "sim.step_problem.calls": calls("sim.step_problem"),
        "sim.step_problem.wall_pct": pct(total("sim.step_problem")),
        "powerflow.constraint_offsets.calls": calls("powerflow.constraint_offsets"),
        "powerflow.constraint_offsets.wall_pct": pct(total("powerflow.constraint_offsets")),
        "sim.measure_tracking.wall_pct": pct(total("sim.measure_tracking")),
        "sim.measure_tracking.self_wall_pct": pct(self_total("sim.measure_tracking")),
        "sim.run_closed_loop.steps_per_s": len(plant_starts) / total("sim.run_closed_loop"),
        "sim.run_closed_loop.self_s": self_total("sim.run_closed_loop"),
        "sim.step_ms_p50": percentile(steps_ms, 50),
        "sim.step_ms_p99": percentile(steps_ms, 99),
        "sim.write_trajectory.s": total("sim.write_trajectory"),
        "sim.write_trajectory.bytes": sum(attr("sim.write_trajectory", "bytes")),
        "sim.generate_scenario.s": total("sim.generate_scenario"),
        "controller.convergence_constants.calls": calls("controller.convergence_constants"),
        "controller.convergence_constants.s": total("controller.convergence_constants"),
        "cli.self_s": own[main],
    }


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over several traced runs (counts repeat exactly)."""
    return {k: statistics.median_low(r[k] for r in runs) for k in runs[0]}
