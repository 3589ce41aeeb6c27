"""The benchmark's workloads: run configurations and output checks.

Every workload is one ``opftrack run --config <copy>`` on a config copy the
benchmark writes into its own work directory. The workload seed selects the
scenario generator's seed (``generator.seed`` in the copy, never ``--seed``:
the CLI lets the generator's own seed win over ``--seed``). Generator seeds
come from a pool of ``POOL`` values whose summary figures were recorded at
the commit that defined the benchmark (``reference.json``), so every run can
be checked against a reference whatever the workload seed is.
"""

from __future__ import annotations

import csv
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
REFERENCE = os.path.join(HERE, "reference.json")

POOL = 16

# relative tolerance on the recorded summary figures; an absolute floor
# covers figures that are exactly zero (max_violation_tail on feeder36)
REF_RTOL = 1e-6
REF_ATOL = 1e-12
PF_TOL = 1e-9

LOOP36_STEPS = 4000
RADIAL_BUSES = 1000
RADIAL_STEPS = 30
RADIAL_FEEDER_SEED = 0

WORKLOADS = ("certify36", "loop36", "radial1000")


def generator_seed(seed: int, repeat: int) -> int:
    """Generator seed of the ``repeat``-th ``main()`` call of a run."""
    return (seed + repeat) % POOL


def radial_feeder_path() -> str:
    return os.path.join(WORK, f"radial{RADIAL_BUSES}.json")


def write_radial_feeder() -> None:
    """Save the radial1000 feeder with the package's own writer.

    |z| in 0.0005-0.002 pu and an inverter on every 10th bus, as in the
    ROADMAP scaling measurements. The tree is fixed; the workload seed
    varies only the scenario.
    """
    from opftrack.feeder import save_feeder
    from opftrack.networks import random_radial

    feeder = random_radial(
        RADIAL_BUSES,
        RADIAL_FEEDER_SEED,
        z_mag_range=(0.0005, 0.002),
        der_nodes=tuple(range(10, RADIAL_BUSES + 1, 10)),
    )
    os.makedirs(WORK, exist_ok=True)
    save_feeder(feeder, radial_feeder_path())


def feeder_path(workload: str) -> str:
    if workload == "radial1000":
        return radial_feeder_path()
    return os.path.join(ROOT, "data", "feeder36.json")


def run_config(workload: str, gen_seed: int, output_dir: str) -> dict:
    """The config copy for one ``main()`` call of ``workload``."""
    with open(os.path.join(ROOT, "data", "config36.json"), "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["feeder"] = feeder_path(workload)
    cfg["output_dir"] = output_dir
    if workload == "certify36":
        cfg["generator"]["seed"] = gen_seed
    elif workload == "loop36":
        cfg["generator"].update(seed=gen_seed, n_steps=LOOP36_STEPS)
        cfg["report"] = False
    elif workload == "radial1000":
        cfg["generator"] = {"kind": "ramp", "seed": gen_seed, "n_steps": RADIAL_STEPS}
        cfg["report"] = False
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cfg


def n_steps(cfg: dict) -> int:
    return int(cfg["generator"]["n_steps"])


def expected_header(feeder: dict) -> list[str]:
    """The trajectory columns ``write_trajectory`` documents for a feeder."""
    mon = feeder["monitored_nodes"]
    der = [d["node"] for d in feeder["der_nodes"]]
    return (
        ["k", "time_s", "cost", "max_violation", "pf_residual"]
        + [f"y_{n}" for n in mon]
        + [f"p_{n}" for n in der]
        + [f"q_{n}" for n in der]
        + [f"gamma_{n}" for n in mon]
        + [f"mu_{n}" for n in mon]
        + [f"vmag_{n}" for n in range(1, feeder["n_nodes"] + 1)]
    )


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REF_RTOL, abs_tol=REF_ATOL)


def reference_figures(summary: dict) -> dict:
    out = {
        "max_violation_tail": summary["max_violation_tail"],
        "mean_cost_tail": summary["mean_cost_tail"],
    }
    if "tracking" in summary:
        out["tracking_error_tail"] = summary["tracking"]["tracking_error_tail"]
    return out


def load_reference() -> dict:
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(workload: str, cfg: dict, reference: dict | None) -> list[str]:
    """Problems found in one call's trajectory.csv and summary.json.

    With ``reference`` None the comparison with recorded figures is skipped
    (used only while recording them).
    """
    problems = []
    with open(cfg["feeder"], "r", encoding="utf-8") as fh:
        feeder = json.load(fh)
    out = cfg["output_dir"]
    with open(os.path.join(out, "trajectory.csv"), "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if header != expected_header(feeder):
        return ["trajectory header does not match the feeder"]
    if len(body) != n_steps(cfg):
        problems.append(f"trajectory has {len(body)} rows, expected {n_steps(cfg)}")
    col = {name: j for j, name in enumerate(header)}
    residuals = [float(r[col["pf_residual"]]) for r in body]
    if not all(0.0 <= r <= PF_TOL for r in residuals):
        problems.append(f"pf_residual above {PF_TOL:g}: max {max(residuals):.3e}")

    with open(os.path.join(out, "summary.json"), "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    tail = body[int(0.75 * len(body)) :]
    cost_tail = [float(r[col["cost"]]) for r in tail]
    viol_tail = [float(r[col["max_violation"]]) for r in tail]
    if not _close(summary["mean_cost_tail"], math.fsum(cost_tail) / len(cost_tail)):
        problems.append("summary mean_cost_tail disagrees with the trajectory")
    if not _close(summary["max_violation_tail"], max(viol_tail)):
        problems.append("summary max_violation_tail disagrees with the trajectory")

    if reference is None:
        return problems
    want = reference.get(workload, {}).get(str(cfg["generator"]["seed"]))
    if want is None:
        problems.append(f"no reference for generator seed {cfg['generator']['seed']}")
    else:
        got = reference_figures(summary)
        for key, value in want.items():
            if key not in got or not _close(got[key], value):
                problems.append(f"{key} = {got.get(key)!r}, reference {value!r}")
    return problems
