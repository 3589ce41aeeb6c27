"""Scenario files for the tests, in the bytes ``csv.writer`` prints."""

import csv
import io
from pathlib import Path

import numpy as np


def csv_reference(columns, rows) -> bytes:
    """What ``csv.writer`` prints: each Python float as its repr, rows ending ``\\r\\n``."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def scenario_header(feeder) -> list[str]:
    """The columns ``read_scenario`` requires of ``feeder``'s scenario files."""
    buses = range(1, feeder.n_nodes + 1)
    return ["time_s", "v_min", "v_max", *(f"pl_{i}" for i in buses),
            *(f"ql_{i}" for i in buses), *(f"pav_{i}" for i in feeder.der_nodes)]


def write_scenario_file(scenario, feeder, path) -> None:
    """Write ``scenario`` as a file ``read_scenario`` reads back, ``time_s`` = ``k * tau``."""
    parts = [np.arange(scenario.n_steps) * scenario.tau, scenario.v_min, scenario.v_max,
             scenario.p_load, scenario.q_load, scenario.p_av]
    rows = [row.tolist() for row in np.column_stack(parts)]
    Path(path).write_bytes(csv_reference(scenario_header(feeder), rows))
