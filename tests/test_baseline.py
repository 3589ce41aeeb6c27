import math

import numpy as np
import pytest

from opftrack.baseline import droop_q
from opftrack.controller import Inverters

CAP = Inverters("joint", [1.0], [1.0], [1.0]).headroom(np.asarray([0.8]))  # sqrt(1 - 0.64)


def droop_at(v, cap=CAP):
    return float(droop_q(np.asarray([v]), cap)[0])


@pytest.mark.parametrize(
    "v, expected",
    [
        (1.0, 0.0),
        (1.025, -0.3),
        (1.05, -0.6),
        (1.2, -0.6),      # clamped at full headroom
        (0.975, 0.3),     # mirrored injection branch
        (0.9, 0.6),
    ],
)
def test_droop_hand_points(v, expected):
    assert droop_at(v) == pytest.approx(expected, abs=1e-12)


def test_droop_monotone_and_within_headroom():
    grid = np.linspace(0.85, 1.25, 200)
    vals = droop_q(grid, np.full(len(grid), CAP[0]))
    assert np.all(np.diff(vals) <= 1e-12)
    cap = math.sqrt(1.0 - 0.64)
    assert np.all(np.abs(vals) <= cap + 1e-12)
    assert np.array_equal(vals, [droop_at(v) for v in grid])  # per inverter


def test_droop_no_headroom_at_full_rating():
    full = Inverters("joint", [0.5], [1.0], [1.0]).headroom(np.asarray([0.5]))
    assert droop_at(1.2, cap=full) == 0.0
