"""Local Volt/VAr droop without deadband, the comparison strategy.

Each inverter reacts only to its own terminal voltage. The curve is zero at
``V_ZERO`` and falls linearly to the full reactive headroom
``-sqrt(S^2 - P_av^2)`` at ``V_SAT``, clamped beyond and mirrored
(injection) below ``V_ZERO``; active power is never curtailed. The output
follows the curve through a first-order response: each step closes
``DROOP_GAIN`` of its gap to the curve, clamped to the step's headroom. At
a 0.33 s step, a step change is 90% done in 22 steps (7.3 s), inside the
1-90 s Volt-VAr open-loop response time of IEEE 1547-2018; applied at once,
the curve has loop gain above 1 on ``feeder36`` and collapses the plant.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DROOP_GAIN", "V_SAT", "V_ZERO", "droop_q"]

V_ZERO = 1.0
V_SAT = 1.05
DROOP_GAIN = 0.1


def droop_q(v_meas: np.ndarray, headroom: np.ndarray) -> np.ndarray:
    """The curve's reactive setpoints, one per inverter.

    ``v_meas`` is each inverter's measured local voltage and ``headroom``
    its largest |Q| at the prevailing availability.
    """
    return -np.clip((v_meas - V_ZERO) / (V_SAT - V_ZERO), -1.0, 1.0) * headroom
