"""Local Volt/VAr droop control without deadband, the comparison strategy.

Each inverter reacts only to its own terminal voltage: zero reactive power
at ``v_zero``, linear absorption down to the full reactive headroom
``-sqrt(S^2 - P_av^2)`` at ``v_sat``, clamped beyond. Active power is never
curtailed. Absorption is negative, injection positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DroopCurve", "droop_q"]


@dataclass(frozen=True)
class DroopCurve:
    """Droop breakpoints. ``symmetric`` mirrors the curve for undervoltage.

    The mirrored branch (reactive injection below ``2 v_zero - v_sat``) is
    an extrapolation of the overvoltage rule, provided for completeness and
    enabled by default.
    """

    v_zero: float = 1.0
    v_sat: float = 1.05
    symmetric: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.v_sat - self.v_zero < math.inf:  # an infinite span is a no-op
            raise ValueError(
                f"v_zero must be below v_sat, both finite, got {self.v_zero!r} and {self.v_sat!r}"
            )


def droop_q(v_meas: np.ndarray, headroom: np.ndarray, curve: DroopCurve) -> np.ndarray:
    """Reactive setpoints of the droop rule, one per inverter.

    ``v_meas`` is each inverter's measured local voltage and ``headroom``
    its largest |Q| at the prevailing availability.
    """
    span = curve.v_sat - curve.v_zero
    over = v_meas >= curve.v_zero
    frac = np.minimum(np.where(over, v_meas - curve.v_zero, curve.v_zero - v_meas) / span, 1.0)
    return np.where(over, -frac * headroom, frac * headroom if curve.symmetric else 0.0)
