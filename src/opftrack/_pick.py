"""The per-step path's reductions, as a pick of one element.

numpy's generic ``ufunc.reduce`` (``np.minimum.reduce``, ``x.min()``,
``x.all()``) costs 1.1-1.9 us per call on a feeder36-sized vector, almost
all of it per-call overhead; ``argmin`` / ``argmax`` and one index pick the
same element in 0.35-0.6 us (numpy 2.4, in process). A closed-loop step
would make about eight such reductions.

Like the reductions, a pick is a NaN if the array holds one (``argmin`` and
``argmax`` stop at the first NaN), and an empty array raises ``ValueError``
in :func:`smallest` and :func:`largest`. The one difference is the sign of
a zero: where ``0.0`` and ``-0.0`` tie for the extreme, a pick returns the
first of them and the reduction may return another. Every caller reads the
result by value: a band test, the largest of magnitudes, or a truth value.
"""

from __future__ import annotations

import numpy as np


def smallest(x: np.ndarray):
    """The least element of the 1-D array ``x``, or its first NaN."""
    return x[x.argmin()]


def largest(x: np.ndarray):
    """The greatest element of the 1-D array ``x``, or its first NaN."""
    return x[x.argmax()]


def every(b: np.ndarray) -> bool:
    """Whether every entry of the 1-D boolean array ``b`` is true (an empty one is)."""
    return b.size == 0 or bool(b[b.argmin()])
