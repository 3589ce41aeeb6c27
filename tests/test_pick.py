"""The selection forms of the per-step reductions against numpy's reductions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opftrack._pick import every, largest, smallest
from opftrack.powerflow import COLLAPSE_HI, COLLAPSE_LO, in_band

# the values where a pick and a reduction could part: the infinities, the
# subnormals, both zeros, the band's edges and the largest finite floats
EDGES = (0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
         COLLAPSE_LO, COLLAPSE_HI, np.nextafter(COLLAPSE_LO, 0.0),
         np.nextafter(COLLAPSE_HI, 4.0), 1.7976931348623157e308, -1.7976931348623157e308)


@st.composite
def vectors(draw):
    # lengths 1-64, cells from the edges or any non-NaN float, and a NaN at
    # any positions (none in half the draws)
    n = draw(st.integers(1, 64))
    cell = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False),
                     st.floats(0.25, 3.5))
    x = np.array(draw(st.lists(cell, min_size=n, max_size=n)), dtype=float)
    if draw(st.booleans()):
        x[draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))] = np.nan
    return x


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _zero_tie(x, extreme) -> bool:
    # 0.0 and -0.0 both in x, tying for the extreme: a pick returns the
    # first, the reduction another, equal as values
    return extreme == 0.0 and len(set(np.signbit(x[x == 0.0]).tolist())) == 2


@settings(max_examples=200, deadline=None)
@given(vectors())
def test_picks_are_the_reductions_to_the_bit(x):
    for pick, reduce in ((smallest, np.minimum.reduce), (largest, np.maximum.reduce)):
        got, want = pick(x), reduce(x)
        if _zero_tie(x, want):
            assert got == want == 0.0
        else:
            assert _bits(got) == _bits(want)
    # the forms the callers read: the largest magnitude (the AC residual),
    # whose zeros have one sign, and the band test
    mag = np.abs(x)
    assert _bits(largest(mag)) == _bits(np.maximum.reduce(mag))
    assert in_band(x) == (COLLAPSE_LO <= np.minimum.reduce(x) and np.maximum.reduce(x) <= COLLAPSE_HI)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), min_size=0, max_size=64))
def test_every_is_logical_and_reduce(cells):
    b = np.array(cells, dtype=bool)
    assert every(b) is bool(np.logical_and.reduce(b))
    if b.size:
        assert every(np.isfinite(np.where(b, 1.0, np.nan))) is bool(b.all())


def test_an_empty_array_behaves_as_its_reduction():
    assert every(np.zeros(0, dtype=bool)) is True
    for pick, reduce in ((smallest, np.minimum.reduce), (largest, np.maximum.reduce)):
        with pytest.raises(ValueError):
            reduce(np.zeros(0))
        with pytest.raises(ValueError):
            pick(np.zeros(0))
