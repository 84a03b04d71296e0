"""Property tests: a quadrature result is trustworthy or flagged, never silently wrong."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from heisgeo.integrate import FLAG_TOL, _result
from heisgeo.quadrature import Level, Sweep, conforming_integrate_2d, integrate_1d

from conftest import per_node

# fixed examples keep tier-1 repeatable; no example database is written
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

coefficients = st.lists(st.floats(-100.0, 100.0), min_size=4, max_size=4).filter(
    lambda c: max(abs(x) for x in c) >= 1e-3
)


def _whole_rectangle(f, u_dom, v_dom):
    """The conforming rule when every orbit lies in P: a fold level 1 with
    no roots and the whole v-range at every u, so one piece."""
    def jet(x, axes=(0,)):
        one = np.ones(np.shape(x))
        return (one, *(0.0 * one for _ in axes))

    one = Level(jet, lambda phi, h: 0.0, math.hypot(u_dom[1] - u_dom[0], v_dom[1] - v_dom[0]), 1.0)
    whole = lambda u: (np.arange(len(u)), np.full(len(u), float(v_dom[0])), np.full(len(u), float(v_dom[1])))
    return conforming_integrate_2d(f, Sweep((one,), (one, one), whole), u_dom)


@PROPERTY
@given(u0=st.floats(0.0, 15.0 / 16.0), v0=st.floats(0.0, 15.0 / 16.0),
       du=st.floats(1.0 / 16.0, 1.0), dv=st.floats(1.0 / 16.0, 1.0))
def test_nan_region_is_flagged(u0, v0, du, dv):
    # the 48-point rule's nodes lie at most 0.051 apart on each axis, so a
    # NaN region at least 1/16 wide holds one wherever it sits, and the NaN
    # reaches both value and estimate
    def f(u, v):
        inside = (u >= u0) & (u <= u0 + du) & (v >= v0) & (v <= v0 + dv)
        return np.where(inside, np.nan, 1.0 + u * v)

    value, est = _whole_rectangle(per_node(f), (0.0, 1.0), (0.0, 1.0))
    assert np.isnan(value)
    assert _result(value, est, FLAG_TOL).flagged


@PROPERTY
@given(coef=coefficients, lo=st.floats(-3.0, 3.0), width=st.floats(0.01, 4.0))
def test_estimate_of_nonzero_integrand_is_positive(coef, lo, width):
    # low-degree polynomials are integrated exactly, so the Richardson gap is
    # rounding noise or zero; the estimate must still be positive
    c0, c1, c2, c3 = coef
    f1 = lambda x: c0 + x * (c1 + x * (c2 + x * c3))
    f2 = lambda u, v: c0 + c1 * u + c2 * v + c3 * u * v
    dom = (lo, lo + width)
    assert integrate_1d(f1, *dom)[1] > 0.0
    assert _whole_rectangle(per_node(f2), dom, dom)[1] > 0.0
