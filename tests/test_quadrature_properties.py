"""Property tests: a quadrature result is trustworthy or flagged, never silently wrong."""

from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from heisgeo import quadrature
from heisgeo.integrate import FLAG_TOL, _result
from heisgeo.quadrature import adaptive_integrate_2d, integrate_1d

# fixed examples keep tier-1 repeatable; no example database is written
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

centers = st.floats(0.1, 0.9)
coefficients = st.lists(st.floats(-100.0, 100.0), min_size=4, max_size=4).filter(
    lambda c: max(abs(x) for x in c) >= 1e-3
)


def gaussian(cu, cv, sharpness):
    return lambda u, v: np.exp(-sharpness * ((u - cu) ** 2 + (v - cv) ** 2))


@PROPERTY
@given(cu=centers, cv=centers, sharpness=st.floats(50.0, 3000.0),
       max_sweeps=st.integers(0, 8), max_evals=st.integers(0, 2_000_000))
def test_budget_stop_is_flagged(cu, cv, sharpness, max_sweeps, max_evals):
    # a budget that ends the refinement early leaves a flagged result; an
    # unflagged one is exactly what the run without a budget returns
    g = gaussian(cu, cv, sharpness)
    box = ((0.0, 1.0), (0.0, 1.0))
    with patch.object(quadrature, "QUADTREE_TOL", FLAG_TOL), patch.object(quadrature, "COARSE", 4):
        with (patch.object(quadrature, "MAX_SWEEPS", max_sweeps),
              patch.object(quadrature, "MAX_EVALS", max_evals)):
            cut = adaptive_integrate_2d(g, *box)
        if not _result(*cut, FLAG_TOL).flagged:
            assert cut == adaptive_integrate_2d(g, *box)


@PROPERTY
@given(u0=st.floats(0.0, 15.0 / 16.0), v0=st.floats(0.0, 15.0 / 16.0),
       du=st.floats(1.0 / 16.0, 1.0), dv=st.floats(1.0 / 16.0, 1.0))
def test_nan_region_is_flagged(u0, v0, du, dv):
    # a NaN region at least one coarse panel wide holds quadrature nodes
    # wherever it sits, and the NaN reaches both value and estimate
    def f(u, v):
        inside = (u >= u0) & (u <= u0 + du) & (v >= v0) & (v <= v0 + dv)
        return np.where(inside, np.nan, 1.0 + u * v)

    value, est = adaptive_integrate_2d(f, (0.0, 1.0), (0.0, 1.0))
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
    assert adaptive_integrate_2d(f2, dom, dom)[1] > 0.0
