"""Composite Gauss-Legendre rules, prefix integrals, conforming rules."""

import numpy as np
import pytest
from scipy import integrate as sci

from heisgeo import quadrature
from heisgeo.integrate import _rectangle_level
from heisgeo.quadrature import (
    CURVE_PANELS,
    ROUNDING_FLOOR,
    PrefixIntegral,
    _gauss,
    _panels,
    conforming_integrate_2d,
    integrate_1d,
)


def test_panel_rule_weights_and_polynomial_exactness():
    edges = np.linspace(-1.0, 3.0, 8)
    pts, wts = _gauss(5, edges[:-1], edges[1:])
    assert abs(wts.sum() - 4.0) < 1e-14
    assert np.all(pts > -1.0) and np.all(pts < 3.0)
    # 5-node Gauss is exact through degree 9
    for k in range(10):
        exact = (3.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        assert abs(wts @ pts**k - exact) < 1e-12 * max(1.0, abs(exact))


def test_each_gauss_rule_is_built_once(monkeypatch):
    build = np.polynomial.legendre.leggauss
    calls = []
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: calls.append(n) or build(n))
    sizes = (8, 16, 24, 32, 48)
    for n in sizes + sizes:
        x, w = _gauss(n, -np.ones(1), np.ones(1))
        fresh = build(n)
        assert x.tobytes() == fresh[0].tobytes() and w.tobytes() == fresh[1].tobytes()
    # earlier calls may have filled the cache already; none builds a rule twice
    assert sorted(calls) == sorted(set(calls)) and set(calls) <= set(sizes)
    for cached in quadrature._legendre(24):
        with pytest.raises(ValueError):
            cached[0] = 0.0


def test_integrate_1d_value_and_estimate():
    value, err = integrate_1d(np.sin, 0.0, np.pi)
    assert abs(value - 2.0) < 1e-14
    assert err < 1e-12
    # the estimate bounds the true error on an oscillatory integrand that
    # the half rule does not resolve
    f = lambda x: np.cos(2000.0 * x)
    res = integrate_1d(f, 0.0, 1.0)
    value, err = res
    truth = np.sin(2000.0) / 2000.0
    assert abs(value - truth) <= err
    assert err > 1e-9
    assert res.stats == {"rule": "uniform", "points": 3 * CURVE_PANELS * 4, "panels": CURVE_PANELS}


def test_prefix_integral_matches_quad():
    F = PrefixIntegral(lambda x: np.exp(-x) * np.sin(3 * x), 0.0, 5.0)
    for tau in (0.0, 0.3, 1.7, np.pi, 5.0):
        truth = sci.quad(lambda x: np.exp(-x) * np.sin(3 * x), 0.0, tau)[0]
        assert abs(F(tau) - truth) < 1e-12, tau
    taus = np.linspace(0.0, 5.0, 29)
    batch = F(taus)
    assert batch.shape == taus.shape
    assert abs(batch[0]) == 0.0


def _whole_rectangle(f, u_dom, v_dom):
    """The conforming rule under the level without roots that surfaces use
    for forms without a support ball: one piece, the whole rectangle."""
    jet, lip, scale, noise = _rectangle_level(u_dom, v_dom)
    return conforming_integrate_2d(f, jet, lip, u_dom, v_dom, scale, noise, False)


def test_adaptive_smooth_matches_dblquad():
    f = lambda u, v: np.exp(-(u**2) - v**2) * np.cos(u * v)
    res = _whole_rectangle(f, (-2.0, 2.0), (-2.0, 2.0))
    value, est = res
    assert res.stats == {"rule": "conforming", "points": 24**2 + 48**2, "pieces": 1}
    truth = sci.dblquad(
        lambda y, x: float(f(np.asarray(x), np.asarray(y))),
        -2.0, 2.0, -2.0, 2.0, epsabs=1e-12,
    )[0]
    assert abs(value - truth) < 1e-9
    assert est < 1e-8


def _disc(c, r):
    """Plateau bump of a disc, with the jet of its level and a Lipschitz bound."""
    def f(u, v):
        q = 1.0 - ((u - c[0]) ** 2 + (v - c[1]) ** 2) / r**2
        return np.where(q > 0.0, q, 0.0) ** 4
    phi = lambda u, v: r**2 - (u - c[0]) ** 2 - (v - c[1]) ** 2
    # the level and its derivatives along the listed axes, as the rule asks
    jet = lambda u, v, axes=(0, 1): (phi(u, v), *(-2.0 * ((u, v)[k] - c[k]) for k in axes))
    # |grad phi| = 2 |x - c| <= 2 (|x0 - c| + h) within h of x0
    lip = lambda level, h: 2.0 * (np.sqrt(np.maximum(r**2 - level, 0.0)) + h)
    return f, jet, lip


def test_conforming_compact_support_between_nodes():
    # a narrow plateau bump dropped between the nodes of any coarse grid;
    # the rule integrates over the disc only, with breakpoints on its rim
    c, r = np.array([0.1234, 0.2345]), 0.08
    f, jet, lip = _disc(c, r)
    truth = np.pi * r**2 / 5.0  # radial integral of (1 - s)^4 d(s r^2)/2
    res = conforming_integrate_2d(f, jet, lip, (-3.0, 3.0), (0.0, 3.0), r, 1.0, False)
    value, est = res
    assert abs(value - truth) < 5e-9
    assert est < 1e-7
    assert res.stats["rule"] == "conforming" and res.stats["pieces"] == 3


def test_conforming_support_cut_by_domain_edge():
    # support circle sticking out below the rectangle: the kink runs along
    # the domain edge and the result must match exact-bounds nested 1d rules
    c, r = np.array([-0.15, 0.09]), 0.22
    f, jet, lip = _disc(c, r)
    def inner(v):
        w = np.sqrt(max(r**2 - (v - c[1]) ** 2, 0.0))
        if w == 0.0:
            return 0.0
        return sci.quad(lambda u: float(f(np.asarray(u), np.asarray(v))),
                        c[0] - w, c[0] + w, epsabs=1e-14)[0]
    truth = sci.quad(inner, 0.0, c[1] + r, epsabs=1e-13, limit=200)[0]
    value, est = conforming_integrate_2d(f, jet, lip, (-3.0, 3.0), (0.0, 3.0), r, 1.0, False)
    assert abs(value - truth) < 1e-7
    assert abs(value - truth) <= max(est, 1e-9)


def test_conforming_rule_fails_loud():
    c, r = np.array([0.4, 0.5]), 0.2
    f, jet, lip = _disc(c, r)
    phi = lambda u, v: jet(u, v, axes=())[0]
    # a NaN inside the support reaches the value and the estimate
    nan_inside = lambda u, v: np.where(u > 0.45, np.nan, f(u, v))
    value, est = conforming_integrate_2d(nan_inside, jet, lip, (0.0, 1.0), (0.0, 1.0), r, 1.0, False)
    assert np.isnan(value) and np.isnan(est)
    # a slope that hides the folds leaves one piece whose outer nodes see
    # zero or two roots; the count change flags it instead of integrating
    blind = lambda u, v, axes=(0, 1): (phi(u, v), *(jet(u, v)[1] if k == 0 else np.full_like(u, 1e3)
                                                     for k in axes))
    res = conforming_integrate_2d(f, blind, lip, (0.0, 1.0), (0.0, 1.0), r, 1.0, False)
    assert res.stats["pieces"] == 1 and np.isnan(res[1])
    # a support that misses the rectangle gives exactly zero
    assert conforming_integrate_2d(f, jet, lip, (2.0, 3.0), (0.0, 1.0), r, 1.0, False) == (0.0, 0.0)


def test_adaptive_nan_sample_propagates():
    f = lambda u, v: np.where(u < 0.5, np.nan, 1.0)
    value, est = _whole_rectangle(f, (0.0, 1.0), (0.0, 1.0))
    assert np.isnan(value) and np.isnan(est)


def test_estimates_floored_at_rounding_bound():
    # both rules integrate these polynomials exactly, so the Richardson gap
    # is rounding noise; the estimate must still be positive
    rng = np.random.default_rng(7)
    pts, wts = _panels(-1.0, 2.0, CURVE_PANELS)
    for _ in range(20):
        coef = rng.normal(size=8)
        f = lambda x: np.polynomial.polynomial.polyval(x, coef)
        value, err = integrate_1d(f, -1.0, 2.0)
        assert err >= ROUNDING_FLOOR * np.abs(wts * f(pts)).sum() > 0.0
    value, est = _whole_rectangle(lambda u, v: u * v + 1.0, (0.0, 1.0), (0.0, 1.0))
    assert 0.0 < est < 1e-12
    # the floor does not invent error where the integrand vanishes at every node
    assert integrate_1d(np.zeros_like, 0.0, 1.0) == (0.0, 0.0)
