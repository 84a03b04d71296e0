"""Composite Gauss-Legendre rules, prefix integrals, conforming rules."""

import math

import numpy as np
import pytest
from scipy import integrate as sci

from heisgeo import HorizontalForm, curves, integrate_surface, middle_differential, quadrature, torus_surface
from heisgeo.integrate import _surface_integrand
from heisgeo.quadrature import (
    CHEB_POINTS,
    CURVE_PANELS,
    NODES,
    ROUNDING_FLOOR,
    Level,
    PrefixIntegral,
    Sweep,
    _gauss,
    _panels,
    conforming_integrate_1d,
    conforming_integrate_2d,
    integrate_1d,
    support_roots,
)

from conftest import per_node


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


def _partial_panel_rule(F, tau):
    """F(tau) by the NODES-point rule over the partial panel below tau, as
    PrefixIntegral answered every query before it had a table: the rule the
    table is filled with, and the one a tau outside [a, b] still takes."""
    x, w = np.polynomial.legendre.leggauss(NODES)
    idx = np.clip(np.searchsorted(F.edges, tau, side="right") - 1, 0, CURVE_PANELS - 1)
    lo = F.edges[idx]
    mid, half = 0.5 * (lo + tau), 0.5 * (tau - lo)
    vals = np.asarray(F.f((mid[..., None] + half[..., None] * x).ravel())).reshape(tau.shape + (NODES,))
    return F.prefix[idx] + half * (vals @ w)


PREFIX_INTEGRANDS = {
    "lemniscate-area": (curves._area_integrand(curves.lemniscate()), 0.0, 2.0 * np.pi),
    "exp-sin": (lambda x: np.exp(-x) * np.sin(3 * x), 0.0, 5.0),
    # the leaf slope of the R = 3, r = 2 torus, the steepest tier-1 integrand
    "leaf-slope": (lambda u: 4.0 * np.cos(u) / (3.0 + 2.0 * np.cos(u)) ** 2, 0.0, 2.0 * np.pi),
}


@pytest.mark.parametrize("name", sorted(PREFIX_INTEGRANDS))
def test_prefix_table_matches_the_partial_panel_rule(name):
    f, a, b = PREFIX_INTEGRANDS[name]
    F = PrefixIntegral(f, a, b)
    rng = np.random.default_rng(23)
    for tau in np.split(rng.uniform(a, b, 200_000), 4):
        ref = _partial_panel_rule(F, tau)
        assert np.max(np.abs(F(tau) - ref) / (1.0 + np.abs(ref))) <= 1e-15, name
    # the ends and every panel edge return the prefix sums exactly
    assert F(a) == 0.0 and F(b) == F.prefix[-1]
    assert F(F.edges).tobytes() == F.prefix.tobytes()
    # outside [a, b] the partial-panel rule itself extrapolates, bit for bit
    # as for each tau alone
    out = np.array([a - 0.3, a - 1e-9, b + 1e-9, b + 0.7])
    alone = np.concatenate([_partial_panel_rule(F, out[k:k + 1]) for k in range(len(out))])
    assert F(out).tobytes() == alone.tobytes()
    # NaN stays NaN, and a scalar tau gives a float of the same value
    assert np.isnan(F(np.nan)) and np.isnan(F(np.array([0.5 * (a + b), np.nan]))[1])
    mid = F(0.5 * (a + b))
    assert type(mid) is float and mid == F(np.array([0.5 * (a + b)]))[0]


def test_prefix_table_costs_no_integrand_call_in_range():
    points = []

    def f(x):
        points.append(x.size)
        return np.cos(x)

    F = PrefixIntegral(f, 0.0, 2.0)
    # one NODES-point rule per panel for the prefix sums, and one per inner
    # Chebyshev-Lobatto point of each panel for the table
    assert sum(points) == CURVE_PANELS * NODES * (1 + CHEB_POINTS - 2) == 24_576
    points.clear()
    F(np.random.default_rng(0).uniform(0.0, 2.0, (3, 500)))
    F(0.0), F(2.0), F(F.edges)
    assert points == []
    F(np.array([-0.5, 1.0, 2.5]))
    assert points == [2 * NODES]


@pytest.mark.parametrize("name", sorted(PREFIX_INTEGRANDS))
def test_off_range_heights_have_the_bits_of_each_tau_alone(name):
    # a batched root search can step just off [a, b] at an end cluster, so an
    # off-range height must not depend on what else shares its batch
    f, a, b = PREFIX_INTEGRANDS[name]
    F = PrefixIntegral(f, a, b)
    rng = np.random.default_rng(30)
    off = np.concatenate((a - rng.uniform(0.0, 0.05, 40), b + rng.uniform(0.0, 0.05, 40)))
    mixed = np.concatenate((off, rng.uniform(a, b, 200)))
    rng.shuffle(mixed)
    for batch in (off, mixed):
        assert F(batch).tobytes() == np.array([F(tau) for tau in batch]).tobytes()


def _constant_level(value, scale, lines=1):
    """A level along `lines` lines that is `value` everywhere, with no roots."""
    def jet(x, owner, axes=(0,)):
        one = np.ones(np.shape(x))
        return (value * one, *(0.0 * one for _ in axes))

    return Level(jet, lambda phi, h, owner: 0.0, (scale,) * lines, 1.0)


def _lines(*levels):
    """Levels along one line each, as the lines of one Level."""
    def jet(x, owner, axes=(0,)):
        out = np.empty((1 + len(axes), len(x)))
        for k, level in enumerate(levels):
            out[:, owner == k] = level.jet(x[owner == k], owner[owner == k], axes)
        return tuple(out)

    def lip(phi, h, owner):
        out = np.empty(len(phi))
        for k, level in enumerate(levels):
            out[owner == k] = level.lip(phi[owner == k], h[owner == k], owner[owner == k])
        return out

    return Level(jet, lip, sum((level.scale for level in levels), ()), levels[0].noise)


def _whole_rectangle(f, u_dom, v_dom):
    """The conforming rule when every orbit lies in P: the level 1, which
    has no roots, and the whole v-range at every u, so one piece, the
    whole rectangle."""
    one = _constant_level(1.0, math.hypot(u_dom[1] - u_dom[0], v_dom[1] - v_dom[0]), 3)
    whole = lambda u: (np.arange(len(u)), np.full(len(u), float(v_dom[0])), np.full(len(u), float(v_dom[1])))
    return conforming_integrate_2d(f, Sweep(one, 1, u_dom, support_roots(one, *u_dom), whole))


def test_a_ball_holding_the_surface_gives_the_whole_rectangle(affine_field):
    # a surface integral needs a support ball; one about the origin that
    # holds the whole torus gives the rootless level's result bit for bit
    torus = torus_surface(np.sqrt(2.0), 1.0)
    fields = (affine_field(y=1.0), affine_field(t=1.0))
    form = middle_differential(HorizontalForm(*fields, support_ball=(np.zeros(3), 10.0)))
    res = integrate_surface(form, torus)
    ref = _whole_rectangle(_surface_integrand(form, torus), torus.u_dom, torus.v_dom)
    assert [res.value.hex(), res.estimate.hex()] == [x.hex() for x in ref]
    assert dict(res.stats) == ref.stats == {"rule": "conforming", "points": 2880, "pieces": 1}
    with pytest.raises(ValueError, match="support ball"):
        integrate_surface(middle_differential(HorizontalForm(*fields)), torus)


def test_adaptive_smooth_matches_dblquad():
    f = lambda u, v: np.exp(-(u**2) - v**2) * np.cos(u * v)
    res = _whole_rectangle(per_node(f), (-2.0, 2.0), (-2.0, 2.0))
    value, est = res
    assert res.stats == {"rule": "conforming", "points": 24**2 + 48**2, "pieces": 1}
    truth = sci.dblquad(
        lambda y, x: float(f(np.asarray(x), np.asarray(y))),
        -2.0, 2.0, -2.0, 2.0, epsabs=1e-12,
    )[0]
    assert abs(value - truth) < 1e-9
    assert est < 1e-8


def _disc(c, r, v_dom):
    """Plateau bump of a disc, swept by the lines u = const: its fold level
    D(u) = r^2 - (u - c_u)^2, the disc level along each v-edge, and the
    chord c_v +- sqrt(D) of each line clipped to v_dom; the sweep is
    solved on u_dom, with `fold` in place of D when given."""
    def f(u, v):
        q = 1.0 - ((u - c[0]) ** 2 + (v - c[1]) ** 2) / r**2
        return np.where(q > 0.0, q, 0.0) ** 4

    def level(dv):
        # |phi'| = 2 |u - c_u| <= 2 (|u0 - c_u| + h) within h of u0, |u0 - c_u| <= sqrt(r^2 + dv^2 - phi)
        jet = lambda u, owner, axes=(0,): (r**2 - dv**2 - (u - c[0]) ** 2, *(-2.0 * (u - c[0]) for _ in axes))
        lip = lambda phi, h, owner: 2.0 * (np.sqrt(np.maximum(r**2 - dv**2 - phi, 0.0)) + h)
        return Level(jet, lip, (r,), 1.0)

    def inner(u):
        half = np.sqrt(np.maximum(r**2 - (u - c[0]) ** 2, 0.0))
        lo, hi = np.maximum(c[1] - half, v_dom[0]), np.minimum(c[1] + half, v_dom[1])
        return np.flatnonzero(lo < hi), lo[lo < hi], hi[lo < hi]

    def sweep_on(u_dom, fold=None):
        levels = (fold or level(0.0),) + tuple(level(v - c[1]) for v in v_dom)
        stacked = _lines(*levels)
        return Sweep(stacked, 1, u_dom, support_roots(stacked, *u_dom), inner)

    return f, sweep_on


def test_conforming_compact_support_between_nodes():
    # a narrow plateau bump dropped between the nodes of any coarse grid;
    # the rule integrates over the disc only, with breakpoints on its rim
    c, r = np.array([0.1234, 0.2345]), 0.08
    f, sweep_on = _disc(c, r, (0.0, 3.0))
    truth = np.pi * r**2 / 5.0  # radial integral of (1 - s)^4 d(s r^2)/2
    res = conforming_integrate_2d(per_node(f), sweep_on((-3.0, 3.0)))
    value, est = res
    assert abs(value - truth) < 5e-9
    assert est < 1e-7
    assert res.stats["rule"] == "conforming" and res.stats["pieces"] == 3


def test_conforming_support_cut_by_domain_edge():
    # support circle sticking out below the rectangle: the kink runs along
    # the domain edge and the result must match exact-bounds nested 1d rules
    c, r = np.array([-0.15, 0.09]), 0.22
    f, sweep_on = _disc(c, r, (0.0, 3.0))
    def inner(v):
        w = np.sqrt(max(r**2 - (v - c[1]) ** 2, 0.0))
        if w == 0.0:
            return 0.0
        return sci.quad(lambda u: float(f(np.asarray(u), np.asarray(v))),
                        c[0] - w, c[0] + w, epsabs=1e-14)[0]
    truth = sci.quad(inner, 0.0, c[1] + r, epsabs=1e-13, limit=200)[0]
    value, est = conforming_integrate_2d(per_node(f), sweep_on((-3.0, 3.0)))
    assert abs(value - truth) < 1e-7
    assert abs(value - truth) <= max(est, 1e-9)


def test_conforming_rule_fails_loud():
    c, r = np.array([0.4, 0.5]), 0.2
    f, sweep_on = _disc(c, r, (0.0, 1.0))
    # a NaN inside the support reaches the value and the estimate
    nan_inside = lambda u, v: np.where(u > 0.45, np.nan, f(u, v))
    res = conforming_integrate_2d(per_node(nan_inside), sweep_on((0.0, 1.0)))
    assert np.isnan(res[0]) and np.isnan(res[1]) and res.stats["faults"] == ["nan"]
    # a fold level that hides the folds leaves one piece whose outer nodes
    # see zero or one interval; the count change flags it instead of integrating
    blind = sweep_on((0.0, 1.0), _constant_level(1.0, r))
    res = conforming_integrate_2d(per_node(f), blind)
    assert res.stats["pieces"] == 1 and np.isnan(res[1]) and res.stats["faults"] == ["root_count"]
    # a support that misses the rectangle gives exactly zero, proved by the
    # fold level: negative with no root, so no line meets the disc
    res = conforming_integrate_2d(per_node(f), sweep_on((2.0, 3.0)))
    assert res == (0.0, 0.0) and res.stats == {"rule": "conforming", "points": 0, "pieces": 0, "miss": "proved"}
    # a fold level negative at both ends but positive at the middle, its
    # roots hidden by a Lipschitz bound of 0, proves no miss: the one piece
    # is integrated, and the count change flags it
    bump = lambda x, owner, axes=(0,): (0.01 - (x - 0.5) ** 2, *(1.0 - 2.0 * x for _ in axes))
    hidden = Level(bump, lambda g, h, owner: 0.0, (r,), 1.0)
    res = conforming_integrate_2d(per_node(f), sweep_on((0.0, 1.0), hidden))
    assert "miss" not in res.stats and np.isnan(res[1]) and res.stats["faults"] == ["root_count"]


def test_each_one_dimensional_fault_is_named():
    # every check that fires is listed in the stats and makes the estimate
    # NaN; (the 2-d rule's `nan` and `root_count` are in the test above)
    f = np.ones_like
    cases = {
        # a slope 1e7 times too steep: Newton creeps, and the root never settles
        "unsettled": lambda x, owner, axes=(0,): (x - 0.3, *(np.full_like(x, 1e7) for _ in axes)),
        # a level that is positive at the middle of [0, 0.5], below its root
        "sign_pattern": lambda x, owner, axes=(0,): (np.where(x == 0.25, 1.0, x - 0.5),
                                                     *(np.ones_like(x) for _ in axes)),
        # |x - 0.5| touches 0 at the middle of [0.1, 0.9], where the one
        # rootless interval is tested: no interval, and no proof of a miss
        "missed_support": lambda x, owner, axes=(0,): (np.abs(x - 0.5), *(np.sign(x - 0.5) for _ in axes)),
    }
    for name, jet in cases.items():
        a, b = (0.1, 0.9) if name == "missed_support" else (0.0, 1.0)
        res = conforming_integrate_1d(f, Level(jet, lambda g, h, owner: 1.0, (0.5,), 1.0), a, b)
        assert np.isnan(res[1]) and res.stats["faults"] == [name], (name, res.stats)
    # a negative level with no root is a proved miss, with no fault
    negative = lambda x, owner, axes=(0,): (x - 2.0, *(np.ones_like(x) for _ in axes))
    res = conforming_integrate_1d(f, Level(negative, lambda g, h, owner: 1.0, (0.5,), 1.0), 0.0, 1.0)
    assert res == (0.0, 0.0) and res.stats == {"rule": "conforming", "points": 0, "pieces": 0, "miss": "proved"}
    # negative at both ends but positive at the middle, its roots hidden by
    # a Lipschitz bound of 0: integrated over the middle, and no miss claimed
    bump = lambda x, owner, axes=(0,): (0.01 - (x - 0.5) ** 2, *(1.0 - 2.0 * x for _ in axes))
    res = conforming_integrate_1d(f, Level(bump, lambda g, h, owner: 0.0, (0.5,), 1.0), 0.0, 1.0)
    assert res.stats == {"rule": "conforming", "points": 48, "pieces": 1}


def test_adaptive_nan_sample_propagates():
    f = lambda u, v: np.where(u < 0.5, np.nan, 1.0)
    value, est = _whole_rectangle(per_node(f), (0.0, 1.0), (0.0, 1.0))
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
    value, est = _whole_rectangle(per_node(lambda u, v: u * v + 1.0), (0.0, 1.0), (0.0, 1.0))
    assert 0.0 < est < 1e-12
    # the floor does not invent error where the integrand vanishes at every node
    assert integrate_1d(np.zeros_like, 0.0, 1.0) == (0.0, 0.0)
