"""Curve and surface integration, and the two-sided verification report."""

import dataclasses
import math

import numpy as np
import pytest

from heisgeo import (
    HCurve,
    boundary_integral,
    bump_form,
    horizontal_differential,
    integrate_curve,
    integrate_surface,
    lemniscate,
    lift_cylinder,
    lift_horizontal,
    middle_differential,
    stokes_residual,
    torus_surface,
    vertical_halfplane,
    vertical_term_vanishing,
)
from heisgeo.forms import (
    HorizontalForm,
    ScalarField,
    ThetaWedgeForm,
    bump_field,
    scalar_from_jet,
)
from heisgeo import integrate, quadrature
from heisgeo.cli import DEFAULT_SEED, _stokes_scene
from heisgeo.integrate import FLAG_TOL, STOKES_BUDGET, _ball_level, _surface_integrand, _sweep
from heisgeo.surfaces import LEFT_Y, swept

# a ball about the origin that holds the unit sheet and the sqrt(2) torus:
# with center 0 its level's noise is exactly 1, and the conforming rule keeps
# the whole rectangle as one piece
HOLDS_ALL = (np.zeros(3), 10.0)


def _unit_sheet(**kw):
    """The sheet (u, v, -uv/2) over the unit square: the x-axis segment
    swept by left translation along Y, with its exact tangents."""
    def along_x(s):
        s = np.asarray(s, float)
        return np.stack([s, np.zeros_like(s), np.zeros_like(s)], axis=-1)

    x_axis = HCurve(0.0, 1.0, along_x, lambda s: along_x(np.ones_like(s)), 1.0)
    return swept(x_axis, LEFT_Y, (0.0, 1.0), **kw)


def test_curve_integral_polynomial_oracle(segment, affine_field):
    seg = segment([0.1, -0.2, 0.0], [0.8, 0.3, -0.5 * (-0.2 * 0.7 - 0.1 * 0.5)])
    # the t endpoint above makes q - p horizontal at p; dx and dy see only xy
    one_dx = HorizontalForm(affine_field(1.0), affine_field())
    res = integrate_curve(one_dx, seg)
    assert abs(res.value - 0.7) < 1e-14
    assert not res.flagged

    x_dx = HorizontalForm(affine_field(x=1.0), affine_field())
    res = integrate_curve(x_dx, seg)
    assert abs(res.value - 0.5 * (0.8**2 - 0.1**2)) < 1e-14


def test_curve_integral_orientation_flip(segment, affine_field):
    seg = segment([0.0, 0.0, 0.0], [1.0, 0.5, 0.0])

    rev = HCurve(
        a=seg.a,
        b=seg.b,
        position=lambda tau: seg.position(seg.a + seg.b - np.asarray(tau, float)),
        velocity=lambda tau: -seg.velocity(seg.a + seg.b - np.asarray(tau, float)),
    )
    form = HorizontalForm(affine_field(x=1.0), affine_field(2.0))
    fwd = integrate_curve(form, seg).value
    bwd = integrate_curve(form, rev).value
    assert abs(fwd + bwd) < 1e-14


def _endpoint_gap(curve, f):
    # the curve integral of the horizontal differential of f against f's endpoint difference
    lhs = integrate_curve(horizontal_differential(f), curve).value
    return abs(lhs - float(f(curve.position(curve.b)) - f(curve.position(curve.a))))


def test_degree_zero_identity_on_curves(segment):
    f = scalar_from_jet(
        value=lambda p: p[..., 0] ** 2 - p[..., 1] * p[..., 2],
        gradient=lambda p: np.stack(
            [2.0 * p[..., 0], -p[..., 2], -p[..., 1]], axis=-1
        ),
        hessian=lambda p: np.broadcast_to(
            np.array([[2.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, -1.0, 0.0]]),
            p.shape[:-1] + (3, 3),
        ).copy(),
    )
    # open horizontal segment: curve integral equals the endpoint difference
    seg = segment([0.2, 0.1, 0.0], [0.9, 0.4, -0.5 * (0.1 * 0.7 - 0.2 * 0.3)])
    assert _endpoint_gap(seg, f) < 1e-12
    # closed horizontal loop: both sides vanish together
    sigma = lift_horizontal(lemniscate(), sign=1)
    assert _endpoint_gap(sigma, f) < 1e-10


def test_degree_zero_identity_needs_horizontality(affine_field):
    # flat circle at t = 0 is not horizontal; with f = t the curve integral
    # of the horizontal differential is the enclosed area, not zero
    def pos(tau):
        tau = np.asarray(tau, float)
        return np.stack([np.cos(tau), np.sin(tau), np.zeros_like(tau)], axis=-1)

    def vel(tau):
        tau = np.asarray(tau, float)
        return np.stack([-np.sin(tau), np.cos(tau), np.zeros_like(tau)], axis=-1)

    flat = HCurve(0.0, 2.0 * np.pi, pos, vel)
    assert abs(_endpoint_gap(flat, affine_field(t=1.0)) - np.pi) < 1e-6


def test_boundary_integral_applies_orientations():
    sigma = lift_horizontal(lemniscate(), sign=1)
    cyl = lift_cylinder(sigma, 1.0 / 3.0)
    form = bump_form([1.0, 0.0, 0.1], 0.4)
    (bottom, s0), (top, s1) = cyl.boundary
    direct = (
        s0 * integrate_curve(form, bottom).value
        + s1 * integrate_curve(form, top).value
    )
    res = boundary_integral(form, cyl)
    assert abs(res.value - direct) < 1e-15
    assert abs(res.value) > 1e-4  # the bump actually meets the rims


def test_support_ball_argument_stands_in_for_the_forms_own():
    # a bump form wrapped in a plain callable has no `support_ball`; passing
    # the ball gives the form's own clipped rule, and without it the
    # uniform rule runs
    rim = lift_cylinder(lift_horizontal(lemniscate(), sign=1), 1.0 / 3.0).boundary[0][0]
    form = bump_form([1.0, 0.0, 0.1], 0.4)
    plain = lambda base, vec: form(base, vec)
    own = integrate_curve(form, rim)
    passed = integrate_curve(plain, rim, support_ball=form.support_ball)
    assert own.stats["rule"] == "conforming"
    assert (passed.value, passed.estimate, passed.flagged) == (own.value, own.estimate, own.flagged)
    assert dict(passed.stats) == dict(own.stats)
    assert integrate_curve(plain, rim).stats["rule"] == "uniform"


def test_surface_integral_closed_form_oracle(affine_field):
    # theta(S_u) = 0 and theta(S_v) = -u on the sheet (u, v, -uv/2), so
    # theta^dx pairs to u over the unit square
    sheet = _unit_sheet()
    form = ThetaWedgeForm(affine_field(1.0), affine_field(), support_ball=HOLDS_ALL)
    res = integrate_surface(form, sheet)
    assert abs(res.value - 0.5) < 1e-12


def test_closed_torus_stokes_oracle(affine_field):
    # the torus has no boundary, so the surface side of Stokes is exactly 0
    # for any horizontal form, here one whose D(omega) is far from 0
    torus = torus_surface(np.sqrt(2.0), 1.0)
    form = middle_differential(HorizontalForm(affine_field(y=1.0), affine_field(t=1.0), support_ball=HOLDS_ALL))
    U, V = np.meshgrid(np.linspace(*torus.u_dom, 65), np.linspace(*torus.v_dom, 65))
    assert np.abs(_surface_integrand(form, torus)(U.ravel(), np.arange(U.size), V.ravel())).max() > 1.0
    res = integrate_surface(form, torus)
    # the ball holds the whole torus, so the conforming rule takes the whole rectangle
    assert res.stats["rule"] == "conforming" and res.stats["pieces"] == 1
    assert abs(res.value) <= res.estimate and not res.flagged


def test_support_ball_needs_a_speed_bound():
    # without a speed bound on the swept curve the support's pieces cannot
    # be certified
    sigma = lift_horizontal(lemniscate(), sign=1)
    unbounded = lift_cylinder(dataclasses.replace(sigma, speed=math.inf), 1.0 / 3.0)
    try:
        stokes_residual(unbounded, bump_form([1.0, 0.0, 0.1], 0.4))
    except ValueError as exc:
        assert "speed bound" in str(exc)
    else:
        raise AssertionError("support ball accepted on a surface without a speed bound")


def test_noncompact_surface_needs_supported_form(affine_field):
    hp = vertical_halfplane()
    form = middle_differential(HorizontalForm(affine_field(x=1.0), affine_field(1.0)))
    try:
        integrate_surface(form, hp)
    except ValueError as exc:
        assert "support" in str(exc)
    else:
        raise AssertionError("unsupported form accepted on truncated surface")


def test_support_reaching_a_truncation_edge_is_refused():
    hp = vertical_halfplane()
    # the first two reach y = 3 and t = 3; the third reaches y = 3 only
    # between two of 257 edge samples, which sampling alone would miss
    t_mid = 100.5 * 3.0 / 256
    for center, radius, edge in (
        ([0.0, 2.9, 0.5], 0.5, "u = 3"),
        ([0.0, 0.0, 2.8], 0.5, "v = 3"),
        ([0.0, 2.6, t_mid], 0.40002, "u = 3"),
    ):
        try:
            stokes_residual(hp, bump_form(center, radius))
        except ValueError as exc:
            assert edge in str(exc)
        else:
            raise AssertionError(f"support at {center} reaching {edge} accepted")
    # a ball 0.2 inside the y = 3 edge, and the CLI's first seeded form, integrate
    rng = np.random.default_rng(DEFAULT_SEED)
    _, draw = _stokes_scene("halfplane")
    for form in (bump_form([0.0, 2.3, 0.5], 0.5), bump_form(draw(rng, 0), rng.uniform(0.2, 0.6))):
        report = stokes_residual(hp, form)
        assert report.residual <= 1e-6
        assert not report.lhs.flagged and not report.rhs.flagged


def test_stokes_two_sided_on_halfplane_bump():
    hp = vertical_halfplane()
    form = bump_form([0.0, 0.4, 0.05], 0.5)
    report = stokes_residual(hp, form)
    assert report.residual <= 2e-7
    assert not report.lhs.flagged and not report.rhs.flagged
    # the support crosses the rim, so both sides are genuinely nonzero
    assert abs(report.rhs.value) > 1e-4
    assert abs(report.lhs.value) > 1e-4


def test_flagging_thresholds(segment):
    # the bump is a degree-8 polynomial whose support ends on panel edges, so
    # both Richardson rules are exact and their gap can round to zero; the
    # positive estimate comes from the rounding floor 50*eps*sum|w*f|
    seg = segment([-1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    form = bump_form([0.0, 0.0, 0.0], 0.5)
    res = integrate_curve(form, seg)
    assert not res.flagged and 0.0 < res.estimate < 1e-8
    assert res.stats == {"rule": "conforming", "points": 48, "pieces": 1}
    assert integrate_curve(horizontal_differential(form.f), seg).stats["rule"] == "uniform"
    assert integrate_curve(form, seg, flag_tol=0.0).flagged
    hp = vertical_halfplane()
    bump = bump_form([0.0, 0.4, 0.05], 0.5)
    report = stokes_residual(hp, bump, flag_tol=1e-30)
    assert report.lhs.flagged and report.rhs.flagged


def test_untrusted_estimates_are_flagged(segment, affine_field):
    seg = segment([-1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    nan_form = HorizontalForm(ScalarField(lambda p: np.full(p.shape[:-1], np.nan)), affine_field())
    res = integrate_curve(nan_form, seg, flag_tol=1.0)
    assert res.flagged


def test_budget_stop_and_nan_panels_are_flagged(affine_field):
    sheet = _unit_sheet()
    # a peak that the one whole-rectangle piece of a ball holding the sheet
    # does not resolve must not pass as trusted
    peak = lambda p, tu, tv: np.exp(-1000.0 * ((p[..., 0] - 0.3) ** 2 + (p[..., 1] - 0.7) ** 2))
    peak.support_ball = HOLDS_ALL
    res = integrate_surface(peak, sheet)
    assert res.stats["pieces"] == 1 and res.flagged
    assert abs(res.value - np.pi / 1000.0) > FLAG_TOL
    # nor may NaN samples on half the domain
    half_nan = ScalarField(lambda p: np.where(p[..., 0] < 0.5, np.nan, 1.0))
    form = ThetaWedgeForm(half_nan, affine_field(), support_ball=HOLDS_ALL)
    res = integrate_surface(form, sheet)
    assert res.flagged and np.isnan(res.value)


def test_vertical_term_vanishes_on_horizontal_boundary():
    sigma = lift_horizontal(lemniscate(), sign=1)
    cyl = lift_cylinder(sigma, 1.0 / 3.0)
    form = bump_form([1.0, 0.0, 0.1], 0.4)
    assert vertical_term_vanishing(cyl, form) < 1e-12


def test_vertical_term_detects_vertical_boundary():
    # a boundary segment running straight up the t axis direction pairs
    # with theta at full strength, so the correction term integrates big
    def pos(tau):
        tau = np.asarray(tau, float)
        out = np.zeros(tau.shape + (3,))
        out[..., 0] = 0.2
        out[..., 1] = 0.3
        out[..., 2] = 0.25 + 0.3 * tau
        return out

    def vel(tau):
        tau = np.asarray(tau, float)
        out = np.zeros(tau.shape + (3,))
        out[..., 2] = 0.3
        return out

    vseg = HCurve(0.0, 1.0, pos, vel)
    sheet = _unit_sheet(boundary=((vseg, 1),))
    form = bump_form([0.2, 0.3, 0.25], 0.3)
    assert vertical_term_vanishing(sheet, form) > 1e-3


def test_level_queries_evaluate_only_the_tangents_they_read():
    S = vertical_halfplane()
    calls = dict.fromkeys(("position", "tangent_u", "tangent_v"), 0)
    (curve, motion), batches = S.sweep, []

    def counted(name):
        def call(u, v):
            calls[name] += 1
            return getattr(S, name)(u, v)
        return call

    def spied(f):
        def call(u):
            batches.append(np.array(u, dtype=float).ravel())
            return f(u)
        return call

    spied_curve = dataclasses.replace(curve, position=spied(curve.position), velocity=spied(curve.velocity))
    counted_S = dataclasses.replace(S, sweep=(spied_curve, motion), **{name: counted(name) for name in calls})
    c, r = np.array([0.0, 0.0, 1.5]), 0.2
    b = bump_field(c, r)
    res = integrate_surface(ThetaWedgeForm(b, b, support_ball=(c, r)), counted_S)
    assert (res.value, res.estimate) == (-0.025132741228718135, 2.3717505786458495e-15)
    assert res.stats["points"] == 2880 and res.stats["pieces"] == 3
    # the truncation edges, the levels, the inner intervals and the
    # integrand all read the swept curve, not these maps
    assert calls == {"position": 0, "tangent_u": 0, "tangent_v": 0}
    # and no batch handed to the curve repeats a parameter: the integrand
    # reads it once per outer node
    assert batches and all(len(np.unique(u)) == len(u) for u in batches)
    # a level asked for phi alone reads no velocity, and gives phi's bits
    edge = S.edge(1, 1.5, 1.0)
    read = []
    points = lambda u, owner, velocity: (edge.position(u), read.append(u) or edge.velocity(u) if velocity else None)
    jet = _ball_level(points, (1.0,), (c, r))[0]
    u = np.linspace(-0.3, 0.3, 7)
    alone = jet(u, 0, axes=())
    assert len(alone) == 1 and not read
    full = jet(u, 0)
    assert len(full) == 2 and len(read) == 1 and alone[0].tobytes() == full[0].tobytes()


@pytest.mark.parametrize("scene", ["halfplane", "sigma-cylinder", "band"])
def test_one_root_search_per_stokes_check(monkeypatch, scene):
    # the fold levels, the v-edges, the truncation line and the rims that
    # are v-edges are solved in one search, and each rim's roots are the
    # bits of its own search
    S, draw = _stokes_scene(scene)
    search, calls = quadrature.support_roots, []

    def spy(*args):
        calls.append(args)
        return search(*args)

    rng = np.random.default_rng(DEFAULT_SEED)
    for index in range(4):
        form = bump_form(draw(rng, index), rng.uniform(0.2, 0.6))
        with monkeypatch.context() as m:
            m.setattr(quadrature, "support_roots", spy)
            m.setattr(integrate, "support_roots", spy, raising=False)
            calls.clear()
            report = stokes_residual(S, form)
            assert len(calls) == 1
        alone = boundary_integral(form, S, flag_tol=STOKES_BUDGET, support_ball=form.support_ball)
        assert [report.rhs.value.hex(), report.rhs.estimate.hex()] == [alone.value.hex(), alone.estimate.hex()]
        assert dict(report.rhs.stats) == dict(alone.stats)
        sweep = _sweep(S, form.support_ball)
        for (rim, _), edge in zip(S.boundary, S.rim_edges):
            points = lambda x, owner, velocity: (rim.position(x), rim.velocity(x) if velocity else None)
            level = _ball_level(points, (rim.speed,), form.support_ball)
            (roots, faults), = quadrature.support_roots(level, rim.a, rim.b)
            shared_roots, shared_faults = sweep.lines[sweep.folds + edge]
            assert roots.tobytes() == shared_roots.tobytes() and faults == shared_faults
