"""Pullback integration of forms over curves and surfaces, and the Stokes check.

Degree-1 forms integrate over curves by pairing with the velocity, degree-2
forms over surfaces by pairing with the two coordinate tangents; the
boundary integral adds oriented components with the constructor-recorded
signs.  The Stokes verifier compares the surface integral of the second
order differential of a test form against the boundary integral of the
form itself, each side carrying its own quadrature error estimate.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .curves import HCurve
from .forms import (
    HorizontalForm,
    middle_differential,
    vertical_correction,
)
from .quadrature import Level, Sweep, conforming_integrate_1d, conforming_integrate_2d, integrate_1d, support_roots
from .surfaces import ParamSurface

__all__ = [
    "IntegralResult",
    "StokesReport",
    "integrate_curve",
    "integrate_surface",
    "boundary_integral",
    "stokes_residual",
    "vertical_term_vanishing",
]

# an integral is flagged when its internal error estimate exceeds this
FLAG_TOL = 1e-8
# error budget of a Stokes verification: each side flags against it, and a
# run trusts the pair while their combined estimate stays within it
STOKES_BUDGET = 2e-7


class IntegralResult(NamedTuple):
    """Value with its quadrature error estimate; flagged when untrustworthy.

    The estimate is the Richardson gap floored at the rounding bound
    50·eps·Σ|w·f| (see `heisgeo.quadrature`), so it is never exactly zero
    for an integrand that is nonzero at some node.  It is NaN after a NaN
    sample or a conforming-rule fault, and a NaN estimate is always
    flagged.  `stats` say what the rule did (see `RuleResult`).
    """

    value: float
    estimate: float
    flagged: bool
    stats: Mapping = MappingProxyType({})


class StokesReport(NamedTuple):
    lhs: IntegralResult
    rhs: IntegralResult
    residual: float


def _result(value: float, estimate: float, tol: float, stats=MappingProxyType({})) -> IntegralResult:
    # not-<= instead of > so a NaN estimate counts as untrusted
    flagged = not (estimate <= tol)
    return IntegralResult(float(value), float(estimate), flagged, MappingProxyType(dict(stats)))


def _ball_level(position, velocity, speed, ball) -> Level:
    """The level r^2 - |p - c|^2 of a ball along a curve with this velocity.
    Within h, |level'| <= 2 (|p - c| + speed h) speed; the ball is r / speed
    wide in parameters, and points rounded to eps (|c| + r) are seen at its
    scale r: noise = (|c| + r) / r."""
    center, radius = np.asarray(ball[0], dtype=float), float(ball[1])
    r2 = radius * radius

    def jet(x, axes=(0,)):
        d = position(x) - center
        return (r2 - (d * d).sum(axis=-1), *(-2.0 * (d * velocity(x)).sum(axis=-1) for _ in axes))

    def lip(level, h):
        return 2.0 * (np.sqrt(np.maximum(r2 - level, 0.0)) + speed * h) * speed

    return Level(jet, lip, radius / speed, (np.linalg.norm(center) + radius) / radius)


def integrate_curve(form, curve: HCurve, flag_tol: float = FLAG_TOL,
                    support_ball=None) -> IntegralResult:
    """Integral of a degree-1 form over a curve, velocity pullback.

    Only the in-ball intervals are integrated when the form has a support
    ball and the curve a finite speed bound; else the uniform rule runs.
    `support_ball` defaults to the form's own; passing it lets a form
    wrapped in a plain callable keep its clipped rule.
    """
    ball = support_ball or getattr(form, "support_ball", None)
    f = lambda tau: form(curve.position(tau), curve.velocity(tau))
    if ball is None or not math.isfinite(curve.speed):
        res = integrate_1d(f, curve.a, curve.b)
    else:
        level = _ball_level(curve.position, curve.velocity, curve.speed, ball)
        res = conforming_integrate_1d(f, level, curve.a, curve.b)
    return _result(*res, flag_tol, res.stats)


def _surface_integrand(form, S: ParamSurface):
    """The form on S's tangent pair at (u[owner], v), read from the sweep:
    p = M_v(curve(u)), S_u = dM_v(curve'(u)) and S_v the motion's field at
    p.  The curve is read once per outer node u."""
    curve, motion = S.sweep

    def f(u, owner, v):
        p = motion.move(curve.position(u)[owner], v)
        return form(p, motion.push(curve.velocity(u)[owner], v), motion.field(p))

    return f


def _orbit_intervals(mid, half, v_dom, period, periodic):
    """(owner, a, b) of the sets |v - mid| < half within v_dom, one set per
    orbit.  A line clips its set to v_dom.  A circle's whole orbit is
    v_dom; a shorter arc stays as it is when v is periodic, and is wrapped
    into [v0, v0 + period) and clipped otherwise, which can split it."""
    (v0, v1), n = v_dom, len(mid)
    owner = np.arange(n)
    if period is None:
        lo, hi = np.maximum(mid - half, v0), np.minimum(mid + half, v1)
    elif periodic:
        whole = 2.0 * half >= period
        lo, hi = np.where(whole, v0, mid - half), np.where(whole, v1, mid + half)
    else:
        # a whole orbit gives (v0, v1) and an empty second interval
        whole = 2.0 * half >= period
        start = np.where(whole, v1, v0 + np.mod(mid - half - v0, period))
        end = np.where(whole, v1 + period, start + 2.0 * half)
        owner, lo = np.repeat(owner, 2), np.stack((np.full(n, v0), start), axis=-1).ravel()
        hi = np.minimum(np.stack((end - period, end), axis=-1).ravel(), v1)
    keep = lo < hi
    return owner[keep], lo[keep], hi[keep]


def _sweep(S: ParamSurface, ball) -> Sweep:
    """The ball's level on a swept surface, S(u, v) = M_v(curve(u)).

    The fold levels are the ball levels of S(u, v(u)), with S_u(u, v(u)) as
    velocity, where v(u) is the point of v_dom nearest the orbit's top
    (its largest level) and, on a circle, also the one nearest its bottom.
    So the first is the level's maximum over the orbit within v_dom; since
    the level is stationary in v there or held at an edge, S_u is the fold
    level's derivative (the envelope theorem), and the distance to either
    point moves at most by the motion's bound on |S_u|.  The edge levels
    take v(u) constant.  It raises `ValueError` unless the ball stays off
    every truncation edge: an orbit u = value has no positive interval, and
    on a line v = value the level has no root and is negative.
    """
    curve, motion = S.sweep
    (v0, v1), period = S.v_dom, motion.period
    center, radius = np.asarray(ball[0], dtype=float), float(ball[1])

    def level(v, v_dom):
        return _ball_level(lambda u: motion.move(curve.position(u), v(u)),
                           lambda u: motion.push(curve.velocity(u), v(u)), motion.push_bound(curve, v_dom), ball)

    def edge(v):
        return level(lambda u: np.broadcast_to(v, np.shape(u)), (v,))

    def top(shift):
        def v(u):
            mid = motion.orbit(curve.position(u), center, radius)[0]
            if period is None:
                return np.clip(mid, v0, v1)
            # mid + shift lies at v0 + ahead; past v1 the nearer end is taken
            ahead = np.mod(mid + shift - v0, period)
            return np.where(ahead <= v1 - v0, v0 + ahead, np.where(ahead - (v1 - v0) < period - ahead, v1, v0))

        return level(v, S.v_dom)

    def inner(u):
        return _orbit_intervals(*motion.orbit(curve.position(u), center, radius), S.v_dom, period, S.periodic[1])

    for axis, value in S.truncation_edges:
        if axis == 0:
            reaches = len(inner(np.array([float(value)]))[0])
        else:
            line = edge(value)
            roots, fault = support_roots(line, *S.u_dom)
            reaches = fault or len(roots) or not line.jet(np.array(S.u_dom[0]), axes=())[0] < 0.0
        if reaches:
            raise ValueError(f"support ball reaches the truncation edge {'uv'[axis]} = {value:g}")
    folds = (top(0.0),) + ((top(0.5 * period),) if period else ())
    return Sweep(folds, () if S.periodic[1] else tuple(map(edge, S.v_dom)), inner)


def integrate_surface(form, S: ParamSurface, flag_tol: float = FLAG_TOL) -> IntegralResult:
    """Integral of a degree-2 form over a surface, tangent-pair pullback.

    The conforming rule integrates over the preimage of the form's support
    ball only, orbit by orbit of the surface's sweep, and the integrand
    reads that sweep too, not the surface's maps.  Without a ball, on a
    surface without a sweep or whose swept curve has no finite speed bound,
    or on a truncated surface with the ball reaching a truncation edge, it
    raises `ValueError`.
    """
    ball = getattr(form, "support_ball", None)
    if ball is None or S.sweep is None or not math.isfinite(S.sweep[0].speed):
        raise ValueError("a surface integral needs a form with a support ball, and a swept surface "
                         "with a speed bound")
    res = conforming_integrate_2d(_surface_integrand(form, S), _sweep(S, ball), S.u_dom)
    return _result(*res, flag_tol, res.stats)


def boundary_integral(form, S: ParamSurface, flag_tol: float = FLAG_TOL,
                      support_ball=None) -> IntegralResult:
    """Sum of oriented boundary component integrals of a degree-1 form.

    `support_ball` is handed to `integrate_curve` for every rim.
    """
    if S.boundary is None:
        raise ValueError("surface carries no boundary data")
    total = 0.0
    estimate = 0.0
    flagged = False
    stats = {}
    parts = [integrate_curve(form, curve, flag_tol, support_ball) for curve, _ in S.boundary]
    for part, (_, orientation) in zip(parts, S.boundary):
        total += orientation * part.value
        estimate += part.estimate
        flagged |= part.flagged
        for key, value in part.stats.items():
            if key == "rule":
                stats[key] = value if stats.get(key, value) == value else "mixed"
            elif key == "faults":
                stats[key] = sorted(set(stats.get(key, ())) | set(value))
            elif key != "miss":
                stats[key] = stats.get(key, 0) + value
    # the sum is a proved miss only when every part is
    if parts and all(part.stats.get("miss") for part in parts):
        stats["miss"] = "proved"
    return IntegralResult(float(total), float(estimate), flagged, MappingProxyType(stats))


def stokes_residual(S: ParamSurface, form: HorizontalForm, flag_tol: float = STOKES_BUDGET) -> StokesReport:
    """Compare the two sides of the Stokes identity for the middle operator.

    The surface side integrates the second order differential of `form`,
    the boundary side `form` itself over the oriented boundary; the
    residual is their difference.  Both sides flag against `flag_tol`, by
    default STOKES_BUDGET, the error budget of the verification, rather than
    the strict FLAG_TOL used for standalone integrals.
    """
    two_form = middle_differential(form)
    lhs = integrate_surface(two_form, S, flag_tol=flag_tol)
    rhs = boundary_integral(form, S, flag_tol=flag_tol, support_ball=form.support_ball)
    return StokesReport(lhs, rhs, abs(lhs.value - rhs.value))


def vertical_term_vanishing(S: ParamSurface, form: HorizontalForm) -> float:
    """|boundary integral of the vertical correction of `form`|.

    Vanishes when every boundary component is horizontal, since the
    correction is a theta multiple and theta annihilates horizontal
    velocities; a non-horizontal boundary makes it generically nonzero.
    """
    upsilon = vertical_correction(form)
    return abs(boundary_integral(upsilon, S).value)
