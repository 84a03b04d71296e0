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
from .quadrature import conforming_integrate_1d, conforming_integrate_2d, integrate_1d, support_roots
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


def _ball_level(position, tangents, speed, ball):
    """(jet, lip, scale, noise) of the level r^2 - |p - c|^2 along a map.
    jet(*x, axes) is the level and its derivatives along the tangents in
    `axes` (default all); with axes=() only the position is evaluated.
    Within h, |grad| <= 2 (|p - c| + speed h) speed; points rounded to
    eps (|c| + r) are seen at the ball's scale r: noise = (|c| + r) / r."""
    center, radius = np.asarray(ball[0], dtype=float), float(ball[1])
    r2 = radius * radius

    def jet(*x, axes=tuple(range(len(tangents)))):
        d = position(*x) - center
        return (r2 - (d * d).sum(axis=-1),
                *(-2.0 * (d * tangents[k](*x)).sum(axis=-1) for k in axes))

    def lip(level, h):
        return 2.0 * (np.sqrt(np.maximum(r2 - level, 0.0)) + speed * h) * speed

    return jet, lip, radius / speed, (np.linalg.norm(center) + radius) / radius


def _rectangle_level(u_dom, v_dom):
    """(jet, lip, scale, noise) of the level 1 on a whole rectangle, jet as
    `_ball_level`'s: it has no roots, so the conforming rule makes one piece."""
    def jet(u, v, axes=(0, 1)):
        one = np.ones(np.broadcast(u, v).shape)
        return (one, *(0.0 * one for _ in axes))

    return jet, lambda level, h: 0.0, math.hypot(u_dom[1] - u_dom[0], v_dom[1] - v_dom[0]), 1.0


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
        jet, lip, scale, noise = _ball_level(curve.position, (curve.velocity,), curve.speed, ball)
        res = conforming_integrate_1d(f, jet, lip, curve.a, curve.b, scale, noise)
    return _result(*res, flag_tol, res.stats)


def _surface_integrand(form, S: ParamSurface):
    def f(u, v):
        p = S.position(u, v)
        return form(p, S.tangent_u(u, v), S.tangent_v(u, v))

    return f


def _check_truncation_edges(ball, S: ParamSurface) -> None:
    """Raise unless the support ball stays off every truncation edge: the
    ball's level has no root on the edge, solved for as in the rule, and is
    negative there."""
    if ball is None or not math.isfinite(S.speed):
        raise ValueError("truncated surface needs a form with a support ball and a speed bound")
    for axis, value in S.truncation_edges:
        def at(s, axis=axis, value=value):
            return (np.full_like(s, value), s) if axis == 0 else (s, np.full_like(s, value))

        tangent = S.tangent_v if axis == 0 else S.tangent_u
        jet, lip, scale, _ = _ball_level(
            lambda s: S.position(*at(s)), (lambda s: tangent(*at(s)),), S.speed, ball)
        span = S.v_dom if axis == 0 else S.u_dom
        roots, fault = support_roots(jet, lip, *span, scale)
        if fault or len(roots) or not jet(np.array(span[0]), axes=())[0] < 0.0:
            raise ValueError(
                f"support ball reaches the truncation edge {'uv'[axis]} = {value:g}")


def integrate_surface(form, S: ParamSurface, flag_tol: float = FLAG_TOL) -> IntegralResult:
    """Integral of a degree-2 form over a surface, tangent-pair pullback.

    The conforming rule integrates a form with a support ball over the
    ball's preimage only, and any other form over the whole rectangle as
    one piece.  A support ball needs a finite speed bound of the surface,
    without which the pieces are not certified, and on a truncated surface
    it must stay off the truncation edges; else `ValueError`.
    """
    ball = getattr(form, "support_ball", None)
    if not S.compact:
        _check_truncation_edges(ball, S)
    if ball is None:
        level = _rectangle_level(S.u_dom, S.v_dom)
    elif math.isfinite(S.speed):
        level = _ball_level(S.position, (S.tangent_u, S.tangent_v), S.speed, ball)
    else:
        raise ValueError("a form with a support ball needs a speed bound of the surface")
    res = conforming_integrate_2d(_surface_integrand(form, S), *level[:2], S.u_dom, S.v_dom,
                                  *level[2:], S.periodic[1])
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
    for curve, orientation in S.boundary:
        part = integrate_curve(form, curve, flag_tol, support_ball)
        total += orientation * part.value
        estimate += part.estimate
        flagged |= part.flagged
        for key, count in part.stats.items():
            stats[key] = stats.get(key, 0) + count if key != "rule" else (
                count if stats.get(key, count) == count else "mixed")
    return IntegralResult(float(total), float(estimate), flagged, MappingProxyType(stats))


def stokes_residual(S: ParamSurface, form: HorizontalForm, flag_tol: float = 2e-7) -> StokesReport:
    """Compare the two sides of the Stokes identity for the middle operator.

    The surface side integrates the second order differential of `form`,
    the boundary side `form` itself over the oriented boundary; the
    residual is their difference.  Both sides flag against `flag_tol`, the
    error budget of the verification, rather than the strict default used
    for standalone integrals.
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
