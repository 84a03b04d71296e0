"""Pullback integration of forms over curves and surfaces, and the Stokes check.

Degree-1 forms integrate over curves by pairing with the velocity, degree-2
forms over surfaces by pairing with the two coordinate tangents; the
boundary integral adds oriented components with the constructor-recorded
signs.  The Stokes verifier compares the surface integral of the second
order differential of a test form against the boundary integral of the
form itself, each side carrying its own quadrature error estimate.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .curves import HCurve
from .forms import (
    HorizontalForm,
    horizontal_differential,
    middle_differential,
    vertical_correction,
)
from .quadrature import adaptive_integrate_2d, integrate_1d
from .surfaces import ParamSurface

__all__ = [
    "IntegralResult",
    "StokesReport",
    "integrate_curve",
    "integrate_surface",
    "boundary_integral",
    "stokes_residual",
    "stokes_residual_curve",
    "vertical_term_vanishing",
]

# an integral is flagged when its internal error estimate exceeds this
FLAG_TOL = 1e-8

# points per truncation edge at which the distance to a support ball is checked
EDGE_SAMPLES = 257


class IntegralResult(NamedTuple):
    """Value with its quadrature error estimate; flagged when untrustworthy.

    The estimate is the Richardson gap floored at the rounding bound
    50·eps·Σ|w·f| (see `heisgeo.quadrature`), so it is never exactly zero
    for an integrand that is nonzero at some node.  It is NaN when no half
    rule was run, and a NaN estimate is always flagged.
    """

    value: float
    estimate: float
    flagged: bool


class StokesReport(NamedTuple):
    lhs: IntegralResult
    rhs: IntegralResult
    residual: float


def _result(value: float, estimate: float, tol: float) -> IntegralResult:
    # not-<= instead of > so a NaN estimate counts as untrusted
    return IntegralResult(float(value), float(estimate), not (estimate <= tol))


def integrate_curve(form, curve: HCurve, flag_tol: float = FLAG_TOL) -> IntegralResult:
    """Integral of a degree-1 form over a curve, velocity pullback."""
    value, estimate = integrate_1d(
        lambda tau: form(curve.position(tau), curve.velocity(tau)), curve.a, curve.b
    )
    return _result(value, estimate, flag_tol)


def _surface_integrand(form, S: ParamSurface):
    def f(u, v):
        p = S.position(u, v)
        return form(p, S.tangent_u(u, v), S.tangent_v(u, v))

    return f


def _support_feature(form, S: ParamSurface):
    """Pullback of the support sphere as a sign-change indicator, if known.

    Returns (feature, feature_scale) or (None, None).  The scale converts
    the bump radius into a parameter-space length via the largest sampled
    tangent speed, so forced splits stop once panels are much smaller than
    the support layer.
    """
    ball = getattr(form, "support_ball", None)
    if ball is None:
        return None, None
    center, radius = ball
    center = np.asarray(center, dtype=float)

    def feature(u, v):
        d = S.position(u, v) - center
        return radius * radius - (d * d).sum(axis=-1)

    u = np.linspace(S.u_dom[0], S.u_dom[1], 17)
    v = np.linspace(S.v_dom[0], S.v_dom[1], 17)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    speed = max(
        float(np.linalg.norm(S.tangent_u(uu, vv), axis=-1).max()),
        float(np.linalg.norm(S.tangent_v(uu, vv), axis=-1).max()),
        1e-12,
    )
    return feature, radius / (16.0 * speed)


def _check_truncation_edges(form, S: ParamSurface) -> None:
    """Raise unless the form's support ball stays off every truncation edge.

    Each edge is sampled at EDGE_SAMPLES points.  Every point of the edge is
    within half a spacing of a sample in parameter, so within the largest
    sampled edge speed times that in space; the ball must clear every sample
    by this margin, which is exact on an affine edge.
    """
    ball = getattr(form, "support_ball", None)
    if ball is None:
        raise ValueError("truncated surface needs a form with a support ball")
    center, radius = ball
    for axis, value in S.truncation_edges:
        s = np.linspace(*(S.v_dom if axis == 0 else S.u_dom), EDGE_SAMPLES)
        fixed = np.full_like(s, value)
        u, v = (fixed, s) if axis == 0 else (s, fixed)
        dist = np.linalg.norm(S.position(u, v) - center, axis=-1)
        tangent = (S.tangent_v if axis == 0 else S.tangent_u)(u, v)
        margin = np.linalg.norm(tangent, axis=-1).max() * 0.5 * (s[1] - s[0])
        if not dist.min() - margin > radius:
            raise ValueError(
                f"support ball reaches the truncation edge {'uv'[axis]} = {value:g}")


def integrate_surface(
    form,
    S: ParamSurface,
    tol: float = 1e-7,
    flag_tol: float = FLAG_TOL,
) -> IntegralResult:
    """Integral of a degree-2 form over a surface, tangent-pair pullback.

    Runs quadtree refinement to the requested tolerance and, when the form
    advertises a support ball, forces refinement across the support sphere,
    whose thin high-curvature layer point samples otherwise miss.  On a
    truncated surface the support ball must stay off the truncation edges.
    """
    if not S.compact:
        _check_truncation_edges(form, S)
    feature, fscale = _support_feature(form, S)
    value, estimate = adaptive_integrate_2d(
        _surface_integrand(form, S), S.u_dom, S.v_dom, tol=tol,
        feature=feature, feature_scale=fscale,
    )
    return _result(value, estimate, flag_tol)


def boundary_integral(form, S: ParamSurface, flag_tol: float = FLAG_TOL) -> IntegralResult:
    """Sum of oriented boundary component integrals of a degree-1 form."""
    if S.boundary is None:
        raise ValueError("surface carries no boundary data")
    total = 0.0
    estimate = 0.0
    flagged = False
    for curve, orientation in S.boundary:
        part = integrate_curve(form, curve, flag_tol)
        total += orientation * part.value
        estimate += part.estimate
        flagged |= part.flagged
    return IntegralResult(float(total), float(estimate), flagged)


def stokes_residual(S: ParamSurface, form: HorizontalForm, flag_tol: float = 2e-7) -> StokesReport:
    """Compare the two sides of the Stokes identity for the middle operator.

    The surface side integrates the second order differential of `form`
    adaptively (its integrand concentrates on thin shells of the form's
    support); the boundary side integrates `form` itself over the oriented
    boundary.  Residual is the absolute difference.  Both sides flag
    against `flag_tol`, the error budget of the verification, rather than
    the strict default used for standalone integrals; estimates hovering
    near the refinement tolerance are expected here, not suspect.
    """
    two_form = middle_differential(form)
    lhs = integrate_surface(two_form, S, flag_tol=flag_tol)
    rhs = boundary_integral(form, S, flag_tol=flag_tol)
    return StokesReport(lhs, rhs, abs(lhs.value - rhs.value))


def stokes_residual_curve(curve: HCurve, f) -> float:
    """Residual of the degree-0 Stokes identity along one horizontal curve.

    The curve integral of the horizontal differential of f must equal the
    endpoint difference because the theta component of df pairs to zero
    with a horizontal velocity.
    """
    lhs = integrate_curve(horizontal_differential(f), curve)
    ends = f(curve.position(curve.b)) - f(curve.position(curve.a))
    return float(abs(lhs.value - float(ends)))


def vertical_term_vanishing(S: ParamSurface, form: HorizontalForm) -> float:
    """|boundary integral of the vertical correction of `form`|.

    Vanishes when every boundary component is horizontal, since the
    correction is a theta multiple and theta annihilates horizontal
    velocities; a non-horizontal boundary makes it generically nonzero.
    """
    upsilon = vertical_correction(form)
    return abs(boundary_integral(upsilon, S).value)
