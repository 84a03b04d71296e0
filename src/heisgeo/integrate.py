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

from .core import dot3
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
    "stokes_residuals",
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


def _ball_level(points, speeds, balls, per_ball=1):
    """The ball levels r^2 - |p - c|^2 along lines, (p, p') = `points(x, owner,
    velocity)`, |p'| <= `speeds[owner]`, each ball (c, r) on `per_ball` lines
    in turn.  Within h, |level'| <= 2 (|p - c| + speed h) speed; the ball is
    r / speed wide in parameters, and points rounded to eps (|c| + r) are
    seen at its scale r: noise = (|c| + r) / r.  It gives the level of all
    lines, with the largest noise, and that of each ball's lines alone.  Its
    sums over xyz are `dot3`'s, row by row: no bit depends on the batch."""
    center, radius = np.array([c for c, _ in balls], dtype=float), np.array([float(r) for _, r in balls])
    noise = [(np.linalg.norm(c) + r) / r for c, r in zip(center, radius)]
    center, radius = np.repeat(center, per_ball, axis=0), np.repeat(radius, per_ball)
    r2, speeds = radius * radius, np.asarray(speeds, dtype=float)
    scale = tuple(radius / speeds)

    def jet(x, owner, axes=(0,)):
        p, w = points(x, owner, bool(axes))
        d = p - center.take(owner, axis=0)
        return (r2[owner] - dot3(d, d), *(-2.0 * dot3(d, w) for _ in axes))

    def lip(level, h, owner):
        return 2.0 * (np.sqrt(np.maximum(r2[owner] - level, 0.0)) + speeds[owner] * h) * speeds[owner]

    own = [Level(lambda x, owner, axes=(0,), b=b: jet(x, owner + b, axes),
                 lambda phi, h, owner, b=b: lip(phi, h, owner + b), scale[b:b + per_ball], n)
           for b, n in zip(range(0, len(radius), per_ball), noise)]
    return Level(jet, lip, scale, max(noise)), own


def integrate_curve(form, curve: HCurve, flag_tol: float = FLAG_TOL,
                    support_ball=None, found=None) -> IntegralResult:
    """Integral of a degree-1 form over a curve, velocity pullback.

    Only the in-ball intervals are integrated when the form has a support
    ball and the curve a finite speed bound; else the uniform rule runs.
    `support_ball` defaults to the form's own; passing it lets a form
    wrapped in a plain callable keep its clipped rule.  `found` is the ball
    level's (roots, faults) when already solved.
    """
    ball = support_ball or getattr(form, "support_ball", None)
    f = lambda tau: form(curve.position(tau), curve.velocity(tau))
    if ball is None or not math.isfinite(curve.speed):
        res = integrate_1d(f, curve.a, curve.b)
    else:
        points = lambda x, owner, velocity: (curve.position(x), curve.velocity(x) if velocity else None)
        res = conforming_integrate_1d(f, _ball_level(points, (curve.speed,), [ball])[0], curve.a, curve.b, found)
    return _result(*res, flag_tol, res.stats)


def _surface_integrand(form, S: ParamSurface):
    """The form on S's tangent pair at (u[owner], v), read from the sweep:
    p = M_v(curve(u)), S_u = dM_v(curve'(u)) and S_v the motion's field at
    p.  The curve is read once per outer node u."""
    curve, motion = S.sweep

    def f(u, owner, v):
        p = motion.move(curve.position(u).take(owner, axis=0), v)
        return form(p, motion.push(curve.velocity(u).take(owner, axis=0), v), motion.field(p))

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


def _sweep(S: ParamSurface, balls) -> list:
    """The `Sweep` of each ball on a swept surface, S(u, v) = M_v(curve(u)),
    with all their lines in u solved in one search (none for no balls): the
    ball levels of S(u, v(u)), with S_u(u, v(u)) as velocity, reading the
    curve once per parameter.  Each keeps the bits of its ball's sweep alone.

    On a fold line v(u) is the point of v_dom nearest the orbit's top (its
    largest level) or, on a circle's second fold, its bottom.  So the first
    is the level's maximum over the orbit within v_dom; since the level is
    stationary in v there or held at an edge, S_u is its derivative (the
    envelope theorem), and the distance to either point moves at most by
    the motion's bound on |S_u|.  The v-edges and any other truncation line
    hold v constant.  It raises `ValueError` unless every ball stays off
    every truncation edge, naming the first edge that the first ball to
    reach one reaches: an orbit u = value has no positive interval, and on
    a line v = value the level has no root and is negative.
    """
    if not balls:
        return []
    curve, motion = S.sweep
    (v0, v1), period = S.v_dom, motion.period
    center, radius = np.array([c for c, _ in balls], dtype=float), np.array([float(r) for _, r in balls])
    shifts = (0.0,) + ((0.5 * period,) if period else ())
    edges = () if S.periodic[1] else S.v_dom
    values = edges + tuple(float(v) for axis, v in S.truncation_edges if axis == 1 and v not in edges)
    # per line of a ball: a fold's shift from the orbit's top, or a constant line's v
    at, folds, m = np.array(shifts + values), len(shifts), len(shifts + values)

    def top(mid, shift):
        if period is None:
            return np.clip(mid, v0, v1)
        # mid + shift lies at v0 + ahead; past v1 the nearer end is taken
        ahead = np.mod(mid + shift - v0, period)
        return np.where(ahead <= v1 - v0, v0 + ahead, np.where(ahead - (v1 - v0) < period - ahead, v1, v0))

    def points(u, owner, velocity):
        # lines share parameters, and the curve is read once at each
        x, at_x = np.unique(u, return_inverse=True)
        p = curve.position(x).take(at_x, axis=0)
        ball, line = np.divmod(owner, m)
        mid = motion.orbit(p, center.take(ball, axis=0), radius[ball])[0]
        v = np.where(line < folds, top(mid, at[line]), at[line])
        return motion.move(p, v), motion.push(curve.velocity(x).take(at_x, axis=0), v) if velocity else None

    def inner(c, r, u):
        return _orbit_intervals(*motion.orbit(curve.position(u), c, r), S.v_dom, period, S.periodic[1])

    speeds = [motion.push_bound(curve, S.v_dom)] * folds + [motion.push_bound(curve, (v,)) for v in values]
    level, own = _ball_level(points, speeds * len(balls), balls, m)
    lines = support_roots(level, *S.u_dom)
    sweeps = [Sweep(own[k], folds, S.u_dom, lines[k * m:(k + 1) * m],
                    lambda u, c=center[k], r=radius[k]: inner(c, r, u)) for k in range(len(balls))]
    # each truncation edge is checked for every ball at once, a ball's in a row
    reaches = np.zeros((len(balls), len(S.truncation_edges)), dtype=bool)
    for j, (axis, value) in enumerate(S.truncation_edges):
        if axis == 0:
            reaches[inner(center, radius, np.array([float(value)]))[0], j] = True
        else:
            k = np.arange(len(balls)) * m + folds + values.index(float(value))
            end = level.jet(np.full(len(balls), S.u_dom[0]), k, axes=())[0]
            reaches[:, j] = [bool(lines[i][1]) or len(lines[i][0]) > 0 for i in k] | ~(end < 0.0)
    if reaches.any():
        axis, value = S.truncation_edges[np.nonzero(reaches)[1][0]]
        raise ValueError(f"support ball reaches the truncation edge {'uv'[axis]} = {value:g}")
    return sweeps


def integrate_surface(form, S: ParamSurface, flag_tol: float = FLAG_TOL) -> IntegralResult:
    """Integral of a degree-2 form over a surface, tangent-pair pullback.

    The conforming rule integrates over the preimage of the form's support
    ball only, orbit by orbit of the surface's sweep, and the integrand
    reads that sweep too, not the surface's maps.  Without a ball, on a
    surface without a sweep or whose swept curve has no finite speed bound,
    or on a truncated surface with the ball reaching a truncation edge, it
    raises `ValueError`.
    """
    return _surface_sides([form], S, flag_tol)[0][0]


def _surface_sides(forms, S: ParamSurface, flag_tol: float) -> list:
    """`integrate_surface` of each form, with the `_sweep` that it solved:
    one search for all, after checking every ball and the surface."""
    balls = [getattr(form, "support_ball", None) for form in forms]
    if forms and (None in balls or S.sweep is None or not math.isfinite(S.sweep[0].speed)):
        raise ValueError("a surface integral needs a form with a support ball, and a swept surface "
                         "with a speed bound")
    sweeps = _sweep(S, balls)
    rules = [conforming_integrate_2d(_surface_integrand(form, S), sweep) for form, sweep in zip(forms, sweeps)]
    return [(_result(*res, flag_tol, res.stats), sweep) for res, sweep in zip(rules, sweeps)]


def boundary_integral(form, S: ParamSurface, flag_tol: float = FLAG_TOL,
                      support_ball=None, sweep=None) -> IntegralResult:
    """Sum of oriented boundary component integrals of a degree-1 form.

    `support_ball` is handed to `integrate_curve` for every rim; `sweep`,
    the `_sweep` of that ball, gives each v-edge rim (`rim_edges`) its roots.
    """
    if S.boundary is None:
        raise ValueError("surface carries no boundary data")
    total = 0.0
    estimate = 0.0
    flagged = False
    stats = {}
    parts = [integrate_curve(form, curve, flag_tol, support_ball,
                             None if sweep is None or edge is None else sweep.lines[sweep.folds + edge])
             for (curve, _), edge in zip(S.boundary, S.rim_edges or (None,) * len(S.boundary))]
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
    """The Stokes check of one form: `stokes_residuals(S, [form], flag_tol)[0]`."""
    return stokes_residuals(S, [form], flag_tol)[0]


def stokes_residuals(S: ParamSurface, forms, flag_tol: float = STOKES_BUDGET) -> list:
    """Compare the two sides of the Stokes identity for the middle operator, per form.

    The surface side integrates the second order differential of a form,
    the boundary side the form itself over the oriented boundary; the
    residual is their difference.  Both sides flag against `flag_tol`, by
    default STOKES_BUDGET, the error budget of the verification, rather than
    the strict FLAG_TOL used for standalone integrals.  One `_sweep` solves
    the lines of every form, the rims that are v-edges included, and each
    report keeps the bits of its form's check alone.
    """
    sides = _surface_sides([middle_differential(form) for form in forms], S, flag_tol)
    rhs = [boundary_integral(form, S, flag_tol, form.support_ball, sweep) for form, (_, sweep) in zip(forms, sides)]
    return [StokesReport(lhs, r, abs(lhs.value - r.value)) for (lhs, _), r in zip(sides, rhs)]


def vertical_term_vanishing(S: ParamSurface, form: HorizontalForm) -> float:
    """|boundary integral of the vertical correction of `form`|.

    Vanishes when every boundary component is horizontal, since the
    correction is a theta multiple and theta annihilates horizontal
    velocities; a non-horizontal boundary makes it generically nonzero.
    """
    upsilon = vertical_correction(form)
    return abs(boundary_integral(upsilon, S).value)
