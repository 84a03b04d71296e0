"""Tracing the characteristic foliation of a surface and detecting periodicity.

A leaf is an integral curve of the parameter-space field
(theta(S_v), -theta(S_u)) normalized by the ambient frame length of the
corresponding tangent vector, so the independent variable of the ODE is
frame arclength in the group.  The surfaces' pairing helper, one
characteristic margin and one direction helper make the leaf's
right-hand side and its guard; they work on components, so single points
run on Python floats and batches on arrays.  The leaf is stepped on the
two floats (u, v) by `_dop853`, scipy's DOP853 tableau under scipy's step
control, and each step's dense interpolant is kept in arrays that the
polyline and `FoliationTrace.at` read in one vectorized pass.  The trace
keeps the periodic coordinates unwrapped.  Returns to the sections through
the start point are events located on the dense output of the step that
crosses them; winding numbers are read off by counting period multiples at
those returns, never by re-wrapping.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import frame_length, theta_of
from .surfaces import ParamSurface, _pairings

__all__ = [
    "FoliationTrace",
    "trace_foliation",
    "detect_period",
]

RTOL = 1e-11
ATOL = 1e-13

# a point counts as characteristic when the theta pairings of both tangents
# are at most this times the local tangent scale
CHARACTERISTIC_RTOL = 1e-6

# scipy's step control: the safety factor, the bounds on one step's change
# of size, and the exponent -1/(7 + 1) of DOP853's seventh-order estimate
SAFETY, MIN_FACTOR, MAX_FACTOR, ERROR_EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0
# absolute and relative tolerance of an event's root
EVENT_XTOL = 4.0 * float(np.finfo(float).eps)


def _nested(coeffs, x):
    """DOP853's dense-output polynomial of x in [0, 1] from its 7
    coefficients, nested as scipy nests it: from the last coefficient on,
    each partial sum is multiplied alternately by x and by 1 - x."""
    y = 0.0
    for k, c in enumerate(reversed(coeffs)):
        y = (y + c) * (x if k % 2 == 0 else 1.0 - x)
    return y


class _Dense(NamedTuple):
    """Dense output of n steps: step i runs from breaks[i] (the last break
    may be a guard root inside the last step) with length h[i], and is
    start[i] + `_nested`(coeffs[i], x) at x = (s - breaks[i]) / h[i]."""

    breaks: np.ndarray  # (n + 1,)
    h: np.ndarray  # (n,)
    start: np.ndarray  # (n, 2)
    coeffs: np.ndarray  # (n, 7, 2)

    def __call__(self, s):
        """(u, v) at arclength s: (2,) for a scalar s, (2, m) for m values."""
        s = np.asarray(s, dtype=float)
        i = np.clip(np.searchsorted(self.breaks, s, side="right") - 1, 0, self.h.size - 1)
        x = ((s - self.breaks[i]) / self.h[i])[..., None]
        return (self.start[i] + _nested(np.moveaxis(self.coeffs[i], -2, 0), x)).T


@dataclass(frozen=True)
class FoliationTrace:
    """One traced leaf: unwrapped parameter samples plus ambient points.

    `truncated` reports an abort near a characteristic point.  `step_stats`
    holds the solver's accepted `steps`, its RHS calls `nfev` and the step
    attempts that its error control `rejected`.  `returns` maps each
    periodic axis to the solver's section events on it: the arclengths (n,)
    and the unwrapped (u, v) (n, 2) where that coordinate equals its start
    value modulo its period, the start itself included at s = 0.  Whether
    and how the leaf closes is `detect_period`'s verdict.  The steps' dense
    output serves `at`.
    """

    surface: ParamSurface
    uv: np.ndarray
    points: np.ndarray
    arclength: float
    truncated: bool
    step_stats: dict
    returns: dict
    _dense: _Dense

    def at(self, s):
        """Unwrapped (u, v) at frame arclength s from the dense solution."""
        return self._dense(s)


def _axis_period(S: ParamSurface, axis: int) -> float:
    dom = S.u_dom if axis == 0 else S.v_dom
    return dom[1] - dom[0]


def _margin(p, su, sv, tu, tv):
    """Pairing norm minus the characteristic threshold at one point; <= 0 marks a characteristic point."""
    scale = max(frame_length(su[0], su[1], tu), frame_length(sv[0], sv[1], tv))
    return math.hypot(tu, tv) - CHARACTERISTIC_RTOL * scale


def _direction(p, su, sv, tu, tv):
    """(theta(S_v), -theta(S_u)) over the frame length of W = theta(S_v) S_u - theta(S_u) S_v."""
    w = [tv * a - tu * b for a, b in zip(su, sv)]
    wlen = frame_length(w[0], w[1], theta_of(p[0], p[1], *w))
    return tv / wlen, -tu / wlen


@functools.cache
def _tableau():
    """DOP853's rows as (index, value) pairs of their nonzero entries: the
    rows of stages 1 to 11 and B, which make stages 1 to 12 (stage 12 is
    the RHS at the step's end), the error rows E5 and E3, the rows of the
    three dense-output stages and the rows of D."""
    from scipy.integrate import DOP853 as M

    def pairs(rows):
        return [[(j, a) for j, a in enumerate(row) if a] for row in np.atleast_2d(rows).tolist()]

    return pairs(np.vstack([M.A[1:], M.B])), *pairs([M.E5, M.E3]), pairs(M.A_EXTRA), pairs(M.D)


def _combine(row, ku, kv):
    """sum_j a_j k_j over one tableau row, for each component."""
    du = dv = 0.0
    for j, a in row:
        du += a * ku[j]
        dv += a * kv[j]
    return du, dv


def _first_step(rhs, u, v, fu, fv, s_end):
    """scipy's `select_initial_step` for DOP853's seventh-order error estimate."""
    scale = ATOL + abs(u) * RTOL, ATOL + abs(v) * RTOL
    rms = lambda a, b: math.hypot(a / scale[0], b / scale[1]) / math.sqrt(2.0)
    d0, d1 = rms(u, v), rms(fu, fv)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, s_end)
    gu, gv = rhs(u + h0 * fu, v + h0 * fv)
    d2 = rms(gu - fu, gv - fv) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** -ERROR_EXPONENT
    return min(100.0 * h0, h1, s_end)


def _dop853(rhs, u, v, s_end, guard, sections):
    """Integrate (u, v)' = rhs(u, v) from s = 0 to s_end at RTOL and ATOL.

    A step is accepted when the err5/err3 norm of its error estimate is
    below 1; the next one is the last one times SAFETY * norm^(-1/8),
    within [MIN_FACTOR, MAX_FACTOR] and not grown right after a rejection.
    After each accepted step, every event g(u, v) whose sign changed (0
    counts as either sign) is located by brentq on the step's dense output.
    The guard is terminal: the trace ends at its first root, and only the
    section roots up to it count.  Returns the dense output, whether the
    guard fired, each section's (arclengths (n,), states (n, 2)) and the
    step statistics.
    """
    from scipy.optimize import brentq

    stage_rows, e5_row, e3_row, extra_rows, d_rows = _tableau()

    def add_stages(rows, h, ku, kv):
        # append the stages that `rows` make from the current (u, v) and ku, kv;
        # returns the point of the last one
        for row in rows:
            du, dv = _combine(row, ku, kv)
            k = rhs(u + du * h, v + dv * h)
            ku.append(k[0])
            kv.append(k[1])
        return u + du * h, v + dv * h

    fu, fv = rhs(u, v)
    h_abs = _first_step(rhs, u, v, fu, fv, s_end)
    nfev, rejected, truncated = 2, 0, False
    events = [guard, *sections]
    g = [event(u, v) for event in events]
    found = [[] for _ in sections]
    s, breaks, steps = 0.0, [0.0], []
    while s < s_end and not truncated:
        min_step = 10.0 * (math.nextafter(s, math.inf) - s)
        h_abs, retry = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise RuntimeError("foliation integration failed: the step size fell below float spacing")
            s_new = min(s + h_abs, s_end)
            h = s_new - s
            ku, kv = [fu], [fv]
            u_new, v_new = add_stages(stage_rows, h, ku, kv)
            nfev += 12
            su, sv = ATOL + max(abs(u), abs(u_new)) * RTOL, ATOL + max(abs(v), abs(v_new)) * RTOL
            (e5u, e5v), (e3u, e3v) = _combine(e5_row, ku, kv), _combine(e3_row, ku, kv)
            e5, e3 = (e5u / su) ** 2 + (e5v / sv) ** 2, (e3u / su) ** 2 + (e3v / sv) ** 2
            norm = h * e5 / math.sqrt((e5 + 0.01 * e3) * 2.0) if e5 or e3 else 0.0
            if norm < 1.0:
                break
            h_abs, retry, rejected = h * max(MIN_FACTOR, SAFETY * norm ** ERROR_EXPONENT), True, rejected + 1
        factor = min(MAX_FACTOR, SAFETY * norm ** ERROR_EXPONENT) if norm else MAX_FACTOR
        h_abs = h * (min(1.0, factor) if retry else factor)

        add_stages(extra_rows, h, ku, kv)
        nfev += 3
        du, dv = u_new - u, v_new - v
        poly = [(du, dv), (h * fu - du, h * fv - dv),
                (2.0 * du - h * (ku[12] + fu), 2.0 * dv - h * (kv[12] + fv))]
        poly += [(h * a, h * b) for a, b in (_combine(row, ku, kv) for row in d_rows)]
        poly_u, poly_v = zip(*poly)

        def at(t):
            x = (t - s) / h
            return u + _nested(poly_u, x), v + _nested(poly_v, x)

        g_new = [event(u_new, v_new) for event in events]
        roots = {i: brentq(lambda t: events[i](*at(t)), s, s_new, xtol=EVENT_XTOL, rtol=EVENT_XTOL)
                 for i, (a, b) in enumerate(zip(g, g_new)) if a <= 0.0 <= b or a >= 0.0 >= b}
        truncated, end = 0 in roots, roots.get(0, s_new)
        for i, root in roots.items():
            if i and root <= end:
                found[i - 1].append((root, *at(root)))
        breaks.append(end)
        steps.append((h, (u, v), poly))
        s, u, v, fu, fv, g = s_new, u_new, v_new, ku[12], kv[12], g_new

    dense = _Dense(np.array(breaks), *map(np.array, zip(*steps)))
    found = [np.array(f, dtype=float).reshape(-1, 3) for f in found]
    return dense, truncated, [(f[:, 0], f[:, 1:]) for f in found], {
        "steps": len(steps), "nfev": nfev, "rejected": rejected}


def trace_foliation(
    S: ParamSurface,
    start,
    arclen: float,
    samples: int = 2048,
) -> FoliationTrace:
    """Integrate one leaf of the characteristic foliation from `start`.

    The direction sign is fixed once per trace so the initial v-component is
    nonnegative (ties broken toward nonnegative u).  Integration runs the
    explicit Runge-Kutta 8(5,3) pair of Dormand and Prince (DOP853, Hairer,
    Norsett & Wanner, Solving ODEs I, II.4-II.6) over frame arclength, in
    `_dop853` on the two floats (u, v): the tableau is read from scipy's
    `DOP853` class and the step sizes are left to scipy's error control.
    It stops early, flagging truncation, if the theta pairing norm falls to
    CHARACTERISTIC_RTOL times the local tangent scale, the numerical
    vicinity of a characteristic point.  Each periodic axis k carries one
    more, non-terminal event, sin(pi (y_k - y_k(0)) / P_k), which vanishes
    where the leaf meets the section through the start.  All events are
    checked at the end of every accepted step, and a sign change is located
    by brentq (xtol = rtol = 4 eps) on that step's dense output (ibid.,
    II.6), with no right-hand side call.  The start, where every section
    event is exactly 0, is the first return on each axis.
    """
    if not arclen > 0:
        raise ValueError("arclen must be positive")
    u0, v0 = float(start[0]), float(start[1])

    pairs = _pairings(S, u0, v0)
    if _margin(*pairs) <= 0.0:
        raise ValueError("start point is characteristic")
    tu, tv = pairs[3:]
    sign = 1.0
    if -tu < 0.0 or (-tu == 0.0 and tv < 0.0):
        sign = -1.0

    def rhs(u, v):
        du, dv = _direction(*_pairings(S, u, v))
        return sign * du, sign * dv

    def near_characteristic(u, v):
        return _margin(*_pairings(S, u, v))

    def section(axis):
        start, period = (u0, v0)[axis], _axis_period(S, axis)
        return lambda *y: math.sin(math.pi * (y[axis] - start) / period)

    axes = [axis for axis in range(2) if S.periodic[axis]]
    dense, truncated, found, stats = _dop853(
        rhs, u0, v0, float(arclen), near_characteristic, [section(axis) for axis in axes])
    s_end = float(dense.breaks[-1])
    uv = dense(np.linspace(0.0, s_end, samples)).T
    pts = S.position(uv[:, 0], uv[:, 1])

    return FoliationTrace(
        surface=S,
        uv=uv,
        points=pts,
        arclength=s_end,
        truncated=truncated,
        step_stats=stats,
        returns=dict(zip(axes, found)),
        _dense=dense,
    )


def detect_period(trace: FoliationTrace, axis: int = 0, close_tol: float = 1e-6):
    """Poincare return analysis on the section through the start point.

    The section is {coordinate[axis] = the start's coordinate}.  Its
    crossings (modulo the axis period) are the leaf solver's own section
    events, stored on the trace; nothing is resampled or re-solved here.
    Returns are compared with the start modulo the surface periods; the
    first return within `close_tol` decides periodicity and its per axis
    period counts are the winding pair.  If no return closes, the best
    (smallest residual) return is reported instead.  A trace that never
    returns to the section raises.
    """
    S = trace.surface
    if not S.periodic[axis]:
        raise ValueError("section axis must be periodic to talk about returns")
    s, uv = trace.returns[axis]
    # the solver reports the start itself, where the section event is exactly 0
    later = s > 1e-8
    if not later.any():
        raise ValueError("trace does not return to the section")
    gaps = uv[later] - trace.uv[0]
    winds = np.zeros_like(gaps)
    for ax in range(2):
        if S.periodic[ax]:
            period = _axis_period(S, ax)
            winds[:, ax] = np.rint(gaps[:, ax] / period)
            gaps[:, ax] -= period * winds[:, ax]
    residual = np.hypot(gaps[:, 0], gaps[:, 1])
    closed = np.flatnonzero(residual <= close_tol)
    i = closed[0] if closed.size else np.argmin(residual)
    return float(residual[i]), (abs(int(winds[i, 0])), abs(int(winds[i, 1])))
