"""Tracing the characteristic foliation of a surface and detecting periodicity.

A leaf is an integral curve of the parameter-space field
(theta(S_v), -theta(S_u)) normalized by the ambient frame length of the
corresponding tangent vector, so the independent variable of the ODE is
frame arclength in the group.  The surfaces' pairing helper, one
characteristic margin and one direction helper make the leaf solver's
right-hand side and its guard; they work on components, so single points
run on Python floats and batches on arrays.  The trace keeps the periodic
coordinates unwrapped.  Returns to the sections through the start point
are events of the leaf solver itself, located on its dense output; winding
numbers are read off by counting period multiples at those returns, never
by re-wrapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class FoliationTrace:
    """One traced leaf: unwrapped parameter samples plus ambient points.

    `truncated` reports an abort near a characteristic point and
    `step_stats` holds the solver's `steps` and its RHS calls `nfev`.
    `returns` maps each periodic axis to the solver's section events on it:
    the arclengths (n,) and the unwrapped (u, v) (n, 2) where that
    coordinate equals its start value modulo its period, the start itself
    included at s = 0.  Whether and how the leaf closes is `detect_period`'s
    verdict.  The dense solution serves `at`.
    """

    surface: ParamSurface
    uv: np.ndarray
    points: np.ndarray
    arclength: float
    truncated: bool
    step_stats: dict
    returns: dict
    _dense: object

    def at(self, s):
        """Unwrapped (u, v) at frame arclength s from the dense solution."""
        return self._dense(s)


def _axis_period(S: ParamSurface, axis: int) -> float:
    dom = S.u_dom if axis == 0 else S.v_dom
    return dom[1] - dom[0]


def _margin(p, su, sv, tu, tv):
    """Pairing norm minus the characteristic threshold; <= 0 marks a characteristic point."""
    scale = np.maximum(frame_length(su[0], su[1], tu), frame_length(sv[0], sv[1], tv))
    return np.hypot(tu, tv) - CHARACTERISTIC_RTOL * scale


def _direction(p, su, sv, tu, tv):
    """(theta(S_v), -theta(S_u)) over the frame length of W = theta(S_v) S_u - theta(S_u) S_v."""
    w = [tv * a - tu * b for a, b in zip(su, sv)]
    wlen = frame_length(w[0], w[1], theta_of(p[0], p[1], *w))
    return tv / wlen, -tu / wlen


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
    Norsett & Wanner, Solving ODEs I) over frame arclength, with step sizes
    left to its error control, and stops early, flagging truncation, if the
    theta pairing norm falls to CHARACTERISTIC_RTOL times the local tangent
    scale, the numerical vicinity of a characteristic point.  Each periodic
    axis k carries one more, non-terminal event, sin(pi (y_k - y_k(0)) / P_k),
    which vanishes where the leaf meets the section through the start; the
    solver locates its roots on each step's dense output (ibid., II.6) and
    calls no right-hand side for them.
    """
    from scipy.integrate import solve_ivp
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

    def rhs(s, y):
        du, dv = _direction(*_pairings(S, y[0], y[1]))
        return (sign * du, sign * dv)

    def near_characteristic(s, y):
        return _margin(*_pairings(S, y[0], y[1]))

    near_characteristic.terminal = True

    def section(axis):
        start, period = (u0, v0)[axis], _axis_period(S, axis)
        return lambda s, y: math.sin(math.pi * (y[axis] - start) / period)

    axes = [axis for axis in range(2) if S.periodic[axis]]
    sol = solve_ivp(
        rhs,
        (0.0, float(arclen)),
        (u0, v0),
        method="DOP853",
        rtol=RTOL,
        atol=ATOL,
        dense_output=True,
        events=[near_characteristic] + [section(axis) for axis in axes],
    )
    if sol.status == -1:
        raise RuntimeError(f"foliation integration failed: {sol.message}")
    truncated = sol.status == 1
    s_end = float(sol.t[-1])

    grid = np.linspace(0.0, s_end, samples)
    uv = sol.sol(grid).T
    pts = S.position(uv[:, 0], uv[:, 1])

    return FoliationTrace(
        surface=S,
        uv=uv,
        points=pts,
        arclength=s_end,
        truncated=truncated,
        step_stats={"steps": int(sol.t.size - 1), "nfev": int(sol.nfev)},
        returns={axis: (sol.t_events[i], sol.y_events[i]) for i, axis in enumerate(axes, 1)},
        _dense=sol.sol,
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
