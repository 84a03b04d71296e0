"""Tracing the characteristic foliation of a surface and detecting periodicity.

A leaf is an integral curve of the parameter-space field
(theta(S_v), -theta(S_u)) normalized by the ambient frame length of the
corresponding tangent vector, so the independent variable of the ODE is
frame arclength in the group.  One pairing helper, one characteristic
margin and one direction helper serve both the public
`foliation_direction` and the leaf solver.  The trace keeps the periodic
coordinates unwrapped; winding numbers are read off by counting period
multiples at section returns, never by re-wrapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import contact, frame_norm
from .surfaces import ParamSurface

__all__ = [
    "FoliationTrace",
    "foliation_direction",
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
    `step_stats` carries solver metadata.  Whether and how the leaf closes
    is `detect_period`'s verdict.  The dense solution is kept so section
    crossings can be refined afterwards.
    """

    surface: ParamSurface
    uv: np.ndarray
    points: np.ndarray
    arclength: float
    truncated: bool
    step_stats: dict
    _dense: object

    def at(self, s):
        """Unwrapped (u, v) at frame arclength s from the dense solution."""
        return self._dense(s)


def _axis_period(S: ParamSurface, axis: int) -> float:
    dom = S.u_dom if axis == 0 else S.v_dom
    return dom[1] - dom[0]


def _wrap_gap(delta: float, period: float) -> float:
    """Reduce a coordinate difference modulo the period to [-period/2, period/2]."""
    return delta - period * round(delta / period)


def _pairings(S: ParamSurface, u, v):
    """Position, tangents and their theta pairings (theta(S_u), theta(S_v))."""
    p = S.position(u, v)
    su = S.tangent_u(u, v)
    sv = S.tangent_v(u, v)
    return p, su, sv, contact(p, su), contact(p, sv)


def _margin(p, su, sv, tu, tv):
    """Pairing norm minus the characteristic threshold; <= 0 marks a characteristic point."""
    scale = np.maximum(frame_norm(p, su), frame_norm(p, sv))
    return np.hypot(tu, tv) - CHARACTERISTIC_RTOL * scale


def _direction(p, su, sv, tu, tv):
    """(theta(S_v), -theta(S_u)) over the frame length of W = theta(S_v) S_u - theta(S_u) S_v."""
    w = np.asarray(tv)[..., None] * su - np.asarray(tu)[..., None] * sv
    wlen = frame_norm(p, w)
    return tv / wlen, -tu / wlen


def foliation_direction(S: ParamSurface, u, v):
    """Characteristic direction in parameter space, frame-normalized.

    The kernel of theta inside the tangent plane is spanned by
    W = theta(S_v) S_u - theta(S_u) S_v; returned is (theta(S_v), -theta(S_u))
    divided by the frame length of W, so moving at unit speed in the returned
    coordinates moves at unit frame speed in the group.  Raises within the
    characteristic guard that also truncates `trace_foliation`.
    """
    pairs = _pairings(S, u, v)
    if np.any(_margin(*pairs) <= 0.0):
        raise ValueError("characteristic point: foliation direction undefined")
    du, dv = _direction(*pairs)
    if np.ndim(du) == 0:
        return float(du), float(dv)
    return du, dv


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
    scale, the numerical vicinity of a characteristic point.
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

    sol = solve_ivp(
        rhs,
        (0.0, float(arclen)),
        (u0, v0),
        method="DOP853",
        rtol=RTOL,
        atol=ATOL,
        dense_output=True,
        events=near_characteristic,
    )
    if sol.status == -1:
        raise RuntimeError(f"foliation integration failed: {sol.message}")
    truncated = sol.status == 1
    s_end = float(sol.t[-1])

    grid = np.linspace(0.0, s_end, samples)
    uv = sol.sol(grid).T
    pts = S.position(uv[:, 0], uv[:, 1])

    steps = np.diff(sol.t)
    stats = {
        "steps": int(sol.t.size - 1),
        "nfev": int(sol.nfev),
        "min_step": float(steps.min()) if steps.size else 0.0,
        "max_step": float(steps.max()) if steps.size else 0.0,
    }
    return FoliationTrace(
        surface=S,
        uv=uv,
        points=pts,
        arclength=s_end,
        truncated=truncated,
        step_stats=stats,
        _dense=sol.sol,
    )


def detect_period(trace: FoliationTrace, axis: int = 0, close_tol: float = 1e-6):
    """Poincare return analysis on the section through the start point.

    The section is {coordinate[axis] = the start's coordinate}.  Its
    crossings (modulo the axis period) are bracketed on the solver grid and
    refined by root finding to 1e-10 in arclength.  Returns are compared
    with the start modulo the surface periods; the first return within
    `close_tol` decides periodicity and its per axis period counts are the
    winding pair.  If no return closes, the best (smallest residual) return
    is reported instead.  A trace that never returns to the section raises.
    """
    from scipy.optimize import brentq
    S = trace.surface
    if not S.periodic[axis]:
        raise ValueError("section axis must be periodic to talk about returns")
    period = _axis_period(S, axis)
    value = float(trace.uv[0, axis])

    dense = trace._dense
    s_grid = np.linspace(0.0, trace.arclength, max(4 * len(trace.uv), 4096))
    coord = dense(s_grid)[axis]

    # integer section levels value + k*period swept by the unwrapped coordinate
    k_lo = math.floor((coord.min() - value) / period)
    k_hi = math.ceil((coord.max() - value) / period)
    crossings: list[float] = []
    for k in range(k_lo, k_hi + 1):
        level = value + k * period
        resid = coord - level
        hit = np.where(resid[:-1] * resid[1:] <= 0.0)[0]
        for i in hit:
            if resid[i] == 0.0 and resid[i + 1] == 0.0:
                continue
            s_root = brentq(
                lambda s: dense(s)[axis] - level,
                s_grid[i],
                s_grid[i + 1],
                xtol=1e-10,
            )
            crossings.append(float(s_root))
    crossings.sort()
    # collapse duplicates from grid points sitting exactly on a level
    dedup: list[float] = []
    for s in crossings:
        if not dedup or s - dedup[-1] > 1e-8:
            dedup.append(s)
    crossings = dedup

    returns = [s for s in crossings if s > 1e-8]
    if not returns:
        raise ValueError("trace does not return to the section")

    ref = dense(0.0)
    best = None
    for s in returns:
        here = dense(s)
        gaps = here - ref
        winds = [0, 0]
        for ax in range(2):
            if S.periodic[ax]:
                per = _axis_period(S, ax)
                winds[ax] = int(round(gaps[ax] / per)) if ax == axis else int(round((gaps[ax] - _wrap_gap(gaps[ax], per)) / per))
                gaps[ax] = _wrap_gap(gaps[ax], per)
        residual = float(np.hypot(gaps[0], gaps[1]))
        cand = (residual, (abs(winds[0]), abs(winds[1])))
        if residual <= close_tol:
            return cand
        if best is None or residual < best[0]:
            best = cand
    return best

