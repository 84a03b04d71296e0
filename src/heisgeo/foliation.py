"""Tracing the characteristic foliation of a surface and detecting periodicity.

A leaf is an integral curve of the parameter-space field
(theta(S_v), -theta(S_u)) normalized by the ambient frame length of the
corresponding tangent vector, so the independent variable of the ODE is
frame arclength in the group.  The surfaces' pairing helper, one
characteristic margin and one direction helper make the leaf's
right-hand side and its guard; they work on components, so single points
run on Python floats and batches on arrays.  The leaf is stepped on the
two floats (u, v) by `_dop853`: DOP853's tableau as literals (checked
against scipy by a test) under scipy's step control, with events located by
`_brentq`, a port of scipy's Brent root finder; nothing here imports scipy.
Each step's dense interpolant is kept in arrays that the polyline and
`FoliationTrace.at` read in one vectorized pass.  The trace
keeps the periodic coordinates unwrapped.  Returns to the sections through
the start point are events located on the dense output of the step that
crosses them; winding numbers are read off by counting period multiples at
those returns, never by re-wrapping.
"""

from __future__ import annotations

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
# absolute and relative tolerance of an event's root, and the iterations
# Brent's method may take to reach it (scipy's default)
EVENT_XTOL = 4.0 * float(np.finfo(float).eps)
BRENT_ITERATIONS = 100


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
    wx, wy, wt = tv * su[0] - tu * sv[0], tv * su[1] - tu * sv[1], tv * su[2] - tu * sv[2]
    wlen = frame_length(wx, wy, theta_of(p[0], p[1], wx, wy, wt))
    return tv / wlen, -tu / wlen


# DOP853's tableau (Hairer, Norsett & Wanner, Solving ODEs I, II.5) as the
# (index, value) pairs of each row's nonzero entries; every value is the repr
# of scipy's `DOP853` class attribute, which a test checks bit for bit.
# _STAGES: the rows of A[1:] and B, which make stages 1 to 12 (stage 12 is the
# RHS at the step's end); then the error rows E5 and E3, the rows A_EXTRA of
# the three dense-output stages, and the rows of D.
_STAGES = (
    ((0, 0.05260015195876773),),
    ((0, 0.0197250569845379), (1, 0.0591751709536137)),
    ((0, 0.02958758547680685), (2, 0.08876275643042054)),
    ((0, 0.2413651341592667), (2, -0.8845494793282861), (3, 0.924834003261792)),
    ((0, 0.037037037037037035), (3, 0.17082860872947386), (4, 0.12546768756682242)),
    ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596), (5, -0.017578125)),
    ((0, 0.03709200011850479), (3, 0.17038392571223998), (4, 0.10726203044637328),
     (5, -0.015319437748624402), (6, 0.008273789163814023)),
    ((0, 0.6241109587160757), (3, -3.3608926294469414), (4, -0.868219346841726), (5, 27.59209969944671),
     (6, 20.154067550477894), (7, -43.48988418106996)),
    ((0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843), (5, 21.230051448181193),
     (6, 15.279233632882423), (7, -33.28821096898486), (8, -0.020331201708508627)),
    ((0, -0.9371424300859873), (3, 5.186372428844064), (4, 1.0914373489967295), (5, -8.149787010746927),
     (6, -18.52006565999696), (7, 22.739487099350505), (8, 2.4936055526796523), (9, -3.0467644718982196)),
    ((0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625), (5, -17.9589318631188),
     (6, 27.94888452941996), (7, -2.8589982771350235), (8, -8.87285693353063), (9, 12.360567175794303),
     (10, 0.6433927460157636)),
    ((0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003), (7, -5.801203960010585),
     (8, 0.3111643669578199), (9, -0.1521609496625161), (10, 0.20136540080403034), (11, 0.04471061572777259)),
)
_E5, _E3 = (
    ((0, 0.01312004499419488), (5, -1.2251564463762044), (6, -0.4957589496572502), (7, 1.6643771824549864),
     (8, -0.35032884874997366), (9, 0.3341791187130175), (10, 0.08192320648511571),
     (11, -0.022355307863886294)),
    ((0, -0.18980075407240762), (5, 4.450312892752409), (6, 1.8915178993145003), (7, -5.801203960010585),
     (8, -0.4226823213237919), (9, -0.1521609496625161), (10, 0.20136540080403034), (11, 0.02265179219836082)),
)
_EXTRA = (
    ((0, 0.056167502283047954), (6, 0.25350021021662483), (7, -0.2462390374708025),
     (8, -0.12419142326381637), (9, 0.15329179827876568), (10, 0.00820105229563469),
     (11, 0.007567897660545699), (12, -0.008298)),
    ((0, 0.03183464816350214), (5, 0.028300909672366776), (6, 0.053541988307438566),
     (7, -0.05492374857139099), (10, -0.00010834732869724932), (11, 0.0003825710908356584),
     (12, -0.00034046500868740456), (13, 0.1413124436746325)),
    ((0, -0.42889630158379194), (5, -4.697621415361164), (6, 7.683421196062599), (7, 4.06898981839711),
     (8, 0.3567271874552811), (12, -0.0013990241651590145), (13, 2.9475147891527724), (14, -9.15095847217987)),
)
_D = (
    ((0, -8.428938276109013), (5, 0.5667149535193777), (6, -3.0689499459498917), (7, 2.38466765651207),
     (8, 2.117034582445028), (9, -0.871391583777973), (10, 2.2404374302607883), (11, 0.6315787787694688),
     (12, -0.08899033645133331), (13, 18.148505520854727), (14, -9.194632392478356), (15, -4.436036387594894)),
    ((0, 10.427508642579134), (5, 242.28349177525817), (6, 165.20045171727028), (7, -374.5467547226902),
     (8, -22.113666853125306), (9, 7.733432668472264), (10, -30.674084731089398), (11, -9.332130526430229),
     (12, 15.697238121770845), (13, -31.139403219565178), (14, -9.35292435884448), (15, 35.81684148639408)),
    ((0, 19.985053242002433), (5, -387.0373087493518), (6, -189.17813819516758), (7, 527.8081592054236),
     (8, -11.57390253995963), (9, 6.8812326946963), (10, -1.0006050966910838), (11, 0.7777137798053443),
     (12, -2.778205752353508), (13, -60.19669523126412), (14, 84.32040550667716), (15, 11.99229113618279)),
    ((0, -25.69393346270375), (5, -154.18974869023643), (6, -231.5293791760455), (7, 357.6391179106141),
     (8, 93.40532418362432), (9, -37.45832313645163), (10, 104.0996495089623), (11, 29.8402934266605),
     (12, -43.53345659001114), (13, 96.32455395918828), (14, -39.17726167561544), (15, -149.72683625798564)),
)


def _combine(row, ku, kv):
    """sum_j a_j k_j over one tableau row, for each component."""
    du = dv = 0.0
    for j, a in row:
        du += a * ku[j]
        dv += a * kv[j]
    return du, dv


def _brentq(f, a, b):
    """A root of f in [a, b] by Brent's method (Brent 1973, ch. 4) at
    xtol = rtol = EVENT_XTOL: a step-for-step port of scipy's C `brentq` to
    Python floats, so it returns scipy's bits.  An end where f is 0 is the
    root.  Raises ValueError on a NaN value of f or on ends of equal sign,
    RuntimeError when BRENT_ITERATIONS steps do not converge."""

    def value(x):
        y = f(x)
        if math.isnan(y):
            raise ValueError(f"the function value at x={x} is NaN")
        return y

    xpre, xcur = a, b
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_ITERATIONS):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (EVENT_XTOL + EVENT_XTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate; where C divides by 0 to an infinite step, bisect
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):  # a good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {BRENT_ITERATIONS} iterations, value is {xcur}")


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
    counts as either sign) is located by `_brentq` on the step's dense output.
    The events at a point are evaluated right after the RHS there (at the
    start, and at stage 12 of an accepted step, before its dense-output
    stages), so an event may reuse what that RHS call computed.  The guard
    is terminal: the trace ends at its first root, and only the
    section roots up to it count.  Returns the dense output, whether the
    guard fired, each section's (arclengths (n,), states (n, 2)) and the
    step statistics.
    """
    def add_stages(rows, h, ku, kv):
        # append the stages that `rows` make from the current (u, v) and ku, kv;
        # returns the point of the last one
        for row in rows:
            du, dv = _combine(row, ku, kv)
            k = rhs(u + du * h, v + dv * h)
            ku.append(k[0])
            kv.append(k[1])
        return u + du * h, v + dv * h

    events = [guard, *sections]
    fu, fv = rhs(u, v)
    g = [event(u, v) for event in events]
    h_abs = _first_step(rhs, u, v, fu, fv, s_end)
    nfev, rejected, truncated = 2, 0, False
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
            u_new, v_new = add_stages(_STAGES, h, ku, kv)
            nfev += 12
            su, sv = ATOL + max(abs(u), abs(u_new)) * RTOL, ATOL + max(abs(v), abs(v_new)) * RTOL
            (e5u, e5v), (e3u, e3v) = _combine(_E5, ku, kv), _combine(_E3, ku, kv)
            e5, e3 = (e5u / su) ** 2 + (e5v / sv) ** 2, (e3u / su) ** 2 + (e3v / sv) ** 2
            norm = h * e5 / math.sqrt((e5 + 0.01 * e3) * 2.0) if e5 or e3 else 0.0
            if norm < 1.0:
                break
            h_abs, retry, rejected = h * max(MIN_FACTOR, SAFETY * norm ** ERROR_EXPONENT), True, rejected + 1
        factor = min(MAX_FACTOR, SAFETY * norm ** ERROR_EXPONENT) if norm else MAX_FACTOR
        h_abs = h * (min(1.0, factor) if retry else factor)
        g_new = [event(u_new, v_new) for event in events]

        add_stages(_EXTRA, h, ku, kv)
        nfev += 3
        du, dv = u_new - u, v_new - v
        poly = [(du, dv), (h * fu - du, h * fv - dv),
                (2.0 * du - h * (ku[12] + fu), 2.0 * dv - h * (kv[12] + fv))]
        poly += [(h * a, h * b) for a, b in (_combine(row, ku, kv) for row in _D)]
        poly_u, poly_v = zip(*poly)

        def at(t):
            x = (t - s) / h
            return u + _nested(poly_u, x), v + _nested(poly_v, x)

        roots = {i: _brentq(lambda t: events[i](*at(t)), s, s_new)
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
    `_dop853` on the two floats (u, v): the tableau is written out as
    literals, checked against scipy's `DOP853` class by a test, and the step
    sizes are left to scipy's error control.
    It stops early, flagging truncation, if the theta pairing norm falls to
    CHARACTERISTIC_RTOL times the local tangent scale, the numerical
    vicinity of a characteristic point.  Each periodic axis k carries one
    more, non-terminal event, sin(pi (y_k - y_k(0)) / P_k), which vanishes
    where the leaf meets the section through the start.  All events are
    checked at the end of every accepted step, and a sign change is located
    by `_brentq` (xtol = rtol = 4 eps) on that step's dense output (ibid.,
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

    last = None, None  # the point of the last RHS call and its pairings

    def rhs(u, v):
        nonlocal last
        last = (u, v), _pairings(S, u, v)
        du, dv = _direction(*last[1])
        return sign * du, sign * dv

    def near_characteristic(u, v):
        # the stepper checks its events right after the RHS at the same point
        point, pairs = last
        return _margin(*(pairs if point == (u, v) else _pairings(S, u, v)))

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
