"""Planar curves and their horizontal lifts.

A planar curve gamma = (x, y) lifts to a curve in the group tangent to the
horizontal distribution: the contact form annihilates the lift's velocity
exactly when t' = (x y' - y x')/2, so the lift's height is the signed area
swept from the start, which each planar curve gives in closed form
(`area`).  The `sign` argument of lift_horizontal selects t' = sign*(x y' -
y x')/2; sign=+1 is the horizontal lift for the contact form used
throughout this package, sign=-1 (the default) is the +1 lift with t
negated, its image under (x, y, t) -> (x, y, -t), which is the convention
some references print and is not horizontal here.  Closure of the lift over
a closed planar loop is equivalent to the loop enclosing zero signed area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import contact
from .quadrature import integrate_1d

__all__ = [
    "PlanarCurve",
    "HCurve",
    "lemniscate",
    "lift_horizontal",
    "lift_closed_defect",
    "horizontality_residual",
    "self_intersection_gap",
]

# smallest planar cell of the sample join in self_intersection_gap; samples
# closer than a thousandth of it in the plane are taken as a retraced arc
CROSSING_TOL = 1e-6
# Newton steps on a candidate crossing in self_intersection_gap before it gives up
NEWTON_ITERS = 8


@dataclass(frozen=True)
class _Curve:
    """Parametrized curve on [a, b], b > a; position/velocity vectorized.

    `speed` bounds |velocity| over [a, b]; inf when no bound is known.
    """

    a: float
    b: float
    position: Callable[[np.ndarray], np.ndarray]
    velocity: Callable[[np.ndarray], np.ndarray]
    speed: float = math.inf

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("need b > a")


@dataclass(frozen=True)
class PlanarCurve(_Curve):
    """Plane curve on [a, b]; position and velocity are (..., 2) valued.

    `area(tau)` is the signed area swept from a, the integral of (x y' -
    y x')/2, in closed form; None when the curve has none.
    """

    area: Callable[[np.ndarray], np.ndarray] | None = None


class HCurve(_Curve):
    """Curve in the group on [a, b]; position and velocity are (..., 3) valued."""

    def closure_defect(self) -> float:
        """Euclidean distance between the two endpoints."""
        return float(np.linalg.norm(self.position(self.b) - self.position(self.a)))


def lemniscate() -> PlanarCurve:
    """Figure-eight (cos tau, sin tau cos tau) on [0, 2pi]; node at the origin."""

    def pos(tau):
        tau = np.asarray(tau, dtype=float)
        return np.stack([np.cos(tau), np.sin(tau) * np.cos(tau)], axis=-1)

    def vel(tau):
        tau = np.asarray(tau, dtype=float)
        return np.stack([-np.sin(tau), np.cos(2.0 * tau)], axis=-1)

    def area(tau):
        # (x y' - y x')/2 = cos^3(tau)/2, whose integral from 0 is (s - s^3/3)/2
        s = np.sin(np.asarray(tau, dtype=float))
        return 0.5 * s * (1.0 - s * s / 3.0)

    # |vel|^2 = sin^2 + cos^2(2 tau) <= 2
    return PlanarCurve(0.0, 2.0 * np.pi, pos, vel, math.sqrt(2.0), area)


def planar_radius(curve) -> float:
    """Bound of |(x, y)| along a curve: the maximum over 1025 samples plus
    the speed bound times half their spacing."""
    tau = np.linspace(curve.a, curve.b, 1025)
    xy = curve.position(tau)[..., :2]
    return float(np.linalg.norm(xy, axis=-1).max()) + curve.speed * 0.5 * (tau[1] - tau[0])


def _area_rate(xy, dxy):
    """Signed-area rate (x y' - y x')/2 of planar points and velocities."""
    return 0.5 * (xy[..., 0] * dxy[..., 1] - xy[..., 1] * dxy[..., 0])


def _area_integrand(curve: PlanarCurve):
    return lambda tau: _area_rate(curve.position(tau), curve.velocity(tau))


def lift_horizontal(curve: PlanarCurve, sign: int = -1) -> HCurve:
    """Lift a planar curve to the group with t' = sign*(x y' - y x')/2.

    The lift starts at (gamma(a), 0).  Its t-component is sign times the
    curve's closed-form `area` and that of its velocity sign times the area
    rate, each exact to rounding.  A curve with no `area` is refused.
    """
    if sign not in (-1, 1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if curve.area is None:
        raise ValueError("curve has no closed-form area to lift by")

    def pos(tau):
        tau = np.asarray(tau, dtype=float)
        xy = curve.position(tau)
        # 0.0 + turns the -0.0 of sign = -1 at tau = a into 0.0
        t = 0.0 + sign * curve.area(tau)
        return np.concatenate([xy, np.asarray(t)[..., None]], axis=-1)

    def vel(tau):
        tau = np.asarray(tau, dtype=float)
        dxy = curve.velocity(tau)
        dt = sign * _area_rate(curve.position(tau), dxy)
        return np.concatenate([dxy, np.asarray(dt)[..., None]], axis=-1)

    # |t'| = |x y' - y x'| / 2 <= |(x, y)| |(x', y')| / 2
    speed = curve.speed * math.sqrt(1.0 + 0.25 * planar_radius(curve) ** 2)
    return HCurve(curve.a, curve.b, pos, vel, speed)


def lift_closed_defect(curve: PlanarCurve) -> float:
    """Net signed area = t-gap of the lift over one traversal of a closed loop."""
    xy_a = curve.position(curve.a)
    xy_b = curve.position(curve.b)
    if np.linalg.norm(xy_b - xy_a) > 1e-9 * (1.0 + np.linalg.norm(xy_a)):
        raise ValueError("curve is not closed in the plane")
    value, _ = integrate_1d(_area_integrand(curve), curve.a, curve.b)
    return value


def horizontality_residual(curve: HCurve) -> float:
    """max |theta(velocity)| over 1000 uniformly sampled parameters."""
    tau = np.linspace(curve.a, curve.b, 1000)
    return float(np.max(np.abs(contact(curve.position(tau), curve.velocity(tau)))))


def self_intersection_gap(curve: HCurve, samples: int = 4096) -> float:
    """Minimal |t1 - t2| over planar double points of the lifted curve.

    Candidate sample pairs lie in the same or neighbouring planar cells and
    are found by one join on sorted cell keys; Newton iteration on the 2x2
    crossing system refines all of them together, and pairs whose planar
    points already coincide at sample accuracy (retraced arcs) are kept
    unrefined.  Pairs congruent modulo the parameter period are the same
    point of a closed curve, not a self-intersection, and are excluded.
    Returns +inf when the planar projection is injective.
    """
    period = curve.b - curve.a
    idx = np.arange(samples)
    tau = curve.a + period * idx / samples
    pts = curve.position(tau)
    xy = pts[..., :2]
    step = period / samples
    speed = np.linalg.norm(curve.velocity(tau)[..., :2], axis=-1)
    cell = max(CROSSING_TOL, 3.0 * step * float(np.max(speed)))
    excl = 8.0 * step
    if not np.all(np.isfinite(xy)):
        raise ValueError("curve has non-finite planar samples")

    # pairs from the nine cells around each sample i: in the sorted keys
    # cell * samples + index, the samples j >= i + 8 of one cell form one run
    # (the nearer ones along the curve lie within excl of i)
    ij = np.floor(xy / cell).astype(np.int64)
    ij -= ij.min(axis=0) - 1
    width = int(ij[:, 1].max()) + 2
    cells = ij[:, 0] * width + ij[:, 1]
    key = np.sort(cells * samples + idx)
    offsets = (np.arange(-1, 2)[:, None] * width + np.arange(-1, 2)).ravel()
    near = (cells[:, None] + offsets) * samples
    lo = np.searchsorted(key, near + idx[:, None] + 8)
    count = np.maximum(np.searchsorted(key, near + samples) - lo, 0)
    i = np.repeat(idx, count.sum(axis=1))
    lo, count = lo.ravel(), count.ravel()
    j = key[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())] % samples
    dpar = np.abs(tau[j] - tau[i])
    planar = np.linalg.norm(xy[j] - xy[i], axis=-1)
    keep = (np.minimum(dpar, period - dpar) >= excl) & (planar <= cell)
    i, j, planar = i[keep], j[keep], planar[keep]
    retraced = planar <= CROSSING_TOL * 1e-3
    best = np.abs(pts[j[retraced], 2] - pts[i[retraced], 2]).min(initial=math.inf)

    # Newton on gamma(t1) - gamma(t2) = 0 in the plane; a pair stops when it
    # meets, and is dropped when its Jacobian degenerates or its step exceeds 1
    t = np.stack([tau[i[~retraced]], tau[j[~retraced]]])
    gap = np.full(t.shape[1], math.inf)
    live = np.ones(t.shape[1], dtype=bool)
    for it in range(NEWTON_ITERS + 1):
        k = np.flatnonzero(live)
        if not k.size:
            break
        p = curve.position(t[:, k])
        r = p[0, :, :2] - p[1, :, :2]
        dist = np.linalg.norm(r, axis=-1)
        met = dist <= 1e-10 if it == NEWTON_ITERS else dist < 1e-14
        gap[k[met]] = np.abs(p[1, met, 2] - p[0, met, 2])
        live[k] = False
        if it == NEWTON_ITERS:
            break
        v = curve.velocity(t[:, k])[..., :2]
        jac = np.stack([v[0], -v[1]], axis=-1)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        norms = np.linalg.norm(v, axis=-1)
        go = ~met & (np.abs(det) >= 1e-12 * (norms[0] * norms[1] + 1e-30))
        dt = np.linalg.solve(jac[go], -r[go, :, None])[..., 0]
        ok = np.isfinite(dt).all(axis=-1) & (np.linalg.norm(dt, axis=-1) <= 1.0)
        k = k[go][ok]
        t[:, k] += dt[ok].T
        live[k] = True
    dpar = np.abs(t[1] - t[0])
    gap[np.minimum(dpar, np.abs(period - dpar)) < excl] = math.inf
    return float(gap.min(initial=best))
