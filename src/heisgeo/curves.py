"""Planar curves and their horizontal lifts.

A planar curve gamma = (x, y) lifts to a curve in the group tangent to the
horizontal distribution by integrating the signed-area form: the contact form
annihilates the lift's velocity exactly when t' = (x y' - y x')/2.  The `sign`
argument of lift_horizontal selects t' = sign*(x y' - y x')/2; sign=+1 is the
horizontal lift for the contact form used throughout this package, sign=-1
(the default) produces its mirror image under (x, y, t) -> (x, -y, -t), which
is the convention some references print.  Closure of the lift over a closed
planar loop is equivalent to the loop enclosing zero signed area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import contact
from .quadrature import PrefixIntegral, integrate_1d

__all__ = [
    "PlanarCurve",
    "HCurve",
    "lemniscate",
    "lift_horizontal",
    "lift_closed_defect",
    "horizontality_residual",
    "vertical_translate",
    "self_intersection_gap",
]

# smallest cell of the sample hash in self_intersection_gap; samples closer
# than a thousandth of it in the plane are taken as a retraced arc
CROSSING_TOL = 1e-6
# Newton steps on a candidate crossing before `_newton_refine_pair` gives up
NEWTON_ITERS = 8


@dataclass(frozen=True)
class PlanarCurve:
    """Parametrized plane curve on [a, b]; callables vectorized, (..., 2) valued.

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
class HCurve:
    """Curve in the group on [a, b]; position/velocity vectorized, (..., 3) valued.

    `speed` bounds |velocity| over [a, b]; inf when no bound is known.
    """

    a: float
    b: float
    position: Callable[[np.ndarray], np.ndarray]
    velocity: Callable[[np.ndarray], np.ndarray]
    speed: float = math.inf

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

    # |vel|^2 = sin^2 + cos^2(2 tau) <= 2
    return PlanarCurve(0.0, 2.0 * np.pi, pos, vel, math.sqrt(2.0))


def planar_radius(curve) -> float:
    """Bound of |(x, y)| along a curve: the maximum over 1025 samples plus
    the speed bound times half their spacing."""
    tau = np.linspace(curve.a, curve.b, 1025)
    xy = curve.position(tau)[..., :2]
    return float(np.linalg.norm(xy, axis=-1).max()) + curve.speed * 0.5 * (tau[1] - tau[0])


def _area_integrand(curve: PlanarCurve):
    def f(tau):
        xy = curve.position(tau)
        dxy = curve.velocity(tau)
        return 0.5 * (xy[..., 0] * dxy[..., 1] - xy[..., 1] * dxy[..., 0])

    return f


def lift_horizontal(curve: PlanarCurve, sign: int = -1) -> HCurve:
    """Lift a planar curve to the group with t' = sign*(x y' - y x')/2.

    The lift starts at (gamma(a), 0).  The t-component is accumulated by
    composite Gauss-Legendre prefix quadrature, the velocity uses the closed
    form, so the two are consistent to quadrature accuracy.
    """
    if sign not in (-1, 1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    area = _area_integrand(curve)
    accum = PrefixIntegral(area, curve.a, curve.b)

    def pos(tau):
        tau = np.asarray(tau, dtype=float)
        xy = curve.position(tau)
        # 0.0 + turns the -0.0 of sign = -1 at tau = a into 0.0
        t = 0.0 + sign * accum(tau)
        return np.concatenate([xy, np.asarray(t)[..., None]], axis=-1)

    def vel(tau):
        tau = np.asarray(tau, dtype=float)
        dxy = curve.velocity(tau)
        dt = sign * area(tau)
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


def vertical_translate(curve: HCurve, s: float) -> HCurve:
    """Translate by the central element (0,0,s): adds s to t, velocity unchanged."""
    off = np.array([0.0, 0.0, float(s)])
    return HCurve(
        curve.a,
        curve.b,
        lambda tau: curve.position(tau) + off,
        curve.velocity,
        curve.speed,
    )


def _newton_refine_pair(curve: HCurve, t1: float, t2: float):
    """Newton on gamma(t1) - gamma(t2) = 0 in the plane; None if it degenerates."""
    for _ in range(NEWTON_ITERS):
        p1 = curve.position(t1)
        p2 = curve.position(t2)
        r = p1[:2] - p2[:2]
        if np.linalg.norm(r) < 1e-14:
            return t1, t2
        v1 = curve.velocity(t1)[:2]
        v2 = curve.velocity(t2)[:2]
        jac = np.column_stack([v1, -v2])
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        if abs(det) < 1e-12 * (np.linalg.norm(v1) * np.linalg.norm(v2) + 1e-30):
            return None
        step = np.linalg.solve(jac, -r)
        if not np.all(np.isfinite(step)) or np.linalg.norm(step) > 1.0:
            return None
        t1 += step[0]
        t2 += step[1]
    p1 = curve.position(t1)
    p2 = curve.position(t2)
    if np.linalg.norm(p1[:2] - p2[:2]) > 1e-10:
        return None
    return t1, t2


def self_intersection_gap(curve: HCurve, samples: int = 4096) -> float:
    """Minimal |t1 - t2| over planar double points of the lifted curve.

    Parameter pairs are found by hashing samples into planar cells and refined
    by Newton iteration on the 2x2 crossing system; pairs whose planar points
    already coincide at sample accuracy (retraced arcs) are kept unrefined.
    Pairs congruent modulo the parameter period are the same point of a closed
    curve, not a self-intersection, and are excluded.  Returns +inf when the
    planar projection is injective.
    """
    period = curve.b - curve.a
    tau = curve.a + period * np.arange(samples) / samples
    pts = curve.position(tau)
    xy = pts[..., :2]
    step = period / samples
    speed = np.linalg.norm(curve.velocity(tau)[..., :2], axis=-1)
    cell = max(CROSSING_TOL, 3.0 * step * float(np.max(speed)))
    excl = 8.0 * step

    buckets: dict[tuple[int, int], list[int]] = {}
    for i in range(samples):
        key = (int(math.floor(xy[i, 0] / cell)), int(math.floor(xy[i, 1] / cell)))
        buckets.setdefault(key, []).append(i)

    best = math.inf
    seen: set[tuple[int, int]] = set()
    for (cx, cy), idxs in buckets.items():
        cand: list[int] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                cand.extend(buckets.get((cx + dx, cy + dy), []))
        for i in idxs:
            for j in cand:
                if j <= i or (i, j) in seen:
                    continue
                dpar = abs(tau[j] - tau[i])
                dpar = min(dpar, period - dpar)
                if dpar < excl:
                    continue
                if np.linalg.norm(xy[j] - xy[i]) > cell:
                    continue
                seen.add((i, j))
                planar = np.linalg.norm(xy[j] - xy[i])
                if planar <= CROSSING_TOL * 1e-3:
                    gap = abs(pts[j, 2] - pts[i, 2])
                else:
                    ref = _newton_refine_pair(curve, float(tau[i]), float(tau[j]))
                    if ref is None:
                        continue
                    t1, t2 = ref
                    dpar = abs(t2 - t1)
                    if min(dpar, abs(period - dpar)) < excl:
                        continue
                    q1 = curve.position(t1)
                    q2 = curve.position(t2)
                    gap = abs(q2[2] - q1[2])
                best = min(best, gap)
    return best
