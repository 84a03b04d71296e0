"""Parametrized surfaces with boundary in the group.

A surface is a rectangle of parameters with a position map into the group,
its two exact tangent callables, per axis periodicity flags, and a
constructor supplied list of oriented boundary curves.  The torus maps take
a single-point path on two floats (see `_on_angles`), which is how the leaf
solver calls them.  The theta pairings of the two tangents drive
everything geometric here: a point is characteristic when both vanish, and
the kernel direction of theta restricted to the tangent plane is the
characteristic foliation (see `heisgeo.foliation`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import rotate_t_axis
from .curves import HCurve, horizontality_residual, planar_radius, vertical_translate

__all__ = [
    "ParamSurface",
    "vertical_halfplane",
    "lift_cylinder",
    "torus_surface",
    "revolve_curve",
    "torus_characteristic_loop",
    "characteristic_residual",
    "cylinder_embeds",
]

# endpoint gap, relative to 1 + |start|, up to which a curve counts as closed
CLOSURE_TOL = 1e-8


@dataclass(frozen=True)
class ParamSurface:
    """Surface over [u0,u1] x [v0,v1]; callables vectorized, (..., 3) valued.

    `boundary` holds (curve, orientation) pairs; orientation +1 means the
    curve's own parameter direction agrees with the counterclockwise induced
    orientation of the parameter rectangle, -1 that it opposes it.
    `truncation_edges` lists the (axis, value) parameter lines, u = value for
    axis 0 and v = value for axis 1, where the domain cuts an unbounded
    surface short; only the listed boundary components are genuine, and
    integrals over the surface require integrands supported away from those
    edges.  A surface without truncation edges is `compact`.  `speed`
    bounds sqrt(|S_u|^2 + |S_v|^2) over the rectangle; inf when unknown.
    """

    u_dom: tuple[float, float]
    v_dom: tuple[float, float]
    position: Callable[[np.ndarray, np.ndarray], np.ndarray]
    tangent_u: Callable[[np.ndarray, np.ndarray], np.ndarray]
    tangent_v: Callable[[np.ndarray, np.ndarray], np.ndarray]
    boundary: tuple[tuple[HCurve, int], ...] = ()
    periodic: tuple[bool, bool] = (False, False)
    truncation_edges: tuple[tuple[int, float], ...] = ()
    speed: float = math.inf

    @property
    def compact(self) -> bool:
        return not self.truncation_edges

    def __post_init__(self):
        if not (self.u_dom[1] > self.u_dom[0] and self.v_dom[1] > self.v_dom[0]):
            raise ValueError("parameter rectangle is empty")


def vertical_halfplane() -> ParamSurface:
    """Vertical half-plane {x = 0, t > 0}, truncated to |y| <= 3, t <= 3.

    The genuine boundary is the line {(0, y, 0)}, an integral curve of the
    frame field Y; the three truncation edges y = -3, y = 3 and t = 3 are
    not boundary components, so integrands must vanish near them.
    """
    y0, y1, t1 = -3.0, 3.0, 3.0

    def pos(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        return np.stack([np.zeros_like(u), u, v], axis=-1)

    def tan_u(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        out = np.zeros(u.shape + (3,))
        out[..., 1] = 1.0
        return out

    def tan_v(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        out = np.zeros(u.shape + (3,))
        out[..., 2] = 1.0
        return out

    edge = HCurve(
        y0,
        y1,
        lambda tau: np.stack(
            [np.zeros_like(np.asarray(tau, float)), np.asarray(tau, float),
             np.zeros_like(np.asarray(tau, float))], axis=-1),
        lambda tau: np.broadcast_to(
            np.array([0.0, 1.0, 0.0]), np.shape(np.asarray(tau, float)) + (3,)).copy(),
        1.0,
    )
    return ParamSurface(
        u_dom=(y0, y1),
        v_dom=(0.0, t1),
        position=pos,
        tangent_u=tan_u,
        tangent_v=tan_v,
        boundary=((edge, +1),),
        truncation_edges=((0, y0), (0, y1), (1, t1)),
        speed=math.sqrt(2.0),
    )


def _check_closed_horizontal(curve: HCurve) -> None:
    """Raise unless the curve closes to CLOSURE_TOL and is horizontal.

    The comparisons are negated so that a NaN gap or residual is refused.
    """
    scale = 1.0 + float(np.linalg.norm(curve.position(curve.a)))
    if not curve.closure_defect() <= CLOSURE_TOL * scale:
        raise ValueError(
            f"curve is not closed: endpoint gap {curve.closure_defect():.3e}")
    res = horizontality_residual(curve)
    if not res <= 1e-6:
        raise ValueError(f"curve is not horizontal: theta residual {res:.3e}")


def lift_cylinder(curve: HCurve, height: float) -> ParamSurface:
    """Vertical cylinder over a closed horizontal curve, ruling height `height`.

    The bottom rim is the curve itself, the top its vertical translate; the
    induced boundary orientations are opposite, bottom positive.
    """
    if not height > 0:
        raise ValueError(f"height must be positive, got {height}")
    _check_closed_horizontal(curve)

    def pos(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        p = curve.position(u)
        out = p.copy()
        out[..., 2] += v
        return out

    def tan_u(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        return curve.velocity(u)

    def tan_v(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        out = np.zeros(u.shape + (3,))
        out[..., 2] = 1.0
        return out

    top = vertical_translate(curve, height)
    return ParamSurface(
        u_dom=(curve.a, curve.b),
        v_dom=(0.0, float(height)),
        position=pos,
        tangent_u=tan_u,
        tangent_v=tan_v,
        boundary=((curve, +1), (top, -1)),
        periodic=(True, False),
        speed=math.hypot(curve.speed, 1.0),
    )


def _on_angles(formula):
    """Surface map (u, v) -> the three components formula(cos u, sin u, cos v, sin v).

    Two floats (np.float64 is one), as the leaf solver passes, take `math`
    trig and give one (3,) array; anything else broadcasts with numpy.
    """

    def f(u, v):
        if isinstance(u, float) and isinstance(v, float):
            return np.array(formula(math.cos(u), math.sin(u), math.cos(v), math.sin(v)))
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        out = np.empty(u.shape + (3,))
        out[..., 0], out[..., 1], out[..., 2] = formula(np.cos(u), np.sin(u), np.cos(v), np.sin(v))
        return out

    return f


def torus_surface(R: float, r: float) -> ParamSurface:
    """Torus of revolution about the t-axis, tube radius r, center radius R."""
    R, r = float(R), float(r)
    if not R > r > 0:
        raise ValueError(f"need R > r > 0, got R={R}, r={r}")

    @_on_angles
    def pos(cu, su, cv, sv):
        w = R + r * cu
        return w * cv, w * sv, r * su

    @_on_angles
    def tan_u(cu, su, cv, sv):
        return -r * su * cv, -r * su * sv, r * cu

    @_on_angles
    def tan_v(cu, su, cv, sv):
        w = R + r * cu
        return -w * sv, w * cv, 0.0

    return ParamSurface(
        u_dom=(0.0, 2.0 * math.pi),
        v_dom=(0.0, 2.0 * math.pi),
        position=pos,
        tangent_u=tan_u,
        tangent_v=tan_v,
        boundary=(),
        periodic=(True, True),
        speed=math.hypot(r, R + r),
    )


def revolve_curve(curve: HCurve, phi_max: float) -> ParamSurface:
    """Band swept by rotating a closed horizontal curve about the t-axis.

    Rotation about the vertical axis is a group automorphism whose
    differential acts by the same planar rotation on tangent coordinates,
    so both rims stay horizontal exactly.  Rim at angle 0 is positively
    oriented, the rim at phi_max negatively.
    """
    phi_max = float(phi_max)
    if not 0.0 < phi_max <= 2.0 * math.pi + 1e-12:
        raise ValueError(f"need 0 < phi_max <= 2*pi, got {phi_max}")
    _check_closed_horizontal(curve)

    def pos(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        return rotate_t_axis(v, curve.position(u))

    def tan_u(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        return rotate_t_axis(v, curve.velocity(u))

    def tan_v(u, v):
        p = pos(u, v)
        return np.stack([-p[..., 1], p[..., 0], np.zeros(p.shape[:-1])], axis=-1)

    far = HCurve(
        curve.a,
        curve.b,
        lambda tau: rotate_t_axis(phi_max, curve.position(tau)),
        lambda tau: rotate_t_axis(phi_max, curve.velocity(tau)),
        curve.speed,
    )
    full_turn = abs(phi_max - 2.0 * math.pi) < 1e-12
    return ParamSurface(
        u_dom=(curve.a, curve.b),
        v_dom=(0.0, phi_max),
        position=pos,
        tangent_u=tan_u,
        tangent_v=tan_v,
        boundary=() if full_turn else ((curve, +1), (far, -1)),
        periodic=(True, full_turn),
        # |S_u| = |curve'| and |S_v| = |(x, y)|, since the rotation is isometric
        speed=math.hypot(curve.speed, planar_radius(curve)),
    )


def torus_characteristic_loop(R: float, r: float) -> HCurve:
    """Leaf through (0, 0) of the characteristic foliation on the torus, in closed form.

    Along a leaf parametrized by u the angle obeys dv/du = 2 r cos u / W^2
    with W = R + r cos u, whose antiderivative through v(0) = 0 is

        v(u) = (2r/d^2) (R sin u / W - (r/d) (u - 2 atan(beta sin u / (1 + beta cos u))))

    with d = sqrt(R^2 - r^2) and beta = (R - d)/r < 1, so v is continuous for
    every real u and advances by -4 pi r^2/d^3 per turn.  The curve is
    horizontal exactly, because the theta pairings of the two torus
    tangents cancel by construction.  It closes in the ambient group only
    when that advance is a multiple of 2*pi, which happens at special radii.
    """
    R, r = float(R), float(r)
    if not R > r > 0:
        raise ValueError(f"need R > r > 0, got R={R}, r={r}")
    torus = torus_surface(R, r)
    a, b = 0.0, 2.0 * math.pi
    d = math.sqrt((R - r) * (R + r))
    beta = r / (R + d)  # = (R - d)/r without the cancellation

    def slope(u):
        u = np.asarray(u, dtype=float)
        return 2.0 * r * np.cos(u) / (R + r * np.cos(u)) ** 2

    def v_of(u):
        turn = u - 2.0 * np.arctan(beta * np.sin(u) / (1.0 + beta * np.cos(u)))
        return (2.0 * r / d**2) * (R * np.sin(u) / (R + r * np.cos(u)) - r * turn / d)

    def pos(tau):
        tau = np.asarray(tau, dtype=float)
        return torus.position(tau, v_of(tau))

    def vel(tau):
        tau = np.asarray(tau, dtype=float)
        vv = v_of(tau)
        return torus.tangent_u(tau, vv) + slope(tau)[..., None] * torus.tangent_v(tau, vv)

    # orthogonal tangents: |vel|^2 = r^2 + (2 r cos u / (R + r cos u))^2
    return HCurve(a, b, pos, vel, math.hypot(r, 2.0 * r / (R - r)))


def characteristic_residual(S: ParamSurface, u, v):
    """Theta pairings (theta(S_u), theta(S_v)); (0,0) marks a characteristic point.

    A single point gives two floats, a batch two arrays.
    """
    from .foliation import _pairings

    return _pairings(S, u, v)[3:]


def cylinder_embeds(curve: HCurve, height: float, samples: int = 4096) -> bool:
    """Whether the vertical cylinder of the given height over the curve embeds.

    The cylinder self-intersects exactly when two parameters hit the same
    planar point with vertical offsets closer than the ruling height.
    """
    from .curves import self_intersection_gap

    return float(height) < self_intersection_gap(curve, samples=samples)

