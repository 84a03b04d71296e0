"""Parametrized surfaces with boundary in the group.

A surface is a rectangle of parameters with a position map into the group,
its two exact tangent callables, per axis periodicity flags, and a
constructor supplied list of oriented boundary curves.  Every surface here
is swept: a curve moved by a one-parameter group of contact automorphisms,
S(u, v) = M_v(curve(u)) (`swept`).  The half-plane and the cylinder move
their curve along t (`VERTICAL`), the band and the torus turn it about the
t-axis (`ROTATE_T`), and an intrinsic graph moves its curve by left
translation along Y (`LEFT_Y`); the torus is its meridian circle
turned about the t-axis.  A surface may also carry `frame`, its three maps
at two floats as Python floats; the torus's frame takes one cos and sin of
each angle, and the leaf solver reads the torus through it.  The theta
pairings of the two tangents drive everything geometric here: a point is
characteristic when both vanish, and the kernel direction of theta
restricted to the tangent plane is the characteristic foliation (see
`heisgeo.foliation`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .core import rotate_t_axis, theta_of
from .curves import HCurve, horizontality_residual, self_intersection_gap

__all__ = [
    "ParamSurface",
    "Motion",
    "VERTICAL",
    "ROTATE_T",
    "LEFT_Y",
    "swept",
    "vertical_halfplane",
    "lift_cylinder",
    "torus_surface",
    "revolve_curve",
    "torus_leaf_angle",
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
    edges.  `sweep` = (curve, motion) says that S(u, v) = M_v(curve(u))
    (see `swept`); the surface integrals read it, not the maps, and a curve
    that is only piecewise smooth is swept piece by piece.  `rim_edges`, set
    by the rims' constructor, names each rim's v-edge: 0, 1 (v = v_dom[i]) or None.
    `frame`, where set, maps two floats (u, v) to the position, S_u and S_v
    as three Python floats each, the bits of the maps' rows; the pairing
    helper reads it in place of the maps.
    """

    u_dom: tuple[float, float]
    v_dom: tuple[float, float]
    position: Callable[[np.ndarray, np.ndarray], np.ndarray]
    tangent_u: Callable[[np.ndarray, np.ndarray], np.ndarray]
    tangent_v: Callable[[np.ndarray, np.ndarray], np.ndarray]
    boundary: tuple[tuple[HCurve, int], ...] = ()
    periodic: tuple[bool, bool] = (False, False)
    truncation_edges: tuple[tuple[int, float], ...] = ()
    sweep: tuple | None = None
    rim_edges: tuple[int | None, ...] = ()
    frame: Callable[[float, float], tuple] | None = None

    def __post_init__(self):
        if not (self.u_dom[1] > self.u_dom[0] and self.v_dom[1] > self.v_dom[0]):
            raise ValueError("parameter rectangle is empty")
        if self.rim_edges and (len(self.rim_edges) != len(self.boundary) or self.periodic[1]
                               or not set(self.rim_edges) <= {None, 0, 1}):
            raise ValueError("rim_edges needs one entry per rim, each None or a v-edge 0 or 1")

    def edge(self, axis: int, value: float, speed: float) -> HCurve:
        """The parameter line u = value (axis 0, run along v) or v = value
        (axis 1, run along u) as a curve; `speed` bounds its velocity."""
        if axis == 0:
            return HCurve(*self.v_dom, lambda s: self.position(value, s),
                          lambda s: self.tangent_v(value, s), speed)
        return HCurve(*self.u_dom, lambda s: self.position(s, value),
                      lambda s: self.tangent_u(s, value), speed)


class Motion(NamedTuple):
    """A one-parameter group v -> M_v of contact automorphisms of the group.

    `move(p, v)` is M_v(p) and `push(w, v)` its differential applied to w,
    the same at every point; `field(q)` is the generator d/dv M_v at the
    point q reached.  |dM_v| <= 1 + stretch |v|.  `orbit(p, c, r)` is
    (mid, half): the ball level r^2 - |M_v(p) - c|^2 is positive exactly
    where |v - mid| < half, and largest at mid; on a motion with a
    `period`, half = period / 2 is the whole orbit and the level is
    smallest at mid + period / 2.  Every argument broadcasts.
    """

    move: Callable
    push: Callable
    field: Callable
    stretch: float
    orbit: Callable
    period: float | None = None

    def push_bound(self, curve: HCurve, v_dom) -> float:
        """Bound of |S_u| = |dM_v(curve')| over v in v_dom."""
        return curve.speed * (1.0 + self.stretch * max(map(abs, v_dom)))


def _shifted(p, axis, v):
    out = p.copy()
    out[..., axis] += v
    return out


def _line_orbit(field):
    """`orbit` of a translation M_v(p) = p + v e, e = field(p) constant on
    the orbit and |e| >= 1: the level is r^2 - |p + mid e - c|^2 - |e|^2 (v - mid)^2."""

    def orbit(p, c, r):
        e = field(p)
        ee = (e * e).sum(axis=-1)
        mid = -((p - c) * e).sum(axis=-1) / ee
        d = p + mid[..., None] * e - c
        return mid, np.sqrt(np.maximum(r * r - (d * d).sum(axis=-1), 0.0) / ee)

    return orbit


def _circle_orbit(p, c, r):
    """`orbit` of the rotation: on the circle through p the level is
    A + rho cos(v - psi), and with near = A + rho and far = A - rho (the
    ball levels of the meridian (|p_xy|, p_t) about (+-|c_xy|, c_t)) it is
    positive within 2 atan(sqrt(near / -far)) of psi.  |c_xy| is math.hypot
    of each ball (np.hypot rounds some differently), whatever the batch."""
    c_r = np.asarray(np.frompyfunc(math.hypot, 2, 1)(c[..., 0], c[..., 1]), dtype=float)
    p_r, dt2 = np.hypot(p[..., 0], p[..., 1]), (p[..., 2] - c[..., 2]) ** 2
    near, far = r * r - (p_r - c_r) ** 2 - dt2, r * r - (p_r + c_r) ** 2 - dt2
    psi = np.arctan2(p[..., 0] * c[..., 1] - p[..., 1] * c[..., 0], p[..., 0] * c[..., 0] + p[..., 1] * c[..., 1])
    return psi, 2.0 * np.arctan2(np.sqrt(np.maximum(near, 0.0)), np.sqrt(np.maximum(-far, 0.0)))


def _t_field(q):
    return _shifted(np.zeros(q.shape), 2, 1.0)


def _y_field(q):
    """(0, 1, -x/2), the right-invariant field whose flow is left translation along Y."""
    return np.stack([np.zeros(q.shape[:-1]), np.ones(q.shape[:-1]), -0.5 * q[..., 0]], axis=-1)


def _sheared(w, v):
    """Left translation by (0, v, 0) less the shift: t gains -v w_x / 2."""
    return _shifted(w, 2, -0.5 * v * w[..., 0])


# p + (0, 0, v), the flow of T
VERTICAL = Motion(lambda p, v: _shifted(p, 2, v), lambda w, v: w, _t_field, 0.0, _line_orbit(_t_field))
# rotation by v about the t-axis, an isometry
ROTATE_T = Motion(lambda p, v: rotate_t_axis(v, p), lambda w, v: rotate_t_axis(v, w),
                  lambda q: np.stack([-q[..., 1], q[..., 0], np.zeros(q.shape[:-1])], axis=-1),
                  0.0, _circle_orbit, 2.0 * math.pi)
# (0, v, 0) * p = (x, y + v, t - v x / 2): |dM_v| <= 1 + |v|/2
LEFT_Y = Motion(lambda p, v: _shifted(_sheared(p, v), 1, v), _sheared, _y_field, 0.5, _line_orbit(_y_field))


def swept(curve: HCurve, motion: Motion, v_dom, **fields) -> ParamSurface:
    """S(u, v) = M_v(curve(u)) over [a, b] x v_dom: the `sweep` that the
    integrals read, and maps with the exact tangents S_u = dM_v(curve'(u))
    and S_v, the motion's field; `fields` are the other `ParamSurface` fields."""

    def on_pairs(f):
        return lambda u, v: f(*np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float)))

    pos = on_pairs(lambda u, v: motion.move(curve.position(u), v))
    tan_u = on_pairs(lambda u, v: motion.push(curve.velocity(u), v))
    v_dom = (float(v_dom[0]), float(v_dom[1]))
    return ParamSurface((curve.a, curve.b), v_dom, pos, tan_u, lambda u, v: motion.field(pos(u, v)),
                        sweep=(curve, motion), **fields)


def vertical_halfplane() -> ParamSurface:
    """Vertical half-plane {x = 0, t > 0}, truncated to |y| <= 3, t <= 3.

    It is the vertical surface over the y-axis (0, s, 0).  The genuine
    boundary is that axis, an integral curve of the frame field Y; the three
    truncation edges y = -3, y = 3 and t = 3 are not boundary components, so
    integrands must vanish near them.
    """
    y0, y1, t1 = -3.0, 3.0, 3.0

    def along_y(s):
        out = np.zeros(np.shape(s) + (3,))
        out[..., 1] = s
        return out

    y_axis = HCurve(y0, y1, along_y, lambda s: along_y(np.ones_like(s)), 1.0)
    return swept(y_axis, VERTICAL, (0.0, t1), boundary=((y_axis, +1),), rim_edges=(0,),
                 truncation_edges=((0, y0), (0, y1), (1, t1)))


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

    The bottom rim is the curve itself, the top the surface's edge v = height,
    its vertical translate; the induced boundary orientations are opposite,
    bottom positive.
    """
    if not height > 0:
        raise ValueError(f"height must be positive, got {height}")
    _check_closed_horizontal(curve)
    S = swept(curve, VERTICAL, (0.0, height), periodic=(True, False))
    return replace(S, boundary=((curve, +1), (S.edge(1, S.v_dom[1], curve.speed), -1)), rim_edges=(0, 1))


def torus_surface(R: float, r: float) -> ParamSurface:
    """Torus of revolution about the t-axis, tube radius r, center radius R:
    the meridian (R + r cos u, 0, r sin u) turned about the t-axis."""
    R, r = float(R), float(r)
    if not R > r > 0:
        raise ValueError(f"need R > r > 0, got R={R}, r={r}")

    def meridian(u):
        return np.stack([R + r * np.cos(u), np.zeros(np.shape(u)), r * np.sin(u)], axis=-1)

    def meridian_velocity(u):
        return np.stack([-r * np.sin(u), np.zeros(np.shape(u)), r * np.cos(u)], axis=-1)

    def frame(u, v):
        """Position, S_u and S_v at two floats, three Python floats each."""
        cu, su, cv, sv = math.cos(u), math.sin(u), math.cos(v), math.sin(v)
        w = R + r * cu
        return (w * cv, w * sv, r * su), (-r * su * cv, -r * su * sv, r * cu), (-w * sv, w * cv, 0.0)

    turn = (0.0, 2.0 * math.pi)
    return swept(HCurve(*turn, meridian, meridian_velocity, r), ROTATE_T, turn,
                 periodic=(True, True), frame=frame)


def revolve_curve(curve: HCurve, phi_max: float) -> ParamSurface:
    """Band swept by rotating a closed horizontal curve about the t-axis.

    Rotation about the vertical axis is a group automorphism whose
    differential acts by the same planar rotation on tangent coordinates,
    so both rims stay horizontal exactly.  The rim at angle 0 is the curve,
    positively oriented; the rim at phi_max is the surface's edge there,
    negatively oriented.
    """
    phi_max = float(phi_max)
    if not 0.0 < phi_max <= 2.0 * math.pi + 1e-12:
        raise ValueError(f"need 0 < phi_max <= 2*pi, got {phi_max}")
    _check_closed_horizontal(curve)

    full_turn = abs(phi_max - 2.0 * math.pi) < 1e-12
    S = swept(curve, ROTATE_T, (0.0, phi_max), periodic=(True, full_turn))
    if full_turn:
        return S
    return replace(S, boundary=((curve, +1), (S.edge(1, phi_max, curve.speed), -1)), rim_edges=(0, 1))


def torus_leaf_angle(R: float, r: float):
    """V(u), the angle of the characteristic leaf through (0, 0) of the torus (R, r).

    Along a leaf parametrized by u the angle obeys dv/du = 2 r cos u / W^2
    with W = R + r cos u, whose antiderivative through V(0) = 0 is

        V(u) = (2r/d^2) (R sin u / W - (r/d) (u - 2 atan(beta sin u / (1 + beta cos u))))

    with d = sqrt(R^2 - r^2) and beta = (R - d)/r < 1, so V is continuous for
    every real u and advances by -4 pi r^2/d^3 per turn.  Rotation about
    the t-axis is a contact automorphism, so every leaf is
    v = v0 + V(u) - V(u0) in unwrapped coordinates.
    """
    R, r = float(R), float(r)
    d = math.sqrt((R - r) * (R + r))
    beta = r / (R + d)  # = (R - d)/r without the cancellation

    def v_of(u):
        turn = u - 2.0 * np.arctan(beta * np.sin(u) / (1.0 + beta * np.cos(u)))
        return (2.0 * r / d**2) * (R * np.sin(u) / (R + r * np.cos(u)) - r * turn / d)

    return v_of


def torus_characteristic_loop(R: float, r: float) -> HCurve:
    """Leaf through (0, 0) of the characteristic foliation on the torus, in closed form.

    Its angle is v = `torus_leaf_angle(R, r)`(u).  The curve is horizontal
    exactly, because the theta pairings of the two torus tangents cancel
    by construction.  It closes in the ambient group only when the advance
    of v per turn is a multiple of 2*pi, which happens at special radii.
    """
    R, r = float(R), float(r)
    torus = torus_surface(R, r)
    a, b = 0.0, 2.0 * math.pi
    v_of = torus_leaf_angle(R, r)

    def slope(u):
        u = np.asarray(u, dtype=float)
        return 2.0 * r * np.cos(u) / (R + r * np.cos(u)) ** 2

    def pos(tau):
        tau = np.asarray(tau, dtype=float)
        return torus.position(tau, v_of(tau))

    def vel(tau):
        tau = np.asarray(tau, dtype=float)
        vv = v_of(tau)
        return torus.tangent_u(tau, vv) + slope(tau)[..., None] * torus.tangent_v(tau, vv)

    # orthogonal tangents: |vel|^2 = r^2 + (2 r cos u / (R + r cos u))^2
    return HCurve(a, b, pos, vel, math.hypot(r, 2.0 * r / (R - r)))


def _components(a):
    """x, y, t components of a map's value: a (3,) array gives Python
    floats, a batch three arrays."""
    return a.tolist() if a.ndim == 1 else (a[..., 0], a[..., 1], a[..., 2])


def _pairings(S: ParamSurface, u, v):
    """Position and tangents as components, and their theta pairings (theta(S_u), theta(S_v)).

    Two floats read all three from the surface's `frame` where it has one.
    """
    if S.frame is not None and isinstance(u, float) and isinstance(v, float):
        p, su, sv = S.frame(u, v)
    else:
        p = _components(S.position(u, v))
        su = _components(S.tangent_u(u, v))
        sv = _components(S.tangent_v(u, v))
    return p, su, sv, theta_of(p[0], p[1], *su), theta_of(p[0], p[1], *sv)


def characteristic_residual(S: ParamSurface, u, v):
    """Theta pairings (theta(S_u), theta(S_v)); (0,0) marks a characteristic point.

    A single point gives two floats, a batch two arrays.
    """
    return _pairings(S, u, v)[3:]


def cylinder_embeds(curve: HCurve, height: float, samples: int = 4096) -> bool:
    """Whether the vertical cylinder of the given height over the curve embeds.

    The cylinder self-intersects exactly when two parameters hit the same
    planar point with vertical offsets closer than the ruling height.
    """
    return float(height) < self_intersection_gap(curve, samples=samples)

