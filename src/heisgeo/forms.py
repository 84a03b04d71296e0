"""Scalar fields and the small complex of forms on the three dimensional group.

Fields evaluate on points of shape (..., 3).  Frame derivatives come only
from derivative rules (jets and the algebra of such fields); a field
without a rule raises on differentiation.  Forms are stored by
coefficients in the coframe (dx, dy, theta) dual to the frame (X, Y, T);
there is no dt coefficient anywhere, which is what makes the complex small.

A field built from a jet carries one entry point, `jet(p)`, for its
coordinate gradient and Hessian.  D(omega) of a form with jet coefficients
reads one jet per distinct coefficient and point batch; the lazily built
derivative fields give the same numbers bit for bit and serve single
derivatives and the five-point third derivatives.
"""

from __future__ import annotations

import numpy as np

from .core import contact, multiply

__all__ = [
    "ScalarField",
    "scalar_from_jet",
    "bump_field",
    "bump_form",
    "HorizontalForm",
    "VerticalForm",
    "ThetaWedgeForm",
    "TopForm",
    "horizontal_differential",
    "vertical_correction",
    "middle_differential",
    "top_differential",
]

# third derivatives of jet fields difference the exact second order closures;
# the five point rule with a coarser step keeps both truncation and rounding
# near 1e-12 instead of the 1e-9 a plain centered difference would give
_FD4_STEP = 3e-4


def _fd4_field(func, axis: int) -> "ScalarField":
    def diff(p):
        h = _FD4_STEP * (1.0 + np.linalg.norm(p, axis=-1))
        off = np.zeros_like(p)
        off[..., axis] = h
        far = np.zeros_like(p)
        far[..., axis] = 2.0 * h
        num = (
            -func(multiply(p, far))
            + 8.0 * func(multiply(p, off))
            - 8.0 * func(multiply(p, -off))
            + func(multiply(p, -far))
        )
        return num / (12.0 * h)

    return ScalarField(diff)


class ScalarField:
    """Scalar function on the group with lazily built frame derivatives.

    `func` maps points (..., 3) to values (...).  The optional dX, dY, dT
    arguments are zero-argument callables producing the derivative fields;
    they are invoked at most once.  X(), Y() and T() of a field built
    without the matching rule raise `ValueError`.
    """

    # jet(p) -> (gradient, Hessian entries) for fields built from a jet; see
    # _jet_field.  Fields from the algebra below carry none.
    jet = None

    def __init__(self, func, dX=None, dY=None, dT=None):
        self._func = func
        self._thunks = [dX, dY, dT]
        self._cache: dict = {}

    def __call__(self, p):
        return self._func(np.asarray(p, dtype=float))

    def _derive(self, axis: int) -> "ScalarField":
        if axis not in self._cache:
            thunk = self._thunks[axis]
            if thunk is None:
                raise ValueError(f"field has no derivative rule for {'XYT'[axis]}")
            self._cache[axis] = thunk()
        return self._cache[axis]

    def X(self) -> "ScalarField":
        return self._derive(0)

    def Y(self) -> "ScalarField":
        return self._derive(1)

    def T(self) -> "ScalarField":
        return self._derive(2)

    def __add__(self, g: "ScalarField"):
        return ScalarField(
            lambda p: self(p) + g(p),
            dX=lambda: self.X() + g.X(),
            dY=lambda: self.Y() + g.Y(),
            dT=lambda: self.T() + g.T(),
        )

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, g: "ScalarField"):
        return self + (-g)

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            g = other
            return ScalarField(
                lambda p: self(p) * g(p),
                dX=lambda: self.X() * g + self * g.X(),
                dY=lambda: self.Y() * g + self * g.Y(),
                dT=lambda: self.T() * g + self * g.T(),
            )
        c = float(other)
        return ScalarField(
            lambda p: c * self(p),
            dX=lambda: self.X() * c,
            dY=lambda: self.Y() * c,
            dT=lambda: self.T() * c,
        )

    __rmul__ = __mul__


def _frame_first(p, dx, dy, dt):
    """(Xu, Yu, Tu) of a function with coordinate gradient (dx, dy, dt) at p.

    X = dx - (y/2) dt and Y = dy + (x/2) dt; T = dt.
    """
    return dx - 0.5 * p[..., 1] * dt, dy + 0.5 * p[..., 0] * dt, dt


def _frame_second(p, gradient, hessian):
    """X(Xf), Y(Xf), X(Yf), Y(Yf) and Tf from the coordinate jet of f at p.

    `gradient = (f_x, f_y, f_t)` and `hessian = (f_xx, f_xy, f_xt, f_yy,
    f_yt, f_tt)`, each an array over the points.  This is the one place the
    second order chain rule through X and Y is written out.
    """
    x, y = p[..., 0], p[..., 1]
    ft = gradient[2]
    hxx, hxy, hxt, hyy, hyt, htt = hessian
    # the mixed derivatives share every term but the sign of the bracket
    # term, X(Yf) - Y(Xf) = Tf
    half_t = 0.5 * ft
    x_xt = 0.5 * x * hxt
    y_yt = 0.5 * y * hyt
    xy_tt = 0.25 * x * y * htt
    xx = hxx - y * hxt + 0.25 * y * y * htt
    yx = hxy - half_t - y_yt + x_xt - xy_tt
    xy = hxy + half_t + x_xt - y_yt - xy_tt
    yy = hyy + x * hyt + 0.25 * x * x * htt
    return xx, yx, xy, yy, ft


def scalar_from_jet(value, gradient, hessian) -> ScalarField:
    """Field with exact frame derivatives through second order.

    `gradient(p) -> (..., 3)` and `hessian(p) -> (..., 3, 3)` hold coordinate
    derivatives; the chain rule through X = dx - (y/2) dt and Y = dy + (x/2) dt
    is applied here once so callers only supply the flat jet.  A third frame
    derivative takes the five-point rule on the exact second derivative; a
    fourth raises `ValueError`.
    """

    def jet(p):
        g, h = gradient(p), hessian(p)
        return ((g[..., 0], g[..., 1], g[..., 2]),
                (h[..., 0, 0], h[..., 0, 1], h[..., 0, 2],
                 h[..., 1, 1], h[..., 1, 2], h[..., 2, 2]))

    return _jet_field(value, jet)


def _jet_field(value, jet) -> ScalarField:
    """Field whose derivatives through second order come from one entry point.

    `jet(p)` returns the coordinate gradient and the six distinct Hessian
    entries, in the layout `_frame_second` reads; the field keeps it as
    `.jet`, so `middle_differential` evaluates it once per point batch for
    all of D(omega).  The derivative fields below serve single derivatives
    and the five-point third derivatives.
    """

    def second(k):
        # X(Xf), Y(Xf), X(Yf), Y(Yf) as read off the full jet
        return lambda p: _frame_second(p, *jet(p))[k]

    def vertical(k):
        # X(Tf), Y(Tf), T(Tf); T commutes with X and Y, so these are also
        # T(Xf) and T(Yf)
        def fn(p):
            _, (_, _, hxt, _, hyt, htt) = jet(p)
            return _frame_first(p, hxt, hyt, htt)[k]

        return fn

    def exact_second(fn):
        return ScalarField(
            fn,
            dX=lambda: _fd4_field(fn, 0),
            dY=lambda: _fd4_field(fn, 1),
            dT=lambda: _fd4_field(fn, 2),
        )

    # frame derivatives (X, Y, T) of Xf, Yf and Tf
    rows = (
        (second(0), second(1), vertical(0)),
        (second(2), second(3), vertical(1)),
        (vertical(0), vertical(1), vertical(2)),
    )

    def first(i):
        def func(p):
            return _frame_first(p, *jet(p)[0])[i]

        dx_, dy_, dt_ = rows[i]
        return ScalarField(
            func,
            dX=lambda: exact_second(dx_),
            dY=lambda: exact_second(dy_),
            dT=lambda: exact_second(dt_),
        )

    field = ScalarField(
        value,
        dX=lambda: first(0),
        dY=lambda: first(1),
        dT=lambda: first(2),
    )
    field.jet = jet
    return field


def bump_field(center, radius: float) -> ScalarField:
    """Fourth power bump (1 - |p - c|^2 / r^2)_+^4, supported in the ball.

    The fourth power keeps three continuous derivatives across the support
    sphere, enough for every operator in the complex to stay continuous.
    The flat jet is closed form: one pass computes d = p - c and q once,
    then the gradient and the six distinct Hessian entries, so frame
    derivatives through second order are exact and cheap.
    """
    c = np.asarray(center, dtype=float)
    if c.shape != (3,):
        raise ValueError("center must be a single point of shape (3,)")
    r2 = float(radius) ** 2
    if not r2 > 0:
        raise ValueError("radius must be positive")
    k1 = -8.0 / r2
    k2 = 48.0 / r2**2

    def q(d):
        return np.maximum(1.0 - (d * d).sum(axis=-1) / r2, 0.0)

    def value(p):
        return q(p - c) ** 4

    def jet(p):
        # grad = k1 q^3 d and hess = k1 q^3 I + k2 q^2 d d^T, each entry
        # rounded as the dense forms (k1 q^3) + ((k2 d_i) d_j) q^2 would be
        d = p - c
        qd = q(d)
        q2, q3 = qd**2, qd**3
        dx, dy, dt = d[..., 0], d[..., 1], d[..., 2]
        diag = k1 * q3
        kx, ky, kt = k2 * dx, k2 * dy, k2 * dt
        grad = (k1 * dx * q3, k1 * dy * q3, k1 * dt * q3)
        hess = (diag + kx * dx * q2, kx * dy * q2, kx * dt * q2,
                diag + ky * dy * q2, ky * dt * q2, diag + kt * dt * q2)
        return grad, hess

    return _jet_field(value, jet)


def bump_form(center, radius: float) -> "HorizontalForm":
    """Compactly supported test form chi dx + chi dy with the bump above.

    Carries `support_ball = (center, radius)`, so integrators can confine
    their rules to the ball, across whose sphere the coefficients kink.
    """
    c = np.asarray(center, dtype=float)
    chi = bump_field(c, radius)
    return HorizontalForm(
        chi, chi,
        support_ball=(c, float(radius)),
    )


class HorizontalForm:
    """One form f dx + g dy with no theta component.

    `support_ball = (center, radius)`, when set, is a ball outside which
    the coefficients vanish; the differential operators preserve it, since
    derivatives of the coefficients vanish wherever the coefficients do.
    """

    def __init__(self, f: ScalarField, g: ScalarField, support_ball=None):
        self.f = f
        self.g = g
        self.support_ball = support_ball

    def __call__(self, base, vec):
        vec = np.asarray(vec, dtype=float)
        return self.f(base) * vec[..., 0] + self.g(base) * vec[..., 1]


class VerticalForm:
    """One form c theta, annihilating horizontal vectors by construction."""

    def __init__(self, c: ScalarField, support_ball=None):
        self.c = c
        self.support_ball = support_ball

    def __call__(self, base, vec):
        return self.c(base) * contact(base, np.asarray(vec, dtype=float))


class ThetaWedgeForm:
    """Two form a theta^dx + b theta^dy.

    `coefficients(p) -> (a(p), b(p))`, when given, evaluates both
    coefficients in one call and is what evaluating the form uses; it must
    agree with the fields `a` and `b`, which the differential below still
    reads.
    """

    def __init__(self, a: ScalarField, b: ScalarField, support_ball=None, coefficients=None):
        self.a = a
        self.b = b
        self.support_ball = support_ball
        self._coefficients = coefficients

    def __call__(self, base, v1, v2):
        v1 = np.asarray(v1, dtype=float)
        v2 = np.asarray(v2, dtype=float)
        th1 = contact(base, v1)
        th2 = contact(base, v2)
        if self._coefficients is None:
            a, b = self.a(base), self.b(base)
        else:
            a, b = self._coefficients(np.asarray(base, dtype=float))
        return (a * (th1 * v2[..., 0] - th2 * v1[..., 0])
                + b * (th1 * v2[..., 1] - th2 * v1[..., 1]))


class TopForm:
    """Volume multiple c theta^dx^dy."""

    def __init__(self, c: ScalarField, support_ball=None):
        self.c = c
        self.support_ball = support_ball

    def __call__(self, base, v1, v2, v3):
        base = np.asarray(base, dtype=float)
        rows = [np.asarray(v, dtype=float) for v in (v1, v2, v3)]
        # cofactor expansion in scalars so single vectors broadcast over
        # batched base points
        (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = (
            (contact(base, v), v[..., 0], v[..., 1]) for v in rows
        )
        det = (
            a1 * (b2 * c3 - b3 * c2)
            - b1 * (a2 * c3 - a3 * c2)
            + c1 * (a2 * b3 - a3 * b2)
        )
        return self.c(base) * det


def horizontal_differential(u: ScalarField) -> HorizontalForm:
    """Degree zero to one: (Xu) dx + (Yu) dy, the horizontal part of du."""
    return HorizontalForm(u.X(), u.Y())


def vertical_correction(w: HorizontalForm) -> VerticalForm:
    """Vertical form (Xg - Yf) theta that removes the dx^dy term of dw.

    Adding it to the form before differentiating is what makes the degree
    one to two operator below land back in the theta wedge span.
    """
    return VerticalForm(
        w.g.X() - w.f.Y(),
        support_ball=w.support_ball,
    )


def middle_differential(w: HorizontalForm) -> ThetaWedgeForm:
    """Degree one to two, the second order step of the complex.

    With c = Xg - Yf this is d(f dx + g dy + c theta) in the coframe, which
    works out to (Tf - Xc) theta^dx + (Tg - Yc) theta^dy.  When f and g are
    jet fields, evaluating the result reads one jet per distinct field and
    forms a = Tf - (X(Xg) - X(Yf)) and b = Tg - (Y(Xg) - Y(Yf)) from it,
    bit for bit what the derivative fields `.a` and `.b` give.
    """
    f, g = w.f, w.g
    c = vertical_correction(w).c
    coefficients = None
    if f.jet is not None and g.jet is not None:
        def coefficients(p):
            _, _, f_xy, f_yy, f_t = fj = _frame_second(p, *f.jet(p))
            g_xx, g_yx, _, _, g_t = fj if g is f else _frame_second(p, *g.jet(p))
            return f_t - (g_xx - f_xy), g_t - (g_yx - f_yy)

    return ThetaWedgeForm(
        f.T() - c.X(), g.T() - c.Y(),
        support_ball=w.support_ball,
        coefficients=coefficients,
    )


def top_differential(w: ThetaWedgeForm) -> TopForm:
    """Degree two to three: (Ya - Xb) theta^dx^dy."""
    return TopForm(
        w.a.Y() - w.b.X(),
        support_ball=w.support_ball,
    )
