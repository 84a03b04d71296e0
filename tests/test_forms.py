"""Scalar fields with exact jets, the small complex, and its identities."""

import numpy as np
import pytest

from heisgeo import contact, frame_at
from heisgeo.forms import (
    HorizontalForm,
    ScalarField,
    ThetaWedgeForm,
    bump_field,
    bump_form,
    horizontal_differential,
    middle_differential,
    scalar_from_jet,
    top_differential,
    vertical_correction,
)


def random_jet_field(rng, freq_scale=1.0):
    """Polynomial plus one sine wave, with handwritten gradient and hessian."""
    a0 = rng.normal()
    a = rng.normal(size=3)
    M = rng.normal(size=(3, 3))
    M = 0.5 * (M + M.T)
    s = rng.normal()
    k = rng.uniform(0.5, 1.5, size=3) * freq_scale
    phi = rng.uniform(0.0, 2 * np.pi)

    def value(p):
        quad = 0.5 * np.einsum("...i,ij,...j->...", p, M, p)
        return a0 + p @ a + quad + s * np.sin(p @ k + phi)

    def gradient(p):
        lin = a + np.einsum("ij,...j->...i", M, p)
        return lin + s * np.cos(p @ k + phi)[..., None] * k

    def hessian(p):
        osc = -s * np.sin(p @ k + phi)
        return M + osc[..., None, None] * np.outer(k, k)

    return scalar_from_jet(value, gradient, hessian)


def random_points(rng, n, scale=1.5):
    return rng.uniform(-scale, scale, (n, 3))


def frame_fd(field, p, axis, h=1e-6):
    # reference frame derivative by central differences along X, Y, T
    p = np.asarray(p, dtype=float)
    x, y = p[..., 0], p[..., 1]
    dirs = [
        np.stack([np.ones_like(x), np.zeros_like(x), -y / 2], axis=-1),
        np.stack([np.zeros_like(x), np.ones_like(x), x / 2], axis=-1),
        np.stack([np.zeros_like(x), np.zeros_like(x), np.ones_like(x)], axis=-1),
    ]
    d = dirs[axis]
    return (field(p + h * d) - field(p - h * d)) / (2 * h)


def test_jet_first_derivatives_match_fd():
    rng = np.random.default_rng(22)
    for _ in range(5):
        f = random_jet_field(rng)
        p = random_points(rng, 30)
        for axis, d in enumerate((f.X(), f.Y(), f.T())):
            gap = d(p) - frame_fd(f, p, axis)
            assert np.max(np.abs(gap)) < 5e-9, axis


def test_jet_second_derivatives_match_fd():
    rng = np.random.default_rng(23)
    f = random_jet_field(rng)
    p = random_points(rng, 30)
    for ax1, d1 in enumerate((f.X(), f.Y(), f.T())):
        for ax2, d2 in enumerate((d1.X(), d1.Y(), d1.T())):
            gap = d2(p) - frame_fd(d1, p, ax2)
            assert np.max(np.abs(gap)) < 5e-8, (ax1, ax2)


def test_mixed_horizontal_derivatives_bracket():
    # X(Yf) - Y(Xf) = Tf pointwise, the bracket relation on scalars
    rng = np.random.default_rng(24)
    for _ in range(10):
        f = random_jet_field(rng)
        p = random_points(rng, 200)
        gap = f.Y().X()(p) - f.X().Y()(p) - f.T()(p)
        assert np.max(np.abs(gap)) < 1e-12


def test_field_algebra():
    rng = np.random.default_rng(25)
    f, g = random_jet_field(rng), random_jet_field(rng)
    p = random_points(rng, 50)
    assert np.max(np.abs((f + g)(p) - f(p) - g(p))) < 1e-14
    assert np.max(np.abs((2.5 * f)(p) - 2.5 * f(p))) < 1e-14
    # derivatives of a combination are the same combination of the parts'
    # derivatives, to the last bit, through third order
    p = random_points(rng, 200)

    def at(h, path):
        for axis in path:
            h = getattr(h, axis)()
        return h(p)

    combos = (
        (f + g, lambda a, b: a + b, ("X", "XY", "XYT")),
        (f - g, lambda a, b: a - b, ("T", "TX", "TXY")),
        (2.5 * f, lambda a, b: 2.5 * a, ("Y", "YY", "YYX")),
        (-f, lambda a, b: -a, ("XY", "XYT")),
    )
    for h, combine, paths in combos:
        for path in paths:
            assert np.array_equal(at(h, path), combine(at(f, path), at(g, path))), path
    # a derivative rule runs once per axis, and the field is kept
    calls = []

    def rule(axis):
        calls.append(axis)
        return f

    counted = ScalarField(f, rule)
    assert counted.X() is counted.X() and calls == [0]
    assert f.X() is f.X()
    # without fused coefficients the wedge evaluates its fields
    v1, v2 = rng.normal(size=(2, 200, 3))
    wedge = ThetaWedgeForm(f, g)
    assert np.array_equal(wedge(p, v1, v2), _wedge_from_thunks(wedge, p, v1, v2))


def test_complex_first_identity_exact_fields():
    # the degree two operator annihilates horizontal differentials
    rng = np.random.default_rng(26)
    vecs = rng.normal(size=(2, 3))
    for _ in range(20):
        f = random_jet_field(rng)
        p = random_points(rng, 50)
        Dd0 = middle_differential(horizontal_differential(f))
        vals = Dd0(p, vecs[0], vecs[1])
        assert np.max(np.abs(vals)) <= 1e-10


def test_complex_second_identity_exact_fields():
    rng = np.random.default_rng(27)
    vecs = rng.normal(size=(3, 3))
    for _ in range(20):
        f, g = random_jet_field(rng), random_jet_field(rng)
        p = random_points(rng, 50)
        dD = top_differential(middle_differential(HorizontalForm(f, g)))
        vals = dD(p, *vecs)
        assert np.max(np.abs(vals)) <= 1e-10


def test_fields_without_a_rule_raise():
    # derivatives come from rules only: a plain callable has none, and a jet
    # field's rules stop after the five-point third derivative
    f = ScalarField(lambda p: np.sin(p[..., 0]) * np.cos(p[..., 1]) + p[..., 2] ** 2)
    for derive in (f.X, f.Y, f.T):
        with pytest.raises(ValueError):
            derive()
    rng = np.random.default_rng(36)
    g = random_jet_field(rng)
    third = g.X().X().X()
    assert np.all(np.isfinite(third(random_points(rng, 20))))
    with pytest.raises(ValueError):
        third.X()


def coordinate_exterior_derivative(P, Q, R, p, v1, v2, h=1e-6):
    """d(P dx + Q dy + R dt) evaluated on (v1, v2) by central differences."""
    def partials(F):
        out = []
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            out.append((F(p + e) - F(p - e)) / (2 * h))
        return out
    Px, Py, Pt = partials(P)
    Qx, Qy, Qt = partials(Q)
    Rx, Ry, Rt = partials(R)
    wedge = lambda i, j: v1[..., i] * v2[..., j] - v1[..., j] * v2[..., i]
    return (
        (Qx - Py) * wedge(0, 1)
        + (Rx - Pt) * wedge(0, 2)
        + (Ry - Qt) * wedge(1, 2)
    )


def test_middle_operator_matches_exterior_derivative_oracle():
    # D omega = d(omega + c theta) as plain forms on R^3; the oracle builds
    # the right side from coordinate partials of the combined coefficients
    rng = np.random.default_rng(28)
    for _ in range(10):
        f, g = random_jet_field(rng), random_jet_field(rng)
        w = HorizontalForm(f, g)
        c = vertical_correction(w).c
        P = lambda p: f(p) + c(p) * p[..., 1] / 2.0
        Q = lambda p: g(p) - c(p) * p[..., 0] / 2.0
        R = lambda p: c(p)
        D = middle_differential(w)
        p = random_points(rng, 20)
        v1, v2 = rng.normal(size=(2, 3))
        oracle = coordinate_exterior_derivative(P, Q, R, p, v1, v2)
        assert np.max(np.abs(D(p, v1, v2) - oracle)) <= 1e-8


def test_vertical_correction_kills_flat_wedge_component():
    # d(omega + c theta) must have no dx^dy component: evaluate the oracle
    # on the horizontal frame pair, where theta wedge terms vanish
    rng = np.random.default_rng(29)
    f, g = random_jet_field(rng), random_jet_field(rng)
    w = HorizontalForm(f, g)
    c = vertical_correction(w).c
    P = lambda p: f(p) + c(p) * p[..., 1] / 2.0
    Q = lambda p: g(p) - c(p) * p[..., 0] / 2.0
    R = lambda p: c(p)
    for p in random_points(np.random.default_rng(30), 10):
        X, Y, _ = frame_at(p)
        val = coordinate_exterior_derivative(P, Q, R, p, X.vec, Y.vec)
        assert abs(val) <= 1e-8


def test_form_values_on_the_frame(affine_field):
    p = np.array([0.7, -0.2, 0.3])
    X, Y, T = frame_at(p)
    theta_dx = ThetaWedgeForm(affine_field(1.0), affine_field())
    assert abs(theta_dx(p, X.vec, T.vec) + 1.0) < 1e-15
    assert abs(theta_dx(p, T.vec, X.vec) - 1.0) < 1e-15
    assert abs(theta_dx(p, X.vec, Y.vec)) < 1e-15
    w = HorizontalForm(affine_field(x=1.0), affine_field(y=1.0))
    assert abs(w(p, X.vec) - p[0]) < 1e-15
    assert abs(affine_field(x=1.0)(p) - 0.7) < 1e-15


def test_vertical_form_annihilates_horizontal():
    rng = np.random.default_rng(31)
    c = random_jet_field(rng)
    form = vertical_correction(HorizontalForm(c, c))
    for p in random_points(rng, 20):
        X, Y, T = frame_at(p)
        assert abs(form(p, X.vec)) == 0.0
        assert abs(form(p, Y.vec)) == 0.0
        assert abs(form(p, T.vec) - form.c(p)) < 1e-15


def test_bump_field_support_and_smoothness():
    rng = np.random.default_rng(33)
    center = np.array([0.2, -0.5, 0.8])
    radius = 0.4
    chi = bump_field(center, radius)
    assert abs(chi(center) - 1.0) < 1e-15
    # vanishes outside with all derivatives
    far = center + np.array([radius * 1.01, 0.0, 0.0])
    for fld in (chi, chi.X(), chi.X().X(), chi.T()):
        assert abs(fld(far)) == 0.0
    # continuous up to the third derivative: values shrink like the cube of
    # the penetration depth just inside the edge
    for eps in (1e-2, 1e-3):
        p = center + np.array([0.0, radius * (1.0 - eps), 0.0])
        assert abs(chi(p)) < (3 * eps) ** 4
        assert abs(chi.Y()(p)) < 200 * eps**3
    # batch evaluation matches scalar
    pts = rng.uniform(-1, 1, (64, 3)) + center
    vals = chi(pts)
    assert vals.shape == (64,)
    assert np.all(vals >= 0.0)


def _wedge_from_thunks(D, p, v1, v2):
    # the same wedge as ThetaWedgeForm.__call__, with the coefficients read
    # through the derivative fields `.a` and `.b`
    th1, th2 = contact(p, v1), contact(p, v2)
    return (D.a(p) * (th1 * v2[..., 0] - th2 * v1[..., 0])
            + D.b(p) * (th1 * v2[..., 1] - th2 * v1[..., 1]))


def test_fused_middle_differential_is_bit_identical():
    # evaluating D(omega) reads each field's jet once; the result must be the
    # exact floats the derivative-field algebra gives
    rng = np.random.default_rng(34)
    forms = [bump_form(rng.uniform(-0.5, 0.5, 3), 0.7) for _ in range(3)]
    forms += [HorizontalForm(random_jet_field(rng), random_jet_field(rng)) for _ in range(3)]
    for w in forms:
        D = middle_differential(w)
        center = w.support_ball[0] if w.support_ball else np.zeros(3)
        p = center + random_points(rng, 500, scale=0.8)
        v1, v2 = rng.normal(size=(2, 500, 3))
        fused = D(p, v1, v2)
        assert np.array_equal(fused, _wedge_from_thunks(D, p, v1, v2))
        assert np.count_nonzero(fused) > 100


def test_bump_jet_matches_dense_formulas():
    # the one-pass jet rounds each entry exactly as the dense expressions
    # k1 q^3 d and k1 q^3 I + k2 q^2 d d^T do
    rng = np.random.default_rng(35)
    center, radius = np.array([0.2, -0.1, 0.3]), 0.6
    p = center + random_points(rng, 2000, scale=0.6)
    r2 = radius**2
    d = p - center
    q = np.maximum(1.0 - (d * d).sum(axis=-1) / r2, 0.0)
    grad = (-8.0 / r2) * d * (q**3)[..., None]
    hess = ((-8.0 / r2) * np.eye(3) * (q**3)[..., None, None]
            + (48.0 / r2**2) * d[..., :, None] * d[..., None, :] * (q**2)[..., None, None])
    (gx, gy, gt), entries = bump_field(center, radius).jet(p)
    assert np.array_equal(np.stack([gx, gy, gt], axis=-1), grad)
    for (i, j), h in zip(((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)), entries):
        assert np.array_equal(h, hess[..., i, j]), (i, j)
    assert np.count_nonzero(q) > 500


def test_bump_form_metadata():
    center = np.array([0.1, 0.2, 0.3])
    w = bump_form(center, 0.25)
    bc, br = w.support_ball
    assert np.allclose(bc, center) and br == 0.25
    # the ball survives every rung of the complex
    assert middle_differential(w).support_ball == w.support_ball
    assert vertical_correction(w).support_ball == w.support_ball
    assert top_differential(middle_differential(w)).support_ball == w.support_ball
