"""Group structure, frame, contact form, and metric primitives."""

import numpy as np

from heisgeo import (
    contact,
    dilate,
    frame_at,
    identity,
    inverse,
    multiply,
    rotate_t_axis,
)
from heisgeo.core import frame_length


def random_points(rng, n, scale=2.0):
    return rng.uniform(-scale, scale, (n, 3))


def test_group_axioms():
    rng = np.random.default_rng(11)
    p, q, r = (random_points(rng, 64) for _ in range(3))
    e = identity()
    assoc = multiply(multiply(p, q), r) - multiply(p, multiply(q, r))
    assert np.max(np.abs(assoc)) < 1e-13
    assert np.max(np.abs(multiply(p, e[None, :]) - p)) == 0.0
    assert np.max(np.abs(multiply(e[None, :], p) - p)) == 0.0
    assert np.max(np.abs(multiply(p, inverse(p)))) < 1e-16


def test_noncommutative():
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([0.0, 1.0, 0.0])
    assert abs(multiply(p, q)[2] - 0.5) < 1e-15
    assert abs(multiply(q, p)[2] + 0.5) < 1e-15


def test_dilation_homomorphism():
    rng = np.random.default_rng(12)
    p, q = random_points(rng, 64), random_points(rng, 64)
    for lam in (0.5, 2.0, 3.7):
        gap = dilate(lam, multiply(p, q)) - multiply(dilate(lam, p), dilate(lam, q))
        assert np.max(np.abs(gap)) < 1e-13, lam


def test_dilation_group_properties():
    rng = np.random.default_rng(13)
    p = random_points(rng, 32)
    assert np.allclose(dilate(2.0, dilate(3.0, p)), dilate(6.0, p), atol=1e-13)
    assert np.max(np.abs(dilate(1.0, p) - p)) == 0.0
    # dyadic factors compose without any rounding
    assert np.max(np.abs(dilate(0.5, dilate(2.0, p)) - p)) == 0.0
    with np.testing.assert_raises(ValueError):
        dilate(-1.0, p)


def test_volume_scaling_is_lambda_fourth():
    # dilation maps a coordinate box to a coordinate box; for dyadic lambda
    # the side products scale by lambda^4 with no rounding at all
    a = np.array([0.25, 0.5, 0.125])
    for lam in (0.5, 2.0, 4.0):
        img = dilate(lam, a)
        vol = img[0] * img[1] * img[2]
        assert vol == lam**4 * (a[0] * a[1] * a[2]), lam


def test_commutator_bracket_is_T():
    # the group commutator of small X and Y steps closes a vertical gap of
    # exactly h^2, the flow picture of [X, Y] = T
    h = 1e-4
    ex, ey = np.array([h, 0.0, 0.0]), np.array([0.0, h, 0.0])
    comm = multiply(inverse(multiply(ey, ex)), multiply(ex, ey))
    assert np.max(np.abs(comm[:2])) == 0.0
    assert abs(comm[2] / h**2 - 1.0) < 10 * h
    # left invariance carries the same gap to any basepoint
    p = np.array([0.3, -0.2, 0.1])
    moved = multiply(p, comm)
    assert abs((moved - p)[2] - h * h) < 1e-16


def test_theta_duality():
    rng = np.random.default_rng(14)
    for p in random_points(rng, 100):
        X, Y, T = frame_at(p)
        assert abs(contact(p, X.vec)) <= 1e-14
        assert abs(contact(p, Y.vec)) <= 1e-14
        assert abs(contact(p, T.vec) - 1.0) <= 1e-14


def test_frame_norm_is_the_length_of_frame_coordinates():
    rng = np.random.default_rng(15)
    p = random_points(rng, 50)
    v = rng.normal(size=(50, 3))
    # the coframe dual to (X, Y, T) is (dx, dy, theta), so the frame
    # coordinates of v are (v_x, v_y, theta(v)), and undoing theta gives v
    coeffs = v.copy()
    coeffs[:, 2] = contact(p, v)
    back = coeffs.copy()
    back[:, 2] -= 0.5 * (p[:, 1] * coeffs[:, 0] - p[:, 0] * coeffs[:, 1])
    assert np.max(np.abs(back - v)) < 1e-13
    assert np.allclose(frame_length(v[:, 0], v[:, 1], contact(p, v)), np.linalg.norm(coeffs, axis=-1))


def test_contact_left_invariance():
    # theta is left invariant: pairing with a pushed-forward vector is unchanged
    rng = np.random.default_rng(16)
    p, q = random_points(rng, 40), random_points(rng, 40)
    v = rng.normal(size=(40, 3))
    # left translation by p is polynomial, so its pushforward is exact: the
    # x, y parts pass through and t picks up (p_x v_y - p_y v_x)/2
    pushed = v.copy()
    pushed[:, 2] += 0.5 * (p[:, 0] * v[:, 1] - p[:, 1] * v[:, 0])
    assert np.max(np.abs(contact(multiply(p, q), pushed) - contact(q, v))) < 1e-13


def test_rotation_is_automorphism_and_isometry():
    rng = np.random.default_rng(19)
    p, q = random_points(rng, 60), random_points(rng, 60)
    for phi in (0.3, -1.2, np.pi / 2):
        gap = rotate_t_axis(phi, multiply(p, q)) - multiply(
            rotate_t_axis(phi, p), rotate_t_axis(phi, q)
        )
        assert np.max(np.abs(gap)) < 1e-13
    # t coordinate untouched, planar part rotated
    r = rotate_t_axis(0.7, p)
    assert np.max(np.abs(r[:, 2] - p[:, 2])) == 0.0
    assert np.max(np.abs(np.hypot(r[:, 0], r[:, 1]) - np.hypot(p[:, 0], p[:, 1]))) < 1e-13


def test_wrong_trailing_axis_raises():
    # the core is H^1-only: a point or vector without exactly 3 coordinates,
    # such as an H^2 point, is rejected instead of being misread
    good = np.zeros(3)
    for bad in (np.zeros(5), np.zeros((4, 2)), np.zeros(()), np.zeros((3, 4))):
        for fn in (contact, multiply):
            for args in ((bad, good), (good, bad)):
                with np.testing.assert_raises(ValueError):
                    fn(*args)


def test_single_point_calls_match_batched_rows():
    rng = np.random.default_rng(20)
    p, q = random_points(rng, 64), random_points(rng, 64)
    for fn in (contact, multiply):
        batched = fn(p, q)
        single = np.array([fn(p[i], q[i]) for i in range(len(p))])
        assert single.tobytes() == batched.tobytes(), fn.__name__
