"""Parametrized surfaces, their boundaries, and characteristic structure."""

import numpy as np

from heisgeo import (
    contact,
    cylinder_embeds,
    horizontality_residual,
    lemniscate,
    lift_cylinder,
    lift_horizontal,
    revolve_curve,
    rotate_t_axis,
    torus_characteristic_loop,
    torus_surface,
    vertical_halfplane,
)
from heisgeo.core import frame_length
from heisgeo.foliation import _direction, _pairings
from heisgeo.quadrature import PrefixIntegral
from heisgeo.surfaces import characteristic_residual

R2, R = 1.0, np.sqrt(1.0 + 2.0 ** (2.0 / 3.0))


def test_torus_theta_pairings_closed_form():
    # theta(S_u) = r cos u and theta(S_v) = -(R + r cos u)^2 / 2
    torus = torus_surface(R, 1.0)
    rng = np.random.default_rng(41)
    u = rng.uniform(0, 2 * np.pi, 10_000)
    v = rng.uniform(0, 2 * np.pi, 10_000)
    tu, tv = characteristic_residual(torus, u, v)
    assert np.max(np.abs(tu - np.cos(u))) <= 1e-12
    assert np.max(np.abs(tv + 0.5 * (R + np.cos(u)) ** 2)) <= 1e-12


def test_torus_has_no_characteristic_points():
    torus = torus_surface(R, 1.0)
    g = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
    uu, vv = np.meshgrid(g, g, indexing="ij")
    tu, tv = characteristic_residual(torus, uu, vv)
    norm = np.hypot(tu, tv)
    assert norm.min() >= (R - 1.0) ** 2 / 2.0 - 1e-9


def test_torus_tangents_match_fd():
    torus = torus_surface(R, 1.0)
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(20):
        u, v = rng.uniform(0, 2 * np.pi, 2)
        fd_u = (torus.position(u + h, v) - torus.position(u - h, v)) / (2 * h)
        fd_v = (torus.position(u, v + h) - torus.position(u, v - h)) / (2 * h)
        assert np.max(np.abs(torus.tangent_u(u, v) - fd_u)) < 1e-8
        assert np.max(np.abs(torus.tangent_v(u, v) - fd_v)) < 1e-8


def test_torus_single_point_path_matches_the_array_path():
    # the leaf solver calls the maps on two floats, which take math trig;
    # they must give the bits that numpy's trig gives on length-1 arrays
    rng = np.random.default_rng(43)
    for n in (2, 11):
        torus = torus_surface(np.sqrt(1.0 + n ** (2.0 / 3.0)), 1.0)
        uv = rng.uniform(-100.0, 100.0, (10_000, 2))
        for f in (torus.position, torus.tangent_u, torus.tangent_v):
            arrays = np.array([f(u[None], v[None])[0] for u, v in uv])
            for cast in (np.float64, float):
                points = [f(cast(u), cast(v)) for u, v in uv]
                assert {p.shape for p in points} == {(3,)}
                assert np.array(points).tobytes() == arrays.tobytes(), (n, f, cast)


def test_vertical_halfplane_structure():
    hp = vertical_halfplane()
    p = hp.position(np.array([0.5]), np.array([1.2]))[0]
    assert np.allclose(p, [0.0, 0.5, 1.2])
    assert not hp.compact
    (rim, orientation), = hp.boundary
    assert orientation == 1
    tau = np.linspace(rim.a, rim.b, 33)
    pos = rim.position(tau)
    assert np.max(np.abs(pos[:, 0])) == 0.0
    assert np.max(np.abs(pos[:, 2])) == 0.0
    assert horizontality_residual(rim) <= 1e-12


def test_lift_cylinder_boundary_and_periodicity():
    sigma = lift_horizontal(lemniscate(), sign=1)
    cyl = lift_cylinder(sigma, 1.0 / 3.0)
    assert cyl.periodic == (True, False)
    (bottom, s0), (top, s1) = cyl.boundary
    assert (s0, s1) == (1, -1)
    tau = np.linspace(0.0, 2 * np.pi, 65)
    gap = top.position(tau) - bottom.position(tau)
    assert np.max(np.abs(gap[:, :2])) == 0.0
    assert np.max(np.abs(gap[:, 2] - 1.0 / 3.0)) < 1e-15
    # both rims are horizontal curves, the verticality mechanism's input
    assert horizontality_residual(bottom) <= 1e-8
    assert horizontality_residual(top) <= 1e-8
    # vertical wall: tangent_v is the vertical direction
    tv = cyl.tangent_v(np.array([0.3]), np.array([0.1]))[0]
    assert np.allclose(tv, [0.0, 0.0, 1.0])


def test_lift_cylinder_rejects_open_curves():
    arc = lift_horizontal(lemniscate(), sign=1)
    half = type(arc)(a=0.0, b=np.pi, position=arc.position, velocity=arc.velocity)
    try:
        lift_cylinder(half, 0.2)
    except ValueError:
        pass
    else:
        raise AssertionError("open generator accepted")
    # an infinite R makes the leaf NaN: its closure gap and theta residual
    # are NaN, which no tolerance accepts
    with np.errstate(invalid="ignore"):
        nan_leaf = torus_characteristic_loop(np.inf, 1.0)
        for build in (lambda: revolve_curve(nan_leaf, 0.2), lambda: lift_cylinder(nan_leaf, 0.2)):
            try:
                build()
            except ValueError as exc:
                assert "not closed" in str(exc)
            else:
                raise AssertionError("NaN generator accepted")


def test_cylinder_embedding_thresholds():
    sigma = lift_horizontal(lemniscate(), sign=1)
    for h in (0.1, 1.0 / 3.0, 0.6):
        assert cylinder_embeds(sigma, h, samples=4096), h
    assert not cylinder_embeds(sigma, 0.7, samples=4096)


def test_revolve_curve_band():
    phi = np.pi / 12.0
    sigma = torus_characteristic_loop(R, 1.0)
    band = revolve_curve(sigma, phi)
    (near, s0), (far, s1) = band.boundary
    assert (s0, s1) == (1, -1)
    tau = np.linspace(sigma.a, sigma.b, 65)
    assert np.max(np.abs(near.position(tau) - sigma.position(tau))) == 0.0
    assert np.max(np.abs(far.position(tau) - rotate_t_axis(phi, sigma.position(tau)))) < 1e-12
    # rotation preserves horizontality of the rims
    assert horizontality_residual(far) <= 1e-8
    # the sweep direction is the rotational field (-y, x, 0)
    p = band.position(0.7, 0.0)
    tv = band.tangent_v(0.7, 0.0)
    assert np.allclose(tv, [-p[1], p[0], 0.0], atol=1e-12)


def test_revolve_full_turn_closes():
    sigma = torus_characteristic_loop(R, 1.0)
    closed = revolve_curve(sigma, 2 * np.pi)
    assert closed.periodic == (True, True)
    assert closed.boundary == ()


def test_characteristic_loop_is_horizontal_and_closed():
    sigma = torus_characteristic_loop(R, 1.0)
    tau = np.linspace(sigma.a, sigma.b, 400)
    theta = contact(sigma.position(tau), sigma.velocity(tau))
    assert np.max(np.abs(theta)) <= 1e-12
    ends = sigma.position(np.array([sigma.a, sigma.b]))
    assert np.max(np.abs(ends[1] - ends[0])) <= 1e-10


def test_characteristic_loop_angle_is_the_integral_of_its_slope():
    # the closed-form leaf angle v(u) against a Gauss prefix sum of
    # dv/du = 2 r cos u / (R + r cos u)^2, read back from the loop's points
    for big_r, r in ((R, 1.0), (np.sqrt(1.0 + 11.0 ** (2.0 / 3.0)), 1.0), (2.5, 0.5), (3.0, 2.0)):
        def slope(u):
            return 2.0 * r * np.cos(u) / (big_r + r * np.cos(u)) ** 2

        u = np.linspace(0.0, 2.0 * np.pi, 2001)
        p = torus_characteristic_loop(big_r, r).position(u)
        v = np.unwrap(np.arctan2(p[:, 1], p[:, 0]))
        reference = PrefixIntegral(slope, 0.0, 2.0 * np.pi)(u)
        assert np.max(np.abs(v - reference)) <= 1e-13, (big_r, r)


def test_project_T_and_foliation_direction():
    torus = torus_surface(R, 1.0)
    rng = np.random.default_rng(43)
    for _ in range(25):
        u, v = rng.uniform(0, 2 * np.pi, 2)
        su, sv = torus.tangent_u(u, v), torus.tangent_v(u, v)
        # the characteristic direction is horizontal and unit in the frame
        du, dv = _direction(*_pairings(torus, u, v))
        w = du * su + dv * sv
        p = torus.position(u, v)
        assert abs(contact(p, w)) <= 1e-12
        assert abs(frame_length(w[0], w[1], contact(p, w)) - 1.0) <= 1e-12


def test_speed_bounds_hold():
    # the conforming rules drop cells by a Lipschitz bound built from these,
    # so they must bound the sampled speeds, not merely approximate them
    from heisgeo.cli import _stokes_scene

    u, v = np.meshgrid(np.linspace(0.0, 1.0, 301), np.linspace(0.0, 1.0, 31), indexing="ij")
    for scene in ("halfplane", "sigma-cylinder", "band"):
        S = _stokes_scene(scene)[0]
        uu = S.u_dom[0] + (S.u_dom[1] - S.u_dom[0]) * u
        vv = S.v_dom[0] + (S.v_dom[1] - S.v_dom[0]) * v
        sq = (S.tangent_u(uu, vv) ** 2).sum(axis=-1) + (S.tangent_v(uu, vv) ** 2).sum(axis=-1)
        assert np.sqrt(sq.max()) <= S.speed < 2.0 * np.sqrt(sq.max()), scene
        for curve, _ in S.boundary:
            tau = np.linspace(curve.a, curve.b, 4001)
            assert np.linalg.norm(curve.velocity(tau), axis=-1).max() <= curve.speed <= S.speed
    torus = torus_surface(2.0, 1.0)
    assert np.isclose(torus.speed, np.hypot(1.0, 3.0))
