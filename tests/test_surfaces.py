"""Parametrized surfaces, their boundaries, and characteristic structure."""

import dataclasses
import math

import numpy as np
import pytest

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
    pos = lambda u, v: np.array(torus.position(u, v))
    for _ in range(20):
        u, v = rng.uniform(0, 2 * np.pi, 2)
        fd_u = (pos(u + h, v) - pos(u - h, v)) / (2 * h)
        fd_v = (pos(u, v + h) - pos(u, v - h)) / (2 * h)
        assert np.max(np.abs(np.array(torus.tangent_u(u, v)) - fd_u)) < 1e-8
        assert np.max(np.abs(np.array(torus.tangent_v(u, v)) - fd_v)) < 1e-8


def test_torus_single_point_path_matches_the_array_path():
    # the leaf solver reads the torus on two floats through its `frame`,
    # which takes math trig and gives three Python floats per map, and the
    # maps on two floats give a (3,) array; both must be the bits of the
    # array path's row
    rng = np.random.default_rng(43)
    for n in (2, 11):
        torus = torus_surface(np.sqrt(1.0 + n ** (2.0 / 3.0)), 1.0)
        uv = rng.uniform(-100.0, 100.0, (10_000, 2))
        maps = (torus.position, torus.tangent_u, torus.tangent_v)
        arrays = [np.array([f(u[None], v[None])[0] for u, v in uv]) for f in maps]
        for cast in (np.float64, float):
            frames = [torus.frame(cast(u), cast(v)) for u, v in uv]
            for k, f in enumerate(maps):
                values = [frame[k] for frame in frames]
                assert {tuple(map(type, p)) for p in values} == {(float, float, float)}
                assert np.array(values).tobytes() == arrays[k].tobytes(), (n, f, cast)
                points = [f(cast(u), cast(v)) for u, v in uv]
                assert {p.shape for p in points} == {(3,)}
                assert np.array(points).tobytes() == arrays[k].tobytes(), (n, f, cast)


def test_vertical_halfplane_structure():
    hp = vertical_halfplane()
    p = hp.position(np.array([0.5]), np.array([1.2]))[0]
    assert np.allclose(p, [0.0, 0.5, 1.2])
    assert hp.truncation_edges
    (rim, orientation), = hp.boundary
    assert orientation == 1
    tau = np.linspace(rim.a, rim.b, 33)
    pos = rim.position(tau)
    assert np.max(np.abs(pos[:, 0])) == 0.0
    assert np.max(np.abs(pos[:, 2])) == 0.0
    assert horizontality_residual(rim) <= 1e-12


def test_halfplane_is_the_vertical_map_over_the_y_axis():
    # the shared vertical map gives the half-plane's (0, u, v) and its unit
    # tangents bit for bit: on a grid with the domain corners, and with a
    # scalar u against an array v
    hp = vertical_halfplane()
    u, v = np.meshgrid(np.linspace(*hp.u_dom, 33), np.linspace(*hp.v_dom, 33), indexing="ij")
    for uu, vv in ((u, v), (0.5, v[0])):
        ub = np.broadcast_to(uu, vv.shape)
        z, o = np.zeros(vv.shape), np.ones(vv.shape)
        for f, want in ((hp.position, (z, ub, vv)), (hp.tangent_u, (z, o, z)), (hp.tangent_v, (z, z, o))):
            assert f(uu, vv).tobytes() == np.stack(want, axis=-1).tobytes(), f
    curve, motion = hp.sweep
    assert motion.push_bound(curve, hp.v_dom) == 1.0


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


def test_each_rim_is_its_surfaces_edge():
    # each rim is the surface restricted to an edge of its domain, the
    # positive one at v0 and the negative one at v1, bit for bit
    h = 1.0 / 3.0
    cylinder = lift_cylinder(lift_horizontal(lemniscate(), sign=1), h)
    band = revolve_curve(torus_characteristic_loop(R, 1.0), np.pi / 12.0)
    for S in (vertical_halfplane(), cylinder, band):
        for rim, orientation in S.boundary:
            v_edge = S.v_dom[0] if orientation == 1 else S.v_dom[1]
            tau = np.linspace(rim.a, rim.b, 257)
            assert (rim.a, rim.b) == S.u_dom
            assert rim.position(tau).tobytes() == S.position(tau, v_edge).tobytes()
            assert rim.velocity(tau).tobytes() == S.tangent_u(tau, v_edge).tobytes()
    (bottom, _), (top, _) = cylinder.boundary
    tau = np.linspace(bottom.a, bottom.b, 257)
    gap = top.position(tau) - bottom.position(tau)
    assert np.max(np.abs(gap[:, :2])) == 0.0
    assert np.max(np.abs(gap[:, 2] - h)) < 1e-15
    # the top rim is a vertical translate, so it stays horizontal
    assert horizontality_residual(top) <= 1e-10


def test_rims_record_the_v_edge_they_are():
    # the constructors record which v-edge each rim is, and the record
    # names the edge whose bits the rim has
    cylinder = lift_cylinder(lift_horizontal(lemniscate(), sign=1), 1.0 / 3.0)
    band = revolve_curve(torus_characteristic_loop(R, 1.0), np.pi / 12.0)
    for S, edges in ((vertical_halfplane(), (0,)), (cylinder, (0, 1)), (band, (0, 1))):
        assert S.rim_edges == edges
        for (rim, _), edge in zip(S.boundary, S.rim_edges):
            tau = np.linspace(rim.a, rim.b, 257)
            assert rim.position(tau).tobytes() == S.position(tau, S.v_dom[edge]).tobytes()
    assert revolve_curve(torus_characteristic_loop(R, 1.0), 2 * np.pi).rim_edges == ()
    # one entry per rim, each a v-edge of a surface that has v-edges
    for bad in ((0,), (0, 2)):
        with pytest.raises(ValueError, match="rim_edges"):
            dataclasses.replace(cylinder, rim_edges=bad)
    with pytest.raises(ValueError, match="rim_edges"):
        dataclasses.replace(band, periodic=(True, True))


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
    # the loop refuses the radii its torus refuses, NaN included
    for big_r in (1.0, math.nan):
        with pytest.raises(ValueError, match="need R > r > 0"):
            torus_characteristic_loop(big_r, 1.0)


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
        su, sv = np.array(torus.tangent_u(u, v)), np.array(torus.tangent_v(u, v))
        # the characteristic direction is horizontal and unit in the frame
        du, dv = _direction(*_pairings(torus, u, v))
        w = du * su + dv * sv
        p = np.array(torus.position(u, v))
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
        su = np.linalg.norm(S.tangent_u(uu, vv), axis=-1).max()
        bound = S.sweep[1].push_bound(S.sweep[0], S.v_dom)
        assert su <= bound < 2.0 * su, scene
        for curve, _ in S.boundary:
            tau = np.linspace(curve.a, curve.b, 4001)
            assert np.linalg.norm(curve.velocity(tau), axis=-1).max() <= curve.speed <= bound
    # the torus's bound is its meridian's r = 1, and |S_u| = r everywhere,
    # sampled to rounding
    torus = torus_surface(2.0, 1.0)
    angles = np.linspace(0.0, 2.0 * np.pi, 129)
    su = np.linalg.norm(torus.tangent_u(*np.meshgrid(angles, angles)), axis=-1)
    assert torus.sweep[1].push_bound(torus.sweep[0], torus.v_dom) == 1.0
    assert np.abs(su - 1.0).max() <= 4.0 * np.finfo(float).eps
