"""The swept rule: closed-form orbits, proved fold bounds, and the intrinsic patch."""

import math
from dataclasses import replace

import numpy as np
import pytest

from heisgeo import (bump_form, integrate_surface, lemniscate, lift_horizontal, middle_differential, multiply,
                     stokes_residual, torus_surface, vertical_halfplane)
from heisgeo.integrate import _orbit_intervals, _sweep
from heisgeo.quadrature import conforming_integrate_2d
from heisgeo.surfaces import LEFT_Y, ROTATE_T, VERTICAL, swept, torus_characteristic_loop

from conftest import per_node

R_TWO = math.sqrt(1.0 + 2.0 ** (2.0 / 3.0))


def _level(S, u, v, center, radius):
    d = S.position(u, v) - center
    return radius**2 - (d * d).sum(axis=-1)


def _examples(intrinsic_curve):
    """A swept surface per motion, the rotation both on a sector and on the
    whole turn (where v is periodic)."""
    sigma = lift_horizontal(lemniscate(), sign=1)
    leaf = torus_characteristic_loop(R_TWO, 1.0)
    return {
        "vertical": swept(sigma, VERTICAL, (0.0, 1.0 / 3.0)),
        "rotate_t": swept(leaf, ROTATE_T, (0.0, math.pi / 12.0)),
        "rotate_t-turn": swept(leaf, ROTATE_T, (0.0, 2.0 * math.pi), periodic=(True, True)),
        "left_y": swept(intrinsic_curve(-1.0, 1.0), LEFT_Y, (-1.0, 1.0)),
    }


def test_swept_tangents_are_the_maps_derivatives(intrinsic_curve):
    # S_u and the generator S_v against central differences of the map, at
    # seeded random parameters; and every S_u within the motion's bound, the
    # one the rule's levels use (to rounding: the leaf's speed bound is its
    # exact maximum, which the turned leaf reaches at u = 0)
    rng = np.random.default_rng(41)
    motions = {"vertical": VERTICAL, "rotate_t": ROTATE_T, "rotate_t-turn": ROTATE_T, "left_y": LEFT_Y}
    for name, S in _examples(intrinsic_curve).items():
        u = rng.uniform(S.u_dom[0] + 1e-3, S.u_dom[1] - 1e-3, 200)
        v = rng.uniform(*S.v_dom, 200)
        h = 1e-5
        for tangent, du, dv in ((S.tangent_u, h, 0.0), (S.tangent_v, 0.0, h)):
            diff = (S.position(u + du, v + dv) - S.position(u - du, v - dv)) / (2.0 * h)
            assert np.max(np.abs(tangent(u, v) - diff)) <= 1e-7, name
        grid = np.meshgrid(np.linspace(*S.u_dom, 129), np.linspace(*S.v_dom, 129))
        curve, motion = S.sweep
        su = np.linalg.norm(S.tangent_u(*grid), axis=-1).max()
        assert su <= motion.push_bound(curve, S.v_dom) * (1.0 + 4.0 * np.finfo(float).eps), name
        assert motion == motions[name], name
    # the torus keeps its own maps and is its meridian turned about the t-axis
    torus = torus_surface(R_TWO, 1.0)
    curve, motion = torus.sweep
    u, v = rng.uniform(0.0, 2.0 * np.pi, (2, 200))
    assert motion == ROTATE_T and np.max(np.abs(motion.move(curve.position(u), v) - torus.position(u, v))) <= 1e-15


def test_left_y_is_the_left_translation_along_y(intrinsic_curve):
    # M_v(p) = (0, v, 0) * p, which is gamma(s) + v (0, 1, -gamma_x / 2)
    S = swept(intrinsic_curve(-1.0, 1.0), LEFT_Y, (-1.0, 1.0))
    s, y = np.meshgrid(np.linspace(-1.0, 1.0, 17), np.linspace(-1.0, 1.0, 9))
    gamma = S.sweep[0].position(s)
    left = np.stack([np.zeros_like(y), y, np.zeros_like(y)], axis=-1)
    assert np.max(np.abs(S.position(s, y) - multiply(left, gamma))) <= 1e-15
    assert np.array_equal(S.position(s, y), np.stack([s**3, y, s * np.abs(s) ** 3 - y * s**3 / 2], axis=-1))


def test_orbit_intervals_are_the_sampled_positive_sets(intrinsic_curve):
    # on seeded random orbits and balls, the closed-form intervals hold
    # exactly the densely sampled v of v_dom where the ball's level is
    # positive (a whole turn: of one period from the interval's start)
    rng = np.random.default_rng(27)
    for name, S in _examples(intrinsic_curve).items():
        curve, motion = S.sweep
        seen = 0
        for _ in range(60):
            u = rng.uniform(*S.u_dom, 8)
            center = S.position(rng.uniform(*S.u_dom), rng.uniform(*S.v_dom)) + rng.normal(0.0, 0.3, 3)
            radius = rng.uniform(0.05, 1.2)
            owner, lo, hi = _orbit_intervals(*motion.orbit(curve.position(u), center, radius), S.v_dom,
                                             motion.period, S.periodic[1])
            for k in range(len(u)):
                mine = owner == k
                start = lo[mine][0] if mine.any() and S.periodic[1] else S.v_dom[0]
                v = start + np.linspace(0.0, S.v_dom[1] - S.v_dom[0], 4001)
                inside = np.zeros(v.shape, dtype=bool)
                for a, b in zip(lo[mine], hi[mine]):
                    assert S.v_dom[0] <= a < b <= S.v_dom[1] or S.periodic[1], name
                    inside |= (v >= a) & (v <= b)
                phi = _level(S, np.full_like(v, u[k]), v, center, radius)
                # the two may differ only where the level is rounding-close to 0
                assert np.all(((phi > 0.0) == inside) | (np.abs(phi) <= 1e-9)), name
                seen += int(inside.any())
        assert seen > 20, name


def test_fold_level_is_the_orbits_maximum_with_a_proved_slope_bound(intrinsic_curve):
    # the fold level is the level's maximum over each orbit within v_dom, its
    # derivative is the envelope S_u there, and its Lipschitz bound holds: on
    # the upper half patch, against dense samples of D and a central
    # difference of it, for the calibration's 40 balls and for balls out
    # along S_u at the corner (1, -1), where |S_u| = 6.26 exceeds the
    # curve's speed 5, so that the bound needs its stretch term
    S = swept(intrinsic_curve(0.0, 1.0), LEFT_Y, (-1.0, 1.0))
    s, h = np.linspace(0.0, 1.0, 1001), 1e-6
    y = np.linspace(-1.0, 1.0, 801)
    rng = np.random.default_rng(1)
    balls = []
    for _ in range(40):
        y0, s0 = rng.uniform(-0.5, 0.5, 2)
        balls.append((S.position(s0, y0) + rng.normal(0.0, 0.05, 3), rng.uniform(0.03, 0.3)))
    corner = S.tangent_u(1.0, -1.0)
    balls += [(S.position(1.0, -1.0) + k * corner / np.linalg.norm(corner), 0.3) for k in (2.0, 5.0)]
    for center, radius in balls:
        fold = _sweep(S, [(center, radius)])[0].level
        value, slope = fold.jet(s, 0)
        sampled = _level(S, s[:, None], y[None, :], center, radius).max(axis=1)
        # the samples miss the maximum by at most (1 + 1/4) (y step / 2)^2
        assert np.all(value >= sampled - 1e-12) and np.all(value - sampled <= 1e-5)
        inner = s[1:-1]
        diff = (fold.jet(inner + h, 0, axes=())[0] - fold.jet(inner - h, 0, axes=())[0]) / (2.0 * h)
        assert np.max(np.abs(slope[1:-1] - diff)) <= 1e-6 * (1.0 + np.abs(diff).max())
        # the 10 samples about every 10th one lie within 0.005 of it, where
        # |D'| stays below the bound lip(D, 0.005)
        near = np.abs(slope[:1000]).reshape(100, 10).max(axis=1)
        assert np.all(near <= fold.lip(value[5:1000:10], 0.005, 0))


# ROADMAP O3's Hole 4: four upper-half draws that the search over cells got
# silently wrong; (center, radius)
HOLE_4 = {
    16: ((0.004011140267127984, -0.4653462113361849, 0.017420325868899668), 0.14643122216989968),
    3: ((-0.013020986477467994, -0.3103249045888189, 0.0595204958808684), 0.2947990439463345),
    27: ((0.004604201234850437, 0.05653270968995005, 0.03192615823080123), 0.2968191033294574),
    2: ((-0.00011125963206434428, -0.14032597286917645, 0.010949636017395854), 0.1388405063407249),
}


@pytest.mark.parametrize("draw", sorted(HOLE_4))
def test_hole_4_draws_are_right_on_the_swept_half_patch(intrinsic_curve, draw):
    # the upper half patch (s, y) -> (s^3, y, s|s|^3 - y s^3/2); its rim, the
    # y-axis, is the edge s = 0, oriented -1 in this parameter order
    S = swept(intrinsic_curve(0.0, 1.0), LEFT_Y, (-1.0, 1.0))
    S = replace(S, boundary=((S.edge(0, 0.0, 1.0), -1),))
    center, radius = HOLE_4[draw]
    report = stokes_residual(S, bump_form(np.array(center), radius))
    assert abs(report.rhs.value) > 1e-4
    assert report.lhs.flagged or report.residual <= report.lhs.estimate + report.rhs.estimate


def test_full_intrinsic_patch_is_swept_piece_by_piece(intrinsic_curve):
    # the whole patch s in [-1, 1] has S_u = (3 s^2, 0, 4|s|^3 - 3 y s^2/2),
    # which is not smooth at s = 0; it has no boundary the ball reaches, so
    # the surface side is 0.  The calibration's ball k = 30 straddles s = 0:
    # right on the two smooth halves, silently wrong on the unsplit patch
    form = middle_differential(bump_form(np.array([0.07448935573563717, -0.33732997265081216, 0.1801396828666867]),
                                         0.25924202090200343))
    edges = ((0, -1.0), (0, 1.0), (1, -1.0), (1, 1.0))

    def patch(a, b):
        return swept(intrinsic_curve(a, b), LEFT_Y, (-1.0, 1.0), truncation_edges=edges)

    halves = [integrate_surface(form, patch(a, b)) for a, b in ((-1.0, 0.0), (0.0, 1.0))]
    total, estimate = sum(h.value for h in halves), sum(h.estimate for h in halves)
    assert not any(h.flagged for h in halves) and abs(total) <= estimate
    assert sum(h.stats["pieces"] for h in halves) == 4
    whole = integrate_surface(form, patch(-1.0, 1.0))
    assert not whole.flagged and abs(whole.value) > 10.0 * whole.estimate


def test_a_miss_the_orbits_do_not_see_is_flagged():
    # the half-plane's ball at t = 1.5: if the inner intervals were lost, the
    # fold level (positive, so some orbit meets the ball) makes the empty
    # result a fault, not a silent zero
    S, center, radius = vertical_halfplane(), np.array([0.0, 0.0, 1.5]), 0.2
    form = middle_differential(bump_form(center, radius))
    sweep, = _sweep(S, [(center, radius)])
    f = lambda u, v: form(S.position(u, v), S.tangent_u(u, v), S.tangent_v(u, v))
    found = conforming_integrate_2d(per_node(f), sweep)
    assert found.stats["points"] > 0 and "faults" not in found.stats
    blind = sweep._replace(inner=lambda u: (np.zeros(0, dtype=int), np.zeros(0), np.zeros(0)))
    lost = conforming_integrate_2d(per_node(f), blind)
    assert lost[0] == 0.0 and np.isnan(lost[1]) and lost.stats["faults"] == ["missed_support"]
