"""Planar curves, horizontal lifts, closure and self-intersection checks."""

import numpy as np

from heisgeo import (
    PlanarCurve,
    contact,
    horizontality_residual,
    lemniscate,
    lift_closed_defect,
    lift_horizontal,
    self_intersection_gap,
    vertical_translate,
)


def lift_height_oracle(tau, sign):
    # closed form for the Gerono lemniscate: integrating (x y' - y x')/2
    # gives sin(tau)/2 - sin(tau)^3/6 up to the lift sign
    return sign * (0.5 * np.sin(tau) - np.sin(tau) ** 3 / 6.0)


def test_lemniscate_shadow():
    gam = lemniscate()
    tau = np.linspace(0.0, 2 * np.pi, 37)
    xy = gam.position(tau)
    assert np.max(np.abs(xy[:, 0] - np.cos(tau))) < 1e-15
    assert np.max(np.abs(xy[:, 1] - np.sin(tau) * np.cos(tau))) < 1e-15
    # velocity agrees with the analytic derivative
    vel = gam.velocity(tau)
    assert np.max(np.abs(vel[:, 0] + np.sin(tau))) < 1e-12
    assert np.max(np.abs(vel[:, 1] - np.cos(2 * tau))) < 1e-12


def test_lift_matches_closed_form_both_signs():
    gam = lemniscate()
    tau = np.linspace(0.0, 2 * np.pi, 1000)
    for sign in (-1, 1):
        lifted = lift_horizontal(gam, sign=sign)
        t = lifted.position(tau)[:, 2]
        assert np.max(np.abs(t - lift_height_oracle(tau, sign))) <= 1e-8, sign


def test_lift_closure_and_defect():
    lifted = lift_horizontal(lemniscate())
    ends = lifted.position(np.array([lifted.a, lifted.b]))
    assert np.max(np.abs(ends[1] - ends[0])) <= 1e-10
    # signed area enclosed by the lemniscate is zero, so the lift closes
    assert lift_closed_defect(lemniscate()) <= 1e-12
    # the unit circle encloses area pi and its lift cannot close
    circle = PlanarCurve(
        0.0, 2.0 * np.pi,
        lambda tau: np.stack([np.cos(tau), np.sin(tau)], axis=-1),
        lambda tau: np.stack([-np.sin(tau), np.cos(tau)], axis=-1),
    )
    assert abs(lift_closed_defect(circle) - np.pi) < 1e-10


def test_lift_sign_plus_is_theta_horizontal():
    lifted = lift_horizontal(lemniscate(), sign=1)
    assert horizontality_residual(lifted) <= 1e-10
    tau = np.linspace(0.0, 2 * np.pi, 500)
    theta = contact(lifted.position(tau), lifted.velocity(tau))
    assert np.max(np.abs(theta)) <= 1e-10
    # the mirror lift pairs to -2 times the area integrand, order one
    assert horizontality_residual(lift_horizontal(lemniscate(), sign=-1)) > 0.5


def test_self_intersection_gap_is_two_thirds():
    lifted = lift_horizontal(lemniscate())
    gap = self_intersection_gap(lifted, samples=4096)
    assert abs(gap - 2.0 / 3.0) <= 1e-6
    # sign flip mirrors the lift, same gap
    gap_plus = self_intersection_gap(lift_horizontal(lemniscate(), sign=1), samples=4096)
    assert abs(gap_plus - 2.0 / 3.0) <= 1e-6


def test_no_self_intersection_reports_inf(segment):
    # an embedded horizontal segment has no vertical self-intersection
    seg = segment(np.zeros(3), np.array([1.0, 0.5, 0.0]))
    assert self_intersection_gap(seg, samples=512) == np.inf


def test_vertical_translate():
    lifted = lift_horizontal(lemniscate(), sign=1)
    raised = vertical_translate(lifted, 0.4)
    tau = np.linspace(0.0, 2 * np.pi, 64)
    gap = raised.position(tau) - lifted.position(tau)
    assert np.max(np.abs(gap[:, :2])) == 0.0
    assert np.max(np.abs(gap[:, 2] - 0.4)) < 1e-15
    # translation is vertical, so the curve stays horizontal
    assert horizontality_residual(raised) <= 1e-10

