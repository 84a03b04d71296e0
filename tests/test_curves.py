"""Planar curves, horizontal lifts, closure and self-intersection checks."""

import dataclasses
import math

import numpy as np
import pytest

from heisgeo import (
    HCurve,
    PlanarCurve,
    contact,
    horizontality_residual,
    lemniscate,
    lift_closed_defect,
    lift_horizontal,
    self_intersection_gap,
    torus_characteristic_loop,
)
from heisgeo.curves import CROSSING_TOL, NEWTON_ITERS


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


def test_lift_heights_match_a_long_double_reference():
    # the height is the closed-form area, so it is within rounding of
    # +-(sin tau - sin^3 tau / 3) / 2, off [a, b] as well as on it
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("long double is not extended precision here")
    gam = lemniscate()
    tau = np.linspace(gam.a - 0.05, gam.b + 0.05, 20_001)
    s = np.sin(tau.astype(np.longdouble))
    for sign in (-1, 1):
        t = lift_horizontal(gam, sign=sign).position(tau)[:, 2]
        reference = sign * (s - s**3 / 3) / 2
        assert np.max(np.abs(t.astype(np.longdouble) - reference)) <= 1.5e-16, sign


def test_lift_positions_have_the_bits_of_each_tau_alone():
    # a batched root search can step just off [a, b] at an end cluster, so an
    # off-range position must not depend on what else shares its batch
    gam = lemniscate()
    rng = np.random.default_rng(30)
    off = np.concatenate((gam.a - rng.uniform(0.0, 0.05, 40), gam.b + rng.uniform(0.0, 0.05, 40)))
    mixed = np.concatenate((off, rng.uniform(gam.a, gam.b, 200)))
    rng.shuffle(mixed)
    for sign in (-1, 1):
        lifted = lift_horizontal(gam, sign=sign)
        for batch in (off, mixed):
            assert lifted.position(batch).tobytes() == np.array([lifted.position(tau) for tau in batch]).tobytes()


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
    # with no closed-form area it has no lift either
    with pytest.raises(ValueError, match="no closed-form area"):
        lift_horizontal(circle)


def test_lift_sign_plus_is_theta_horizontal():
    lifted = lift_horizontal(lemniscate(), sign=1)
    assert horizontality_residual(lifted) <= 1e-10
    tau = np.linspace(0.0, 2 * np.pi, 500)
    theta = contact(lifted.position(tau), lifted.velocity(tau))
    assert np.max(np.abs(theta)) <= 1e-10
    # the t-negated lift pairs to -2 times the area integrand, order one
    assert horizontality_residual(lift_horizontal(lemniscate(), sign=-1)) > 0.5


def test_negative_lift_is_the_positive_lift_with_t_negated():
    # sign = -1 is (x, y, t) -> (x, y, -t) of the +1 lift, not a mirror
    # image: (x, y, t) -> (x, -y, -t) maps the +1 lift onto itself, tau to -tau
    gam = lemniscate()
    plus, minus = lift_horizontal(gam, sign=1), lift_horizontal(gam, sign=-1)
    tau = np.random.default_rng(7).uniform(gam.a, gam.b, 1000)
    flipped = plus.position(tau) * np.array([1.0, 1.0, -1.0])
    assert minus.position(tau).tobytes() == flipped.tobytes()
    mirrored = plus.position(gam.b - tau) * np.array([1.0, -1.0, -1.0])
    assert np.max(np.abs(mirrored - plus.position(tau))) <= 1e-14


def _reference_refine(curve, t1, t2):
    # scalar Newton on gamma(t1) - gamma(t2) = 0 in the plane, one pair at a time
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


def reference_gap(curve, samples):
    """The per-pair loop over a dict of planar cells with scalar Newton that
    self_intersection_gap replaced.  Returns the gap, the sorted (t1, t2)
    starts of the candidates that go to Newton, the number of retraced
    candidates kept unrefined, and the number of starts that Newton refined
    to a crossing (before the crossing's own parameter gap is checked)."""
    period = curve.b - curve.a
    tau = curve.a + period * np.arange(samples) / samples
    pts = curve.position(tau)
    xy = pts[..., :2]
    step = period / samples
    speed = np.linalg.norm(curve.velocity(tau)[..., :2], axis=-1)
    cell = max(CROSSING_TOL, 3.0 * step * float(np.max(speed)))
    excl = 8.0 * step
    buckets = {}
    for i in range(samples):
        key = (math.floor(xy[i, 0] / cell), math.floor(xy[i, 1] / cell))
        buckets.setdefault(key, []).append(i)
    best, starts, retraced, refined = math.inf, [], 0, 0
    for (cx, cy), idxs in buckets.items():
        near = [j for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                for j in buckets.get((cx + dx, cy + dy), [])]
        for i in idxs:
            for j in near:
                dpar = abs(tau[j] - tau[i])
                if j <= i or min(dpar, period - dpar) < excl:
                    continue
                planar = np.linalg.norm(xy[j] - xy[i])
                if planar > cell:
                    continue
                if planar <= CROSSING_TOL * 1e-3:
                    retraced += 1
                    best = min(best, abs(pts[j, 2] - pts[i, 2]))
                    continue
                starts.append((float(tau[i]), float(tau[j])))
                ref = _reference_refine(curve, float(tau[i]), float(tau[j]))
                if ref is None:
                    continue
                refined += 1
                t1, t2 = ref
                dpar = abs(t2 - t1)
                if min(dpar, abs(period - dpar)) < excl:
                    continue
                best = min(best, abs(curve.position(t2)[2] - curve.position(t1)[2]))
    return best, sorted(starts), retraced, refined


def newton_starts(curve, samples):
    """The sorted (t1, t2) pairs that self_intersection_gap's first Newton
    step evaluates: its first position call on a (2, m) array."""
    calls = []

    def position(tau):
        calls.append(np.array(tau))
        return curve.position(tau)

    self_intersection_gap(dataclasses.replace(curve, position=position), samples)
    first = next((c for c in calls if c.ndim == 2), np.zeros((2, 0)))
    return sorted(zip(first[0].tolist(), first[1].tolist()))


def test_self_intersection_gap_is_two_thirds():
    # the sign flip negates t, same gap; the node (tau = pi/2 and
    # 3 pi/2) is a sample at both sizes, so its one pair is read unrefined
    for sign in (-1, 1):
        lifted = lift_horizontal(lemniscate(), sign=sign)
        for samples in (512, 4096):
            gap, starts, retraced, refined = reference_gap(lifted, samples)
            assert retraced == 1 and refined > 0
            assert newton_starts(lifted, samples) == starts
            assert self_intersection_gap(lifted, samples=samples) == gap
            assert abs(gap - 2.0 / 3.0) <= 1e-6


def test_no_self_intersection_reports_inf(segment):
    # an embedded horizontal segment has no vertical self-intersection
    seg = segment(np.zeros(3), np.array([1.0, 0.5, 0.0]))
    assert reference_gap(seg, 512) == (math.inf, [], 0, 0)
    assert self_intersection_gap(seg, samples=512) == np.inf


def test_gap_matches_the_pair_loop_on_the_characteristic_loop():
    # the n = 2 leaf of criterion 5's torus: hundreds of crossings to refine
    loop = torus_characteristic_loop(math.sqrt(1.0 + 2.0 ** (2.0 / 3.0)), 1.0)
    gap, starts, retraced, refined = reference_gap(loop, 512)
    assert (len(starts), retraced, refined) == (983, 0, 538)
    assert newton_starts(loop, 512) == starts
    assert abs(self_intersection_gap(loop, samples=512) - gap) <= 1e-13


def test_gap_on_a_retraced_shadow_reads_the_samples():
    # a half-sample phase puts paired samples an odd number of samples apart,
    # so none sits on the 8-sample exclusion; the nearest pair kept is 9 apart
    # the shadow (cos(tau - h), 0) runs along [-1, 1] and back, so tau and
    # 2 (pi + h) - tau share a planar point; t = sin(tau - h) tells them apart
    step = 2.0 * np.pi / 512
    h = 0.5 * step
    curve = HCurve(
        0.0, 2.0 * np.pi,
        lambda tau: np.stack([np.cos(tau - h), np.zeros(np.shape(tau)), np.sin(tau - h)], axis=-1),
        lambda tau: np.stack([-np.sin(tau - h), np.zeros(np.shape(tau)), np.cos(tau - h)], axis=-1),
        1.0,
    )
    gap, starts, retraced, refined = reference_gap(curve, 512)
    assert retraced > 0 and refined == 0
    assert newton_starts(curve, 512) == starts
    assert self_intersection_gap(curve, samples=512) == gap
    assert abs(gap - 2.0 * np.sin(4.5 * step)) <= 1e-12


def test_gap_refuses_non_finite_samples(segment):
    seg = segment(np.zeros(3), np.array([np.nan, 0.5, 0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        self_intersection_gap(seg, samples=64)


def test_curves_refuse_an_empty_or_reversed_interval(segment):
    seg = segment(np.zeros(3), np.array([1.0, 0.5, 0.0]))
    for cls in (PlanarCurve, HCurve):
        for a, b in ((1.0, 0.0), (0.5, 0.5)):
            with pytest.raises(ValueError, match="b > a"):
                cls(a, b, seg.position, seg.velocity)
