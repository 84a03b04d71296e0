"""Characteristic foliation tracing and section-return analysis."""

import numpy as np
from scipy.optimize import brentq
from scipy.spatial import cKDTree

from heisgeo import (
    contact,
    detect_period,
    rotate_t_axis,
    torus_surface,
    trace_foliation,
)
from heisgeo.foliation import _direction, _pairings
from heisgeo.surfaces import ParamSurface


def hausdorff_distance(points_a, points_b) -> float:
    """Symmetric Hausdorff distance between two sampled point clouds."""
    a = np.asarray(points_a, dtype=float)
    b = np.asarray(points_b, dtype=float)
    da = cKDTree(b).query(a)[0].max()
    db = cKDTree(a).query(b)[0].max()
    return float(max(da, db))


def torus_for(n: int):
    return torus_surface(np.sqrt(1.0 + n ** (2.0 / 3.0)), 1.0)


def auto_arclen(n: int) -> float:
    return 2.0 * np.pi * 1.15 * n + 10.0


def flat_plane() -> ParamSurface:
    """The plane t = 0; its foliation is radial with one characteristic point."""

    def pos(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        out = np.zeros(u.shape + (3,))
        out[..., 0] = u
        out[..., 1] = v
        return out

    def su(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        out = np.zeros(u.shape + (3,))
        out[..., 0] = 1.0
        return out

    def sv(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        out = np.zeros(u.shape + (3,))
        out[..., 1] = 1.0
        return out

    return ParamSurface(
        u_dom=(-2.0, 2.0), v_dom=(-2.0, 2.0), position=pos, tangent_u=su, tangent_v=sv
    )


def test_torus_leaves_close_with_observed_windings():
    # the (u, v) winding pairs the traces actually exhibit at these radii
    observed = {1: (1, 2), 2: (1, 1), 3: (3, 2)}
    for n, expected in observed.items():
        trace = trace_foliation(torus_for(n), (0.0, 0.0), auto_arclen(n))
        assert not trace.truncated
        residual, windings = detect_period(trace, axis=0)
        assert residual <= 1e-6, (n, residual)
        assert windings == expected, (n, windings)


def test_one_u_loop_advances_v_by_closed_form():
    # along a leaf dv/du = 2r cos u / (R + r cos u)^2, so one loop in u
    # advances v by -4 pi r^2 / (R^2 - r^2)^(3/2), which is -4 pi / n at
    # r = 1, R^2 = 1 + n^(2/3)
    for n in (1, 2, 3, 11):
        trace = trace_foliation(torus_for(n), (0.0, 0.0), 12.0)
        s = np.linspace(0.0, trace.arclength, 2048)
        past = np.abs(trace.at(s)[0]) >= 2.0 * np.pi
        assert past.any(), n
        i = int(np.argmax(past))
        s_loop = brentq(lambda x: abs(trace.at(x)[0]) - 2.0 * np.pi, s[i - 1], s[i], xtol=1e-14)
        u, v = trace.at(s_loop)
        # a leaf run backwards in u advances v the other way
        assert abs(v - np.sign(u) * (-4.0 * np.pi / n)) <= 1e-9, (n, v)


def test_trace_follows_foliation_direction():
    # the solver integrates the one direction field, up to the per-trace sign
    torus = torus_for(2)
    trace = trace_foliation(torus, (0.1, 0.2), 6.0)
    h = 1e-4
    signs = set()
    for s in (0.5, 1.7, 3.0, 4.4, 5.5):
        slope = (trace.at(s + h) - trace.at(s - h)) / (2.0 * h)
        field = np.array(_direction(*_pairings(torus, *trace.at(s))))
        sign = 1.0 if slope @ field > 0.0 else -1.0
        signs.add(sign)
        assert np.max(np.abs(slope - sign * field)) <= 1e-6, s
    assert len(signs) == 1


def test_solver_direction_is_the_batched_field_bit_for_bit(monkeypatch):
    # the solver's right-hand side runs on Python floats, the direction field
    # on a batch on arrays; both must give the same bits, up to the per-trace sign
    import scipy.integrate

    seen = []
    solve_ivp = scipy.integrate.solve_ivp

    def spy(fun, *args, **kwargs):
        seen.append(fun)
        return solve_ivp(fun, *args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "solve_ivp", spy)
    rng = np.random.default_rng(44)
    for n in (2, 11):
        torus = torus_for(n)
        trace_foliation(torus, (0.0, 0.0), 1.0)
        uv = rng.uniform(-100.0, 100.0, (2000, 2))
        solver = np.array([seen[-1](0.0, y) for y in uv])
        field = np.array(_direction(*_pairings(torus, uv[:, 0], uv[:, 1]))).T
        sign = np.sign(solver[0, 0] * field[0, 0])
        assert (sign * field).tobytes() == solver.tobytes(), n


def test_leaf_step_stats_are_pinned():
    # solver work on the fig4 (n = 2) and fig6 (n = 11) leaves; a right-hand
    # side whose bits moved would move these counts
    for n, nfev, steps in ((2, 2609, 137), (11, 10772, 562)):
        stats = trace_foliation(torus_for(n), (0.0, 0.0), auto_arclen(n)).step_stats
        assert (stats["nfev"], stats["steps"]) == (nfev, steps), n


def test_trace_chords_nearly_horizontal():
    trace = trace_foliation(torus_for(2), (0.0, 0.0), 2.0, samples=8192)
    pts = trace.points
    delta = pts[1:] - pts[:-1]
    mid = 0.5 * (pts[1:] + pts[:-1])
    ratio = np.abs(contact(mid, delta)) / np.linalg.norm(delta, axis=-1)
    assert ratio.max() <= 1e-6


def test_trace_speed_is_unit_frame_speed():
    trace = trace_foliation(torus_for(2), (0.3, 0.1), 3.0, samples=4096)
    s = np.linspace(0.0, trace.arclength, trace.uv.shape[0])
    # chord length in the frame metric matches the arclength spacing
    delta = trace.points[1:] - trace.points[:-1]
    ds = s[1] - s[0]
    speed = np.linalg.norm(delta[:, :2], axis=-1) / ds
    assert np.max(np.abs(speed - 1.0)) < 1e-5


def test_rotation_about_axis_maps_leaves_to_leaves():
    phi = 0.7
    a = trace_foliation(torus_for(2), (0.0, 0.0), 10.0, samples=4096)
    b = trace_foliation(torus_for(2), (0.0, phi), 10.0, samples=4096)
    # the trace field has no v dependence, so the u profiles coincide
    assert np.max(np.abs(a.uv[:, 0] - b.uv[:, 0])) < 1e-8
    assert np.max(np.abs((b.uv[:, 1] - phi) - a.uv[:, 1])) < 1e-8
    assert hausdorff_distance(rotate_t_axis(phi, a.points), b.points) < 1e-6


def test_detect_period_raises_without_return():
    trace = trace_foliation(torus_for(2), (0.0, 0.0), 0.5)
    try:
        detect_period(trace, axis=0)
    except ValueError as exc:
        assert "return" in str(exc)
    else:
        raise AssertionError("missing return not reported")


def test_trace_truncates_near_characteristic_point():
    # radial leaf of the flat plane runs into the characteristic origin
    trace = trace_foliation(flat_plane(), (-0.1, 0.0), 1.0)
    assert trace.truncated
    assert trace.arclength < 0.2
    end = trace.uv[-1]
    assert np.hypot(end[0], end[1]) < 1e-3


def test_trace_rejects_characteristic_start():
    try:
        trace_foliation(flat_plane(), (0.0, 0.0), 1.0)
    except ValueError as exc:
        assert "characteristic" in str(exc)
    else:
        raise AssertionError("characteristic start accepted")


def test_trace_requires_positive_arclength():
    try:
        trace_foliation(torus_for(1), (0.0, 0.0), 0.0)
    except ValueError:
        return
    raise AssertionError("zero arclength accepted")


def test_trace_is_deterministic():
    a = trace_foliation(torus_for(2), (0.1, 0.2), 5.0)
    b = trace_foliation(torus_for(2), (0.1, 0.2), 5.0)
    assert a.uv.tobytes() == b.uv.tobytes()
    assert a.points.tobytes() == b.points.tobytes()
    assert a.arclength == b.arclength


def test_hausdorff_distance_basics():
    a = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    b = np.array([[0.0, 0.5, 0.0], [1.0, 0.0, 0.0]])
    assert hausdorff_distance(a, a) == 0.0
    assert abs(hausdorff_distance(a, b) - 0.5) < 1e-15
    assert hausdorff_distance(a, b) == hausdorff_distance(b, a)
