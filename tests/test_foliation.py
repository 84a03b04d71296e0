"""Characteristic foliation tracing and section-return analysis."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.spatial import cKDTree

from heisgeo import (
    contact,
    detect_period,
    rotate_t_axis,
    torus_surface,
    trace_foliation,
)
from heisgeo import foliation
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


def spy_on_stepper(monkeypatch):
    """Record the arguments of every call `trace_foliation` makes to its stepper."""
    calls = []
    stepper = foliation._dop853

    def spy(*args):
        calls.append(args)
        return stepper(*args)

    monkeypatch.setattr(foliation, "_dop853", spy)
    return calls


def test_solver_direction_is_the_batched_field_bit_for_bit(monkeypatch):
    # the stepper's right-hand side runs on Python floats, the direction field
    # on a batch on arrays; both must give the same bits, up to the per-trace sign
    calls = spy_on_stepper(monkeypatch)
    rng = np.random.default_rng(44)
    for n in (2, 11):
        torus = torus_for(n)
        trace_foliation(torus, (0.0, 0.0), 1.0)
        rhs = calls[-1][0]
        uv = rng.uniform(-100.0, 100.0, (2000, 2))
        values = [rhs(u, v) for u, v in uv.tolist()]
        assert {type(x) for row in values for x in row} == {float}, n
        solver = np.array(values)
        field = np.array(_direction(*_pairings(torus, uv[:, 0], uv[:, 1]))).T
        sign = np.sign(solver[0, 0] * field[0, 0])
        assert (sign * field).tobytes() == solver.tobytes(), n


def test_stepper_agrees_with_scipy_dop853(monkeypatch):
    # the same right-hand side and events through scipy's own `solve_ivp` with DOP853:
    # the step control matches up to rounding, so the work, the polyline, the
    # section returns and the verdict agree
    from scipy.integrate import solve_ivp

    calls = spy_on_stepper(monkeypatch)
    for n, start in ((1, (0.0, 0.0)), (2, (0.0, 0.0)), (3, (0.0, 0.0)), (11, (0.0, 0.0)), (5, (2.0, -1.0))):
        trace = trace_foliation(torus_for(n), start, auto_arclen(n))
        rhs, u0, v0, s_end, guard, sections = calls[-1]
        events = [lambda s, y, g=g: g(*y) for g in (guard, *sections)]
        events[0].terminal = True
        ref = solve_ivp(lambda s, y: rhs(*y), (0.0, s_end), (u0, v0), method="DOP853",
                        rtol=foliation.RTOL, atol=foliation.ATOL, dense_output=True, events=events)
        assert ref.status == 0 and trace.truncated is False, n
        steps = ref.t.size - 1
        assert abs(trace.step_stats["steps"] - steps) <= 0.01 * steps, (n, trace.step_stats, steps)
        assert abs(trace.step_stats["nfev"] - ref.nfev) <= 0.03 * ref.nfev, (n, trace.step_stats, ref.nfev)
        grid = np.linspace(0.0, s_end, trace.uv.shape[0])
        assert trace.arclength == s_end
        assert np.max(np.abs(trace.uv - ref.sol(grid).T)) <= 1e-8, n
        returns = {axis: (ref.t_events[axis + 1], ref.y_events[axis + 1]) for axis in (0, 1)}
        for axis in (0, 1):
            assert trace.returns[axis][0].shape == returns[axis][0].shape, (n, axis)
            assert np.max(np.abs(trace.returns[axis][0] - returns[axis][0])) <= 1e-9, (n, axis)
            reference = dataclasses.replace(trace, returns=returns)
            assert detect_period(trace, axis)[1] == detect_period(reference, axis)[1], (n, axis)


def test_leaf_step_stats_are_pinned():
    # solver work on the fig4 (n = 2) and fig6 (n = 11) leaves; a right-hand
    # side whose bits moved would move these counts
    for n, nfev, steps, rejected in ((2, 2561, 137, 42), (11, 10775, 563, 194)):
        stats = trace_foliation(torus_for(n), (0.0, 0.0), auto_arclen(n)).step_stats
        assert stats == {"nfev": nfev, "steps": steps, "rejected": rejected}, n
        # each attempt takes 12 RHS calls, each accepted step 3 more for its
        # dense output, and the first step's choice 2
        assert nfev == 12 * (steps + rejected) + 3 * steps + 2, n


def test_guard_reuses_the_end_of_step_pairings(monkeypatch):
    # the guard at a step's end reads the pairings of that step's stage 12,
    # and at the start those of the first RHS call: every pairing is one RHS
    # call's, apart from the start's direction sign
    calls = []
    pairings = foliation._pairings
    monkeypatch.setattr(foliation, "_pairings", lambda *args: calls.append(args) or pairings(*args))
    for n, count in ((2, 2561 + 1), (11, 10775 + 1)):
        calls.clear()
        stats = trace_foliation(torus_for(n), (0.0, 0.0), auto_arclen(n)).step_stats
        assert len(calls) == count == stats["nfev"] + 1, (n, len(calls), stats)


def test_a_rebuilt_torus_keeps_its_frame():
    # a torus rebuilt with counted maps by `dataclasses.replace`, as a tracer
    # rebuilds it, still steps its leaf through `frame`: the fig4 and fig6
    # leaves are bit for bit the plain torus's, and only the polyline calls a map
    maps = ("position", "tangent_u", "tangent_v")
    for n in (2, 11):
        torus = torus_for(n)
        calls = dict.fromkeys(maps, 0)

        def counted(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)
            return wrapper

        rebuilt = dataclasses.replace(torus, **{name: counted(name, getattr(torus, name)) for name in maps})
        plain, traced = (trace_foliation(S, (0.0, 0.0), auto_arclen(n)) for S in (torus, rebuilt))
        assert calls == {"position": 1, "tangent_u": 0, "tangent_v": 0}, (n, calls)
        assert plain.uv.tobytes() == traced.uv.tobytes(), n
        assert plain.points.tobytes() == traced.points.tobytes(), n
        assert plain.step_stats == traced.step_stats, n
        assert plain.returns.keys() == traced.returns.keys(), n
        for axis, (s, uv) in plain.returns.items():
            assert s.tobytes() == traced.returns[axis][0].tobytes(), (n, axis)
            assert uv.tobytes() == traced.returns[axis][1].tobytes(), (n, axis)


def test_tableau_literals_are_scipys_dop853():
    # every nonzero entry of scipy's DOP853 rows at its position, and nothing else
    from scipy.integrate import DOP853

    def dense(rows, width):
        out = np.zeros((len(rows), width))
        for i, row in enumerate(rows):
            for j, a in row:
                assert out[i, j] == 0.0 and a != 0.0 and type(a) is float, (i, j)
                out[i, j] = a
        return out

    stages = dense(foliation._STAGES, DOP853.n_stages)
    assert stages.tobytes() == np.vstack([DOP853.A[1:], DOP853.B]).tobytes()
    assert dense([foliation._E5, foliation._E3], DOP853.E5.size).tobytes() == np.vstack(
        [DOP853.E5, DOP853.E3]).tobytes()
    assert dense(foliation._EXTRA, DOP853.A_EXTRA.shape[1]).tobytes() == DOP853.A_EXTRA.tobytes()
    assert dense(foliation._D, DOP853.D.shape[1]).tobytes() == DOP853.D.tobytes()


def section_brackets(monkeypatch, n, count, rng):
    """`count` seeded brackets (f, a, b) about the returns of the n-torus leaf:
    f is a section event of the stepper on the trace's dense output."""
    calls = spy_on_stepper(monkeypatch)
    trace = trace_foliation(torus_for(n), (0.0, 0.0), auto_arclen(n))
    sections = calls[-1][5]
    brackets = []
    for axis, section in enumerate(sections):
        f = lambda s, section=section: section(*trace.at(s))
        for s in rng.choice(trace.returns[axis][0][1:], count // 2).tolist():
            a = max(0.0, s - rng.uniform(0.0, 0.5))
            brackets.append((f, a, min(trace.arclength, s + rng.uniform(0.0, 0.5))))
    return brackets


def test_brentq_is_scipys_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(25)
    brackets = [bracket for n in (2, 11) for bracket in section_brackets(monkeypatch, n, 600, rng)]
    assert len(brackets) == 1200
    for f, a, b in brackets:
        expected = brentq(f, a, b, xtol=foliation.EVENT_XTOL, rtol=foliation.EVENT_XTOL)
        root = foliation._brentq(f, a, b)
        assert type(root) is float and root == expected, (a, b, root, expected)
    # odd powers of x - r, steep or flat at the root, force bisections and
    # rejected steps; on the flat ones both give up after 100 iterations
    def outcome(solve, f, a, b):
        try:
            return solve(f, a, b)
        except RuntimeError:
            return RuntimeError

    scipy_brentq = lambda f, a, b: brentq(f, a, b, xtol=foliation.EVENT_XTOL, rtol=foliation.EVENT_XTOL)
    failures = 0
    for p in (0.05, 0.3, 3.0, 9.0, 25.0):
        for r, a, b in rng.uniform((-1.0, -3.0, 1.0), (1.0, -1.0, 3.0), (40, 3)).tolist():
            f = lambda x, r=r, p=p: math.copysign(abs(x - r) ** p, x - r)
            expected = outcome(scipy_brentq, f, a, b)
            assert outcome(foliation._brentq, f, a, b) == expected, (p, r, a, b)
            failures += expected is RuntimeError
    assert 0 < failures < 200


def test_brentq_ends_signs_nan_and_convergence():
    brent = foliation._brentq
    line = lambda x: x - 0.25
    assert brent(line, 0.25, 1.0) == 0.25
    assert brent(line, -1.0, 0.25) == 0.25
    assert abs(brent(line, 0.0, 1.0) - 0.25) <= foliation.EVENT_XTOL
    with pytest.raises(ValueError, match="signs"):
        brent(line, 0.5, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        brent(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0)
    # a jump, bisected from a bracket far too wide for BRENT_ITERATIONS halvings
    jump = lambda x: 1.0 if x > 1.0 else -1.0
    with pytest.raises(RuntimeError, match="converge"):
        brent(jump, -1e300, 1e300)
    with pytest.raises(RuntimeError):
        brentq(jump, -1e300, 1e300, xtol=foliation.EVENT_XTOL, rtol=foliation.EVENT_XTOL)


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


def reference_returns(trace, axis, grid=8192):
    """Section returns by scanning a resampled grid and refining each bracket by brentq.

    An independent root finder for the solver's section events on a torus
    (period 2 pi on both axes): it sweeps every level start + 2 pi k crossed
    by the unwrapped coordinate, refines to 1e-10 in arclength and drops the
    start and duplicate roots.
    """
    value = trace.uv[0, axis]
    s_grid = np.linspace(0.0, trace.arclength, grid)
    coord = trace.at(s_grid)[axis]
    k_lo = math.floor((coord.min() - value) / (2.0 * np.pi))
    k_hi = math.ceil((coord.max() - value) / (2.0 * np.pi))
    roots = []
    for level in value + 2.0 * np.pi * np.arange(k_lo, k_hi + 1):
        resid = coord - level
        for i in np.flatnonzero(resid[:-1] * resid[1:] <= 0.0):
            roots.append(brentq(lambda s, c: trace.at(s)[axis] - c, s_grid[i], s_grid[i + 1],
                                args=(level,), xtol=1e-10))
    unique = []
    for s in sorted(roots):
        if s > 1e-8 and (not unique or s - unique[-1] > 1e-8):
            unique.append(s)
    return np.array(unique)


def reference_windings(trace, s_returns, close_tol=1e-6):
    """Winding pair of the first return closing within `close_tol` (else the best one)."""
    ref = trace.at(0.0)
    best = None
    for s in s_returns:
        gaps = trace.at(s) - ref
        winds = tuple(abs(int(round(gaps[ax] / (2.0 * np.pi)))) for ax in range(2))
        gaps -= 2.0 * np.pi * np.round(gaps / (2.0 * np.pi))
        residual = float(np.hypot(*gaps))
        if residual <= close_tol:
            return winds
        if best is None or residual < best[0]:
            best = (residual, winds)
    return best[1]


def test_solver_section_events_match_a_grid_root_scan():
    for n in (1, 2, 3, 11):
        trace = trace_foliation(torus_for(n), (0.0, 0.0), auto_arclen(n))
        for axis in (0, 1):
            s_events, uv_events = trace.returns[axis]
            later = s_events > 1e-8
            expected = reference_returns(trace, axis)
            assert later.sum() == expected.size > 0, (n, axis)
            assert np.max(np.abs(s_events[later] - expected)) <= 1e-9, (n, axis)
            # the event state is the dense solution at the event
            assert np.max(np.abs(uv_events[later] - trace.at(s_events[later]).T)) <= 1e-12, (n, axis)
            residual, windings = detect_period(trace, axis=axis)
            assert residual <= 1e-6, (n, axis, residual)
            assert windings == reference_windings(trace, expected), (n, axis)


def test_detect_period_reads_stored_returns_without_dense_calls():
    # with every stored interpolant coefficient NaN, a verdict that read the
    # dense output would turn NaN
    trace = trace_foliation(torus_for(2), (0.0, 0.0), auto_arclen(2))
    poisoned = trace._dense._replace(coeffs=np.full_like(trace._dense.coeffs, np.nan))
    blind = dataclasses.replace(trace, _dense=poisoned)
    assert np.isnan(blind.at(1.0)).all()
    assert detect_period(blind, axis=0) == detect_period(trace, axis=0)
    assert detect_period(blind, axis=1) == detect_period(trace, axis=1)


def test_surface_without_periodic_axis_has_no_section():
    trace = trace_foliation(flat_plane(), (-1.0, 0.5), 0.5)
    assert trace.returns == {}
    for axis in (0, 1):
        try:
            detect_period(trace, axis=axis)
        except ValueError as exc:
            assert "periodic" in str(exc)
        else:
            raise AssertionError("section on a non-periodic axis accepted")


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
