"""Property tests: a quadrature result is trustworthy or flagged, never silently wrong."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heisgeo.integrate import FLAG_TOL, _result
from heisgeo.quadrature import NEWTON_STEPS, Level, Sweep, conforming_integrate_2d, integrate_1d, support_roots

from conftest import per_node

# fixed examples keep tier-1 repeatable; no example database is written
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

coefficients = st.lists(st.floats(-100.0, 100.0), min_size=4, max_size=4).filter(
    lambda c: max(abs(x) for x in c) >= 1e-3
)


def _whole_rectangle(f, u_dom, v_dom):
    """The conforming rule when every orbit lies in P: a fold level 1 with
    no roots and the whole v-range at every u, so one piece."""
    def jet(x, owner, axes=(0,)):
        one = np.ones(np.shape(x))
        return (one, *(0.0 * one for _ in axes))

    one = Level(jet, lambda phi, h, owner: 0.0, (math.hypot(u_dom[1] - u_dom[0], v_dom[1] - v_dom[0]),) * 3, 1.0)
    whole = lambda u: (np.arange(len(u)), np.full(len(u), float(v_dom[0])), np.full(len(u), float(v_dom[1])))
    return conforming_integrate_2d(f, Sweep(one, 1, u_dom, support_roots(one, *u_dom), whole))


@PROPERTY
@given(u0=st.floats(0.0, 15.0 / 16.0), v0=st.floats(0.0, 15.0 / 16.0),
       du=st.floats(1.0 / 16.0, 1.0), dv=st.floats(1.0 / 16.0, 1.0))
def test_nan_region_is_flagged(u0, v0, du, dv):
    # the 48-point rule's nodes lie at most 0.051 apart on each axis, so a
    # NaN region at least 1/16 wide holds one wherever it sits, and the NaN
    # reaches both value and estimate
    def f(u, v):
        inside = (u >= u0) & (u <= u0 + du) & (v >= v0) & (v <= v0 + dv)
        return np.where(inside, np.nan, 1.0 + u * v)

    value, est = _whole_rectangle(per_node(f), (0.0, 1.0), (0.0, 1.0))
    assert np.isnan(value)
    assert _result(value, est, FLAG_TOL).flagged


@PROPERTY
@given(coef=coefficients, lo=st.floats(-3.0, 3.0), width=st.floats(0.01, 4.0))
def test_estimate_of_nonzero_integrand_is_positive(coef, lo, width):
    # low-degree polynomials are integrated exactly, so the Richardson gap is
    # rounding noise or zero; the estimate must still be positive
    c0, c1, c2, c3 = coef
    f1 = lambda x: c0 + x * (c1 + x * (c2 + x * c3))
    f2 = lambda u, v: c0 + c1 * u + c2 * v + c3 * u * v
    dom = (lo, lo + width)
    assert integrate_1d(f1, *dom)[1] > 0.0
    assert _whole_rectangle(per_node(f2), dom, dom)[1] > 0.0


# test lines (c, m, q, s, scale): phi = c - q (x - m)^2 + (1 - q)(x - m),
# and the jet's slope s times phi's left of m, (s + 1) / 2 times right of
# it.  Newton converges at once with the factor 1, linearly with more (so
# every step moves a root until its solve stops, and with s = 2 roots
# either side of m settle at different steps), and creeps with s = 1e7
DEAD = (-10.0, 0.5, 1.0, 1.0, 0.25)  # |phi| > lip h on every first cell
TWIN = (1e-6, 0.4321, 1.0, 2.0, 0.5)  # roots 2e-3 apart, in one cluster
NAN = (math.nan, 0.5, 1.0, 1.0, 0.25)  # every cell live, NaN at its ends
CREEP = (0.0, 0.3, 0.0, 1e7, 0.5)  # the root never settles
CAP = (0.04, 0.61, 1.0, 2.0, 0.3)  # two roots in two clusters
# two lines whose clusters meet at 0.5, one ending and the next starting
# there, and which must not merge
MEET = [(0.0, 0.499, 0.0, 2.0, 0.5), (0.0, 0.501, 0.0, 2.0, 0.5)]

slopes = st.sampled_from([1.0, 2.0, 3.0])
lines = st.lists(st.one_of(
    st.sampled_from([DEAD, TWIN, NAN, CREEP, CAP] + MEET),
    st.tuples(st.floats(-0.3, 0.3), st.floats(0.0, 1.0), st.just(1.0), slopes, st.floats(0.05, 1.0)),
    st.tuples(st.floats(1e-8, 1e-4), st.floats(0.0, 1.0), st.just(1.0), slopes, st.floats(0.05, 1.0)),
    st.tuples(st.just(0.0), st.floats(0.0, 1.0), st.just(0.0), st.sampled_from([1.0, 2.0, 1e7]),
              st.floats(0.05, 1.0)),
), min_size=1, max_size=6)


def _test_level(lines):
    c, m, q, s, scale = (np.array(x, dtype=float) for x in zip(*lines))

    def jet(x, owner, axes=(0,)):
        dx = x - m[owner]
        return (c[owner] - q[owner] * dx * dx + (1.0 - q[owner]) * dx,
                *(np.where(dx > 0.0, 0.5 * (s[owner] + 1.0), s[owner]) * (1.0 - q[owner] - 2.0 * q[owner] * dx)
                  for _ in axes))

    def lip(phi, h, owner):
        return 2.0 * q[owner] * (np.sqrt(np.maximum(c[owner] - phi, 0.0)) + h) + (1.0 - q[owner])

    return Level(jet, lip, tuple(scale), 1.0)


def _bits(found):
    return [(roots.tobytes(), sorted(faults)) for roots, faults in found]


def _reference_search(level, a, b):
    """The search of one line as a loop over its cells and brackets once
    was, each solve its own call that stops when all its brackets settle:
    the bits that a search of n lines keeps on each."""
    jet = lambda x, axes=(0,): level.jet(x, np.zeros(len(x), dtype=int), axes)

    def solve(g, lo, hi):
        settle, g_lo, x = 1e-9 * (hi - lo), g(lo)[0], 0.5 * (lo + hi)
        for _ in range(NEWTON_STEPS):
            y, d = g(x)
            right = (y > 0.0) == (g_lo > 0.0)
            lo, hi = np.where(right, x, lo), np.where(right, hi, x)
            x_new = x - y / d
            done = (np.abs(x_new - x) <= settle) | (hi - lo <= settle)
            x = np.where((x_new >= lo) & (x_new <= hi), x_new, 0.5 * (lo + hi))
            if done.all():
                break
        return np.where(done, x, np.nan)

    scale = level.scale[0]
    edges = np.linspace(a, b, int(np.ceil((b - a) / scale)) + 1)
    a, b, done = edges[:-1], edges[1:], [(edges[:0], edges[:0])]
    while len(a):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        g = jet(mid, axes=())[0]
        live = ~(np.abs(g) > level.lip(g, half, np.zeros(len(g), dtype=int)) * half)
        a, b, mid = a[live], b[live], mid[live]
        fine = b - a <= scale / 64.0
        done.append((a[fine], b[fine]))
        a, b = np.concatenate((a[~fine], mid[~fine])), np.concatenate((mid[~fine], b[~fine]))
    a, b = (np.sort(np.concatenate(x)) for x in zip(*done))
    if not len(a):
        return a, set()
    first = np.flatnonzero(np.concatenate(([True], a[1:] != b[:-1])))
    a, b = a[first], b[np.append(first[1:], len(b)) - 1]
    (ga, da), (gb, db) = jet(a), jet(b)
    cross = (ga > 0.0) != (gb > 0.0)
    found = [solve(jet, a[cross], b[cross])]
    turn = ~cross & ((da > 0.0) != (db > 0.0))
    if turn.any():
        lo, hi = a[turn], b[turn]
        h = 1e-4 * (hi - lo)
        x = solve(lambda x: (jet(x)[1], (jet(x + h)[1] - jet(x - h)[1]) / (2.0 * h)), lo, hi)
        two = (jet(x, axes=())[0] > 0.0) != (ga[turn] > 0.0)
        lo, x, hi = lo[two], x[two], hi[two]
        found += [solve(jet, lo, x), solve(jet, x, hi)]
    roots = np.sort(np.concatenate(found))
    faults = {"nan"} if np.isnan(np.concatenate((ga, gb))).any() else set()
    return roots, faults | ({"unsettled"} if np.isnan(roots).any() else set())


@PROPERTY
@given(lines=lines)
@example(lines=[DEAD, TWIN, NAN, CREEP, CAP] + MEET)
def test_a_search_of_n_lines_gives_each_the_bits_of_its_own(lines):
    with np.errstate(divide="ignore", invalid="ignore"):
        together = support_roots(_test_level(lines), 0.0, 1.0)
        alone = [support_roots(_test_level([line]), 0.0, 1.0)[0] for line in lines]
        reference = [_reference_search(_test_level([line]), 0.0, 1.0) for line in lines]
    assert _bits(together) == _bits(alone) == _bits(reference)


def test_the_test_lines_reach_each_case():
    found = dict(zip(("dead", "twin", "nan", "creep", "cap", "left", "right"),
                     support_roots(_test_level([DEAD, TWIN, NAN, CREEP, CAP] + MEET), 0.0, 1.0)))
    assert not len(found["dead"][0]) and not found["dead"][1]
    assert np.allclose(found["twin"][0], [0.4311, 0.4331], atol=1e-8) and not found["twin"][1]
    assert not len(found["nan"][0]) and found["nan"][1] == {"nan"}
    assert found["creep"][1] == {"unsettled"}
    assert np.allclose(found["cap"][0], [0.41, 0.81], atol=1e-8) and not found["cap"][1]
    assert np.allclose([found["left"][0], found["right"][0]], [[0.499], [0.501]], atol=1e-8)
