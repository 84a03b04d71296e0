"""Gauss-Legendre quadrature with rule-pair error estimates.

Integrands must be vectorized over a 1-d array of parameters (the 2-d rule
hands f(u, owner, v), see below).  Every rule reports the finer of two rules
and their gap: the uniform curve rule compares against itself at half the
panel count, which is cheap and pessimistic for the smooth integrands used
here; the conforming rules compare the Gauss pair (n, 2n) on each piece.
Each n-point rule is built once, on first use, and kept read-only.

Every estimate is floored at the rounding bound 50·eps·Σ|w·f| of the rule's
weighted samples (as in QUADPACK, Piessens et al. 1983): when both rules
integrate f exactly, their difference can round to exactly zero, and a zero
estimate would claim a value free of rounding error.  The floor enters
through `max`, so an estimate above it is the plain Richardson gap.

The conforming rules integrate a function that vanishes outside P = {phi
> 0} over P only, with every breakpoint on phi = 0: iterated Gauss-Legendre
over the roots of phi (R. I. Saye, SIAM J. Sci. Comput. 37(2), 2015), the
pair (n, 2n) giving the value and the floored gap.  A `Level` carries phi
along one or more lines (an owner axis), and `support_roots` solves for
the roots of all of them in one search, never sampling: a cell is dropped
only when |phi| at its centre exceeds lip times its half-width, the rest
are halved and Newton polishes the roots left in them.  On a surface whose
lines u = const are orbits of a motion (a `Sweep`), phi's positive set on
each line is known in closed form, so the only search is that for the
u-breakpoints.  The checks that fire are named in the stats' `faults` and
make the estimate NaN: `nan`, `unsettled` (a root solve),
`root_count` (a change inside a piece), `sign_pattern` (neighbouring
intervals of one sign) and `missed_support` (no piece sees P, and nothing
proves it misses).  A miss that is proved reads `miss: "proved"`.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "Level",
    "Sweep",
    "RuleResult",
    "ROUNDING_FLOOR",
    "integrate_1d",
    "conforming_integrate_1d",
    "conforming_integrate_2d",
    "support_roots",
]

# the uniform curve rule takes CURVE_PANELS equal panels of NODES-point
# Gauss-Legendre
CURVE_PANELS = 256
NODES = 8

# multiple of eps * sum |w f| below which a Richardson gap is rounding noise
ROUNDING_FLOOR = 50.0 * np.finfo(float).eps

# Gauss-Legendre pairs (n, 2n) of the conforming surface and curve rules
CONFORMING_PAIR = (24, 48)
CURVE_PAIR = (16, 32)
# most solves settle in a few steps; bisection fallbacks can need more
NEWTON_STEPS = 40


class RuleResult(tuple):
    """(value, error) pair whose `stats` say what the rule did: `rule`
    (`uniform` or `conforming`), integrand `points`, and `panels` or
    `pieces`."""

    def __new__(cls, value, error, **stats):
        self = super().__new__(cls, (float(value), float(error)))
        self.stats = stats
        return self


class Level(NamedTuple):
    """The level phi whose positive set P = {phi > 0} holds an integrand's support.

    `jet(x, owner, axes)` is phi at x on the lines `owner` (an index per
    point, or one for all) and, unless axes=(), its derivative, point by
    point (no bit depends on the batch).  `lip(phi, h, owner)` bounds
    |phi'| within h of a point where phi takes that value.  `scale`, one
    per line, is the size of P in parameters, the widest cell a root search
    starts from.  `noise`, the factor by which the integrand's inputs are
    rounded worse than its own scale, multiplies the rounding floor.
    """

    jet: Callable
    lip: Callable
    scale: tuple
    noise: float


class Sweep(NamedTuple):
    """A level phi(u, v) on u_dom x v_dom whose lines u = const are orbits.

    `level` runs along lines in u: `folds` fold levels, the first phi's
    maximum on each orbit within the rectangle, so when all are negative
    with no root, at both ends and between, P misses the rectangle; then
    the v-edges (none when v is periodic) and any other truncation line,
    which has no root.  `lines` is `support_roots(level, *u_dom)`.
    `inner(u)` gives phi's positive intervals of v at each u in closed
    form, as (owner, a, b) with owner the index into u.
    """

    level: Level
    folds: int
    u_dom: tuple
    lines: list
    inner: Callable


@functools.cache
def _legendre(n):
    """Read-only nodes and weights of n-point Gauss-Legendre on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss(n, lo, hi):
    """Nodes and weights, flattened, of n-point Gauss-Legendre on each [lo, hi]."""
    x, w = _legendre(n)
    half = 0.5 * (hi - lo)[:, None]
    return ((0.5 * (lo + hi))[:, None] + half * x).ravel(), (half * w).ravel()


def _pair(f, coarse, fine, faults, noise, **stats):
    """Result of a rule pair, each (args, weights): the fine value and the
    gap floored at `noise` times the rounding floor; f is evaluated once on
    both rules' nodes.  `faults` name the checks that fired, `nan` added
    for a NaN sample; any fault makes the estimate NaN and is listed in the
    stats, after those that name the rule."""
    vals = np.asarray(f(*(np.concatenate((c, d)) for c, d in zip(coarse[0], fine[0]))), dtype=float)
    c, d = coarse[1] * vals[:len(coarse[1])], fine[1] * vals[len(coarse[1]):]
    faults = faults | ({"nan"} if np.isnan(vals).any() else set())
    floor = ROUNDING_FLOOR * (noise * float(np.abs(d).sum()))
    error = np.nan if faults else float(max(abs(d.sum() - c.sum()), floor))
    return RuleResult(d.sum(), error, points=len(vals), **stats, **({"faults": sorted(faults)} if faults else {}))


def _panels(a: float, b: float, panels: int):
    """Nodes and weights of NODES-point Gauss-Legendre on equal panels of [a, b]."""
    edges = np.linspace(a, b, panels + 1)
    return _gauss(NODES, edges[:-1], edges[1:])


def integrate_1d(f, a: float, b: float) -> RuleResult:
    """Integral of the vectorized scalar f over [a, b] by CURVE_PANELS panels,
    the estimate from the same rule at half as many."""
    rules = [((x,), w) for x, w in (_panels(a, b, p) for p in (CURVE_PANELS // 2, CURVE_PANELS))]
    return _pair(f, *rules, set(), 1.0, rule="uniform", panels=CURVE_PANELS)


def _solve(jet, lo, hi, g_lo, group):
    """Root of g (g_lo at lo) in each sign bracket [lo, hi] by Newton, bisecting
    where a step would leave it; NaN where unsettled to 1e-9 of it.  `jet(x, k)`
    is (g, g') at x in brackets k; a `group` stops together once all settle."""
    lo, hi, x = lo.copy(), hi.copy(), 0.5 * (lo + hi)
    settle, done, k = 1e-9 * (hi - lo), np.zeros(len(lo), dtype=bool), np.arange(len(lo))
    for _ in range(NEWTON_STEPS):
        if not len(k):
            break
        g, d = jet(x[k], k)
        right = (g > 0.0) == (g_lo[k] > 0.0)
        lo[k], hi[k] = np.where(right, x[k], lo[k]), np.where(right, hi[k], x[k])
        x_new = x[k] - g / d
        done[k] = (np.abs(x_new - x[k]) <= settle[k]) | (hi[k] - lo[k] <= settle[k])
        x[k] = np.where((x_new >= lo[k]) & (x_new <= hi[k]), x_new, 0.5 * (lo[k] + hi[k]))
        k = k[np.isin(group[k], group[k[~done[k]]])]
    return np.where(done, x, np.nan)


def support_roots(level: Level, a: float, b: float):
    """Roots on [a, b] of a level along each line: one (roots, faults) per
    line, with the bits of a search of that line alone.  Cells start at
    most the line's `scale` wide; one is dropped when |phi| at its centre
    exceeds lip times its half-width, the rest are halved down to scale/64
    and merge into clusters within their line.  Ends of differing sign
    bracket a root, ends of equal sign with differing slopes an extremum,
    and two roots if phi crosses zero there.  The faults are `nan` for a
    NaN level at a cluster's end and `unsettled` for an unsettled solve."""
    jet, scale, n = level.jet, np.asarray(level.scale, dtype=float), len(level.scale)
    edges = [np.linspace(a, b, int(np.ceil((b - a) / s)) + 1) for s in scale]
    owner, lo, hi = (np.concatenate(x) for x in zip(*((np.full(len(e) - 1, k), e[:-1], e[1:])
                                                      for k, e in enumerate(edges))))
    done = [(owner[:0], lo[:0], hi[:0])]
    while len(lo):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        g = jet(mid, owner, axes=())[0]
        live = ~(np.abs(g) > level.lip(g, half, owner) * half)
        owner, lo, hi, mid = owner[live], lo[live], hi[live], mid[live]
        fine = hi - lo <= scale[owner] / 64.0
        done.append((owner[fine], lo[fine], hi[fine]))
        owner, lo, hi = (np.concatenate((x[~fine], y[~fine])) for x, y in ((owner, owner), (lo, mid), (mid, hi)))
    owner, lo, hi = (np.concatenate(x) for x in zip(*done))
    # each line's cells in order; a cluster starts where a cell leaves a gap
    lo, hi, owner = lo[np.lexsort((lo, owner))], hi[np.lexsort((hi, owner))], np.sort(owner)
    new = np.ones(len(lo), dtype=bool)
    new[1:] = (lo[1:] != hi[:-1]) | (owner[1:] != owner[:-1])
    owner, lo, hi = owner[new], lo[new], hi[np.roll(new, -1)]
    g, d = jet(np.concatenate((lo, hi)), np.tile(owner, 2)) if len(lo) else (lo, lo)
    (ga, gb), (da, db) = np.split(g, 2), np.split(d, 2)
    cross = (ga > 0.0) != (gb > 0.0)
    turn = ~cross & ((da > 0.0) != (db > 0.0))
    # brackets (lo, hi, phi at lo) and groups: each kind on each line, as its own solve
    brackets = [(lo[cross], hi[cross], ga[cross], owner[cross])]
    if turn.any():
        t_lo, t_hi, t_owner = lo[turn], hi[turn], owner[turn]
        h = 1e-4 * (t_hi - t_lo)
        x = _solve(lambda x, k: (jet(x, t_owner[k])[1], (jet(x + h[k], t_owner[k])[1]
                                                       - jet(x - h[k], t_owner[k])[1]) / (2.0 * h[k])),
                   t_lo, t_hi, da[turn], t_owner)
        g_x = jet(x, t_owner, axes=())[0]
        two = (g_x > 0.0) != (ga[turn] > 0.0)
        brackets += [(t_lo[two], x[two], ga[turn][two], t_owner[two] + n),
                     (x[two], t_hi[two], g_x[two], t_owner[two] + 2 * n)]
    lo, hi, g_lo, group = (np.concatenate(x) for x in zip(*brackets))
    line = group % n
    roots = _solve(lambda x, k: jet(x, line[k]), lo, hi, g_lo, group)
    nan = set(owner[np.isnan(ga) | np.isnan(gb)])
    found = [np.sort(roots[line == k]) for k in range(n)]
    return [(r, ({"nan"} if k in nan else set()) | ({"unsettled"} if np.isnan(r).any() else set()))
            for k, r in enumerate(found)]


def conforming_integrate_1d(f, level: Level, a: float, b: float, found=None) -> RuleResult:
    """Integral over [a, b] of f, which vanishes where the level (one line) is <= 0.

    The roots are `found`, as (roots, faults), or solved here.  Each
    interval between roots where the level is > 0 gets the pair
    CURVE_PAIR; neighbouring intervals share a sign only past a missed or
    spurious root.  A level with no root that is negative at both ends and
    between is a proved miss.
    """
    roots, faults = found or support_roots(level, a, b)[0]
    cuts = np.sort(np.concatenate(([a], roots, [b])))
    lo, hi = cuts[:-1][cuts[1:] > cuts[:-1]], cuts[1:][cuts[1:] > cuts[:-1]]
    pos = level.jet(0.5 * (lo + hi), 0, axes=())[0] > 0.0
    faults = faults | ({"sign_pattern"} if np.any(pos[1:] == pos[:-1]) else set())
    lo, hi = lo[pos], hi[pos]
    miss = not (len(roots) or len(lo) or faults) and bool((level.jet(np.array([a, b]), 0, axes=())[0] < 0.0).all())
    faults |= {"missed_support"} if not len(lo) and not miss else set()
    rules = [((x,), w) for x, w in (_gauss(n, lo, hi) for n in CURVE_PAIR)]
    return _pair(f, *rules, faults, level.noise, rule="conforming", pieces=len(lo),
                 **({"miss": "proved"} if miss else {}))


def conforming_integrate_2d(f, sweep: Sweep) -> RuleResult:
    """Integral over a rectangle of f, which vanishes outside P = {phi > 0}.

    The u-breakpoints are the ends of `sweep.u_dom` and the roots of the
    sweep's lines, so that the number of positive intervals on a line is
    the same all through a piece.  The outer rule runs through u = a + (b -
    a)(1 - cos(pi s))/2 (A. Sidi, 1993), which smooths the square-root
    behaviour at folds; the inner intervals at each outer node come from
    `sweep.inner`.  f(u, owner, v) is the integrand at (u[owner], v), with
    u the outer nodes of both rules that own an interval, each once.
    """
    u_dom, level, folds = sweep.u_dom, sweep.level, np.arange(3 * sweep.folds)
    if not any(len(roots) or bad for roots, bad in sweep.lines[:sweep.folds]) and (
            level.jet(np.linspace(*u_dom, 3)[folds % 3], folds // 3, axes=())[0] < 0.0).all():
        return RuleResult(0.0, 0.0, rule="conforming", points=0, pieces=0, miss="proved")
    faults = set().union(*(bad for _, bad in sweep.lines))
    breaks = np.unique(np.clip(np.concatenate([u_dom] + [roots for roots, _ in sweep.lines]), *u_dom))
    breaks = breaks[np.concatenate(([True], np.diff(breaks) > 1e-12 * (u_dom[1] - u_dom[0])))]
    a, b = breaks[:-1], np.append(breaks[1:-1], u_dom[1])

    # outer nodes u with weights wu, piece and rule (0 or 1) of both rules
    nodes = []
    for rule, n in enumerate(CONFORMING_PAIR):
        s, w = _gauss(n, np.zeros(1), np.ones(1))
        x, dx = 0.5 * (1.0 - np.cos(np.pi * s)), 0.5 * np.pi * np.sin(np.pi * s) * w
        nodes.append((np.ravel(a[:, None] + (b - a)[:, None] * x), np.ravel((b - a)[:, None] * dx),
                      np.repeat(np.arange(len(a)), n), np.full(len(a) * n, rule)))
    u, wu, piece, rule = (np.concatenate(x) for x in zip(*nodes))
    o, va, vb = sweep.inner(u)
    # every node of a piece must see as many intervals as the piece's first node
    count = np.bincount(o, minlength=len(u))
    if np.any(count != count[piece * CONFORMING_PAIR[0]]):
        faults.add("root_count")
    if not len(o):
        faults.add("missed_support")
    # the integrand sees only the nodes that own an interval
    own, o_own = np.unique(o, return_inverse=True)
    rules = []
    for k, n in enumerate(CONFORMING_PAIR):
        mine = rule[o] == k
        v, w = _gauss(n, va[mine], vb[mine])
        rules.append(((np.repeat(o_own[mine], n), v), w * np.repeat(wu[o[mine]], n)))
    return _pair(lambda i, v: f(u[own], i, v), *rules, faults, level.noise, rule="conforming", pieces=len(a))
