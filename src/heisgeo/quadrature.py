"""Gauss-Legendre quadrature with rule-pair error estimates.

Integrands must be vectorized over a 1-d array of parameters (2-d rules take
two flat arrays of equal length).  Every rule reports the finer of two rules
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
pair (n, 2n) giving the value and the floored gap.  The `Level` carries
phi.  Roots are solved for, never sampled: a cell is dropped only when
|phi| at its centre exceeds lip times its half-width, the rest are halved
and Newton polishes the roots left in them.  An estimate is NaN when a
NaN or an unsettled solve turns up, when the root count changes inside a
piece, when neighbouring intervals share a sign, or when a cell proved
that P meets the rectangle and no outer node sees P.  A phi that is
positive with no roots leaves one piece, the whole rectangle.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "Level",
    "RuleResult",
    "ROUNDING_FLOOR",
    "integrate_1d",
    "conforming_integrate_1d",
    "conforming_integrate_2d",
    "support_roots",
    "PrefixIntegral",
]

# the uniform curve rule and PrefixIntegral take CURVE_PANELS equal panels
# of NODES-point Gauss-Legendre
CURVE_PANELS = 256
NODES = 8
# PrefixIntegral tabulates each panel at this many Chebyshev-Lobatto points
CHEB_POINTS = 13

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

    `jet(*x, axes)` is phi and its partials along the listed parameter axes
    (default all; axes=() evaluates phi alone).  `lip(phi, h)` bounds |grad
    phi| within h of a point where phi takes that value.  `scale` is the size
    of P in parameters, the widest cell a root search starts from.  `noise`,
    the factor by which the integrand's inputs are rounded worse than its
    own scale, multiplies the rounding floor.
    """

    jet: Callable
    lip: Callable
    scale: float
    noise: float


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


def _pair(f, coarse, fine, fault, noise, **stats):
    """Result of a rule pair, each (args, weights): the fine value and the
    gap floored at `noise` times the rounding floor, NaN on a fault; f is
    evaluated once on both rules' nodes.  `stats` name the rule."""
    vals = np.asarray(f(*(np.concatenate((c, d)) for c, d in zip(coarse[0], fine[0]))), dtype=float)
    c, d = coarse[1] * vals[:len(coarse[1])], fine[1] * vals[len(coarse[1]):]
    floor = ROUNDING_FLOOR * (noise * float(np.abs(d).sum()))
    error = np.nan if fault else float(max(abs(d.sum() - c.sum()), floor))
    return RuleResult(d.sum(), error, points=len(vals), **stats)


def _panels(a: float, b: float, panels: int):
    """Nodes and weights of NODES-point Gauss-Legendre on equal panels of [a, b]."""
    edges = np.linspace(a, b, panels + 1)
    return _gauss(NODES, edges[:-1], edges[1:])


def integrate_1d(f, a: float, b: float) -> RuleResult:
    """Integral of the vectorized scalar f over [a, b] by CURVE_PANELS panels,
    the estimate from the same rule at half as many."""
    rules = [((x,), w) for x, w in (_panels(a, b, p) for p in (CURVE_PANELS // 2, CURVE_PANELS))]
    return _pair(f, *rules, False, 1.0, rule="uniform", panels=CURVE_PANELS)


def _solve(jet, owner, lo, hi):
    """Root of g in each sign bracket [lo, hi] by Newton, bisecting where a
    step would leave the bracket; NaN where it has not settled to 1e-9 of it."""
    settle, g_lo, x = 1e-9 * (hi - lo), jet(owner, lo)[0], 0.5 * (lo + hi)
    for _ in range(NEWTON_STEPS):
        g, d = jet(owner, x)
        right = (g > 0.0) == (g_lo > 0.0)
        lo, hi = np.where(right, x, lo), np.where(right, hi, x)
        x_new = x - g / d
        done = (np.abs(x_new - x) <= settle) | (hi - lo <= settle)
        x = np.where((x_new >= lo) & (x_new <= hi), x_new, 0.5 * (lo + hi))
        if done.all():
            break
    return np.where(done, x, np.nan)


def _line_roots(jet, lip, owner, a, b, floor):
    """Roots of g in the cells [a, b] of each line; (owner, root, fault).

    jet(owner, x) = (g, g'), or (g,) with axes=().  Surviving cells of width `floor`
    merge into clusters; ends of differing sign bracket a root, ends of equal sign
    with differing slopes an extremum, and two roots if g crosses zero there.
    """
    done = [(owner, a, b)] if not len(a) else []
    while len(a):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        g = jet(owner, mid, axes=())[0]
        live = ~(np.abs(g) > lip(g, half) * half)
        owner, a, b, mid = owner[live], a[live], b[live], mid[live]
        fine = b - a <= floor
        done.append((owner[fine], a[fine], b[fine]))
        owner, a, b, mid = np.tile(owner[~fine], 2), a[~fine], b[~fine], mid[~fine]
        a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
    owner, a, b = (np.concatenate(x) for x in zip(*done))
    if not len(owner):
        return owner, a, False
    order = np.lexsort((a, owner))
    owner, a, b = owner[order], a[order], b[order]
    first = np.flatnonzero(np.concatenate(([True], (owner[1:] != owner[:-1]) | (a[1:] != b[:-1]))))
    owner, a, b = owner[first], a[first], b[np.append(first[1:], len(b)) - 1]
    (ga, da), (gb, db) = jet(owner, a), jet(owner, b)
    cross = (ga > 0.0) != (gb > 0.0)
    found = [(owner[cross], _solve(jet, owner[cross], a[cross], b[cross]))]
    turn = ~cross & ((da > 0.0) != (db > 0.0))
    if turn.any():
        o, lo, hi = owner[turn], a[turn], b[turn]
        h = 1e-4 * (hi - lo)
        x = _solve(lambda o, x: (jet(o, x)[1], (jet(o, x + h)[1] - jet(o, x - h)[1]) / (2.0 * h)),
                   o, lo, hi)
        two = (jet(o, x, axes=())[0] > 0.0) != (ga[turn] > 0.0)
        o, lo, x, hi = o[two], lo[two], x[two], hi[two]
        found += [(o, _solve(jet, o, lo, x)), (o, _solve(jet, o, x, hi))]
    owner, root = (np.concatenate(x) for x in zip(*found))
    order = np.lexsort((root, owner))
    return owner[order], root[order], bool(np.isnan(np.concatenate((ga, gb, root))).any())


def support_roots(level: Level, a: float, b: float):
    """Roots on [a, b] of a level along a line; (roots, fault).
    Cells start at most `level.scale` wide and end scale/64 wide."""
    edges = np.linspace(a, b, int(np.ceil((b - a) / level.scale)) + 1)
    jet = lambda o, x, axes=(0,): level.jet(x, axes=axes)
    _, roots, fault = _line_roots(jet, level.lip, np.zeros(len(edges) - 1, dtype=int),
                                  edges[:-1], edges[1:], level.scale / 64.0)
    return roots, fault


def _positive_intervals(value, lo, hi, owner, roots):
    """(line, a, b) of the intervals between roots where value(line, x) > 0,
    and a fault when neighbours share a sign, which simple roots forbid."""
    lines = np.arange(len(lo))
    cuts, own = np.concatenate((lo, roots, hi)), np.concatenate((lines, owner, lines))
    order = np.lexsort((cuts, own))
    cuts, own = cuts[order], own[order]
    keep = (own[1:] == own[:-1]) & (cuts[1:] > cuts[:-1])
    o, a, b = own[:-1][keep], cuts[:-1][keep], cuts[1:][keep]
    pos = value(o, 0.5 * (a + b)) > 0.0
    return o[pos], a[pos], b[pos], bool(np.any((o[1:] == o[:-1]) & (pos[1:] == pos[:-1])))


def conforming_integrate_1d(f, level: Level, a: float, b: float) -> RuleResult:
    """Integral over [a, b] of f, which vanishes where the level is <= 0.

    Each interval between roots where the level is > 0 gets the pair CURVE_PAIR.
    """
    roots, fault = support_roots(level, a, b)
    _, lo, hi, bad = _positive_intervals(lambda o, x: level.jet(x, axes=())[0], np.array([a]), np.array([b]),
                                         np.zeros(len(roots), dtype=int), roots)
    rules = [((x,), w) for x, w in (_gauss(n, lo, hi) for n in CURVE_PAIR)]
    return _pair(f, *rules, fault or bad, level.noise, rule="conforming", pieces=len(lo))


def conforming_integrate_2d(f, level: Level, u_dom, v_dom, periodic_v: bool) -> RuleResult:
    """Integral over a rectangle of f, which vanishes outside P = {phi > 0}.

    The level's jet(u, v) = (phi, phi_u, phi_v).  The u-breakpoints are the
    roots of phi on the v-edges (none when v is periodic) and the folds
    phi = phi_v = 0, which lie in kept cells of the quadtree over phi.  The
    outer rule runs through u = a + (b - a)(1 - cos(pi s))/2 (A. Sidi,
    1993), which smooths the square-root behaviour at folds; the inner
    roots at each outer node lie in the kept cells of its column.
    """
    jet, lip, scale = level.jet, level.lip, level.scale
    phi = lambda u, v: jet(u, v, axes=())[0]
    su, sv = u_dom[1] - u_dom[0], v_dom[1] - v_dom[0]
    nu, nv = int(np.ceil(su / min(su, sv))), int(np.ceil(sv / min(su, sv)))
    du, dv = su / nu, sv / nv
    iu, iv = (x.ravel() for x in np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij"))
    depths, inside = max(0, int(np.ceil(np.log2(16.0 * np.hypot(du, dv) / scale)))), False
    for depth in range(depths + 1):
        hd = 0.5 * np.hypot(du, dv)
        g = phi(u_dom[0] + (iu + 0.5) * du, v_dom[0] + (iv + 0.5) * dv)
        bound = lip(g, hd) * hd
        inside |= bool((g > bound).any())
        iu, iv = iu[~(np.abs(g) > bound)], iv[~(np.abs(g) > bound)]
        if depth < depths:
            iu, iv = (np.concatenate((2 * iu, 2 * iu + 1, 2 * iu, 2 * iu + 1)),
                      np.concatenate((2 * iv, 2 * iv, 2 * iv + 1, 2 * iv + 1)))
            du, dv = 0.5 * du, 0.5 * dv
    if not len(iu) and not inside:
        return RuleResult(0.0, 0.0, rule="conforming", points=0, pieces=0)

    u, v = u_dom[0] + (iu + 0.5) * du, v_dom[0] + (iv + 0.5) * dv
    _, pu, pv = jet(u, v)
    u, v = u[np.abs(pv) <= 0.25 * np.abs(pu)], v[np.abs(pv) <= 0.25 * np.abs(pu)]
    hu, hv, n = 1e-3 * du, 1e-3 * dv, len(u)
    step_u = step_v = np.full(n, np.inf)
    for _ in range(8 if n else 0):
        p, pu, pv = jet(np.concatenate((u, u + hu, u - hu, u, u)), np.concatenate((v, v, v, v + hv, v - hv)))
        pv, pv_u1, pv_u0, pv_v1, pv_v0 = np.split(pv, 5)
        puv, pvv = (pv_u1 - pv_u0) / (2.0 * hu), (pv_v1 - pv_v0) / (2.0 * hv)
        det = pu[:n] * pvv - pv * puv
        step_u, step_v = (p[:n] * pvv - pv * pv) / det, (pu[:n] * pv - puv * p[:n]) / det
        u, v = u - step_u, v - step_v
    # 8 Newton steps on phi = phi_v = 0 from the kept cells whose gradient
    # is within 14 degrees of the u-axis, phi_v differenced centrally
    fold = ((np.hypot(step_u, step_v) <= 1e-8 * scale)
            & (u > u_dom[0]) & (u < u_dom[1]) & (v >= v_dom[0]) & (v <= v_dom[1]))
    breaks, fault = [np.array(u_dom), u[fold]], False
    for v_edge in () if periodic_v else v_dom:
        edge = lambda u, axes=(0,), v_edge=v_edge: jet(u, np.full_like(u, v_edge), axes=axes)
        roots, bad = support_roots(level._replace(jet=edge), *u_dom)
        breaks, fault = breaks + [roots], fault or bad
    breaks = np.unique(np.clip(np.concatenate(breaks), *u_dom))
    breaks = breaks[np.concatenate(([True], np.diff(breaks) > 1e-12 * su))]
    a, b = breaks[:-1], np.append(breaks[1:-1], u_dom[1])

    # outer nodes u with weights wu, piece and rule (0 or 1) of both rules
    nodes = []
    for rule, n in enumerate(CONFORMING_PAIR):
        s, w = _gauss(n, np.zeros(1), np.ones(1))
        x, dx = 0.5 * (1.0 - np.cos(np.pi * s)), 0.5 * np.pi * np.sin(np.pi * s) * w
        nodes.append((np.ravel(a[:, None] + (b - a)[:, None] * x), np.ravel((b - a)[:, None] * dx),
                      np.repeat(np.arange(len(a)), n), np.full(len(a) * n, rule)))
    u, wu, piece, rule = (np.concatenate(x) for x in zip(*nodes))

    # the roots of phi(u, .) lie in the kept cells whose closed column holds u
    col = (u - u_dom[0]) / du
    order = np.argsort(iu, kind="stable")
    iu, iv = iu[order], iv[order]
    first, last = np.searchsorted(iu, np.ceil(col) - 1), np.searchsorted(iu, np.floor(col), side="right")
    n = last - first
    owner = np.repeat(np.arange(len(u)), n)
    cells = iv[np.arange(len(owner)) + np.repeat(first - np.cumsum(n) + n, n)]
    rows = int(round(sv / dv))
    owner, cells = np.divmod(np.unique(owner * rows + cells), rows)
    r_owner, roots, bad = _line_roots(
        lambda o, v, axes=(0,): jet(u[o], v, axes=(1,) * len(axes)), lip, owner,
        np.clip(v_dom[0] + cells * dv, *v_dom), np.clip(v_dom[0] + (cells + 1) * dv, *v_dom), 0.25 * dv)
    count = np.bincount(r_owner, minlength=len(u))
    # every node of a piece must see as many roots as the piece's first node
    fault |= bad or bool(np.any(count != count[piece * CONFORMING_PAIR[0]]))
    o, va, vb, bad = _positive_intervals(lambda o, v: phi(u[o], v), np.full(len(u), v_dom[0]),
                                         np.full(len(u), v_dom[1]), r_owner, roots)
    # a cell with phi above its bound proved that P meets the rectangle, so
    # outer nodes that see no positive interval have missed the support
    bad |= inside and not len(o)
    rules = []
    for k, n in enumerate(CONFORMING_PAIR):
        mine = rule[o] == k
        v, w = _gauss(n, va[mine], vb[mine])
        rules.append(((np.repeat(u[o[mine]], n), v), w * np.repeat(wu[o[mine]], n)))
    return _pair(f, *rules, fault or bad, level.noise, rule="conforming", pieces=len(a))


class PrefixIntegral:
    """F(tau) = integral of f from a to tau, evaluable at arbitrary tau.

    Built once: the panel prefix sums, and for each panel the Chebyshev
    coefficients of G = F - prefix from its values at CHEB_POINTS
    Chebyshev-Lobatto points (the partial-panel rule inside, 0 and the
    panel's sum at the ends).  A tau in [a, b] is read by Clenshaw's
    recurrence with no call to f, a panel edge (b too) exactly as its prefix
    sum.  A tau outside [a, b], or NaN, takes the partial-panel rule from
    the nearest panel: it extrapolates (f must be defined there), NaN stays.
    """

    def __init__(self, f, a: float, b: float):
        if not b > a:
            raise ValueError("need b > a")
        self.f = f
        self.a, self.b = float(a), float(b)
        self.edges = np.linspace(a, b, CURVE_PANELS + 1)
        pts, wts = _gauss(NODES, self.edges[:-1], self.edges[1:])
        panel_vals = (wts * np.asarray(f(pts), dtype=float)).reshape(CURVE_PANELS, NODES).sum(axis=1)
        self.prefix = np.concatenate([[0.0], np.cumsum(panel_vals)])
        self.mid = 0.5 * (self.edges[1:] + self.edges[:-1])
        self.half = 0.5 * (self.edges[1:] - self.edges[:-1])
        # fitted where the rounded nodes and edges map back to, as a query maps
        tau = self.mid[:, None] - self.half[:, None] * np.cos(np.linspace(0.0, np.pi, CHEB_POINTS))
        tau[:, 0], tau[:, -1] = self.edges[:-1], self.edges[1:]
        t = (tau - self.mid[:, None]) / self.half[:, None]
        inner = self._partial(np.repeat(np.arange(CURVE_PANELS), CHEB_POINTS - 2), tau[:, 1:-1].ravel())
        share = np.column_stack((np.zeros(CURVE_PANELS), inner.reshape(CURVE_PANELS, -1), panel_vals))
        vander = np.polynomial.chebyshev.chebvander(t, CHEB_POINTS - 1)
        self.coef = np.linalg.solve(vander, share[..., None])[..., 0].T

    def _partial(self, idx, tau):
        """Integral of f from the edge `idx` to tau by NODES-point Gauss-Legendre."""
        (gx, gw), lo = _legendre(NODES), self.edges[idx]
        mid, half = 0.5 * (lo + tau), 0.5 * (tau - lo)
        vals = np.asarray(self.f((mid[:, None] + half[:, None] * gx).ravel()), dtype=float)
        return half * (vals.reshape(len(tau), NODES) @ gw)

    def __call__(self, tau):
        tau = np.asarray(tau, dtype=float)
        flat = tau.ravel()
        edge = np.searchsorted(self.edges, flat, side="right") - 1
        out = np.empty_like(flat)
        inside = (flat >= self.a) & (flat <= self.b)
        e, x = edge[inside], flat[inside]
        p = np.minimum(e, CURVE_PANELS - 1)
        t = (x - self.mid[p]) / self.half[p]
        t2, b1, b2 = 2.0 * t, 0.0, 0.0
        for c in self.coef[:0:-1]:  # Clenshaw, from the highest coefficient down
            b1, b2 = c[p] + t2 * b1 - b2, b1
        out[inside] = np.where(x == self.edges[e], self.prefix[e], self.prefix[p] + (self.coef[0, p] + t * b1 - b2))
        if not inside.all():
            p = np.clip(edge[~inside], 0, CURVE_PANELS - 1)
            out[~inside] = self.prefix[p] + self._partial(p, flat[~inside])
        return float(out[0]) if tau.ndim == 0 else out.reshape(tau.shape)
