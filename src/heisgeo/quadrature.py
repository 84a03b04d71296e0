"""Composite Gauss-Legendre quadrature with half-resolution error estimates.

Integrands must be vectorized over a 1-d array of parameters (2-d rules take
two flat arrays of equal length).  Error estimates come from comparing against
the same rule at half the panel count, which is cheap and pessimistic for the
smooth integrands used here.

Every estimate is floored at the rounding bound 50·eps·Σ|w·f| of the rule's
weighted samples (as in QUADPACK, Piessens et al. 1983): when both rules
integrate f exactly, their difference can round to exactly zero, and a zero
estimate would claim a value free of rounding error.  The floor enters
through `max`, so an estimate above it is the plain Richardson gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSpec",
    "CURVE_QUAD",
    "ROUNDING_FLOOR",
    "SURFACE_QUAD",
    "panel_rule",
    "integrate_1d",
    "integrate_2d",
    "adaptive_integrate_2d",
    "PrefixIntegral",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite rule: `panels` equal panels of `nodes`-point Gauss-Legendre."""

    panels: int = 64
    nodes: int = 8

    def __post_init__(self):
        if self.panels < 1:
            raise ValueError(f"panels must be >= 1, got {self.panels}")
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")

    def halved(self) -> "QuadratureSpec":
        return QuadratureSpec(max(self.panels // 2, 1), self.nodes)


CURVE_QUAD = QuadratureSpec(panels=256, nodes=8)
SURFACE_QUAD = QuadratureSpec(panels=64, nodes=8)

# multiple of eps * sum |w f| below which a Richardson gap is rounding noise
ROUNDING_FLOOR = 50.0 * np.finfo(float).eps


def _floored(gap: float, abs_sum: float) -> float:
    """Richardson gap raised to the rounding bound of the fine rule."""
    return float(max(gap, ROUNDING_FLOOR * abs_sum))


def panel_rule(a: float, b: float, spec: QuadratureSpec):
    """Flattened nodes and weights of the composite rule on [a, b]."""
    gx, gw = np.polynomial.legendre.leggauss(spec.nodes)
    edges = np.linspace(a, b, spec.panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    wts = (half[:, None] * gw[None, :]).ravel()
    return pts, wts


def integrate_1d(f, a: float, b: float, spec: QuadratureSpec = CURVE_QUAD):
    """Integral of the vectorized scalar f over [a, b]; returns (value, error).

    The error is NaN when a single panel leaves no half rule to compare against.
    """
    pts, wts = panel_rule(a, b, spec)
    vals = np.asarray(f(pts), dtype=float)
    value = float(wts @ vals)
    if spec.panels >= 2:
        p2, w2 = panel_rule(a, b, spec.halved())
        gap = abs(value - float(w2 @ np.asarray(f(p2), dtype=float)))
        error = _floored(gap, float(wts @ np.abs(vals)))
    else:
        error = np.nan
    return value, error


def _tensor_value(f, u_dom, v_dom, spec: QuadratureSpec):
    """Tensor rule value of f and the sum of |w f| over its nodes."""
    pu, wu = panel_rule(u_dom[0], u_dom[1], spec)
    pv, wv = panel_rule(v_dom[0], v_dom[1], spec)
    U, V = np.meshgrid(pu, pv, indexing="ij")
    vals = np.asarray(f(U.ravel(), V.ravel()), dtype=float).reshape(U.shape)
    return float(wu @ vals @ wv), float(wu @ np.abs(vals) @ wv)


def integrate_2d(f, u_dom, v_dom, spec: QuadratureSpec = SURFACE_QUAD):
    """Tensor-product integral of f(u, v) over a rectangle; returns (value, error)."""
    value, abs_sum = _tensor_value(f, u_dom, v_dom, spec)
    if spec.panels >= 2:
        coarse, _ = _tensor_value(f, u_dom, v_dom, spec.halved())
        error = _floored(abs(value - coarse), abs_sum)
    else:
        error = np.nan
    return value, error


def _panel_batch(f, u0, u1, v0, v1, gx, gw, chunk=3000):
    """Tensor Gauss-Legendre values of f and |f| on each rectangle.

    Returns (value, abs_sum) per rectangle, chunked to bound memory.
    """
    out = np.empty(len(u0))
    out_abs = np.empty(len(u0))
    w2 = np.outer(gw, gw).ravel()
    for i in range(0, len(u0), chunk):
        s = slice(i, i + chunk)
        um = 0.5 * (u0[s] + u1[s])[:, None, None]
        uh = 0.5 * (u1[s] - u0[s])[:, None, None]
        vm = 0.5 * (v0[s] + v1[s])[:, None, None]
        vh = 0.5 * (v1[s] - v0[s])[:, None, None]
        U = um + uh * gx[None, :, None]
        V = vm + vh * gx[None, None, :]
        U, V = np.broadcast_arrays(U, V)
        vals = np.asarray(f(U.reshape(-1), V.reshape(-1)), dtype=float).reshape(U.shape)
        area = uh[:, 0, 0] * vh[:, 0, 0]
        out[s] = np.einsum("nij,i,j->n", vals, gw, gw) * area
        out_abs[s] = (np.abs(vals).reshape(len(area), -1) @ w2) * area
    return out, out_abs


def _feature_sign_change(feature, u0, u1, v0, v1):
    fr = np.linspace(0.0, 1.0, 3)
    U = u0[:, None, None] + (u1 - u0)[:, None, None] * fr[None, :, None]
    V = v0[:, None, None] + (v1 - v0)[:, None, None] * fr[None, None, :]
    U, V = np.broadcast_arrays(U, V)
    s = np.asarray(feature(U.reshape(-1), V.reshape(-1)), dtype=float).reshape(len(u0), 9)
    return (s.max(axis=1) > 0.0) & (s.min(axis=1) < 0.0)


def adaptive_integrate_2d(f, u_dom, v_dom, tol=1e-7, nodes=8, coarse=16,
                          max_sweeps=60, max_evals=30_000_000,
                          feature=None, feature_scale=None):
    """Quadtree-adaptive integral of f(u, v) over a rectangle; returns (value, error).

    Each panel carries a Gauss-Legendre value and the sum over its four
    children; their difference is the local error.  Panels above an
    equidistributed share of tol are split, child values are reused as the
    next generation, and the reported value is the child-sum level.  If
    `max_sweeps` ends the loop before the children of the last split are
    evaluated, those children count at their parent's level instead; no
    panel is dropped, and a NaN sample makes both value and error NaN.

    Sampling alone can miss an integrand whose support ends inside a panel
    without touching any node, so callers integrating a compactly supported
    function should pass `feature`, a vectorized scalar whose sign change
    marks the support boundary.  Panels where the probed feature changes
    sign are split unconditionally until no side exceeds `feature_scale`,
    which should be sized like the width of the integrand's edge layer.
    """
    gx, gw = np.polynomial.legendre.leggauss(nodes)
    if feature is not None and feature_scale is None:
        feature_scale = min(u_dom[1] - u_dom[0], v_dom[1] - v_dom[0]) / 64.0
    e_u = np.linspace(u_dom[0], u_dom[1], coarse + 1)
    e_v = np.linspace(v_dom[0], v_dom[1], coarse + 1)
    U0, V0 = np.meshgrid(e_u[:-1], e_v[:-1], indexing="ij")
    U1, V1 = np.meshgrid(e_u[1:], e_v[1:], indexing="ij")
    u0, u1 = U0.ravel(), U1.ravel()
    v0, v1 = V0.ravel(), V1.ravel()
    val, _ = _panel_batch(f, u0, u1, v0, v1, gx, gw)
    evals = len(u0) * nodes**2
    csum = np.full(len(u0), np.nan)
    cabs = np.full(len(u0), np.nan)
    err = np.full(len(u0), np.nan)
    cvals = np.full((len(u0), 4), np.nan)
    # panels whose children are not evaluated yet, and the error and |f| sum
    # of their parents, which stand in for them if the sweeps run out; the
    # coarse panels have no parent, so nothing is known about them
    fresh = np.ones(len(u0), dtype=bool)
    fresh_err = fresh_abs = np.nan
    for _ in range(max_sweeps):
        new = np.flatnonzero(fresh)
        if len(new):
            nu0, nu1, nv0, nv1 = u0[new], u1[new], v0[new], v1[new]
            um = 0.5 * (nu0 + nu1)
            vm = 0.5 * (nv0 + nv1)
            cu0 = np.concatenate([nu0, um, nu0, um])
            cu1 = np.concatenate([um, nu1, um, nu1])
            cv0 = np.concatenate([nv0, nv0, vm, vm])
            cv1 = np.concatenate([vm, vm, nv1, nv1])
            cv, ca = _panel_batch(f, cu0, cu1, cv0, cv1, gx, gw)
            evals += len(cu0) * nodes**2
            cvals[new] = cv.reshape(4, len(new)).T
            csum[new] = cvals[new].sum(axis=1)
            cabs[new] = ca.reshape(4, len(new)).sum(axis=0)
            err[new] = np.abs(val[new] - csum[new])
            fresh[new] = False
            fresh_err = fresh_abs = 0.0
        if err.sum() <= tol or evals > max_evals:
            break
        wide = np.minimum(u1 - u0, v1 - v0) > 1e-9
        ref = (err > 0.25 * tol / len(u0)) & wide
        if feature is not None:
            forced = _feature_sign_change(feature, u0, u1, v0, v1)
            forced &= np.maximum(u1 - u0, v1 - v0) > feature_scale
            ref |= forced & wide
        if not ref.any():
            break
        keep = ~ref
        fresh_err, fresh_abs = float(err[ref].sum()), float(cabs[ref].sum())
        ru0, ru1, rv0, rv1 = u0[ref], u1[ref], v0[ref], v1[ref]
        um = 0.5 * (ru0 + ru1)
        vm = 0.5 * (rv0 + rv1)
        m = ref.sum()
        u0 = np.concatenate([u0[keep], ru0, um, ru0, um])
        u1 = np.concatenate([u1[keep], um, ru1, um, ru1])
        v0 = np.concatenate([v0[keep], rv0, rv0, vm, vm])
        v1 = np.concatenate([v1[keep], vm, vm, rv1, rv1])
        val = np.concatenate([val[keep], cvals[ref].T.ravel()])
        pad = np.full(4 * m, np.nan)
        csum = np.concatenate([csum[keep], pad])
        cabs = np.concatenate([cabs[keep], pad])
        err = np.concatenate([err[keep], pad])
        cvals = np.concatenate([cvals[keep], np.full((4 * m, 4), np.nan)])
        fresh = np.concatenate([fresh[keep], np.ones(4 * m, dtype=bool)])
    # unevaluated children count by their own values and their parent's error
    value = float(np.where(fresh, val, csum).sum())
    error = float(np.where(fresh, 0.0, err).sum()) + fresh_err
    abs_sum = float(np.where(fresh, 0.0, cabs).sum()) + fresh_abs
    return value, _floored(error, abs_sum)


class PrefixIntegral:
    """F(tau) = integral of f from a to tau, evaluable at arbitrary tau.

    Panel prefix sums are precomputed once; an evaluation only integrates the
    partial panel below each requested tau, so it stays cheap and vectorized.
    Values of tau outside [a, b] are allowed and extrapolate the integral
    (the integrand is evaluated there, so f must be defined).
    """

    def __init__(self, f, a: float, b: float, spec: QuadratureSpec = CURVE_QUAD):
        if not b > a:
            raise ValueError("need b > a")
        self.f = f
        self.a, self.b = float(a), float(b)
        self.spec = spec
        self.gx, self.gw = np.polynomial.legendre.leggauss(spec.nodes)
        self.edges = np.linspace(a, b, spec.panels + 1)
        pts, wts = panel_rule(a, b, spec)
        panel_vals = (wts * np.asarray(f(pts), dtype=float)).reshape(spec.panels, spec.nodes).sum(axis=1)
        self.prefix = np.concatenate([[0.0], np.cumsum(panel_vals)])

    def __call__(self, tau):
        tau = np.asarray(tau, dtype=float)
        scalar = tau.ndim == 0
        tau = np.atleast_1d(tau)
        idx = np.clip(np.searchsorted(self.edges, tau, side="right") - 1, 0, len(self.edges) - 2)
        lo = self.edges[idx]
        mid = 0.5 * (lo + tau)
        half = 0.5 * (tau - lo)
        pts = mid[..., None] + half[..., None] * self.gx
        vals = np.asarray(self.f(pts.ravel()), dtype=float).reshape(pts.shape)
        out = self.prefix[idx] + half * (vals @ self.gw)
        return float(out[0]) if scalar else out
