"""Heisenberg group primitives.

The first Heisenberg group H^1 is modelled on R^3 in exponential
coordinates, stored as numpy arrays with layout ``[x, y, t]``.  All
functions broadcast over leading axes, so a batch of points is simply an
array of shape ``(..., 3)``, and read x, y and t as ``p[..., 0]``,
``p[..., 1]`` and ``p[..., 2]``.

Conventions (fixed once, everything else routes through them):

* group law    ``(x,y,t)*(x',y',t') = (x+x', y+y', t+t' + (x y' - y x')/2)``
* frame        ``X = d/dx - (y/2) d/dt``, ``Y = d/dy + (x/2) d/dt``,
               ``T = d/dt``; the only nonzero bracket is ``[X, Y] = T``
* contact form ``theta = dt + (y/2)dx - (x/2)dy`` (annihilates X and Y,
               pairs to 1 with T); ``d theta = -dx^dy``
* dilations    ``delta_lam(x,y,t) = (lam x, lam y, lam^2 t)``, homogeneous
               dimension ``Q = 4``
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "TangentVector",
    "identity",
    "multiply",
    "inverse",
    "dilate",
    "rotate_t_axis",
    "frame_at",
    "contact",
    "theta_of",
    "frame_length",
]


class TangentVector(NamedTuple):
    """A tangent vector: base point and components in coordinate basis."""

    base: np.ndarray
    vec: np.ndarray


def identity() -> np.ndarray:
    return np.zeros(3)


def multiply(p, q) -> np.ndarray:
    """Group product p * q (broadcasts over leading axes)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape[-1:] != (3,) or q.shape[-1:] != (3,):
        raise ValueError(f"need trailing axes of length 3, got {p.shape} and {q.shape}")
    out = p + q
    out[..., 2] += 0.5 * (p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0])
    return out


def inverse(p) -> np.ndarray:
    """Group inverse; in exponential coordinates simply -p."""
    return -np.asarray(p, dtype=float)


def dilate(lam: float, p) -> np.ndarray:
    """Anisotropic dilation (lam x, lam y, lam^2 t); lam must be positive."""
    if not lam > 0:
        raise ValueError(f"dilation factor must be positive, got {lam}")
    out = np.array(p, dtype=float)
    out[..., :2] *= lam
    out[..., 2] *= lam * lam
    return out


def rotate_t_axis(phi: float, p) -> np.ndarray:
    """Rotation about the t-axis, a group automorphism preserving theta."""
    p = np.asarray(p, dtype=float)
    c, s = np.cos(phi), np.sin(phi)
    x, y, t = p[..., 0], p[..., 1], p[..., 2]
    return np.stack([c * x - s * y, s * x + c * y, t], axis=-1)


def frame_at(p) -> list[TangentVector]:
    """The left-invariant frame (X, Y, T) at a single point."""
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise ValueError("frame_at expects a single point")
    return [
        TangentVector(p, np.array([1.0, 0.0, -0.5 * p[1]])),
        TangentVector(p, np.array([0.0, 1.0, 0.5 * p[0]])),
        TangentVector(p, np.array([0.0, 0.0, 1.0])),
    ]


def theta_of(x, y, vx, vy, vt):
    """theta at the point (x, y, .) of the vector (vx, vy, vt); floats or arrays."""
    return vt + 0.5 * (y * vx - x * vy)


def frame_length(vx, vy, th):
    """Length of a vector in the (X, Y, T) frame from vx, vy and its theta pairing th."""
    return np.sqrt(vx * vx + vy * vy + th * th)


def contact(p, v) -> np.ndarray:
    """theta_p(v) = v_t + (y v_x - x v_y)/2, broadcasting over leading axes."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if p.shape[-1:] != (3,) or v.shape[-1:] != (3,):
        raise ValueError(f"need trailing axes of length 3, got {p.shape} and {v.shape}")
    return theta_of(p[..., 0], p[..., 1], v[..., 0], v[..., 1], v[..., 2])
