"""Fixtures shared by the unit tests: affine fields and straight curves."""

import numpy as np
import pytest

from heisgeo.curves import HCurve
from heisgeo.forms import scalar_from_jet


def per_node(g):
    """A plain integrand g(u, v) in the 2-d rule's form f(u, owner, v)."""
    return lambda u, owner, v: g(u[owner], v)


@pytest.fixture
def affine_field():
    """Factory of the field c + x p_x + y p_y + t p_t; its frame derivatives
    come from its jet."""
    def make(c=0.0, x=0.0, y=0.0, t=0.0):
        a = np.array([x, y, t], dtype=float)
        return scalar_from_jet(
            lambda p: c + p @ a,
            lambda p: np.broadcast_to(a, p.shape).copy(),
            lambda p: np.zeros(p.shape + (3,)),
        )

    return make


@pytest.fixture
def segment():
    """Factory of the curve p + tau (q - p) on [0, 1], with its exact speed."""
    def make(p, q):
        p = np.asarray(p, dtype=float)
        v = np.asarray(q, dtype=float) - p
        return HCurve(
            0.0, 1.0,
            lambda tau: p + np.asarray(tau, dtype=float)[..., None] * v,
            lambda tau: np.broadcast_to(v, np.shape(tau) + (3,)).copy(),
            float(np.linalg.norm(v)),
        )

    return make


@pytest.fixture
def intrinsic_curve():
    """Factory of gamma(s) = (s^3, 0, s|s|^3) on [a, b] within [-1, 1]: swept
    by left translation along Y, it is the intrinsic graph of sgn(t)|t|^(3/4)."""
    def pos(s):
        s = np.asarray(s, dtype=float)
        return np.stack([s**3, np.zeros_like(s), s * np.abs(s) ** 3], axis=-1)

    def vel(s):
        s = np.asarray(s, dtype=float)
        return np.stack([3.0 * s**2, np.zeros_like(s), 4.0 * np.abs(s) ** 3], axis=-1)

    # |gamma'|^2 = 9 s^4 + 16 s^6 <= 25 on [-1, 1]
    return lambda a, b: HCurve(a, b, pos, vel, 5.0)
