"""Fixtures shared by the unit tests: affine fields and straight curves."""

import numpy as np
import pytest

from heisgeo.curves import HCurve
from heisgeo.forms import scalar_from_jet


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
