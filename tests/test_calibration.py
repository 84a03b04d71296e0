"""Calibration: Stokes gives the true value for free, so every claimed error must cover the actual one."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heisgeo.cli import DEFAULT_SEED, _stokes_scene
from heisgeo.forms import ThetaWedgeForm, bump_field, bump_form
from heisgeo.integrate import integrate_surface, stokes_residual
from heisgeo.surfaces import vertical_halfplane

# fixed examples keep tier-1 repeatable; no example database is written
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)

SCENES = {name: _stokes_scene(name) for name in ("halfplane", "sigma-cylinder", "band")}


def _covered(scene, center, radius):
    report = stokes_residual(SCENES[scene][0], bump_form(center, radius))
    covered = report.residual <= report.lhs.estimate + report.rhs.estimate
    assert covered or report.lhs.flagged or report.rhs.flagged, (scene, center, radius, report)
    return report


@PROPERTY
@given(scene=st.sampled_from(sorted(SCENES)), seed=st.integers(0, 2**32 - 1),
       rim=st.integers(0, 1), radius=st.floats(0.05, 1.0))
@example(scene="halfplane", seed=0, rim=0, radius=0.05)  # under one old coarse panel
def test_claimed_error_covers_the_stokes_residual(scene, seed, rim, radius):
    # the scene samplers draw centres within 0.15 of a rim, on the rim
    # selected by the parity of the index
    center = SCENES[scene][1](np.random.default_rng(seed), rim)
    _covered(scene, center, radius)


def test_calibration_fixed_cases():
    curve = SCENES["sigma-cylinder"][0].boundary[0][0]
    rim_point = curve.position(np.asarray(1.1))
    # the lemniscate's lobe bends away from its tip (1, 0) at the lift's
    # start, so a ball outside the tip touches the cylinder there only
    tangent = _covered("sigma-cylinder", np.array([1.2, 0.0, 0.0]), 0.2)
    assert abs(tangent.lhs.value) < 1e-30 and abs(tangent.rhs.value) < 1e-30
    # a ball crossing a rim, and one across the band's seam at u = 0
    for scene, center, radius in (("sigma-cylinder", rim_point + 0.05, 0.3),
                                  ("band", SCENES["band"][0].position(0.0, 0.1), 0.4)):
        report = _covered(scene, center, radius)
        assert abs(report.rhs.value) > 1e-4 and report.residual <= 1e-12
    # a ball far from the surface integrates to exactly zero on both sides
    far = _covered("halfplane", np.array([5.0, 0.0, 1.0]), 0.5)
    assert far.lhs.value == far.rhs.value == 0.0 and not far.lhs.flagged


def test_thin_pieces_of_the_first_sigma_cylinder_form_are_found():
    # criterion 7's first sigma-cylinder form: its support meets the top rim
    # only over two u-pieces 7.5e-4 and 3.5e-4 wide, which a sign grid of
    # 2,049 u-samples misses; the rule must find all seven u-pieces
    S, draw = SCENES["sigma-cylinder"]
    rng = np.random.default_rng(DEFAULT_SEED)
    center = draw(rng, 0)
    report = stokes_residual(S, bump_form(center, rng.uniform(0.2, 0.6)))
    assert report.lhs.stats["pieces"] == 7
    assert report.residual <= 1e-12
    assert not report.lhs.flagged and not report.rhs.flagged


def test_reparametrized_halfplane_does_not_return_a_silent_zero():
    # the half-plane with t = 1.5 + 1.5 w^3 is no orbit of a motion in w, so
    # the swept rule has no closed form for it: with its maps replaced and
    # no sweep, it is refused rather than integrated (the empty result that
    # a lost orbit would give is `test_a_miss_the_orbits_do_not_see_is_flagged`)
    plane = vertical_halfplane()

    def position(u, w):
        return plane.position(u, 1.5 + 1.5 * np.asarray(w, float) ** 3)

    def tangent_w(u, w):
        u, w = np.broadcast_arrays(np.asarray(u, float), np.asarray(w, float))
        return plane.tangent_v(u, w) * (4.5 * w**2)[..., None]

    cubic = dataclasses.replace(plane, v_dom=(-1.0, 1.0), position=position, tangent_v=tangent_w,
                                truncation_edges=((0, -3.0), (0, 3.0), (1, 1.0)), sweep=None)
    for center, radius in (((0.0, 0.0, 1.5), 0.05), ((0.02, 0.0, 1.5), 0.1)):
        b = bump_field(np.array(center), radius)
        form = ThetaWedgeForm(b, b, support_ball=(np.array(center), radius))
        oracle = integrate_surface(form, plane)
        assert not oracle.flagged and abs(oracle.value) > 1e-3, (center, radius, oracle)
        with pytest.raises(ValueError, match="sweep|swept"):
            integrate_surface(form, cubic)


def test_a_ball_that_misses_the_band_is_a_proved_miss():
    # the calibration sweep's band form 78 misses the band by 1.4e-3: its fold
    # level over the band's angles is negative with no root, which proves it
    S, draw = SCENES["band"]
    rng = np.random.default_rng(5078)
    center = draw(rng, 0)
    report = stokes_residual(S, bump_form(center, rng.uniform(0.05, 1.0)))
    for side in (report.lhs, report.rhs):
        assert (side.value, side.estimate) == (0.0, 0.0) and side.stats["miss"] == "proved" and not side.flagged
