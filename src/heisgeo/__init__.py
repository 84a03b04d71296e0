"""Numerical toolkit for horizontal geometry in the first Heisenberg group.

Group primitives and the contact frame live in `core`; planar curves and
horizontal lifts in `curves`; scalar fields and the small complex of forms
in `forms`; surfaces with oriented boundary in `surfaces`; characteristic
foliation tracing in `foliation`; pullback integration and the Stokes
verifier in `integrate`; deterministic exporters and the command line in
`export` and `cli`.
"""

from .core import (
    TangentVector,
    contact,
    dilate,
    frame_at,
    identity,
    inverse,
    multiply,
    rotate_t_axis,
)
from .curves import (
    HCurve,
    PlanarCurve,
    horizontality_residual,
    lemniscate,
    lift_closed_defect,
    lift_horizontal,
    self_intersection_gap,
)
from .forms import (
    HorizontalForm,
    ScalarField,
    ThetaWedgeForm,
    TopForm,
    VerticalForm,
    bump_field,
    bump_form,
    horizontal_differential,
    middle_differential,
    scalar_from_jet,
    top_differential,
    vertical_correction,
)
from .export import surface_mesh, write_csv, write_json, write_obj
from .foliation import FoliationTrace, detect_period, trace_foliation
from .integrate import (
    IntegralResult,
    StokesReport,
    boundary_integral,
    integrate_curve,
    integrate_surface,
    stokes_residual,
    stokes_residuals,
    vertical_term_vanishing,
)
from .surfaces import (
    ParamSurface,
    characteristic_residual,
    cylinder_embeds,
    lift_cylinder,
    revolve_curve,
    torus_characteristic_loop,
    torus_leaf_angle,
    torus_surface,
    vertical_halfplane,
)

__version__ = "0.1.0"
