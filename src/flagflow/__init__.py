"""Qualitative dynamics of the Ricci flow on invariant metrics of SU(3)/T.

The invariant metrics form a three-parameter cone; on it the Ricci flow
is an autonomous ODE with an equivalent quadratic polynomial form.  This
package evaluates the model exactly, compactifies the quadratic field onto
the Poincare sphere, locates and classifies its equilibria at infinity,
estimates Lyapunov spectra along the four invariant rays, and runs the
basin-of-attraction experiments around them.
"""

from .model import (
    MetricParams,
    RicciComponents,
    einstein_residual,
    flow_rhs,
    invariant_directions,
    line_direction,
    poly_jacobian,
    poly_rhs,
    reparam_check,
    ricci_components,
    tangency_defect,
)
from .compactify import (
    InfinityEquilibrium,
    PolyField3,
    SearchConfig,
    ball_projection,
    ball_unprojection,
    chart_coords,
    chart_equator_roots,
    chart_point_to_sphere,
    classify_equilibrium,
    compactified_field_array,
    compactified_jacobian,
    find_infinity_equilibria,
    model_poly_field,
    sphere_from_ambient,
)
from .dynamics import (
    IntegratorConfig,
    LyapunovSpectrum,
    Trajectory,
    distance_to_line_ball,
    integrate_compactified,
    integrate_with_events,
    lyapunov_spectrum,
    ricci_field,
)
from .experiments import (
    BasinReport,
    LimitClassification,
    LyapunovTable,
    classify_limit,
    cylinder_basin,
    lyapunov_exponent_table,
    no_interior_equilibria_scan,
)

__version__ = "0.1.0"

__all__ = [
    # model
    "MetricParams",
    "RicciComponents",
    "ricci_components",
    "flow_rhs",
    "poly_rhs",
    "poly_jacobian",
    "reparam_check",
    "invariant_directions",
    "line_direction",
    "tangency_defect",
    "einstein_residual",
    # compactification
    "PolyField3",
    "model_poly_field",
    "ball_projection",
    "ball_unprojection",
    "sphere_from_ambient",
    "chart_coords",
    "chart_point_to_sphere",
    "compactified_field_array",
    "compactified_jacobian",
    "chart_equator_roots",
    "classify_equilibrium",
    "find_infinity_equilibria",
    "InfinityEquilibrium",
    "SearchConfig",
    # dynamics
    "IntegratorConfig",
    "Trajectory",
    "LyapunovSpectrum",
    "integrate_with_events",
    "integrate_compactified",
    "lyapunov_spectrum",
    "distance_to_line_ball",
    "ricci_field",
    # experiments
    "no_interior_equilibria_scan",
    "cylinder_basin",
    "lyapunov_exponent_table",
    "classify_limit",
    "BasinReport",
    "LyapunovTable",
    "LimitClassification",
]
