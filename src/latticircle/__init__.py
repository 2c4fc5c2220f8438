"""Digital circles on the integer lattice, built step by step with exact sign decisions.

The central construction walks a quarter circle from (r, 0) to (0, r) in
2r unit moves, choosing at each point between stepping left and stepping
up by comparing how far each candidate lands from the target circle.  The
comparison is decided in integer arithmetic, so traces are reproducible
bit for bit.  On top of the construction sit a path-validity checker,
angle-sampled reference discretizations, estimators that recover pi (and
the harmonic companion 16/(pi+2)) from Manhattan-distance averages, and
exact area bookkeeping.
"""

from latticircle.lattice import (
    PathValidityReport,
    Point,
    check_path,
    l1_norm,
    l2_norm_sq,
    rotate90,
)
from latticircle.signum import (
    CirclePath,
    CostVariant,
    QuadrantTrace,
    assemble_full_circle,
    cost_approx,
    cost_exact,
    cost_simplified,
    generate_quadrant,
    sgn,
)
from latticircle.reference import (
    DiscretizationSource,
    a_param_exact,
    a_param_floor,
    a_param_round,
    midpoint_quadrant,
    phi_n,
)
from latticircle.estimators import (
    ConvergenceRecord,
    Estimator,
    PiSequence,
    arithmetic_mean_pi,
    arithmetic_mean_pi_exact,
    continuum_mean_closed_form,
    estimate,
    harmonic_asymptote,
    harmonic_mean_pi,
    harmonic_mean_pi_exact,
    parametric_asymptote_closed_form,
    pi_sequence,
    sweep,
    sweep_target,
)
from latticircle.area import (
    AreaReport,
    area_recursive,
    area_report,
    check_sum_identity,
    inner_outer_areas,
)

__version__ = "0.1.0"

__all__ = [
    "AreaReport",
    "CirclePath",
    "ConvergenceRecord",
    "CostVariant",
    "DiscretizationSource",
    "Estimator",
    "PathValidityReport",
    "PiSequence",
    "Point",
    "QuadrantTrace",
    "a_param_exact",
    "a_param_floor",
    "a_param_round",
    "area_recursive",
    "area_report",
    "arithmetic_mean_pi",
    "arithmetic_mean_pi_exact",
    "assemble_full_circle",
    "check_path",
    "check_sum_identity",
    "continuum_mean_closed_form",
    "cost_approx",
    "cost_exact",
    "cost_simplified",
    "estimate",
    "generate_quadrant",
    "harmonic_asymptote",
    "harmonic_mean_pi",
    "harmonic_mean_pi_exact",
    "inner_outer_areas",
    "l1_norm",
    "l2_norm_sq",
    "midpoint_quadrant",
    "parametric_asymptote_closed_form",
    "phi_n",
    "pi_sequence",
    "rotate90",
    "sgn",
    "sweep",
    "sweep_target",
]
