"""Sub-Riemannian geometry on Stiefel manifolds.

Stiefel manifolds carried as principal bundles over Grassmannians, with the
horizontal distribution given by the off-diagonal tangent blocks: normal
geodesics (generic and closed-form), lengths and first-return times, bracket
rank tests, and desk-scale cut-locus experiments.
"""

from . import tolerances
from .tolerances import Tolerances, configure
from .matcore import (
    COMPLEX,
    REAL,
    InvariantViolation,
    eig_skew,
    expm_skew,
    trace_inner,
)
from .homspace import (
    BlockVelocity,
    GrassmannPoint,
    StiefelPoint,
    canonicalize,
    complete_to_group,
    connection_form,
    identity_point,
    metric,
    project_to_grassmann,
    split_tangent,
)
from .geodesic import (
    GeodesicSpec,
    first_vanishing_time,
    geodesic_v21_closed,
    geodesic_vn1_closed,
    grassmann_geodesic_2kk,
    length,
    mirror_velocity,
    normal_geodesic,
    sample_curve,
    speed_squared,
    write_curve_csv,
)
from .distribution import (
    BracketReport,
    MontgomeryReport,
    bracket_generating_rank,
    horizontal_basis,
    lie_bracket,
    montgomery_condition,
    strongly_bracket_check_vn1,
)
from .cutlocus import (
    Arrival,
    MinimizerReport,
    TargetClass,
    VelocityGrid,
    classify_target,
    in_block_diagonal_set,
    is_antidiagonal,
    real_antipodal_cut_point,
    search_minimizers,
    uniqueness_case_checks,
    verify_antidiagonal_arrivals,
    verify_mirror_arrivals,
)

__all__ = [
    "TOL",
    "Tolerances",
    "configure",
    "COMPLEX",
    "REAL",
    "InvariantViolation",
    "eig_skew",
    "expm_skew",
    "trace_inner",
    "BlockVelocity",
    "GrassmannPoint",
    "StiefelPoint",
    "canonicalize",
    "complete_to_group",
    "connection_form",
    "identity_point",
    "metric",
    "project_to_grassmann",
    "split_tangent",
    "GeodesicSpec",
    "first_vanishing_time",
    "geodesic_v21_closed",
    "geodesic_vn1_closed",
    "grassmann_geodesic_2kk",
    "length",
    "mirror_velocity",
    "normal_geodesic",
    "sample_curve",
    "speed_squared",
    "write_curve_csv",
    "BracketReport",
    "MontgomeryReport",
    "bracket_generating_rank",
    "horizontal_basis",
    "lie_bracket",
    "montgomery_condition",
    "strongly_bracket_check_vn1",
    "Arrival",
    "MinimizerReport",
    "TargetClass",
    "VelocityGrid",
    "classify_target",
    "in_block_diagonal_set",
    "is_antidiagonal",
    "real_antipodal_cut_point",
    "search_minimizers",
    "uniqueness_case_checks",
    "verify_antidiagonal_arrivals",
    "verify_mirror_arrivals",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "TOL":  # the live record: configure() replaces it
        return tolerances.TOL
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
