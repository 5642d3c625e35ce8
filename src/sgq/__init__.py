"""Exact supercommutative algebra over Q(i).

Free Grassmann-polynomial rings, parity-patterned supermatrices with
Berezinians, the parabolic/unipotent coset normal form on the big cell,
Grassmannian points with charts and group actions, and Jacobian-rank
smoothness verdicts for presented superschemes.
"""

from .algebra import SuperElement, SuperHom, SuperRing
from .closed_form import generic_instance, solution_line_report
from .errors import (
    LimitExceeded,
    NotAPoint,
    NotInBigCell,
    NotInvertible,
    ParityPatternViolation,
    ParityViolation,
    RankDeficient,
    RingMismatch,
    SchemaError,
    SgqError,
    ShapeMismatch,
    UnassignedVariable,
    UnknownSuite,
    UnknownVariable,
)
from .flag import (
    BlockProfile,
    NCoordinates,
    assemble,
    cosets_equal,
    in_big_cell,
    n_coordinates_of,
    n_member,
    normal_form,
    split_blocks,
    standard_parabolic_member,
)
from .grassmannian import (
    GrassmannianPoint,
    act,
    chart_down,
    chart_up,
    orbit_map,
    points_equal,
    standard_point,
)
from .matrix import SuperMatrix, SuperShape, berezinian, block_matrix, det_even, inv_even, is_invertible, sm_inv
from .proptest import run_suite
from .scalars import GaussianRational
from .smoothness import (
    Presentation,
    RationalPoint,
    SmoothnessVerdict,
    general_linear_presentation,
    is_etale_at,
    is_smooth_at,
    jacobian,
    rank_at_point,
)

__version__ = "0.1.0"

__all__ = [
    "BlockProfile",
    "GaussianRational",
    "GrassmannianPoint",
    "LimitExceeded",
    "NCoordinates",
    "NotAPoint",
    "NotInBigCell",
    "NotInvertible",
    "ParityPatternViolation",
    "ParityViolation",
    "Presentation",
    "RankDeficient",
    "RationalPoint",
    "RingMismatch",
    "SchemaError",
    "SgqError",
    "ShapeMismatch",
    "SmoothnessVerdict",
    "SuperElement",
    "SuperHom",
    "SuperMatrix",
    "SuperRing",
    "SuperShape",
    "UnassignedVariable",
    "UnknownSuite",
    "UnknownVariable",
    "act",
    "assemble",
    "berezinian",
    "block_matrix",
    "chart_down",
    "chart_up",
    "cosets_equal",
    "det_even",
    "general_linear_presentation",
    "generic_instance",
    "in_big_cell",
    "inv_even",
    "is_etale_at",
    "is_invertible",
    "is_smooth_at",
    "jacobian",
    "n_coordinates_of",
    "n_member",
    "normal_form",
    "orbit_map",
    "points_equal",
    "rank_at_point",
    "run_suite",
    "sm_inv",
    "solution_line_report",
    "split_blocks",
    "standard_parabolic_member",
    "standard_point",
]
