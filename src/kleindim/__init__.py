"""Orbits, growth exponents, limit sets, and box dimensions for discrete
groups of Moebius transformations on the Poincare disc and ball.

The headline computation: for a finitely generated group, estimate the
critical exponent of its orbital series and the upper box dimension of its
limit set, and check the inequality exponent <= dimension together with
every intermediate estimate of the standard proof (packing, ball-volume
comparability, neighborhood containment, dyadic tail summation).
"""

from .errors import (
    DegenerateBasepointError,
    InsufficientDataError,
    InternalError,
    KleindimError,
    LoxodromicNotFoundError,
    ModelMismatchError,
    NumericalOverflowError,
    ResourceLimitError,
    StageFailure,
    UsageError,
)
from .fixtures import (
    cantor_test,
    cyclic_loxodromic,
    fixture_names,
    fuchsian_lattice,
    get_group_fixture,
    schottky_f2,
)
from .geometry import (
    BoundaryGeodesic,
    BoundaryPoint,
    InteriorPoint,
    MapClass,
    MoebiusMap,
    apply_interior,
    classify,
    compose,
    distances_from,
    fixed_points,
    inverse,
    origin,
    translation_to_origin,
)
from .group import (
    GroupBall,
    GroupPresentation,
    OrbitSet,
    PackingCheck,
    PackingRadius,
    build_ball,
    check_packing_disjoint,
    choose_basepoint,
    enumerate_orbit,
    find_loxodromic,
    packing_radius,
)
from .groupio import halfplane_to_disc, load_group, save_group
from .limitset import (
    BallContainmentReport,
    BoxDimensionEstimate,
    DyadicScaleRecord,
    LimitSample,
    ball_containment_check,
    ball_volumes,
    box_dimension_estimate,
    euclidean_balls,
    neighborhood_volume,
    sample_limit_set,
)
from .poincare import (
    CountingFunction,
    ExponentEstimate,
    SeriesEvaluation,
    counting_function,
    exponent_estimate,
    truncated_series,
)
from .verify import (
    SeriesChainReport,
    VerificationReport,
    series_chain_report,
    verify_inequality,
)

__version__ = "0.1.0"

__all__ = [
    "BallContainmentReport",
    "BoundaryGeodesic",
    "BoundaryPoint",
    "BoxDimensionEstimate",
    "CountingFunction",
    "DegenerateBasepointError",
    "DyadicScaleRecord",
    "ExponentEstimate",
    "GroupBall",
    "GroupPresentation",
    "InsufficientDataError",
    "InteriorPoint",
    "InternalError",
    "KleindimError",
    "LimitSample",
    "LoxodromicNotFoundError",
    "MapClass",
    "ModelMismatchError",
    "MoebiusMap",
    "NumericalOverflowError",
    "OrbitSet",
    "PackingCheck",
    "PackingRadius",
    "ResourceLimitError",
    "SeriesChainReport",
    "SeriesEvaluation",
    "StageFailure",
    "UsageError",
    "VerificationReport",
    "apply_interior",
    "ball_containment_check",
    "ball_volumes",
    "box_dimension_estimate",
    "build_ball",
    "cantor_test",
    "check_packing_disjoint",
    "choose_basepoint",
    "classify",
    "compose",
    "counting_function",
    "cyclic_loxodromic",
    "distances_from",
    "enumerate_orbit",
    "euclidean_balls",
    "exponent_estimate",
    "find_loxodromic",
    "fixed_points",
    "fixture_names",
    "fuchsian_lattice",
    "get_group_fixture",
    "halfplane_to_disc",
    "inverse",
    "load_group",
    "neighborhood_volume",
    "origin",
    "packing_radius",
    "sample_limit_set",
    "save_group",
    "schottky_f2",
    "series_chain_report",
    "translation_to_origin",
    "truncated_series",
    "verify_inequality",
]
