"""framegeo: tight frames, minimum-volume ellipsoids, and volume bounds for
hypercube sections and cross-polytope projections."""

from .frames import (
    CertificationError,
    CertificationResult,
    FrameSet,
    FrameStructureError,
    GramMatrix,
    ProjectionMatrixCheck,
    Subspace,
    certify_unit_decomposition,
    gram_matrix,
    is_projection_matrix,
    orthogonal_completion,
    project_standard_basis,
)
from .majorization import (
    NormProfile,
    NotRealizableError,
    construct_realization,
    is_realizable,
    majorizes,
    random_realizable_profile,
)
from .ellipsoids import (
    ConvergenceError,
    Ellipsoid,
    LownerFit,
    SpanError,
    ellipsoid_volume,
    ellipsoid_volume_ratio,
    john_of_cube_section,
    lowner_symmetric,
    polar_ellipsoid,
    unit_ball_volume,
)
from .polytopes import (
    DegenerateBodyError,
    Polytope,
    UnboundedBodyError,
    UnsupportedDimensionError,
    VolumeEstimate,
    absolute_hull_gauge,
    cross_projection,
    enumerate_vertices,
    equality_subspace,
    estimate_volume,
    polar,
    polytope_from_frame,
    support_function,
    volume,
)
from .experiments import (
    ConjectureScanSummary,
    ExperimentReport,
    SuiteSpec,
    conjecture_scan,
    random_subspace,
    run_suite,
    suite_exit_status,
    trial_seed,
    verify_ellipsoid_bounds,
    verify_volume_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "CertificationError", "CertificationResult", "FrameSet", "FrameStructureError",
    "GramMatrix", "ProjectionMatrixCheck", "Subspace",
    "certify_unit_decomposition", "gram_matrix", "is_projection_matrix",
    "orthogonal_completion", "project_standard_basis",
    "NormProfile", "NotRealizableError", "construct_realization", "is_realizable",
    "majorizes", "random_realizable_profile",
    "ConvergenceError", "Ellipsoid", "LownerFit", "SpanError",
    "ellipsoid_volume", "ellipsoid_volume_ratio", "john_of_cube_section",
    "lowner_symmetric", "polar_ellipsoid", "unit_ball_volume",
    "DegenerateBodyError", "Polytope", "UnboundedBodyError",
    "UnsupportedDimensionError", "VolumeEstimate", "absolute_hull_gauge",
    "cross_projection", "enumerate_vertices", "equality_subspace",
    "estimate_volume", "polar", "polytope_from_frame", "support_function", "volume",
    "ConjectureScanSummary", "ExperimentReport", "SuiteSpec", "conjecture_scan",
    "random_subspace", "run_suite", "suite_exit_status", "trial_seed",
    "verify_ellipsoid_bounds", "verify_volume_bounds",
]
