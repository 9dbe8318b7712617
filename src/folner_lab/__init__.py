"""Finite-section toolkit for Folner-sequence diagnostics, Szego-type
spectral approximation, and compression trace estimates."""

from ._util import VERSION as __version__
from .diagnostics import (
    FolnerReport,
    folner_profile,
    folner_ratio,
    off_corner_ratio,
    qd_gap,
    schatten_norm,
)
from .operators import (
    AlmostMathieu,
    Band,
    Dense,
    Kron,
    LatticeMismatchError,
    N0,
    NyquistError,
    OperatorSpec,
    Poly,
    Shift,
    Toeplitz,
    Z,
    build_toeplitz_section,
    compress,
    identity,
    is_selfadjoint,
    op_adjoint,
    op_prod,
    op_scale,
    op_sum,
    toeplitz_from_samples,
)
from .projections import (
    IndexSet,
    KronProj,
    ProjectionSequence,
    RankZeroError,
    Window,
    finite_section,
    finite_section_sequence,
)
from .spectral import (
    EmpiricalMeasure,
    NonHermitianError,
    ResidualError,
    ReferenceMeasure,
    TestFunction,
    compression_eigenvalues,
    counting,
    eigenvalues_hermitian,
    empirical_measure,
    hat,
    integrate,
    kolmogorov_distance,
    monomial,
    reference_pushforward,
)
from .szego import (
    MissingReferenceError,
    NotSelfAdjointError,
    SzegoReport,
    default_f_family,
    hat_family,
    moments_reference,
    szego_pair_test,
)
from .tensor import TensorBoundRecord, tensor_bound_check
from .traces import (
    NCPolynomial,
    TraceReport,
    almost_mathieu_element,
    canonical_trace,
    nc_adjoint,
    nc_monomial,
    nc_multiply,
    nc_one,
    nc_u,
    nc_v,
    represent_nc,
    trace_convergence_report,
    trace_estimate,
)
