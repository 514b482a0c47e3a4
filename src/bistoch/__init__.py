"""Analysis and bi-stochastic dilation of stochastic matrices."""

from .coarse_grain import (
    CoarseGrainDilation,
    Partition,
    coarse_grain,
    product_right_inverse,
    projection_matrix,
    roundtrip_defect,
    uniform_dilation,
    uniform_right_inverse,
)
from .core import (
    EXACT,
    FLOAT,
    FixedPointResult,
    ProbVec,
    StochMatrix,
    StochasticityReport,
    apply,
    fixed_point,
    iterate,
    matrix_from_json,
    matrix_to_json,
    validate,
    vector_from_json,
    vector_to_json,
)
from .entropy import (
    BirkhoffDecomposition,
    BoundaryPoint,
    EntropyLedger,
    birkhoff_decompose,
    entropy_ledger,
    in_decreasing_region,
    region_boundary_scan,
    shannon_entropy,
)
from .env_dilation import (
    KrausSet,
    UnitaryDilation,
    extract_dilated,
    kraus_from_stochastic,
    noisy_dilation,
    unistochastic_dilation,
    verify_env_dilation,
    with_environment,
)
from .matrices import maxwell_demon, maxwell_demon_dilation, two_state
from .sinkhorn import SinkhornResult, sinkhorn_2x2, sinkhorn_knopp

__version__ = "0.1.0"
