"""Spectral co-clustering of weighted bipartite networks.

The package covers the full loop: generative blockmodels with pluggable edge
distributions (``model``, ``sampling``), spectral detection algorithms and
baselines (``detect``), partition metrics (``metrics``), theoretical bound
evaluation (``theory``), a reproducible simulation harness (``experiments``),
and file formats plus a CLI (``fileio``, ``cli``).
"""

from .detect import (
    ALGORITHMS,
    DetectionResult,
    bisc,
    disim,
    dscore,
    nbisc,
    rdscore,
    shift_nonnegative,
)
from .errors import (
    BidfmError,
    ConvergenceError,
    DimensionError,
    DomainError,
    InfeasibleError,
    ParseError,
    UnsupportedError,
    ValidationError,
)
from .experiments import (
    PRESET_NAMES,
    ExperimentReport,
    SimulationConfig,
    degree_profiles,
    estimate_k_eigengap,
    filter_zero_degree,
    preset,
    row_column_similarity,
    run_simulation,
)
from .linalg import (
    KMeansResult,
    SvdFactors,
    kmeans,
    row_normalize,
    spectral_deviation,
    truncated_svd,
)
from .metrics import (
    MetricsReport,
    ari,
    combined_report,
    confusion_matrix,
    criterion_f,
    hamming_error,
    nmi,
)
from .model import (
    P1,
    P2,
    BiDCDFMParams,
    BiDFMParams,
    Membership,
    expected_adjacency,
    sample_memberships,
    sample_theta,
)
from .sampling import DistributionSpec, distribution_moments, sample_adjacency
from .theory import (
    ErrorEnvelope,
    GammaTau,
    TheoryInputs,
    check_assumption,
    deviation_bound,
    empirical_tau,
    error_envelope,
    gamma_tau,
    population_geometry_check,
    population_svd_oracle,
    theory_inputs,
)

__version__ = "0.1.0"
