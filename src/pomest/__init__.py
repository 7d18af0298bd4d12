"""pomest: optimal observable estimates from generalized quantum measurements.

Finite-dimensional toolkit covering: construction and validation of
probability operator measures (POMs), deviation-minimizing estimates with
and without prior state knowledge, product-space extensions of POMs, and
numerical verification of the joint-measurement uncertainty relations the
estimates obey.
"""

from .operators import (
    DensityOperator,
    DimensionMismatchError,
    HermitianOperator,
    HermiticityError,
    Ket,
    partial_trace_ancilla,
    tensor,
)
from .pom import (
    GridSpec,
    NaimarkExtension,
    Pom,
    ValidationReport,
    coherent_pom,
    identity_pom,
    imageband_pom,
    inefficient_photon_pom,
    naimark_extend,
    pom_from_json,
    pom_to_json,
    projective_pom,
    spin_pom,
    tetrahedral_pom,
    trine_pom,
    validate,
)
from .estimation import (
    EstimateStats,
    Estimator,
    NotCorrectableError,
    OptimalAnalysis,
    estimate_stats,
    hs_distance,
    measurement_estimator,
    optimal_analysis,
    optimal_estimate,
    optimal_estimate_complete_pom,
    optimal_estimate_no_info,
    probabilities,
    repeatability_check,
    unbiased_correction,
)
from .relations import (
    GridResolutionError,
    HeterodyneAnalysis,
    RelationReport,
    UnbiasednessError,
    check_accbound,
    check_geom,
    check_uncanon,
    check_ungen,
    check_uni,
    check_varsum,
    heterodyne_analysis,
)
from .scenarios import (
    EprParams,
    EprReport,
    GridWavefunction,
    LinearEstimateInputs,
    epr_closed_form,
    epr_numeric,
    linear_estimate,
    optimize_squeezing,
    quantum_potential_estimate,
    thermal_energy_estimate,
)
from . import fock, sampling

__version__ = "0.1.0"
