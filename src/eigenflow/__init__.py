"""eigenflow: simulation and verification of matrix-valued stochastic flows.

The package simulates Hermitian/symmetric matrix SDEs whose coefficients
act spectrally, extracts eigenvalue empirical measures, and verifies them
against the exactly-known limit laws and moment hierarchies of four
universality classes (semicircle, Marchenko-Pastur including its
non-uniqueness mixtures, geometric, Jacobi), with Cauchy-transform
machinery for the free-probability closed forms.
"""

from .errors import (
    EigenflowError,
    NumericalError,
    TruncationError,
    UnsupportedLawOperation,
    ValidationError,
)
from .linalg import SpectralFunction, apply_spectral, eigen, hermitize
from .sympoly import (
    elementary_symmetric,
    incomplete_elementary,
    incomplete_elementary_pairs,
    log_det_drift,
    newton_residual,
    pairwise_drift_identity_residual,
    power_sums,
)
from .flows import (
    EigenPath,
    FlowSpec,
    NoiseIncrement,
    PathDiagnostics,
    euler_step,
    matrix_euler_step,
    replica_stream,
    sample_noise,
    simulate_ensemble,
    simulate_path,
)
from .limits import (
    HierarchyLaw,
    MarchenkoPastur,
    MomentPath,
    MomentSequence,
    MPMixture,
    PointMass,
    Semicircle,
    free_bm_law,
    free_ou_law,
    free_ou_variance,
    generic_moment_ode,
    geometric_moments,
    geometric_w,
    jacobi_moments,
    mp_mixture_three,
    mp_mixture_two,
    mp_moments,
    mp_params,
    semicircle_moments,
)
from .empirical import (
    EmpiricalMeasure,
    EmpiricalMeasureProcess,
    em_sde_decomposition,
    ks_distance,
    limit_equation_residual,
    wasserstein1,
)
from .cauchy import (
    cauchy_transform,
    ct_evolution_rhs,
    free_bm_transform,
    free_ou_transform,
    free_pde_residual,
    stieltjes_invert,
)
from .config import ExperimentConfig, load_config, parse_config_text
from .presets import (
    ResultRow,
    build_flow_spec,
    default_config,
    make_bundle,
    run_preset,
    sweep_report,
    validate_config,
)

__version__ = "1.0.0"

__all__ = [
    "EigenflowError",
    "EigenPath",
    "EmpiricalMeasure",
    "EmpiricalMeasureProcess",
    "ExperimentConfig",
    "FlowSpec",
    "HierarchyLaw",
    "MarchenkoPastur",
    "MomentPath",
    "MomentSequence",
    "MPMixture",
    "NoiseIncrement",
    "NumericalError",
    "PathDiagnostics",
    "PointMass",
    "ResultRow",
    "Semicircle",
    "SpectralFunction",
    "TruncationError",
    "UnsupportedLawOperation",
    "ValidationError",
    "apply_spectral",
    "build_flow_spec",
    "cauchy_transform",
    "ct_evolution_rhs",
    "default_config",
    "eigen",
    "elementary_symmetric",
    "em_sde_decomposition",
    "euler_step",
    "free_bm_law",
    "free_bm_transform",
    "free_ou_law",
    "free_ou_transform",
    "free_ou_variance",
    "free_pde_residual",
    "generic_moment_ode",
    "geometric_moments",
    "geometric_w",
    "hermitize",
    "incomplete_elementary",
    "incomplete_elementary_pairs",
    "jacobi_moments",
    "ks_distance",
    "limit_equation_residual",
    "load_config",
    "log_det_drift",
    "make_bundle",
    "matrix_euler_step",
    "mp_mixture_three",
    "mp_mixture_two",
    "mp_moments",
    "mp_params",
    "newton_residual",
    "pairwise_drift_identity_residual",
    "parse_config_text",
    "power_sums",
    "replica_stream",
    "run_preset",
    "sample_noise",
    "semicircle_moments",
    "simulate_ensemble",
    "simulate_path",
    "stieltjes_invert",
    "sweep_report",
    "validate_config",
    "wasserstein1",
]
