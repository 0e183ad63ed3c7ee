"""Fidelity-difference witness of memory in open quantum dynamics.

The package bundles a self-contained Hermitian linear algebra core, Kraus
channel machinery with small-time structure probes, four exactly solvable
reference models, and the witness layer that scans fidelity differences and
trace-distance revivals.
"""
from .channels import (
    KrausChannel,
    LindbladSet,
    apply,
    channel_defect,
    compose,
    lgks_rhs,
    semigroup_defect,
    transfer_matrix,
    validate_cptp,
)
from .errors import (
    CutoffTooSmall,
    DegenerateDenominator,
    DimensionMismatch,
    FidelityOvershoot,
    FitDegenerate,
    GridTooCoarse,
    InvalidChannel,
    InvalidInitialState,
    KrausWitnessError,
    NegativeTime,
    NoConvergence,
    NonHermitian,
    NotHermitian,
    NotPSD,
    NumericalError,
    OracleMismatch,
    ParamOutOfRange,
    TraceNotOne,
    UsageError,
)
from .linalg import (
    Spectrum,
    factor_fidelity,
    fidelities,
    fidelity,
    hermitian_eig,
    psd_sqrt,
    trace_distance,
    trace_norms,
    validate_density,
)
from .models import (
    CKDephase,
    JCMPhoton,
    JCMQubit,
    MODEL_CLASSES,
    ModelSpec,
    YEMarkov,
    YENonMarkov,
    build_model,
    ck_channel,
    coherent_amplitudes,
    default_fock_cutoff,
    jcm_photon_channel,
    jcm_qubit_channel,
    model_channel,
    model_closed_fidelity,
    model_state,
    ye_markov_channel,
    ye_markov_fidelity,
    ye_markov_lindblad,
    ye_nonmarkov_channel,
)
from .probes import (
    CONST_IDENTITY_DEFICIT,
    LINEAR_T,
    SQRT_T,
    UNCLASSIFIED,
    ExponentReport,
    OperatorFit,
    default_small_time_grid,
    lgks_residual,
    small_time_exponents,
)
from .witnesses import (
    DEFAULT_WITNESS_TOL,
    NO_VIOLATION_FOUND,
    NON_MARKOVIAN_WITNESSED,
    BlpEstimate,
    ScanResult,
    Verdict,
    blp_measure,
    default_blp_grid,
    default_blp_pairs,
    fidelity_difference,
    make_grid,
    markovianity_verdict,
    memory_fidelity,
    scan_G,
)

__version__ = "0.1.0"
