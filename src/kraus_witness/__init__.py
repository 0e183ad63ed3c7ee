"""Fidelity-difference witness of memory in open quantum dynamics.

The package bundles a self-contained Hermitian linear algebra core, Kraus
channel machinery with small-time structure probes, four exactly solvable
reference models, and the witness layer that scans fidelity differences and
trace-distance revivals.

Importing the package loads none of its modules: each public name below,
and each module, is imported on first use (PEP 562), so a process loads
only the modules it reads.
"""
import importlib

# the public names of each module
_EXPORTS = {
    "channels": """KrausChannel LindbladSet apply channel_defect lgks_rhs
        semigroup_defect transfer_matrix validate_cptp""",
    "errors": """CutoffTooSmall DegenerateDenominator DimensionMismatch
        FidelityOvershoot FitDegenerate GridTooCoarse InvalidChannel
        InvalidInitialState KrausWitnessError NegativeTime NoConvergence
        NonHermitian NotHermitian NotPSD NumericalError OracleMismatch
        ParamOutOfRange TraceNotOne UsageError""",
    "linalg": """Spectrum factor_fidelity fidelities fidelity hermitian_eig
        psd_sqrt trace_distance trace_norms validate_density""",
    "models": """CKDephase JCMPhoton JCMQubit MODEL_CLASSES ModelSpec YEMarkov
        YENonMarkov build_model ck_channel coherent_amplitudes
        default_fock_cutoff jcm_photon_channel jcm_qubit_channel model_channel
        model_closed_fidelity model_state ye_markov_channel ye_markov_fidelity
        ye_markov_lindblad ye_nonmarkov_channel""",
    "probes": """CONST_IDENTITY_DEFICIT LINEAR_T SQRT_T UNCLASSIFIED
        ExponentReport OperatorFit default_small_time_grid lgks_residual
        small_time_exponents""",
    "witnesses": """DEFAULT_WITNESS_TOL NO_VIOLATION_FOUND NON_MARKOVIAN_WITNESSED
        BlpEstimate ScanResult Verdict blp_measure default_blp_grid
        default_blp_pairs fidelity_difference make_grid markovianity_verdict
        memory_fidelity scan_G""",
}
# public name -> the module that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_EXPORTS, *_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    if name in _EXPORTS:
        # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
