"""The package namespace: every public name resolves on first use to the
object its module defines, and is listed by ``dir`` and ``__all__``."""
from __future__ import annotations

import importlib

import pytest

import kraus_witness

# the package's public names, by the module that defines them
EXPORTED = {
    "channels": (
        "KrausChannel", "LindbladSet", "apply", "channel_defect", "lgks_rhs",
        "semigroup_defect", "transfer_matrix", "validate_cptp",
    ),
    "errors": (
        "CutoffTooSmall", "DegenerateDenominator", "DimensionMismatch",
        "FidelityOvershoot", "FitDegenerate", "GridTooCoarse", "InvalidChannel",
        "InvalidInitialState", "KrausWitnessError", "NegativeTime", "NoConvergence",
        "NonHermitian", "NotHermitian", "NotPSD", "NumericalError", "OracleMismatch",
        "ParamOutOfRange", "TraceNotOne", "UsageError",
    ),
    "linalg": (
        "Spectrum", "factor_fidelity", "fidelities", "fidelity", "hermitian_eig",
        "psd_sqrt", "trace_distance", "trace_norms", "validate_density",
    ),
    "models": (
        "CKDephase", "JCMPhoton", "JCMQubit", "MODEL_CLASSES", "ModelSpec",
        "YEMarkov", "YENonMarkov", "build_model", "ck_channel",
        "coherent_amplitudes", "default_fock_cutoff", "jcm_photon_channel",
        "jcm_qubit_channel", "model_channel", "model_closed_fidelity", "model_state",
        "ye_markov_channel", "ye_markov_fidelity", "ye_markov_lindblad",
        "ye_nonmarkov_channel",
    ),
    "probes": (
        "CONST_IDENTITY_DEFICIT", "LINEAR_T", "SQRT_T", "UNCLASSIFIED",
        "ExponentReport", "OperatorFit", "default_small_time_grid", "lgks_residual",
        "small_time_exponents",
    ),
    "witnesses": (
        "DEFAULT_WITNESS_TOL", "NO_VIOLATION_FOUND", "NON_MARKOVIAN_WITNESSED",
        "BlpEstimate", "ScanResult", "Verdict", "blp_measure", "default_blp_grid",
        "default_blp_pairs", "fidelity_difference", "make_grid",
        "markovianity_verdict", "memory_fidelity", "scan_G",
    ),
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_name_resolves_to_its_module_object(module, name):
    scope: dict[str, object] = {}
    exec(f"from kraus_witness import {name}", scope)
    owner = importlib.import_module(f"kraus_witness.{module}")
    assert scope[name] is getattr(owner, name)
    assert getattr(kraus_witness, name) is getattr(owner, name)
    assert name in dir(kraus_witness)
    assert name in kraus_witness.__all__


def test_all_lists_exactly_the_exported_names_and_modules():
    assert sorted(kraus_witness.__all__) == sorted([*EXPORTED, *(name for _, name in NAMES)])


@pytest.mark.parametrize("module", EXPORTED)
def test_submodule_is_an_attribute(module):
    assert getattr(kraus_witness, module) is importlib.import_module(f"kraus_witness.{module}")
    assert module in dir(kraus_witness)


def test_star_import_binds_every_exported_name():
    scope: dict[str, object] = {}
    exec("from kraus_witness import *", scope)
    for module, name in NAMES:
        assert scope[name] is getattr(importlib.import_module(f"kraus_witness.{module}"), name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        kraus_witness.no_such_name
    with pytest.raises(ImportError):
        exec("from kraus_witness import no_such_name", {})
