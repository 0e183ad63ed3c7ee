"""Linear algebra core: eigensolver, square root, fidelity, trace distance."""
from __future__ import annotations

import ast
import dataclasses
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kraus_witness
from kraus_witness import (
    DimensionMismatch,
    FidelityOvershoot,
    JCMPhoton,
    KrausChannel,
    KrausWitnessError,
    NoConvergence,
    NonHermitian,
    NotHermitian,
    NotPSD,
    NumericalError,
    TraceNotOne,
    YEMarkov,
    apply,
    default_blp_pairs,
    factor_fidelity,
    fidelities,
    fidelity,
    hermitian_eig,
    psd_sqrt,
    trace_distance,
    trace_norms,
    validate_density,
)
from kraus_witness.linalg import validate_densities
from kraus_witness import channels, linalg

from conftest import (
    forbid_eigensolves,
    oracle_fidelity,
    random_density,
    random_hermitian,
    record_kernel_calls,
)


class TestHermitianEig:
    def test_identity(self):
        spec = hermitian_eig(np.eye(3, dtype=complex))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 1.0, 1.0])

    def test_ascending_order(self):
        spec = hermitian_eig(np.diag([3.0, -1.0, 2.0]).astype(complex))
        np.testing.assert_allclose(spec.eigenvalues, [-1.0, 2.0, 3.0])

    def test_dim_one(self):
        spec = hermitian_eig(np.array([[2.5 + 0j]]))
        assert spec.eigenvalues[0] == pytest.approx(2.5)

    def test_reconstruction_and_unitarity(self, rng):
        for _ in range(40):
            dim = int(rng.integers(2, 9))
            mat = random_hermitian(rng, dim)
            spec = hermitian_eig(mat)
            v = spec.eigenvectors
            rebuilt = (v * spec.eigenvalues) @ v.conj().T
            assert np.max(np.abs(rebuilt - mat)) <= 1e-10 * max(1, np.linalg.norm(mat))
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) <= 1e-10
            assert np.all(np.diff(spec.eigenvalues) >= -1e-14)

    def test_matches_external_solver(self, rng):
        # dual route: cyclic Jacobi against LAPACK on the same matrices
        for _ in range(40):
            dim = int(rng.integers(2, 9))
            mat = random_hermitian(rng, dim)
            ours = hermitian_eig(mat).eigenvalues
            reference = np.linalg.eigvalsh(mat)
            np.testing.assert_allclose(ours, reference, atol=1e-11 * max(1, abs(reference).max()))

    def test_large_dimension(self, rng):
        mat = random_hermitian(rng, 22)
        ours = hermitian_eig(mat).eigenvalues
        np.testing.assert_allclose(ours, np.linalg.eigvalsh(mat), atol=1e-12 * 22)

    def test_rejects_non_hermitian(self):
        mat = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NonHermitian):
            hermitian_eig(mat)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            hermitian_eig(np.zeros((2, 3), dtype=complex))

    def test_entry_near_the_largest_double(self):
        # M + M^dagger would overflow; the Hermitized halves do not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spectrum = hermitian_eig(np.diag([1e308, 0.0]))
        assert spectrum.eigenvalues.tolist() == [0.0, 1e308]


class TestPsdSqrt:
    def test_diagonal_pin(self):
        root = psd_sqrt(np.diag([4.0, 9.0]).astype(complex))
        np.testing.assert_allclose(root, np.diag([2.0, 3.0]), atol=1e-12)

    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(4, dtype=complex)), np.eye(4), atol=1e-12)

    def test_square_back(self, rng):
        for _ in range(30):
            dim = int(rng.integers(2, 7))
            rho = random_density(rng, dim)
            root = psd_sqrt(rho)
            assert np.max(np.abs(root @ root - rho)) <= 1e-9

    def test_clamps_rounding_negatives(self):
        mat = np.diag([1.0, -5e-11]).astype(complex)
        root = psd_sqrt(mat)
        assert root[1, 1] == 0.0

    def test_rejects_genuine_negatives(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([1.0, -1e-9]).astype(complex))


class TestFidelity:
    def test_commuting_pin(self):
        # classical overlap of (0.7, 0.3) against (0.4, 0.6)
        value = fidelity(np.diag([0.7, 0.3]).astype(complex), np.diag([0.4, 0.6]).astype(complex))
        assert value == pytest.approx(0.908998886412873, abs=1e-12)

    def test_identical_states(self, rng):
        for _ in range(10):
            rho = random_density(rng, int(rng.integers(2, 6)))
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_identical_rank_deficient(self):
        # central block of the lam = 4 reference state has an exact zero eigenvalue
        rho = YEMarkov(1.0, 4.0).state(0.0)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_maximally_coherent_vs_mixed(self):
        coherent = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        assert fidelity(coherent, np.eye(2, dtype=complex) / 2) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            rho1, rho2 = random_density(rng, dim), random_density(rng, dim)
            assert fidelity(rho1, rho2) == pytest.approx(fidelity(rho2, rho1), abs=1e-9)

    def test_bounds(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            value = fidelity(random_density(rng, dim), random_density(rng, dim))
            assert 0.0 <= value <= 1.0

    def test_pure_state_reduction(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            vec /= np.linalg.norm(vec)
            pure = np.outer(vec, vec.conj())
            rho = random_density(rng, dim)
            expected = float(np.real(vec.conj() @ rho @ vec))
            assert fidelity(pure, rho) == pytest.approx(expected, abs=1e-10)

    def test_agrees_with_external_route(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            rho1, rho2 = random_density(rng, dim), random_density(rng, dim)
            assert fidelity(rho1, rho2) == pytest.approx(oracle_fidelity(rho1, rho2), abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fidelity(np.eye(2, dtype=complex) / 2, np.eye(3, dtype=complex) / 3)


class TestTraceDistance:
    def test_identical(self, rng):
        rho = random_density(rng, 4)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_pures(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-14)

    def test_pin(self):
        value = trace_distance(np.eye(2, dtype=complex) / 2, np.diag([0.75, 0.25]).astype(complex))
        assert value == pytest.approx(0.25, abs=1e-14)

    def test_symmetry_and_bounds(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            rho1, rho2 = random_density(rng, dim), random_density(rng, dim)
            d12 = trace_distance(rho1, rho2)
            assert d12 == pytest.approx(trace_distance(rho2, rho1), abs=1e-12)
            assert 0.0 <= d12 <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="state shapes differ"):
            trace_distance(np.eye(2, dtype=complex) / 2, np.eye(3, dtype=complex) / 3)

    def test_overflowing_difference_is_named(self):
        # finite operands, so it is the difference that is refused, not its entries
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonHermitian, match=r"rho1 - rho2 overflows"):
                trace_distance(np.diag([1e308, 0.0]), np.diag([-1e308, 0.0]))
            assert trace_distance(np.diag([1e308, 0.0]), np.zeros((2, 2))) == 0.5e308


class TestValidateDensity:
    def test_accepts_valid(self, rng):
        rho = random_density(rng, 5)
        out = validate_density(rho)
        assert np.max(np.abs(out - out.conj().T)) == 0.0

    def test_accepts_boundary_rank(self):
        # lam = 4 puts one eigenvalue exactly at zero
        validate_density(YEMarkov(1.0, 4.0).state(0.0))

    def test_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.1], [0.2, 0.5]], dtype=complex)
        with pytest.raises(NotHermitian):
            validate_density(mat)

    def test_rejects_a_negative_matrix_whose_norm_overflows(self):
        # eigenvalues 0.5 +- 1e160; the squared entries overflow
        mat = np.array([[0.5, 1e160], [1e160, 0.5]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPSD, match="eigenvalue -1.000e\\+160"):
                validate_density(mat)

    def test_rejects_bad_trace(self):
        with pytest.raises(TraceNotOne, match="differs from 1"):
            validate_density(np.diag([0.6, 0.6]).astype(complex))

    def test_rejects_imaginary_trace(self):
        # three small imaginary diagonal parts stay inside the Hermiticity
        # window individually but their sum crosses the trace window
        mat = np.diag([1 / 3 + 4.9e-13j] * 3)
        with pytest.raises(TraceNotOne, match="imaginary"):
            validate_density(mat)

    def test_rejects_negative_eigenvalue(self):
        # the reported defect names the offending eigenvalue
        with pytest.raises(NotPSD, match=r"-5\.000e-01"):
            validate_density(np.diag([1.5, -0.5]).astype(complex))

    def test_looser_tolerance_scales_all_windows(self):
        mat = np.diag([1.0 + 5e-8, -5e-8]).astype(complex)
        with pytest.raises(NotPSD):
            validate_density(mat)
        validate_density(mat, tol=1e-6)


def _off_trace(dim):
    return np.diag([0.6] * dim).astype(complex)


def _imaginary_trace(dim):
    # small imaginary diagonal parts inside the Hermiticity window whose sum
    # crosses the trace window, which takes at least three of them
    return np.diag([1 / dim + 4.9e-13j] * dim)


def _non_hermitian(dim):
    mat = np.eye(dim, dtype=complex) / dim
    mat[0, 1] = 0.1
    return mat


def _negative(dim):
    return np.diag([1.5, -0.5] + [0.0] * (dim - 2)).astype(complex)


def _nan(dim):
    mat = np.eye(dim, dtype=complex) / dim
    mat[0, 1] = np.nan
    return mat


_BAD_STATES = [
    (make_bad, dim)
    for make_bad in (_non_hermitian, _off_trace, _imaginary_trace, _negative, _nan)
    for dim in (2, 3, 4)
    if (make_bad, dim) != (_imaginary_trace, 2)
]


class TestValidateDensities:
    """The stack checker against ``validate_density`` one matrix at a time."""

    @pytest.mark.parametrize("make_bad, dim", _BAD_STATES,
                             ids=[f"{f.__name__[1:]}-{d}" for f, d in _BAD_STATES])
    def test_bad_state_at_index_3_raises_as_alone(self, rng, make_bad, dim):
        bad = make_bad(dim)
        with pytest.raises(NumericalError) as alone:
            validate_density(bad)
        stack = np.array([random_density(rng, dim) for _ in range(6)])
        stack[3] = bad
        with pytest.raises(NumericalError) as stacked:
            validate_densities(stack)
        assert type(stacked.value) is type(alone.value)
        assert str(stacked.value) == str(alone.value)

    def test_returns_the_hermitized_stack(self, rng):
        stack = np.array([random_density(rng, 4) for _ in range(5)])
        one_by_one = np.array([validate_density(rho) for rho in stack])
        np.testing.assert_array_equal(validate_densities(stack), one_by_one)

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2, 3)])
    def test_rejects_bad_shape(self, shape):
        with pytest.raises(DimensionMismatch):
            validate_densities(np.zeros(shape, dtype=complex))


_CERTIFICATE_DIMS = [*range(2, 7), 22]


def _with_spectrum(rng, spectrum):
    """U diag(spectrum) U^dagger for a random unitary U, made exactly
    Hermitian."""
    dim = len(spectrum)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    mat = (q * spectrum) @ q.conj().T
    return 0.5 * (mat + mat.conj().T)


def _unit_trace_spectrum(rng, dim, lowest):
    """``lowest`` and dim - 1 positive eigenvalues, summing to 1."""
    rest = rng.uniform(0.1, 1.0, size=dim - 1)
    return np.concatenate(([lowest], rest * (1.0 - lowest) / rest.sum()))


class TestPsdCertificate:
    """The LDL^dagger certificate of ``validate_densities`` against the Jacobi
    kernel's verdict and the LAPACK oracle: it certifies only matrices whose
    smallest eigenvalue is above -tol, and the kernel decides the rest."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from(_CERTIFICATE_DIMS),
           lowest=st.floats(-3.0, 3.0))
    def test_agrees_with_kernel_and_oracle(self, seed, dim, lowest):
        # one matrix with its smallest eigenvalue at lowest * tol among
        # random states; tol = 1e-10
        rng = np.random.default_rng(seed)
        stack = np.array([random_density(rng, dim) for _ in range(3)]
                         + [_with_spectrum(rng, _unit_trace_spectrum(rng, dim, lowest * 1e-10))])
        sym = 0.5 * (stack + stack.conj().swapaxes(1, 2))
        certified = linalg._ldl_certified(sym, 0.5e-10)
        oracle = np.linalg.eigvalsh(sym)[:, 0]
        kernel = linalg._jacobi(sym)[0].min(axis=1)
        assert np.all(oracle[certified] > -1e-10)
        assert np.all(kernel[certified] >= -1e-10)
        # above -0.4 tol, S + (tol/2) I keeps a smallest eigenvalue of at
        # least 0.1 tol, far outside rounding, so it must be certified
        assert np.all(certified[oracle > -0.4e-10])
        if kernel.min() < -1e-10:
            with pytest.raises(NotPSD) as raised:
                validate_densities(stack)
            assert str(raised.value) == f"eigenvalue {kernel.min():.3e} below -1.0e-10"
        else:
            np.testing.assert_array_equal(validate_densities(stack), sym)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from(_CERTIFICATE_DIMS))
    def test_full_rank_states_need_no_eigensolve(self, seed, dim):
        rng = np.random.default_rng(seed)
        stack = np.array([random_density(rng, dim) for _ in range(4)])
        assert np.linalg.eigvalsh(stack).min() > 0.0
        with pytest.MonkeyPatch.context() as patch:
            forbid_eigensolves(patch)
            out = validate_densities(stack)
        np.testing.assert_array_equal(out, 0.5 * (stack + stack.conj().swapaxes(1, 2)))

    @pytest.mark.parametrize("dim", _CERTIFICATE_DIMS)
    def test_pure_and_rank_deficient_states_need_no_eigensolve(self, rng, dim, monkeypatch):
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vec /= np.linalg.norm(vec)
        fock = np.zeros((dim, dim), dtype=complex)
        fock[dim - 1, dim - 1] = 1.0
        rank = (dim + 1) // 2
        half_rank = _with_spectrum(rng, np.r_[np.full(rank, 1.0 / rank), np.zeros(dim - rank)])
        stack = np.array([np.outer(vec, vec.conj()), fock, half_rank])
        assert np.linalg.eigvalsh(stack)[:, 0].min() > -1e-15
        forbid_eigensolves(monkeypatch)
        validate_densities(stack)

    def test_model_boundary_states_need_no_eigensolve(self, monkeypatch):
        # coherent and Fock field states at d = 22, and a YE state with two
        # exactly zero eigenvalues
        field = [rho for pair in default_blp_pairs(JCMPhoton()) for rho in pair[:2]]
        forbid_eigensolves(monkeypatch)
        validate_densities(np.array(field))
        validate_density(YEMarkov(1.0, 4.0).state(0.0))

    @pytest.mark.parametrize("dim", _CERTIFICATE_DIMS)
    @pytest.mark.parametrize("lowest, kernel_calls", [(-0.25, []), (-0.75, [1])],
                             ids=["quarter-tol", "three-quarters-tol"])
    def test_slightly_negative_eigenvalue_passes(self, rng, dim, lowest, kernel_calls,
                                                 monkeypatch):
        # -tol/4 is inside the shift tol/2 and certified; -3 tol/4 is not,
        # and the kernel, which gets that matrix alone, accepts it
        stack = np.array([random_density(rng, dim),
                          _with_spectrum(rng, _unit_trace_spectrum(rng, dim, lowest * 1e-10)),
                          random_density(rng, dim)])
        calls = record_kernel_calls(monkeypatch)
        validate_densities(stack)
        assert [shape[0] for shape, _ in calls] == kernel_calls

    @pytest.mark.parametrize("dim", _CERTIFICATE_DIMS)
    def test_negative_eigenvalue_raises_as_alone(self, rng, dim):
        bad = _with_spectrum(rng, _unit_trace_spectrum(rng, dim, -1.5e-10))
        with pytest.raises(NotPSD) as alone:
            validate_density(bad)
        stack = np.array([random_density(rng, dim), bad, random_density(rng, dim)])
        with pytest.raises(NotPSD) as stacked:
            validate_densities(stack)
        assert str(stacked.value) == str(alone.value)
        assert str(alone.value) == (
            f"eigenvalue {linalg._jacobi(bad[None])[0].min():.3e} below -1.0e-10"
        )

    @pytest.mark.parametrize("dim", _CERTIFICATE_DIMS)
    def test_huge_off_diagonal_goes_to_the_kernel(self, rng, dim, monkeypatch):
        huge = np.eye(dim, dtype=complex) / dim
        huge[0, 1] = huge[1, 0] = 1e100
        stack = np.array([random_density(rng, dim), huge])
        calls = record_kernel_calls(monkeypatch)
        with pytest.raises(NotPSD, match=r"^eigenvalue -1\.000e\+100 below -1\.0e-10$"):
            validate_densities(stack)
        assert [shape[0] for shape, _ in calls] == [1]

    @pytest.mark.parametrize("dim", _CERTIFICATE_DIMS)
    def test_tolerance_inside_rounding_goes_to_the_kernel(self, rng, dim, monkeypatch):
        # at tol = 1e-15 the shift tol/2 is below n^2 1e-15, so nothing is
        # certified; the diagonal is fixed so that the trace is 1 within 1e-15
        stack = np.array([random_density(rng, dim) for _ in range(3)])
        stack = 0.5 * (stack + stack.conj().swapaxes(1, 2))
        stack[:, -1, -1] = 1.0 - np.trace(stack[:, :-1, :-1], axis1=1, axis2=2).real
        assert not linalg._ldl_certified(stack, 0.5e-15).any()
        calls = record_kernel_calls(monkeypatch)
        validate_densities(stack, tol=1e-15)
        assert [shape[0] for shape, _ in calls] == [3]


class TestNanRejected:
    """NaN fails every comparison, so each guard is written to fail closed."""

    @staticmethod
    def _nan_state(dim):
        bad = np.eye(dim, dtype=complex) / dim
        bad[0, 1] = np.nan
        return bad

    @pytest.mark.parametrize("dim", [2, 33])
    def test_eig_fidelity_trace_distance(self, dim):
        bad, good = self._nan_state(dim), np.eye(dim, dtype=complex) / dim
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonHermitian):
                hermitian_eig(bad)
            with pytest.raises(NonHermitian):
                fidelity(bad, good)
            with pytest.raises(NonHermitian):
                fidelity(good, bad)
            with pytest.raises(NonHermitian):
                trace_distance(bad, good)

    def test_validate_density(self):
        with pytest.raises(NotHermitian):
            validate_density(self._nan_state(2))


class TestNonFinite:
    """An inf or NaN entry is named as such, before any arithmetic on it can
    warn (warnings are errors in this suite)."""

    @staticmethod
    def _bad(dim, where, value):
        bad = np.eye(dim, dtype=complex) / dim
        bad[where] = value
        return bad

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    @pytest.mark.parametrize("dim", [2, 5])
    def test_rejected_by_every_entry_point(self, dim, where, value):
        bad, good = self._bad(dim, where, value), np.eye(dim, dtype=complex) / dim
        calls = [
            lambda: hermitian_eig(bad),
            lambda: trace_distance(bad, good),
            lambda: trace_distance(good, bad),
            lambda: trace_distance(bad, bad),
            lambda: trace_norms(bad[None]),
            lambda: fidelity(bad, good),
            lambda: fidelity(good, bad),
            lambda: validate_density(bad),
        ]
        for call in calls:
            with pytest.raises(NumericalError, match="non-finite"):
                call()


_WIDE = np.array([[0.0, 1e308], [-1e308, 0.0]], dtype=complex)


class TestDefectNearTheLargestDouble:
    """Off-diagonal entries +-1e308 are finite, but M - M^dagger is not: the
    defect, taken from the halves, is refused by name with no overflow
    warning (warnings are errors in this suite).  It prints as inf."""

    @pytest.mark.parametrize("error, call", [
        (NonHermitian, lambda: hermitian_eig(_WIDE)),
        (NonHermitian, lambda: psd_sqrt(_WIDE)),
        (NonHermitian, lambda: trace_norms(_WIDE[None])),
        (NonHermitian, lambda: trace_norms(np.pad(_WIDE, (0, 1))[None])),
        (NonHermitian, lambda: fidelities(_WIDE[None], np.eye(2)[None] / 2)),
        (NonHermitian, lambda: fidelities(np.pad(_WIDE, (0, 1))[None], np.eye(3)[None] / 3)),
        (NotHermitian, lambda: validate_density(_WIDE)),
    ], ids=["hermitian_eig", "psd_sqrt", "trace_norms-d2", "trace_norms-d3",
            "fidelities-d2", "fidelities-d3", "validate_density"])
    def test_refused_by_name(self, error, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as caught:
                call()
        assert type(caught.value) is error
        assert str(caught.value).startswith("Hermiticity defect inf exceeds")


_SCALES = [1e-12, 1e-15, 1e-150, 1e-300, 1e160, 1e300]


class TestTraceNorms:
    """The batched route against numpy's LAPACK eigvalsh as the oracle."""

    @staticmethod
    def _oracle(stack):
        return np.abs(np.linalg.eigvalsh(stack)).sum(axis=1)

    # the kernel's target is relative at every scale, so norms far below 1
    # keep their digits as well as norms whose squares overflow
    @pytest.mark.parametrize("dim, scale", [
        *(pytest.param(dim, 1.0, id=str(dim)) for dim in range(3, 9)),
        *((dim, scale) for dim in (4, 22) for scale in _SCALES),
    ])
    def test_matches_external_solver(self, rng, dim, scale):
        stack = np.array([random_hermitian(rng, dim) for _ in range(12)])
        bound = 1e-12 * scale * np.linalg.norm(stack, axis=(1, 2))
        assert np.all(np.abs(trace_norms(scale * stack) - scale * self._oracle(stack)) <= bound)
        for mat, oracle, within in zip(stack[:3], np.linalg.eigvalsh(stack[:3]), bound):
            assert np.all(np.abs(hermitian_eig(scale * mat).eigenvalues - scale * oracle) <= within)

    def test_qubit_closed_form(self, rng):
        stack = np.array([random_hermitian(rng, 2) for _ in range(50)])
        scale = np.linalg.norm(stack, axis=(1, 2))
        assert np.all(np.abs(trace_norms(stack) - self._oracle(stack)) <= 1e-12 * scale)

    def test_qubit_trace_wins(self):
        # both eigenvalues positive (0.7, 0.2): |s| = 0.9 beats 2r = 0.5
        same_sign = np.diag([0.7, 0.2]).astype(complex)
        # eigenvalues 0.5 +- sqrt(0.25 + 0.36): 2r beats |s| = 1
        indefinite = np.array([[0.5, 0.6j], [-0.6j, 0.5]])
        norms = trace_norms(np.array([same_sign, indefinite, -same_sign]))
        assert norms[0] == norms[2] == 0.7 + 0.2
        assert norms[1] == pytest.approx(1.2, abs=1e-15)

    @pytest.mark.parametrize("dim", [2, 4, 7])
    def test_zero_matrix(self, dim):
        assert trace_norms(np.zeros((3, dim, dim), dtype=complex)).tolist() == [0.0] * 3

    def test_diagonal_input_has_only_zero_pivots(self):
        diagonals = np.array([[1.5, -2.0, 0.0, 0.25], [0.0, 0.0, 0.0, -1e-300]])
        stack = np.array([np.diag(d).astype(complex) for d in diagonals])
        assert trace_norms(stack).tolist() == np.abs(diagonals).sum(axis=1).tolist()

    def test_degenerate_spectra(self, rng):
        stack = []
        for spectrum in ([1.0, 1.0, -1.0, -1.0, 2.0], [3.0, 3.0, 3.0, 0.0, 0.0]):
            raw = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            q, _ = np.linalg.qr(raw)
            stack.append((q * spectrum) @ q.conj().T)
        np.testing.assert_allclose(trace_norms(np.array(stack)), [6.0, 9.0], rtol=0.0, atol=1e-13)

    def test_rank_one(self, rng):
        vec = rng.normal(size=6) + 1j * rng.normal(size=6)
        outer = -2.5 * np.outer(vec, vec.conj())
        expected = 2.5 * float(np.vdot(vec, vec).real)
        assert trace_norms(outer[None])[0] == pytest.approx(expected, rel=1e-13)

    def test_mixed_convergence_in_one_batch(self, rng):
        # a diagonal matrix converges before the first sweep, the random ones
        # take several, and the zero matrix never needs a rotation
        stack = np.array([
            random_hermitian(rng, 6),
            np.diag([1.0, -1.0, 2.0, 0.0, 0.5, 3.0]).astype(complex),
            np.zeros((6, 6), dtype=complex),
            random_hermitian(rng, 6),
        ])
        scale = max(1.0, float(np.linalg.norm(stack, axis=(1, 2)).max()))
        expected = self._oracle(stack)
        np.testing.assert_allclose(trace_norms(stack), expected, rtol=0.0, atol=1e-12 * scale)

    def test_trace_distance_is_half_the_norm(self, rng):
        rho1, rho2 = random_density(rng, 4), random_density(rng, 4)
        assert trace_distance(rho1, rho2) == 0.5 * trace_norms((rho1 - rho2)[None])[0]

    def test_no_convergence_names_batch_index(self, rng, monkeypatch):
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
        stack = np.array([np.eye(5, dtype=complex), random_hermitian(rng, 5)])
        with pytest.raises(NoConvergence, match="batch index 1"):
            trace_norms(stack)

    @pytest.mark.parametrize("check", [trace_norms, validate_densities],
                             ids=["trace_norms", "validate_densities"])
    def test_no_convergence_counts_in_the_callers_stack(self, rng, check, monkeypatch):
        if check is trace_norms:
            # the direct sums skip the kernel, which sees the two dense matrices
            monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
            direct = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
            stack = np.array([direct, direct, random_hermitian(rng, 4), direct,
                              random_hermitian(rng, 4)])
            expected = (2, 2, 5)
        else:
            # the certificate clears the random states, and the kernel, which
            # gets no sweep, sees only the one at -0.75 tol
            monkeypatch.setattr(linalg, "_MAX_SWEEPS", 0)
            stack = np.array([*(random_density(rng, 4) for _ in range(3)),
                              _with_spectrum(rng, _unit_trace_spectrum(rng, 4, -0.75e-10))])
            expected = (3, 1, 4)
        with pytest.raises(NoConvergence) as caught:
            check(stack)
        assert (caught.value.index, caught.value.unconverged, caught.value.batch) == expected

    def test_dense_matrix_whose_norm_overflows(self):
        # squaring 1e160 overflows, so the kernel runs this matrix scaled
        # by a power of two; no warning is raised
        mat = np.array([[0.25, 1e160, -2e160j], [1e160, -0.5, 3e160], [2e160j, 3e160, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = trace_norms(mat[None])[0]
        expected = np.abs(np.linalg.eigvalsh(mat)).sum()
        assert norm == pytest.approx(expected, rel=1e-13)

    def test_diagonal_near_the_largest_double(self):
        # M + M^dagger would overflow; the Hermitized halves do not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = trace_norms(np.diag([1e308, 0.0, -1e307])[None])
        assert norms.tolist() == [1.1e308]

    def test_rejects_non_hermitian(self):
        stack = np.zeros((2, 3, 3), dtype=complex)
        stack[1, 0, 2] = 1e-9
        with pytest.raises(NonHermitian):
            trace_norms(stack)

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2, 3), (1, 1, 2, 2)])
    def test_rejects_bad_shape(self, shape):
        with pytest.raises(DimensionMismatch):
            trace_norms(np.zeros(shape, dtype=complex))

    @staticmethod
    def _hermitized_qubit_norms(stack):
        """The qubit norms of the Hermitized average, which the in-place
        route must reproduce bit for bit."""
        sym = linalg._hermitized(stack, linalg._HERMITIAN_TOL, NonHermitian)
        return linalg._qubit_norms(sym[:, 0, 0].real, sym[:, 1, 1].real, sym[:, 0, 1])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_qubit_rejects_non_finite(self, where, value):
        stack = np.array([np.eye(2), np.eye(2)], dtype=complex)
        stack[1][where] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonHermitian) as caught:
                trace_norms(stack)
        assert str(caught.value) == "matrix has non-finite entries"

    @pytest.mark.parametrize("where, offset", [((0, 1), 2e-10), ((1, 1), 1e-10j)],
                             ids=["x01", "im-x11"])
    def test_qubit_rejects_non_hermitian(self, where, offset):
        stack = np.array([np.eye(2), 0.5 * np.eye(2)], dtype=complex)
        stack[1][where] += offset
        with pytest.raises(NonHermitian) as caught:
            trace_norms(stack)
        assert str(caught.value) == "Hermiticity defect 2.000e-10 exceeds 1.0e-10"
        with pytest.raises(NonHermitian) as parent:
            self._hermitized_qubit_norms(stack)
        assert str(caught.value) == str(parent.value)

    def test_qubit_empty_stack(self):
        norms = trace_norms(np.zeros((0, 2, 2), dtype=complex))
        assert norms.shape == (0,) and norms.dtype == np.float64

    @pytest.mark.parametrize("scale", [1.0, *_SCALES])
    def test_qubit_in_place_matches_hermitized(self, rng, scale):
        stack = scale * np.array([random_hermitian(rng, 2) for _ in range(64)])
        zero = rng.random(stack.shape) < 0.25
        stack[zero | zero.swapaxes(1, 2)] = 0.0
        noise = rng.normal(size=stack.shape) + 1j * rng.normal(size=stack.shape)
        noisy = stack + 5e-12 * (noise - noise.conj().swapaxes(1, 2))
        for case in (stack, noisy):
            assert trace_norms(case).tobytes() == self._hermitized_qubit_norms(case).tobytes()
        # fidelities read both stacks in place through the same reader, and
        # take rho2's Hermitian part whatever its defect.  F(s rho1, rho2/s)
        # is F(rho1, rho2); at 1e-300, 1e160 and 1e300 a determinant of the
        # closed form overflows, and both sides send the pair to the kernel
        rho1, rho2 = (np.array([random_density(rng, 2) for _ in range(64)]) for _ in "12")
        rho1[zero[:, 0, 1], 0, 1] = rho1[zero[:, 0, 1], 1, 0] = 0.0
        rho1, rho2 = (linalg._hermitized(x, np.inf, NonHermitian) for x in (scale * rho1, rho2 / scale))
        skew = noise - noise.conj().swapaxes(1, 2)
        pairs = [
            (rho1, rho2 + 1e-3 / scale * skew),
            (rho1 + 5e-12 * min(scale, 1.0) * skew, rho2),
            # read-only views, as memory_fidelity passes its reference state
            np.broadcast_arrays(rho1[:1], rho2),
        ]
        for a, b in pairs:
            copies = [linalg._hermitized(x, np.inf, NonHermitian) for x in (a, b)]
            assert _outcome(fidelities, a, b) == _outcome(fidelities, *copies)


def _direct_sum(rng, dim, scale):
    """A Hermitian direct sum of 1x1 and 2x2 blocks on a random permutation
    of the rows, entries of order ``scale``: zero, degenerate (equal
    diagonals) and generic blocks mixed."""
    mat = np.zeros((dim, dim), dtype=complex)
    order = rng.permutation(dim)
    i = 0
    while i < dim:
        p = order[i]
        kind = rng.integers(4)
        mat[p, p] = 0.0 if kind == 0 else scale * rng.normal()
        if kind >= 2 and i + 1 < dim:
            q = order[i + 1]
            mat[q, q] = mat[p, p] if kind == 2 else scale * rng.normal()
            mat[p, q] = scale * complex(rng.normal(), rng.normal())
            mat[q, p] = np.conj(mat[p, q])
            i += 1
        i += 1
    return mat


class TestDirectSumTraceNorms:
    """Matrices with at most one nonzero off-diagonal entry per row take
    ``trace_norms``'s closed form, against the kernel and the LAPACK oracle."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([3, 4, 5, 6, 22]),
           scale=st.sampled_from([1.0, 1e-150, 1e160, 1e300]),
           kinds=st.lists(st.booleans(), min_size=1, max_size=6))
    def test_matches_kernel_and_oracle(self, seed, dim, scale, kinds):
        # kinds: True for a direct sum, False for a dense matrix
        rng = np.random.default_rng(seed)
        stack = np.array([
            _direct_sum(rng, dim, scale) if direct else scale * random_hermitian(rng, dim)
            for direct in kinds
        ])
        with pytest.MonkeyPatch.context() as patch:
            calls = record_kernel_calls(patch)
            norms = trace_norms(stack)
        assert sum(shape[0] for shape, _ in calls) == kinds.count(False)
        largest = np.abs(stack).max(axis=(1, 2))
        oracle = np.abs(np.linalg.eigvalsh(stack)).sum(axis=1)
        kernel = np.abs(linalg._jacobi(stack)[0]).sum(axis=1)
        # the kernel stops at an off-diagonal mass of 1e-14 max(1, norm)
        bound = 1e-12 * dim * np.maximum(1.0, largest)
        assert np.all(np.abs(norms - oracle) <= bound)
        assert np.all(np.abs(norms - kernel) <= bound)
        # the closed form has no absolute floor
        direct = np.array(kinds)
        assert np.all(np.abs(norms - oracle)[direct] <= 1e-13 * dim * largest[direct])

    @pytest.mark.parametrize("dim", [3, 4, 22])
    def test_diagonal_matrices_get_the_kernels_bits(self, rng, dim, monkeypatch):
        stack = np.array([np.diag(rng.normal(size=dim)).astype(complex) for _ in range(5)])
        kernel = np.abs(linalg._jacobi(stack)[0]).sum(axis=1)
        forbid_eigensolves(monkeypatch)
        assert trace_norms(stack).tobytes() == kernel.tobytes()

    def test_two_nonzero_entries_in_a_row_go_to_the_kernel(self, monkeypatch):
        # a 3x3 chain couples row 1 to rows 0 and 2: no direct sum of blocks
        chain = np.array([[1.0, 0.5, 0.0], [0.5, -1.0, 0.25j], [0.0, -0.25j, 2.0]])
        calls = record_kernel_calls(monkeypatch)
        norm = trace_norms(np.array([np.eye(3), chain]))
        assert [shape for shape, _ in calls] == [(1, 3, 3)]
        assert norm[0] == 3.0
        assert norm[1] == pytest.approx(np.abs(np.linalg.eigvalsh(chain)).sum(), rel=1e-14)


# small sizes, and the field sector's (22 and 33)
_KERNEL_DIMS = [*range(2, 7), 22, 33]


def _kernel_stack(rng, dim):
    """Random Hermitian matrices mixed with the kernel's edge cases: a
    diagonal and a zero matrix that converge before any sweep, a degenerate
    spectrum, a block-diagonal matrix whose cross-block pivots are exactly
    zero, and a rank-1 matrix.  Above d = 6 only the random, degenerate and
    block-diagonal ones, which keeps the field-sector sizes quick."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    block = np.zeros((dim, dim), dtype=complex)
    half = dim // 2
    block[:half, :half] = random_hermitian(rng, half)
    block[half:, half:] = random_hermitian(rng, dim - half)
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    stack = np.array([
        np.diag(rng.normal(size=dim)).astype(complex),
        np.zeros((dim, dim), dtype=complex),
        random_hermitian(rng, dim),
        (q * np.resize([1.0, 1.0, 2.0, 2.0], dim)) @ q.conj().T,
        block,
        -2.5 * np.outer(vec, vec.conj()),
        random_hermitian(rng, dim),
    ])
    return stack if dim <= 6 else stack[2:5]


def _zero_pivot_stack(rng, dim):
    """Dense Hermitian matrices beside ones whose pivots stay skipped while
    others rotate: a zero first pivot, a last row coupled by exact zeros,
    and one coupled by 1e-310, which stays below the skip threshold."""
    first = random_hermitian(rng, dim)
    first[0, 1] = first[1, 0] = 0.0
    zero_row = random_hermitian(rng, dim)
    zero_row[-1, :-1] = zero_row[:-1, -1] = 0.0
    tiny_row = random_hermitian(rng, dim)
    tiny_row[-1, :-1] = tiny_row[:-1, -1] = 1e-310
    return np.array([random_hermitian(rng, dim), first, zero_row, tiny_row, random_hermitian(rng, dim)])


class TestJacobiKernel:
    """``linalg._jacobi`` on mixed stacks against single-matrix calls and the
    LAPACK oracle."""

    @pytest.mark.parametrize("dim", _KERNEL_DIMS)
    def test_stack_matches_single_calls_bit_for_bit(self, rng, dim):
        stacks = [_kernel_stack(rng, dim)]
        if dim in (3, 4):
            # skipped and rotated pivots in one batch; at n = 4 the
            # eigenvalues-only pivot rotates the other two columns alone
            stacks.append(_zero_pivot_stack(rng, dim))
        for stack in stacks:
            w, v = linalg._jacobi(stack, vectors=True)
            for i, mat in enumerate(stack):
                wi, vi = linalg._jacobi(mat[None], vectors=True)
                assert w[i].tolist() == wi[0].tolist()
                assert v[i].tolist() == vi[0].tolist()
                assert linalg._jacobi(mat[None])[0][0].tolist() == wi[0].tolist()
            # the eigenvectors ride along and leave the eigenvalues alone
            eigenvalues, none = linalg._jacobi(stack)
            assert none is None
            assert eigenvalues.tolist() == w.tolist()

    @pytest.mark.parametrize("dim", _KERNEL_DIMS)
    def test_unitary_reconstructs_and_matches_oracle(self, rng, dim):
        stack = _kernel_stack(rng, dim)
        w, v = linalg._jacobi(stack, vectors=True)
        for mat, wi, vi in zip(stack, w, v):
            bound = 1e-12 * max(1.0, np.linalg.norm(mat))
            assert np.max(np.abs(vi.conj().T @ vi - np.eye(dim))) <= 1e-12
            assert np.max(np.abs((vi * wi) @ vi.conj().T - mat)) <= bound
            assert np.max(np.abs(np.sort(wi) - np.linalg.eigvalsh(mat))) <= bound

    @pytest.mark.parametrize("dim", [4, 5, 22])
    @pytest.mark.parametrize("layout", ["halves", "interleaved"])
    def test_direct_sum_keeps_eigenvectors_in_their_blocks(self, rng, dim, layout):
        # exact zeros across the blocks stay exact: every eigenvector lives
        # in one block, alone in the stack or between full neighbours
        first = np.arange(dim) < dim // 2 if layout == "halves" else np.arange(dim) % 2 == 0
        mat = random_hermitian(rng, dim)
        mat[np.outer(first, ~first) | np.outer(~first, first)] = 0.0
        neighbours = np.array([random_hermitian(rng, dim), mat, random_hermitian(rng, dim)])
        for stack, index in ((mat[None], 0), (neighbours, 1)):
            w, v = linalg._jacobi(stack, vectors=True)
            vi = v[index]
            in_first = np.all(vi[~first] == 0.0, axis=0)
            in_second = np.all(vi[first] == 0.0, axis=0)
            assert np.all(in_first ^ in_second)
            assert in_first.sum() == first.sum()
            np.testing.assert_allclose(np.sort(w[index]), np.linalg.eigvalsh(mat), atol=1e-12 * dim)

    @pytest.mark.parametrize("vectors", [False, True])
    def test_overflowing_norm_leaves_its_neighbours_alone(self, rng, vectors):
        # the matrix whose norm overflows runs scaled; the others keep the
        # bits of their single calls
        huge = 1e160 * random_hermitian(rng, 4)
        stack = np.array([random_hermitian(rng, 4), huge, random_hermitian(rng, 4)])
        w, v = linalg._jacobi(stack, vectors=vectors)
        for i, mat in enumerate(stack):
            wi, vi = linalg._jacobi(mat[None], vectors=vectors)
            assert w[i].tolist() == wi[0].tolist()
            if vectors:
                assert v[i].tolist() == vi[0].tolist()
        np.testing.assert_allclose(np.sort(w[1]), np.linalg.eigvalsh(huge), rtol=0.0,
                                   atol=1e-13 * np.abs(huge).max())

    @pytest.mark.parametrize("vectors", [False, True])
    def test_reads_only_the_upper_triangle(self, rng, vectors):
        stack = _kernel_stack(rng, 5)
        scrambled = stack.copy()
        lower = np.tril(np.ones((5, 5), dtype=bool), -1)
        scrambled[:, lower] = rng.normal(size=scrambled[:, lower].shape)
        expected = linalg._jacobi(stack, vectors=vectors)
        got = linalg._jacobi(scrambled, vectors=vectors)
        assert got[0].tolist() == expected[0].tolist()
        if vectors:
            assert got[1].tolist() == expected[1].tolist()

    @pytest.mark.parametrize("vectors", [False, True])
    def test_leaves_its_input_alone(self, rng, vectors):
        stack = _kernel_stack(rng, 5)
        before = stack.copy()
        linalg._jacobi(stack, vectors=vectors)
        linalg._jacobi(stack[2][None], vectors=vectors)
        np.testing.assert_array_equal(stack, before)

    @pytest.mark.parametrize("vectors", [False, True])
    @pytest.mark.parametrize("dim", range(2, 7))
    def test_no_convergence_names_batch_index(self, rng, dim, vectors, monkeypatch):
        # the diagonal and the zero matrix leave before the only sweep, so
        # the random matrix at index 2 is the first one still in the batch
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
        with pytest.raises(NoConvergence, match=r"batch index 2 \("):
            linalg._jacobi(_kernel_stack(rng, dim), vectors=vectors)


def _refined_eigvalsh(stack):
    """Ascending eigenvalues of a Hermitian (B, n, n) stack and the bound,
    relative to max|lambda|, that the kernel's must keep to them: Rayleigh
    quotients, in extended precision, of LAPACK's eigenvectors, which agree
    with a 40-digit eigensolve to rounding, within 1e-15.  Where a long
    double is no wider than a double, eigvalsh itself, off by up to
    1.6e-15 max|lambda| on random 4 x 4 matrices, within 3e-15."""
    if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
        return np.linalg.eigvalsh(stack), 3e-15
    v = np.linalg.eigh(stack)[1].astype(np.clongdouble)
    quotients = np.einsum("bij,bik,bkj->bj", v.conj(), stack.astype(np.clongdouble), v).real
    return (quotients / np.einsum("bij,bij->bj", v.conj(), v).real).astype(np.float64), 1e-15


class TestPairedRounds:
    """The n = 4 sweep, three rounds of two disjoint pivots, on its edge
    cases, against eigenvalues good to the last bit."""

    @staticmethod
    def _assert_eigenpairs(stack, w, v):
        for mat, wi, vi in zip(stack, w, v):
            scale = np.abs(wi).max()
            assert np.max(np.abs(vi.conj().T @ vi - np.eye(4))) <= 1e-14
            assert np.max(np.abs((vi * wi) @ vi.conj().T - mat)) <= 1e-14 * scale
        reference, bound = _refined_eigvalsh(stack)
        assert np.all(np.abs(np.sort(w, axis=1) - reference).max(axis=1)
                      <= bound * np.abs(reference).max(axis=1))

    def test_round_with_one_zero_pivot(self, rng, monkeypatch):
        # round 0 rotates x01 and x23 together; with one of them exactly zero
        # the skip guard runs on a round that also rotates, beside dense matrices
        first, second = random_hermitian(rng, 4), random_hermitian(rng, 4)
        first[0, 1] = first[1, 0] = 0.0
        second[2, 3] = second[3, 2] = 0.0
        stack = np.array([random_hermitian(rng, 4), first, second, random_hermitian(rng, 4)])
        mixed = []
        rotation = linalg._rotation

        def recorded(apq, app, aqq):
            skipped = np.abs(apq) <= linalg._PIVOT_SKIP
            mixed.append(bool(skipped.any() and not skipped.all()))
            return rotation(apq, app, aqq)

        monkeypatch.setattr(linalg, "_rotation", recorded)
        w, v = linalg._jacobi(stack, vectors=True)
        assert mixed[0]
        for i, mat in enumerate(stack):
            wi, vi = linalg._jacobi(mat[None], vectors=True)
            assert w[i].tolist() == wi[0].tolist()
            assert v[i].tolist() == vi[0].tolist()
        self._assert_eigenpairs(stack, w, v)

    @pytest.mark.parametrize("spectrum", [[1.0, 1.0, -2.0, 0.5], [1.0, 1.0, -2.0, -2.0], [3.0] * 4],
                             ids=["two-fold", "two two-fold", "four-fold"])
    def test_degenerate_spectra(self, rng, spectrum):
        stack = []
        for _ in range(8):
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            stack.append((q * spectrum) @ q.conj().T)
        stack = np.array(stack)
        self._assert_eigenpairs(stack, *linalg._jacobi(stack, vectors=True))

    def test_rank_two_differences_of_pure_states(self, rng):
        # |psi><psi| - |phi><phi| has eigenvalues +-sqrt(1 - |<psi|phi>|^2), 0, 0
        vecs = rng.normal(size=(2, 40, 4)) + 1j * rng.normal(size=(2, 40, 4))
        psi, phi = vecs / np.linalg.norm(vecs, axis=2, keepdims=True)
        stack = np.einsum("bi,bj->bij", psi, psi.conj()) - np.einsum("bi,bj->bij", phi, phi.conj())
        w, v = linalg._jacobi(stack, vectors=True)
        self._assert_eigenpairs(stack, w, v)
        gap = np.sqrt(1.0 - np.abs(np.einsum("bi,bi->b", psi.conj(), phi)) ** 2)
        np.testing.assert_allclose(np.sort(w, axis=1), np.stack([-gap, 0 * gap, 0 * gap, gap], axis=1),
                                   rtol=0.0, atol=1e-15)

    def test_seeded_stacks_match_refined_lapack(self):
        # 2,000 matrices: random Hermitian ones and differences of states
        rng = np.random.default_rng(31)
        for draw in (lambda: random_hermitian(rng, 4), lambda: random_density(rng, 4) - random_density(rng, 4)):
            stack = np.array([draw() for _ in range(1000)])
            w = np.sort(linalg._jacobi(stack)[0], axis=1)
            reference, bound = _refined_eigvalsh(stack)
            assert np.all(np.abs(w - reference).max(axis=1) <= bound * np.abs(reference).max(axis=1))


def _rho(v):
    return v @ v.conj().T


class TestFactorFidelity:
    """The 2 x 2 Uhlmann overlap against the generic eigenvalue route."""

    @pytest.mark.parametrize("spec", [JCMPhoton(), JCMPhoton(alpha_c=1, n_max=31)],
                             ids=["vacuum", "coherent"])
    @pytest.mark.parametrize("t, t2", [(0.0, 1.0), (1.0, 2.0), (2.5, 3.5)])
    def test_matches_generic_route(self, spec, t, t2):
        v1, v2 = spec.factor(t), spec.factor(t2)
        assert factor_fidelity(v1, v2) == pytest.approx(fidelity(_rho(v1), _rho(v2)), abs=1e-12)

    def test_stack_matches_pairs(self):
        # each pair of a stack gets the bits it gets alone
        spec = JCMPhoton(alpha_c=0.6 + 0.8j)
        ts = np.arange(0.0, 10.0, 0.05)
        v1, v2 = spec.factor(ts), spec.factor(ts + 0.37)
        values = factor_fidelity(v1, v2)
        assert values.shape == ts.shape
        np.testing.assert_array_equal(values, [factor_fidelity(a, b) for a, b in zip(v1, v2)])

    def test_ignores_the_choice_of_factor(self, rng):
        # V U gives the same state for any 2 x 2 unitary U
        v1, v2 = JCMPhoton(alpha_c=1, n_max=31).factor(1.0), JCMPhoton(alpha_c=1j, n_max=31).factor(0.4)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        assert factor_fidelity(v1 @ q, v2) == pytest.approx(factor_fidelity(v1, v2), abs=1e-14)

    def test_pure_states(self, rng):
        # a factor [psi, 0] is the pure state psi, so F = |<psi1|psi2>|^2
        vecs = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        v1, v2 = (np.stack([vec, np.zeros(5)], axis=1) for vec in vecs)
        assert factor_fidelity(v1, v2) == pytest.approx(abs(np.vdot(*vecs)) ** 2, abs=1e-15)

    def test_clamps_rounding_overshoot(self):
        v = JCMPhoton(alpha_c=1, n_max=31).factor(1.0) * (1.0 + 1e-11) ** 0.25
        assert factor_fidelity(v, v) == 1.0

    def test_rejects_overshoot(self):
        # F(V, V) = (Tr V V^dagger)^2, so this scaling gives F = 1 + 1e-6
        v = JCMPhoton(alpha_c=1, n_max=31).factor(1.0) * (1.0 + 1e-6) ** 0.25
        with pytest.raises(FidelityOvershoot):
            factor_fidelity(v, v)

    @pytest.mark.parametrize("slot", [0, 1])
    def test_rejects_nan(self, slot):
        factors = [JCMPhoton().factor(1.0), JCMPhoton().factor(2.0)]
        factors[slot][3, 1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonHermitian, match="non-finite"):
                factor_fidelity(*factors)

    @pytest.mark.parametrize("shape1, shape2", [
        ((22, 3), (22, 3)), ((22, 2), (21, 2)), ((22, 2), (22, 3)), ((22,), (22,)),
    ])
    def test_rejects_bad_shapes(self, shape1, shape2):
        with pytest.raises(DimensionMismatch):
            factor_fidelity(np.ones(shape1), np.ones(shape2))

    # at 1e100 the products that form det M overflow, at 1e160 M itself
    @pytest.mark.parametrize("scale", [1e100, 1e160])
    def test_overflow_is_an_overshoot(self, scale):
        # F >= max|M_ij|^2, so an overflow on the way means F > 1
        v = scale * np.ones((3, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FidelityOvershoot, match="fidelity inf exceeds 1"):
                factor_fidelity(v, v)


def _pure(vec):
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


def _random_pures(rng, count):
    return np.array([_pure(rng.normal(size=2) + 1j * rng.normal(size=2)) for _ in range(count)])


def _no_warning(error, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()


def _outcome(call, *args):
    """The bytes of what ``call`` returns, or the error it raises, a warning
    included."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(*args).tobytes()
        except (NumericalError, RuntimeWarning) as error:
            return repr(error)


def _bad_qubit_pairs():
    good = np.diag([0.6, 0.4]).astype(complex)
    pairs = {}
    for name, value in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)):
        bad = good.copy()
        bad[0, 1] = value
        pairs[f"{name}-rho1"] = (NonHermitian, bad, good)
        pairs[f"{name}-rho2"] = (NonHermitian, good, bad)
    negative = np.diag([1.5, -0.5]).astype(complex)
    # F(rho, rho) = (Tr rho)^2, so this scaling gives F = 1 + 1e-6
    over = good * (1.0 + 1e-6) ** 0.5
    pairs.update({
        "non-hermitian-rho1": (NonHermitian, np.array([[0.5, 0.1], [0.2, 0.5]], dtype=complex), good),
        "negative-rho1": (NotPSD, negative, good),
        "negative-rho2": (NotPSD, good, negative),
        "overshoot": (FidelityOvershoot, over, over),
    })
    return pairs


_BAD_QUBIT_PAIRS = _bad_qubit_pairs()


class TestFidelities:
    """The qubit closed form against the two-Jacobi route and the LAPACK
    oracle; larger stacks against the scalar function."""

    def test_matches_jacobi_and_oracle(self, rng):
        a = np.array([random_density(rng, 2) for _ in range(200)])
        b = np.array([random_density(rng, 2) for _ in range(200)])
        batched = fidelities(a, b)
        for x, y, value in zip(a, b, batched):
            assert value == pytest.approx(fidelity(x, y), abs=1e-12)
            assert value == pytest.approx(linalg._fidelity_jacobi(x[None], y[None])[0], abs=1e-12)
            assert value == pytest.approx(oracle_fidelity(x, y), abs=1e-12)

    def test_pure_states(self, rng):
        pures, others = _random_pures(rng, 50), _random_pures(rng, 50)
        mixed = np.array([random_density(rng, 2) for _ in range(50)])
        overlaps = np.einsum("bij,bji->b", pures, others).real
        expectations = np.einsum("bij,bji->b", pures, mixed).real
        np.testing.assert_allclose(fidelities(pures, others), overlaps, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(fidelities(pures, mixed), expectations, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(fidelities(mixed, pures), expectations, rtol=0.0, atol=1e-14)

    def test_overflowing_closed_form_takes_the_kernel_route(self):
        # finite entries whose T, D or l+ is not finite: D is inf for the
        # first pair, inf * 0 for the second; only those pairs leave the
        # closed form, with no warning, and the first is refused as at d = 3
        big, tiny = np.diag([1e160, 1e160]), np.diag([1e-170, 1e-170])
        good = np.diag([0.6, 0.4])
        errors = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for dim in (2, 3):
                with pytest.raises(FidelityOvershoot, match=r"fidelity 2e\+160 exceeds 1") as caught:
                    fidelities(np.pad(big, (0, dim - 2))[None], np.pad(np.eye(2) / 2, (0, dim - 2))[None])
                errors.append(str(caught.value))
            values = fidelities(np.array([big, good]), np.array([tiny, good]))
        assert errors[0] == errors[1]
        assert values[0] == pytest.approx(4e-10, rel=1e-12)
        assert values[1:].tobytes() == fidelities(good[None], good[None]).tobytes()

    @pytest.mark.parametrize("dim, scale", [(2, 1e300), (3, 1e300), (4, 1e160)])
    def test_overflowing_inner_matrix_is_an_overshoot(self, dim, scale):
        # M = sqrt(rho1) rho2 sqrt(rho1) of s I and s I is s^2 I, past the
        # largest double; at d = 2 these pairs leave the closed form too
        big = scale * np.eye(dim)[None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FidelityOvershoot, match=r"sqrt\(rho1\) rho2 sqrt\(rho1\) overflows"):
                fidelities(big, big)

    def test_maximally_mixed(self, rng):
        half = np.broadcast_to(np.eye(2, dtype=complex) / 2, (20, 2, 2))
        rho = np.array([random_density(rng, 2) for _ in range(20)])
        # F(I/2, rho) = (sqrt(p1) + sqrt(p2))^2 / 2 over rho's eigenvalues
        expected = (np.sqrt(np.clip(np.linalg.eigvalsh(rho), 0.0, None)).sum(axis=1)) ** 2 / 2
        np.testing.assert_allclose(fidelities(half, rho), expected, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(fidelities(rho, half), expected, rtol=0.0, atol=1e-14)
        assert fidelities(half[:1], half[:1]).tolist() == [1.0]

    def test_identical_states(self, rng):
        exact = np.array([
            np.diag([0.75, 0.25]), np.diag([1.0, 0.0]), np.full((2, 2), 0.5),
            [[0.5, 0.5j], [-0.5j, 0.5]], [[0.625, 0.25 + 0.125j], [0.25 - 0.125j, 0.375]],
        ], dtype=complex)
        assert fidelities(exact, exact).tolist() == [1.0] * len(exact)
        rho = np.array([random_density(rng, 2) for _ in range(50)])
        values = fidelities(rho, rho)
        assert np.all(values <= 1.0) and np.all(values >= 1.0 - 1e-15)

    def test_orthogonal_pure_states(self, rng):
        pures = _random_pures(rng, 50)
        complements = np.eye(2) - pures
        assert fidelities(pures, complements).tolist() == [0.0] * 50
        assert fidelities(complements, pures).tolist() == [0.0] * 50

    def test_mixed_batch(self, rng):
        pure, mixed = _random_pures(rng, 1)[0], random_density(rng, 2)
        half = np.eye(2, dtype=complex) / 2
        pairs = [(pure, mixed), (mixed, pure), (half, mixed), (mixed, mixed),
                 (pure, np.eye(2) - pure), (pure, pure), (half, half)]
        a, b = (np.array(side) for side in zip(*pairs))
        one_by_one = [fidelities(x[None], y[None])[0] for x, y in pairs]
        assert fidelities(a, b).tolist() == one_by_one

    def test_clamps_eigenvalues_of_rho1_in_window(self, rng):
        # rho1 = U diag(1 + 5e-11, -5e-11) U^dagger is clamped to its
        # positive part, as psd_sqrt does
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        rho1 = (q * [1.0 + 5e-11, -5e-11]) @ q.conj().T
        rho2 = random_density(rng, 2)
        jacobi = linalg._fidelity_jacobi(rho1[None], rho2[None])[0]
        assert fidelity(rho1, rho2) == pytest.approx(jacobi, abs=1e-14)

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_larger_stacks_match_scalar_bit_for_bit(self, rng, dim):
        a = np.array([random_density(rng, dim) for _ in range(6)])
        b = np.array([random_density(rng, dim) for _ in range(6)])
        assert fidelities(a, b).tolist() == [fidelity(x, y) for x, y in zip(a, b)]

    @pytest.mark.parametrize("case", _BAD_QUBIT_PAIRS)
    @pytest.mark.parametrize("dim", [2, 3], ids=["closed-form", "jacobi"])
    def test_error_parity(self, case, dim):
        # the d = 3 embedding (a zero last row and column) takes the
        # two-Jacobi route and must raise the same error
        error, rho1, rho2 = _BAD_QUBIT_PAIRS[case]
        a, b = (np.pad(m, (0, dim - 2))[None] for m in (rho1, rho2))
        _no_warning(error, lambda: fidelities(a, b))
        _no_warning(error, lambda: fidelity(a[0], b[0]))

    def test_clamps_rounding_overshoot(self):
        rho = np.diag([0.6, 0.4]).astype(complex) * (1.0 + 1e-11) ** 0.5
        assert fidelities(rho[None], rho[None]).tolist() == [1.0]

    @pytest.mark.parametrize("shape1, shape2", [
        ((2, 2, 2), (3, 2, 2)), ((2, 2, 2), (2, 3, 3)), ((2, 2), (2, 2)), ((1, 2, 3), (1, 2, 3)),
    ])
    def test_rejects_bad_shapes(self, shape1, shape2):
        _no_warning(DimensionMismatch, lambda: fidelities(np.ones(shape1), np.ones(shape2)))


def _lapack_uses(tree):
    """Lines that reach numpy.linalg beyond norm, or import scipy."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr != "norm"
              and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
            names = [f"numpy.linalg.{node.attr}"]
        else:
            continue
        if any(n.startswith(("numpy.linalg", "scipy")) for n in names):
            found.append(node.lineno)
    return found


class TestEmptyMatrices:
    """0x0 operands: the empty matrix has trace norm 0, and no square root
    or fidelity, which are refused by name rather than by a numpy error."""

    EMPTY = np.zeros((0, 0), dtype=complex)

    def test_trace_norms_are_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = trace_norms(np.zeros((3, 0, 0)))
        assert norms.shape == (3,) and not norms.any()

    def test_trace_distance_is_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert trace_distance(self.EMPTY, self.EMPTY) == 0.0

    # the single-matrix calls name the stack of one they take the root of
    @pytest.mark.parametrize("call, shape", [
        (lambda empty: psd_sqrt(empty), "(1, 0, 0)"),
        (lambda empty: fidelity(empty, empty), "(1, 0, 0)"),
        (lambda empty: fidelities(np.stack([empty] * 2), np.stack([empty] * 2)), "(2, 0, 0)"),
        (lambda empty: fidelities(np.zeros((0, 0, 0)), np.zeros((0, 0, 0))), "(0, 0, 0)"),
    ], ids=["psd_sqrt", "fidelity", "fidelities", "fidelities-no-pairs"])
    def test_square_roots_and_fidelities_are_refused(self, call, shape):
        message = f"0x0 matrices have no square root, got stack shape {shape}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
                call(self.EMPTY)


# from the subnormal range to just below the largest double
_CONTRACT_SCALES = [1e-320, 1e-310, 1e-300, 1e-200, 1e-160, 1e-100, 1e-10, 1.0,
                    1e10, 1e100, 1e160, 1e200, 1e300, 1e307]


def _contract_calls(rng, dim, scale):
    """The public numeric entry points on seeded inputs scaled by ``scale``."""
    herm = scale * np.array([random_hermitian(rng, dim) for _ in range(3)])
    rho, sigma = (scale * np.array([random_density(rng, dim) for _ in range(3)]) for _ in range(2))
    v1, v2 = scale * (rng.normal(size=(2, dim, 2)) + 1j * rng.normal(size=(2, dim, 2)))
    unitary = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    state = random_density(rng, dim)
    return {
        "trace_norms": lambda: trace_norms(herm),
        "trace_distance": lambda: trace_distance(rho[0], sigma[0]),
        "fidelity": lambda: fidelity(rho[0], sigma[0]),
        "fidelities": lambda: fidelities(rho, sigma),
        "factor_fidelity": lambda: factor_fidelity(v1, v2),
        "psd_sqrt": lambda: psd_sqrt(rho[0]),
        "hermitian_eig": lambda: dataclasses.astuple(hermitian_eig(herm[0])),
        "validate_density": lambda: validate_density(rho[0]),
        "validate_densities": lambda: validate_densities(rho),
        "apply, scaled channel": lambda: apply(KrausChannel([scale * unitary]), state),
        "apply, scaled state": lambda: apply(KrausChannel([unitary]), rho[0]),
    }


class TestFiniteInputContract:
    """Each public numeric entry point, on finite inputs at any scale, gives
    a finite value or a KrausWitnessError: no warning and no inf or NaN."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_a_finite_value_or_a_named_error(self, dim):
        rng = np.random.default_rng(2310 + dim)
        broken = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in _CONTRACT_SCALES:
                for name, call in _contract_calls(rng, dim, scale).items():
                    try:
                        values = call()
                    except KrausWitnessError:
                        continue
                    except Warning as warning:
                        broken.append(f"{name} at {scale:g}: {warning}")
                        continue
                    if not all(np.isfinite(x).all() for x in (values if isinstance(values, tuple) else [values])):
                        broken.append(f"{name} at {scale:g}: {values}")
        assert not broken


class TestLapackFree:
    """numpy.linalg is the tests' independent oracle, so the package itself
    takes nothing from it but norms and imports no scipy."""

    def test_package_modules(self):
        root = Path(kraus_witness.__file__).parent
        offenders = {
            path.name: lines
            for path in sorted(root.rglob("*.py"))
            if (lines := _lapack_uses(ast.parse(path.read_text(encoding="utf-8"))))
        }
        assert not offenders

    @pytest.mark.parametrize("source", [
        "np.linalg.eigh(a)",
        "numpy.linalg.svd(a)",
        "from numpy.linalg import eigvalsh",
        "from numpy import linalg",
        "import numpy.linalg",
        "import scipy.linalg",
        "from scipy import linalg",
    ])
    def test_detector_flags(self, source):
        assert _lapack_uses(ast.parse(source)) == [1]

    def test_detector_allows_norm_and_relative_imports(self):
        source = "import numpy as np\nfrom .linalg import fidelity\nnp.linalg.norm(a)"
        assert _lapack_uses(ast.parse(source)) == []
