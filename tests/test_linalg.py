"""Linear algebra core: eigensolver, square root, fidelity, trace distance."""
from __future__ import annotations

import numpy as np
import pytest

from kraus_witness import (
    DimensionMismatch,
    NonHermitian,
    NotHermitian,
    NotPSD,
    TraceNotOne,
    YEMarkov,
    fidelity,
    hermitian_eig,
    psd_sqrt,
    trace_distance,
    validate_density,
)

from conftest import oracle_fidelity, random_density, random_hermitian


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
