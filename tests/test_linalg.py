"""Linear algebra core: eigensolver, square root, fidelity, trace distance."""
from __future__ import annotations

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import kraus_witness
from kraus_witness import (
    DimensionMismatch,
    FidelityOvershoot,
    JCMPhoton,
    NoConvergence,
    NonHermitian,
    NotHermitian,
    NotPSD,
    NumericalError,
    TraceNotOne,
    YEMarkov,
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
from kraus_witness import linalg

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

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="state shapes differ"):
            trace_distance(np.eye(2, dtype=complex) / 2, np.eye(3, dtype=complex) / 3)


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


class TestTraceNorms:
    """The batched route against numpy's LAPACK eigvalsh as the oracle."""

    @staticmethod
    def _oracle(stack):
        return np.abs(np.linalg.eigvalsh(stack)).sum(axis=1)

    @pytest.mark.parametrize("dim", range(3, 9))
    def test_matches_external_solver(self, rng, dim):
        stack = np.array([random_hermitian(rng, dim) for _ in range(12)])
        scale = np.linalg.norm(stack, axis=(1, 2))
        assert np.all(np.abs(trace_norms(stack) - self._oracle(stack)) <= 1e-12 * scale)

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

    def test_rejects_non_hermitian(self):
        stack = np.zeros((2, 3, 3), dtype=complex)
        stack[1, 0, 2] = 1e-9
        with pytest.raises(NonHermitian):
            trace_norms(stack)

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2, 3), (1, 1, 2, 2)])
    def test_rejects_bad_shape(self, shape):
        with pytest.raises(DimensionMismatch):
            trace_norms(np.zeros(shape, dtype=complex))


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


class TestJacobiKernel:
    """``linalg._jacobi`` on mixed stacks against single-matrix calls and the
    LAPACK oracle."""

    @pytest.mark.parametrize("dim", _KERNEL_DIMS)
    def test_stack_matches_single_calls_bit_for_bit(self, rng, dim):
        stack = _kernel_stack(rng, dim)
        w, v = linalg._jacobi(stack, vectors=True)
        for i, mat in enumerate(stack):
            wi, vi = linalg._jacobi(mat[None], vectors=True)
            assert w[i].tolist() == wi[0].tolist()
            assert v[i].tolist() == vi[0].tolist()
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
