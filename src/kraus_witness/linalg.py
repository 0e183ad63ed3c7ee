"""Dense Hermitian linear algebra for density matrices.

Everything here works on complex128 arrays and is deliberately self-contained:
the eigensolver is a cyclic Jacobi iteration rather than a LAPACK call, so the
fidelity and trace-distance results can be cross-checked against an external
library in the test suite without sharing a code path with it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    FidelityOvershoot,
    NoConvergence,
    NonHermitian,
    NotHermitian,
    NotPSD,
    TraceNotOne,
)

# Absolute floor below which an off-diagonal pivot is not worth rotating.
_PIVOT_SKIP = 1e-300

_MAX_SWEEPS = 100
_OFFDIAG_TARGET = 1e-14

# largest max|M - M^dagger| hermitian_eig accepts
_HERMITIAN_TOL = 1e-10
# psd_sqrt clamps eigenvalues in [-_PSD_CLAMP, 0) to zero and rejects lower ones
_PSD_CLAMP = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    ``eigenvectors[:, k]`` is the unit eigenvector for ``eigenvalues[k]``;
    the matrix reconstructs as ``V diag(w) V^dagger``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_square(mat: np.ndarray) -> np.ndarray:
    arr = np.asarray(mat, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _offdiag_norm(a: np.ndarray) -> float:
    # summed entrywise rather than as total - diagonal, which cancels badly
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _jacobi(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization of a Hermitian matrix.

    Sweeps all upper-triangle pivots in row order, each time applying a
    complex plane rotation that zeroes the pivot and accumulating the
    rotations into the eigenvector matrix.  Converged when the
    off-diagonal Frobenius mass falls below 1e-14 (scaled by the matrix norm
    for inputs larger than unit size).
    """
    a = mat.copy()
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    scale = max(1.0, float(np.linalg.norm(a)))
    target = _OFFDIAG_TARGET * scale
    for _ in range(_MAX_SWEEPS):
        if _offdiag_norm(a) <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r > _PIVOT_SKIP:
                    phase = apq / r
                    tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
                    t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))
                    c = 1.0 / math.hypot(1.0, t)
                    s = t * c
                    sp, spc = s * phase, s * np.conj(phase)
                    # each pair of right-hand sides is evaluated before either
                    # slice is written, so the old rows and columns need no copies
                    a[p], a[q] = c * a[p] - sp * a[q], spc * a[p] + c * a[q]
                    a[:, p], a[:, q] = c * a[:, p] - spc * a[:, q], sp * a[:, p] + c * a[:, q]
                    a[p, p] = a[p, p].real
                    a[q, q] = a[q, q].real
                    v[:, p], v[:, q] = c * v[:, p] - spc * v[:, q], sp * v[:, p] + c * v[:, q]
                # a rotation annihilates the pivot exactly and a skipped pivot is
                # negligible; either way drop the residue
                a[p, q] = a[q, p] = 0.0
    else:
        raise NoConvergence(
            f"Jacobi sweeps exhausted with off-diagonal mass {_offdiag_norm(a):.3e}"
        )
    return np.diag(a).real.copy(), v


def hermitian_eig(mat: np.ndarray) -> Spectrum:
    """Diagonalize a Hermitian matrix.

    Raises NonHermitian if max|M - M^dagger| exceeds 1e-10; the iteration
    then runs on the Hermitized average (M + M^dagger)/2.
    """
    arr = _as_square(mat)
    defect = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
    if not defect <= _HERMITIAN_TOL:
        raise NonHermitian(f"Hermiticity defect {defect:.3e} exceeds {_HERMITIAN_TOL:.1e}")
    sym = 0.5 * (arr + arr.conj().T)
    w, v = _jacobi(sym)
    order = np.argsort(w, kind="stable")
    return Spectrum(eigenvalues=w[order], eigenvectors=v[:, order])


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix.

    Eigenvalues in [-1e-10, 0) are treated as rounding images of zero and
    clamped; anything below -1e-10 raises NotPSD.
    """
    spec = hermitian_eig(mat)
    w = spec.eigenvalues
    if w[0] < -_PSD_CLAMP:
        raise NotPSD(f"eigenvalue {w[0]:.3e} below the -{_PSD_CLAMP:.1e} clamping window")
    w = np.clip(w, 0.0, None)
    v = spec.eigenvectors
    root = (v * np.sqrt(w)) @ v.conj().T
    return 0.5 * (root + root.conj().T)


def fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Uhlmann-Jozsa fidelity of two density matrices.

    Computed as (Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2.  Values in
    (1, 1 + 1e-9] are clamped to 1; a larger overshoot raises
    FidelityOvershoot.
    """
    a = _as_square(rho1)
    b = _as_square(rho2)
    if a.shape != b.shape:
        raise DimensionMismatch(f"state shapes differ: {a.shape} vs {b.shape}")
    root = psd_sqrt(a)
    inner = root @ b @ root
    inner = 0.5 * (inner + inner.conj().T)
    w = hermitian_eig(inner).eigenvalues
    if w[0] < -1e-10:
        raise NotPSD(f"inner product matrix has eigenvalue {w[0]:.3e}")
    # eigenvalues this far below the leading one are rounding images of exact
    # zeros; taking their square roots would inject ~1e-7 noise into the trace
    floor = 1e-13 * max(1.0, float(w[-1]))
    w = np.where(w < floor, 0.0, w)
    value = float(np.sum(np.sqrt(w)) ** 2)
    if value > 1.0:
        if value <= 1.0 + 1e-9:
            return 1.0
        raise FidelityOvershoot(f"fidelity {value!r} exceeds 1 beyond the 1e-9 window")
    return value


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Trace distance (1/2)||rho1 - rho2||_1 for Hermitian operands."""
    a = _as_square(rho1)
    b = _as_square(rho2)
    if a.shape != b.shape:
        raise DimensionMismatch(f"state shapes differ: {a.shape} vs {b.shape}")
    diff = a - b
    diff = 0.5 * (diff + diff.conj().T)
    w = hermitian_eig(diff).eigenvalues
    return 0.5 * float(np.sum(np.abs(w)))


def validate_density(mat: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Check that ``mat`` is a density matrix and return a Hermitized copy.

    With the default tolerance the checks are: Hermiticity defect at most
    1e-12, real trace within 1e-10 of 1 with imaginary part at most 1e-12,
    and eigenvalues at least -1e-10.  Passing a different ``tol`` rescales
    all three windows together.
    """
    arr = _as_square(mat)
    tight = tol * 1e-2
    herm_defect = float(np.max(np.abs(arr - arr.conj().T)))
    if not herm_defect <= tight:
        raise NotHermitian(f"Hermiticity defect {herm_defect:.3e} exceeds {tight:.1e}")
    tr = complex(np.trace(arr))
    if abs(tr.real - 1.0) > tol:
        raise TraceNotOne(f"trace real part {tr.real!r} differs from 1 by {abs(tr.real - 1.0):.3e}")
    if abs(tr.imag) > tight:
        raise TraceNotOne(f"trace imaginary part {tr.imag:.3e} exceeds {tight:.1e}")
    sym = 0.5 * (arr + arr.conj().T)
    w = hermitian_eig(sym).eigenvalues
    if w[0] < -tol:
        raise NotPSD(f"eigenvalue {w[0]:.3e} below -{tol:.1e}")
    return sym
