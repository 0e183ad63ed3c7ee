"""Dense Hermitian linear algebra for density matrices.

Everything here works on complex128 arrays and is deliberately self-contained:
the eigensolver is a cyclic Jacobi iteration rather than a LAPACK call, so the
fidelity and trace-distance results can be cross-checked against an external
library in the test suite without sharing a code path with it.  There is one
Jacobi kernel, ``_jacobi``, and it works on (B, n, n) stacks: the stack
functions (``fidelities``, ``trace_norms``, ``validate_densities``) make one
or two calls for a whole stack, and the single-matrix ones pass a stack of
one.  The kernel holds its copy of the stack entry-major, as an (n, n, B)
array, so that each matrix entry across the batch is one contiguous vector;
for eigenvectors it is (n, 2n, B), the identity beside the matrix.  Every
caller hands it an exactly Hermitian stack (the ``_hermitized`` average, or
(M + M^dagger)/2), so it reads only the upper triangle and rotates only
rows, which turns that identity into V^dagger: the two matrix columns a
pivot touches are written as the conjugates of its two new rows.
"""
from __future__ import annotations

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


def _jacobi(stack: np.ndarray, vectors: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Cyclic Jacobi diagonalization of each Hermitian matrix in a (B, n, n)
    stack: the (B, n) eigenvalues, unordered, and with ``vectors`` the
    (B, n, n) eigenvector matrices, else None.

    Reads only the upper triangle of each matrix, diagonal included, and
    takes the lower one as its conjugate, so the input must be Hermitian.
    The stack is copied once into an entry-major (n, n, B) array, (n, 2n, B)
    with ``vectors``, the identity as n more columns; the input is never
    written.  Sweeps all upper-triangle pivots in row order, each time
    applying to the whole stack the complex plane rotation R that zeroes
    that pivot.  Only rows p and q are rotated, by R^dagger, which turns
    the extra columns into V^dagger.  Columns p and q of the matrix become
    the conjugates of the new rows, its diagonal entries a_pp - t|a_pq| and
    a_qq + t|a_pq|, and the pivot and its mirror zero.  A matrix leaves the
    batch as soon as its own off-diagonal Frobenius mass, sqrt(2) times
    that of its upper triangle, is at most 1e-14 (scaled by its norm when
    that exceeds 1), so its result does not depend on the rest of the
    stack.  A pivot at or below 1e-300 gets the identity rotation (c = 1,
    s = 0) instead of a division.
    """
    arr = np.asarray(stack, dtype=np.complex128)
    b, n = arr.shape[0], arr.shape[1]
    # a new array holding the upper triangle and its conjugate mirror
    arr = np.where(np.triu(np.ones((n, n), dtype=bool)), arr, arr.conj().swapaxes(1, 2))
    target = _OFFDIAG_TARGET * np.maximum(1.0, np.linalg.norm(arr, axis=(1, 2)))
    # entry-major: a[i, j] is entry (i, j) of every matrix, one contiguous
    # vector
    a = np.zeros((n, 2 * n if vectors else n, b), dtype=np.complex128)
    a[:, :n] = arr.transpose(1, 2, 0)
    diagonal = np.arange(n)
    if vectors:
        # rotating the rows of [A | I] by R^dagger turns I into V^dagger
        a[diagonal, n + diagonal] = 1.0
    upper = np.triu_indices(n, 1)
    active = np.arange(b)
    work = a
    for _ in range(_MAX_SWEEPS):
        # summed entrywise rather than as total - diagonal, which cancels
        # badly; each matrix's entries lie in one contiguous row, so they are
        # summed in the same order whatever the rest of the batch
        mass = np.sqrt(2.0) * np.linalg.norm(np.ascontiguousarray(work[upper].T), axis=1)
        done = mass <= target[active]
        if done.any():
            # converged matrices go back to the stack and leave the batch
            a[:, :, active[done]] = work[:, :, done]
            active, work = active[~done], work[:, :, ~done]
        if not active.size:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                r = np.abs(apq)
                rotate = r > _PIVOT_SKIP
                r = np.where(rotate, r, 1.0)
                app, aqq = work[p, p].real, work[q, q].real
                tau = (aqq - app) / (2.0 * r)
                t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
                t = np.where(rotate, t, 0.0)
                shift = t * r
                new_pp, new_qq = app - shift, aqq + shift
                c = 1.0 / np.hypot(1.0, t)
                # s e^(i arg a_pq), s = t c
                sp = apq * (t * c / r)
                # c as complex gives the same products without a cast per row
                c = c.astype(np.complex128)
                row_p, row_q = work[p], work[q]
                new_p = c * row_p
                new_p -= sp * row_q
                new_q = sp.conj() * row_p
                new_q += c * row_q
                work[p], work[q] = new_p, new_q
                # the rotated matrix is Hermitian: its columns p and q are
                # the conjugates of the new rows, with no rotation of their own
                np.conjugate(new_p[:n], out=work[:, p])
                np.conjugate(new_q[:n], out=work[:, q])
                work[p, p], work[q, q] = new_pp, new_qq
                # the rotation annihilates the pivot exactly and a skipped
                # pivot is negligible; either way drop the residue
                work[p, q] = work[q, p] = 0.0
    else:
        raise NoConvergence(
            f"Jacobi sweeps exhausted for batch index {int(active[0])} "
            f"({active.size} of {b} matrices unconverged)"
        )
    eigenvalues = a[diagonal, diagonal].real.T.copy()
    return eigenvalues, (np.conjugate(a[:, n:].transpose(2, 1, 0), order="C") if vectors else None)


def _require_finite(arr: np.ndarray, error: type[NonHermitian]) -> None:
    if not np.isfinite(arr).all():
        raise error("matrix has non-finite entries")


def _hermitized(arr: np.ndarray, tol: float, error: type[NonHermitian]) -> np.ndarray:
    """(M + M^dagger)/2 over the last two axes, raising ``error`` when an entry
    is not finite or max|M - M^dagger| exceeds ``tol``.

    Finiteness is checked first, so inf - inf never reaches the defect.
    """
    _require_finite(arr, error)
    adjoint = arr.conj().swapaxes(-1, -2)
    defect = float(np.max(np.abs(arr - adjoint))) if arr.size else 0.0
    if not defect <= tol:
        raise error(f"Hermiticity defect {defect:.3e} exceeds {tol:.1e}")
    sym = arr + adjoint
    sym *= 0.5
    return sym


def hermitian_eig(mat: np.ndarray) -> Spectrum:
    """Diagonalize a Hermitian matrix.

    Raises NonHermitian if an entry is not finite or max|M - M^dagger|
    exceeds 1e-10; the iteration then runs on the Hermitized average
    (M + M^dagger)/2.
    """
    sym = _hermitized(_as_square(mat), _HERMITIAN_TOL, NonHermitian)
    w, v = _jacobi(sym[None], vectors=True)
    order = np.argsort(w[0], kind="stable")
    return Spectrum(eigenvalues=w[0, order], eigenvectors=v[0][:, order])


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix.

    Eigenvalues in [-1e-10, 0) are treated as rounding images of zero and
    clamped; anything below -1e-10 raises NotPSD.  Raises NonHermitian as
    ``hermitian_eig`` does.
    """
    return _psd_sqrts(_hermitized(_as_square(mat), _HERMITIAN_TOL, NonHermitian)[None])[0]


def _psd_sqrts(stack: np.ndarray) -> np.ndarray:
    """Principal square roots of a Hermitian (B, d, d) stack, with the clamp
    and the NotPSD check of ``psd_sqrt``, from one kernel call."""
    w, v = _jacobi(stack, vectors=True)
    smallest = w.min(axis=1)
    if np.any(smallest < -_PSD_CLAMP):
        raise NotPSD(f"eigenvalue {np.min(smallest):.3e} below the -{_PSD_CLAMP:.1e} clamping window")
    root = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ v.conj().swapaxes(1, 2)
    return 0.5 * (root + root.conj().swapaxes(1, 2))


def fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Uhlmann-Jozsa fidelity of two density matrices.

    Computed as (Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 by ``fidelities``
    on a stack of one pair, with its checks, floor and clamp.
    """
    a = _as_square(rho1)
    b = _as_square(rho2)
    if a.shape != b.shape:
        raise DimensionMismatch(f"state shapes differ: {a.shape} vs {b.shape}")
    return float(fidelities(a[None], b[None])[0])


def fidelities(rho1_stack: np.ndarray, rho2_stack: np.ndarray) -> np.ndarray:
    """Fidelities of the pairs of two (B, d, d) stacks of density matrices.

    F = (Tr sqrt(M))^2 with M = sqrt(rho1) rho2 sqrt(rho1).  Raises
    NonHermitian if an entry is not finite or rho1 is not Hermitian within
    1e-10, and NotPSD if rho1 or M has an eigenvalue below -1e-10; rho1's
    eigenvalues in [-1e-10, 0) are clamped to zero, as by ``psd_sqrt``.
    Eigenvalues of M below 1e-13 of its leading one are zeroed.  Values in
    (1, 1 + 1e-9] are clamped to 1; a larger overshoot raises
    FidelityOvershoot.

    At d = 2 the closed form F = Tr(rho1 rho2) + 2 sqrt(det rho1 det rho2)
    needs no eigensolve; larger stacks take two Jacobi kernel calls in all.
    """
    a = np.asarray(rho1_stack, dtype=np.complex128)
    b = np.asarray(rho2_stack, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape != b.shape:
        raise DimensionMismatch(f"expected two equal (B, d, d) stacks, got {a.shape} and {b.shape}")
    # rho2 is only multiplied, and inf * 0 would warn before any check
    _require_finite(b, NonHermitian)
    a = _hermitized(a, _HERMITIAN_TOL, NonHermitian)
    values = _qubit_fidelities(a, b) if a.shape[1] == 2 else _fidelity_jacobi(a, b)
    return _clamp_overshoot(values)


def _qubit_fidelities(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unclamped fidelities of a Hermitian and a finite (B, 2, 2) stack.

    The eigenvalues of M sum to T = Tr(rho1 rho2) and multiply to
    D = det rho1 det rho2.  The larger one comes from the quadratic and the
    smaller as D over it, which keeps its digits where it is tiny; they
    decide the PSD check and the floor.  Where both survive the floor,
    F = (sqrt(l+) + sqrt(l-))^2 = T + 2 sqrt(D); where only l+ does,
    F = l+ = T - l-.
    """
    # M depends on rho2 only through its Hermitian part
    b = 0.5 * (b + b.conj().swapaxes(1, 2))
    a00, a11, a01 = a[:, 0, 0].real, a[:, 1, 1].real, a[:, 0, 1]
    b00, b11, b01 = b[:, 0, 0].real, b[:, 1, 1].real, b[:, 0, 1]
    # rho1 has eigenvalues s/2 +- r
    half_trace, half_gap = 0.5 * (a00 + a11), 0.5 * (a00 - a11)
    r = np.hypot(half_gap, np.abs(a01))
    smallest = half_trace - r
    if np.any(smallest < -_PSD_CLAMP):
        raise NotPSD(f"eigenvalue {np.min(smallest):.3e} below the -{_PSD_CLAMP:.1e} clamping window")
    coupling = 2.0 * (a01 * b01.conj()).real
    trace = a00 * b00 + a11 * b11 + coupling
    # psd_sqrt's clamp makes rho1 max(s/2 + r, 0) (I + X/r)/2, X = rho1 - s/2
    clamped = smallest < 0.0
    along = r * (b00 + b11) + half_gap * (b00 - b11) + coupling
    kept = np.maximum(half_trace + r, 0.0) * along / np.where(r > 0.0, 2.0 * r, 1.0)
    trace = np.where(clamped, kept, trace)
    det1 = np.where(clamped, 0.0, _hermitian_det(a00, a11, a01))
    product = det1 * _hermitian_det(b00, b11, b01)
    high = 0.5 * trace + np.sqrt(np.clip(0.25 * trace ** 2 - product, 0.0, None))
    positive = high > 0.0
    low = np.where(positive, product / np.where(positive, high, 1.0), trace - high)
    if np.any(low < -1e-10):
        raise NotPSD(f"inner product matrix has eigenvalue {np.min(low):.3e}")
    floor = 1e-13 * np.maximum(1.0, high)
    both = low >= floor
    return np.where(
        both,
        trace + 2.0 * np.sqrt(np.where(both, product, 0.0)),
        np.where(high >= floor, trace - low, 0.0),
    )


# Veltkamp's splitter 2^27 + 1 cuts a double into two 26-bit halves
_SPLIT = 134217729.0


def _two_product(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p = fl(x y) and its rounding error e, x y = p + e exactly (Dekker)."""
    p = x * y
    cx, cy = _SPLIT * x, _SPLIT * y
    xh, yh = cx - (cx - x), cy - (cy - y)
    xl, yl = x - xh, y - yh
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _two_sum(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = fl(x + y) and its rounding error e, x + y = s + e exactly (Knuth)."""
    s = x + y
    yv = s - x
    return s, (x - (s - yv)) + (y - yv)


def _hermitian_det(m00: np.ndarray, m11: np.ndarray, m01: np.ndarray) -> np.ndarray:
    """m00 m11 - |m01|^2 for real m00, m11, to a few ulps of the result.

    On near-pure states the three products cancel in their leading digits,
    and sqrt(D) would lift the rounding left over to ~1e-11 in F; so each
    product is split exactly into its rounded value and error, and the
    errors are summed back in.
    """
    p0, e0 = _two_product(m00, m11)
    p1, e1 = _two_product(m01.real, m01.real)
    p2, e2 = _two_product(m01.imag, m01.imag)
    s1, t1 = _two_sum(p0, -p1)
    s2, t2 = _two_sum(s1, -p2)
    return s2 + (t1 + t2 + (e0 - e1 - e2))


def _fidelity_jacobi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unclamped fidelities of a Hermitian (B, d, d) stack and a finite one
    through two kernel calls: the square roots of a, then the eigenvalues
    of the inner matrices."""
    root = _psd_sqrts(a)
    inner = root @ b @ root
    inner = 0.5 * (inner + inner.conj().swapaxes(1, 2))
    # ascending, so the square roots are summed in a fixed order
    w = np.sort(_jacobi(inner)[0], axis=1)
    if np.any(w[:, 0] < -1e-10):
        raise NotPSD(f"inner product matrix has eigenvalue {np.min(w[:, 0]):.3e}")
    # eigenvalues this far below the leading one are rounding images of exact
    # zeros; taking their square roots would inject ~1e-7 noise into the trace
    floor = 1e-13 * np.maximum(1.0, w[:, -1:])
    w = np.where(w < floor, 0.0, w)
    return np.sum(np.sqrt(w), axis=1) ** 2


def factor_fidelity(v1: np.ndarray, v2: np.ndarray) -> float | np.ndarray:
    """Fidelity of rho1 = V1 V1^dagger and rho2 = V2 V2^dagger from their
    (d, 2) factors, or fidelities of the pairs of two (..., d, 2) stacks.

    By Uhlmann's theorem F = ||M||_1^2 with M = V1^dagger V2, and for a 2x2
    M with singular values s1, s2 that is (s1 + s2)^2 = ||M||_F^2 + 2|det M|.
    No eigensolve is needed.  Overshoot is handled as by ``fidelity``.
    """
    a = np.asarray(v1, dtype=np.complex128)
    b = np.asarray(v2, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != 2 or a.shape != b.shape:
        raise DimensionMismatch(f"expected two (d, 2) factors, got {a.shape} and {b.shape}")
    for operand in (a, b):
        _require_finite(operand, NonHermitian)
    m = a.conj().swapaxes(-1, -2) @ b
    # det M from its entries: near rank 1, sqrt(det(M^dagger M)) would turn
    # 1e-16 rounding into ~1e-8.  Products and |det M| are rounded as for numpy
    # scalars (array ones may fuse), so a pair gets the same bits in a stack
    x, y = m[..., 0, :], m[..., 1, ::-1]
    re, im = x.real * y.real - x.imag * y.imag, x.real * y.imag + x.imag * y.real
    det_abs = np.hypot(re[..., 0] - re[..., 1], im[..., 0] - im[..., 1])
    return _clamp_overshoot(np.sum(np.abs(m) ** 2, axis=(-2, -1)) + 2.0 * det_abs)


def _clamp_overshoot(values: np.ndarray) -> np.ndarray:
    """Fidelities, with rounding overshoot in (1, 1 + 1e-9] clamped to 1;
    a larger overshoot raises FidelityOvershoot."""
    over = values > 1.0 + 1e-9
    if np.any(over):
        value = float(np.asarray(values)[over].flat[0])
        raise FidelityOvershoot(f"fidelity {value!r} exceeds 1 beyond the 1e-9 window")
    return np.minimum(values, 1.0)


def trace_norms(stack: np.ndarray) -> np.ndarray:
    """Trace norms ||X_b||_1 of a (B, d, d) stack of Hermitian matrices.

    Raises NonHermitian if an entry is not finite or max|X - X^dagger|
    exceeds 1e-10 anywhere in the stack; the norms are taken of the
    Hermitized averages.  At d = 2 a matrix with trace s has eigenvalues
    s/2 +- r, r = hypot((X00 - X11)/2, |X01|), so its norm is max(|s|, 2r)
    with no eigensolve; larger stacks take one eigenvalues-only kernel call.
    """
    arr = np.asarray(stack, dtype=np.complex128)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise DimensionMismatch(f"expected a (B, d, d) stack, got shape {arr.shape}")
    sym = _hermitized(arr, _HERMITIAN_TOL, NonHermitian)
    if sym.shape[1] == 2:
        x00, x11 = sym[:, 0, 0].real, sym[:, 1, 1].real
        radius = np.hypot(0.5 * (x00 - x11), np.abs(sym[:, 0, 1]))
        return np.maximum(np.abs(x00 + x11), 2.0 * radius)
    return np.abs(_jacobi(sym)[0]).sum(axis=1)


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Trace distance (1/2)||rho1 - rho2||_1 for Hermitian operands.

    The difference goes through ``trace_norms`` and its checks.
    """
    a = _as_square(rho1)
    b = _as_square(rho2)
    if a.shape != b.shape:
        raise DimensionMismatch(f"state shapes differ: {a.shape} vs {b.shape}")
    # inf - inf would warn before trace_norms could name it
    for operand in (a, b):
        _require_finite(operand, NonHermitian)
    return 0.5 * float(trace_norms((a - b)[None])[0])


def validate_density(mat: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Check that ``mat`` is a density matrix and return a Hermitized copy.

    With the default tolerance the checks are: Hermiticity defect at most
    1e-12, real trace within 1e-10 of 1 with imaginary part at most 1e-12,
    and eigenvalues at least -1e-10.  Passing a different ``tol`` rescales
    all three windows together.  The checks are those of
    ``validate_densities`` on a stack of one.
    """
    return validate_densities(_as_square(mat)[None], tol)[0]


def validate_densities(stack: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """``validate_density`` over a (B, d, d) stack, with one kernel call.

    Each check runs over the whole stack before the next, so on a stack
    with one bad matrix the error is the one ``validate_density`` raises on
    that matrix alone.
    """
    arr = np.asarray(stack, dtype=np.complex128)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise DimensionMismatch(f"expected a (B, d, d) stack, got shape {arr.shape}")
    tight = tol * 1e-2
    sym = _hermitized(arr, tight, NotHermitian)
    tr = np.trace(arr, axis1=1, axis2=2)
    bad = np.flatnonzero(np.abs(tr.real - 1.0) > tol)
    if bad.size:
        real = float(tr[bad[0]].real)
        raise TraceNotOne(f"trace real part {real!r} differs from 1 by {abs(real - 1.0):.3e}")
    bad = np.flatnonzero(np.abs(tr.imag) > tight)
    if bad.size:
        raise TraceNotOne(f"trace imaginary part {tr[bad[0]].imag:.3e} exceeds {tight:.1e}")
    smallest = _jacobi(sym)[0].min(axis=1)
    if np.any(smallest < -tol):
        raise NotPSD(f"eigenvalue {np.min(smallest):.3e} below -{tol:.1e}")
    return sym
