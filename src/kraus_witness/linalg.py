"""Dense Hermitian linear algebra for density matrices.

Everything here works on complex128 arrays and is deliberately self-contained:
the eigensolver is a Jacobi iteration rather than a LAPACK call, so the
fidelity and trace-distance results can be cross-checked against an external
library in the test suite without sharing a code path with it.  There is one
Jacobi kernel, ``_jacobi``, cyclic at every n but 4, where each sweep is three
rounds of two disjoint pivots, and it works on (B, n, n) stacks: the stack
function ``fidelities`` makes one or two calls for a whole stack,
``trace_norms`` at most one, on the matrices that are not direct sums of
1x1 and 2x2 blocks, ``validate_densities`` at most one, on the matrices an
LDL^dagger factorisation does not certify, and the single-matrix ones pass
a stack of one.  Every caller hands the kernel an exactly Hermitian stack
(the ``_hermitized`` average, or (M + M^dagger)/2); its docstring gives its
layout and its one convergence rule.
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
    NumericalError,
    TraceNotOne,
)

# a pivot of the scaled matrix at or below this is not worth rotating
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


def _as_square(mat: np.ndarray, ndim: int = 2) -> np.ndarray:
    """A square matrix, or with ``ndim`` 3 a (B, d, d) stack, as complex128."""
    arr = np.asarray(mat, dtype=np.complex128)
    if arr.ndim != ndim or arr.shape[-2] != arr.shape[-1]:
        expected = "a square matrix" if ndim == 2 else "a (B, d, d) stack"
        raise DimensionMismatch(f"expected {expected}, got shape {arr.shape}")
    return arr


def _as_pair(rho1: np.ndarray, rho2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two square matrices of one shape, as stacks of one."""
    a, b = _as_square(rho1), _as_square(rho2)
    if a.shape != b.shape:
        raise DimensionMismatch(f"state shapes differ: {a.shape} vs {b.shape}")
    return a[None], b[None]


def _jacobi(stack: np.ndarray, vectors: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Jacobi diagonalization of each Hermitian matrix in a (B, n, n) stack:
    the (B, n) eigenvalues, unordered, and with ``vectors`` the (B, n, n)
    eigenvector matrices, else None.

    Every caller hands it an exactly Hermitian stack with a real diagonal,
    which it copies as it is and then lays out entry-major with the batch
    axis last.  A sweep zeroes every upper-triangle pivot by a complex plane
    rotation R of the whole stack, V^dagger gathering the R^dagger: in row
    order at n != 4 (``_cyclic_sweep``), in three rounds of two disjoint
    pivots at n = 4 (``_paired_sweep``).  Each matrix runs as A_s, scaled by
    the power of two that puts its largest real or imaginary part in
    [1/2, 1), and leaves the batch once the off-diagonal Frobenius mass of
    A_s is at most 1e-14 max(1, ||A_s||_F); its eigenvalues are scaled back,
    and one past the largest double comes back as inf, with no warning.
    So the target is relative at every scale, and no result depends on the
    rest of the stack, as every complex product has two or more entries
    (numpy rounds a one-entry one by another loop).  A pivot of A_s at or
    below 1e-300 gets the identity rotation instead of a division.
    """
    arr = np.array(stack, dtype=np.complex128)
    b, n = arr.shape[0], arr.shape[1]
    # A_s, in place; a power of two rounds nothing above the subnormal range
    parts = arr.view(np.float64)
    exponent = np.frexp(np.abs(parts).max(axis=(1, 2), initial=0.0))[1]
    np.ldexp(parts, -exponent[:, None, None], out=parts)
    target = _OFFDIAG_TARGET * np.maximum(1.0, np.linalg.norm(arr, axis=(1, 2)))
    diagonal = np.arange(n)
    upper = np.triu_indices(n, 1)
    # entry-major: x[i, j] is entry (i, j) of every matrix, one contiguous vector
    if n == 4:
        # the real diagonal, o = [x01, x02, x03, x23, x13, x12] and V^dagger
        state = [arr[:, diagonal, diagonal].real.T.copy(), arr[:, [0, 0, 0, 2, 1, 1], [1, 2, 3, 3, 3, 2]].T.copy()]
        state += [np.eye(n, dtype=np.complex128)[:, :, None].repeat(b, axis=2)] if vectors else []
    else:
        a = np.zeros((n, 2 * n if vectors else n, b), dtype=np.complex128)
        a[:, :n] = arr.transpose(1, 2, 0)
        if vectors:
            # rotating the rows of [A | I] by R^dagger turns I into V^dagger
            a[diagonal, n + diagonal] = 1.0
        state = [a]
    active, work = np.arange(b), state
    for _ in range(_MAX_SWEEPS):
        # summed entrywise rather than as total - diagonal, which cancels
        # badly; each matrix's entries lie in one contiguous row, so they are
        # summed in the same order whatever the rest of the batch
        off = work[1] if n == 4 else work[0][upper]
        mass = np.sqrt(2.0) * np.linalg.norm(np.ascontiguousarray(off.T), axis=1)
        done = mass <= target[active]
        if done.any():
            # converged matrices go back to the stack and leave the batch
            for whole, part in zip(state, work):
                whole[..., active[done]] = part[..., done]
            # compress, unlike a mask, keeps the batch axis innermost
            active, work = active[~done], [np.compress(~done, x, axis=-1) for x in work]
        if not active.size:
            break
        _paired_sweep(*work) if n == 4 else _cyclic_sweep(work[0], upper)
    else:
        raise NoConvergence(int(active[0]), active.size, b)
    w, adjoint = (state[0], state[-1]) if n == 4 else (a[diagonal, diagonal].real, a[:, n:])
    # C order, so that a sum over each matrix's eigenvalues keeps its order
    with np.errstate(over="ignore"):
        eigenvalues = np.ldexp(w.T, exponent[:, None], order="C")
    return eigenvalues, (np.conjugate(adjoint.transpose(2, 1, 0), order="C") if vectors else None)


def _rotation(apq: np.ndarray, app: np.ndarray, aqq: np.ndarray) -> tuple[np.ndarray, ...]:
    """c (as complex), s e^(i arg a_pq) and t|a_pq| of the rotations that zero
    pivots a_pq: t = sign(tau)/(|tau| + hypot(1, tau)), c = 1/hypot(1, t),
    s = t c, with tau = (a_qq - a_pp)/(2|a_pq|)."""
    r = np.abs(apq)
    rotate = r > _PIVOT_SKIP
    r = np.where(rotate, r, 1.0)
    tau = (aqq - app) / (2.0 * r)
    t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
    t = np.where(rotate, t, 0.0)
    c = 1.0 / np.hypot(1.0, t)
    # c as complex gives the same products without a cast per row
    return c.astype(np.complex128), apq * (t * c / r), t * r


def _rotate(row_p: np.ndarray, row_q: np.ndarray, c: np.ndarray, s: np.ndarray, s_conj: np.ndarray) -> None:
    """Rows p and q in place as c row_p - s row_q and c row_q + s_conj row_p."""
    new_p = c * row_p
    new_p -= s * row_q
    row_q *= c
    row_q += s_conj * row_p
    row_p[...] = new_p


def _cyclic_sweep(a: np.ndarray, upper: tuple[np.ndarray, np.ndarray]) -> None:
    """One sweep of ``_jacobi``'s (n, n, B) array, or (n, 2n, B) with V^dagger
    as n more columns, in place: each pivot rotates only rows p and q."""
    n = a.shape[0]
    for p, q in zip(*upper):
        app, aqq = a[p, p].real, a[q, q].real
        c, sp, shift = _rotation(a[p, q], app, aqq)
        new_pp, new_qq = app - shift, aqq + shift
        _rotate(a[p], a[q], c, sp, sp.conj())
        # Hermitian: columns p and q are the conjugates of the new rows
        np.conjugate(a[p, :n], out=a[:, p])
        np.conjugate(a[q, :n], out=a[:, q])
        a[p, p], a[q, q] = new_pp, new_qq
        # a rotated pivot is annihilated and a skipped one negligible
        a[p, q] = a[q, p] = 0.0


# round k zeroes o[k::3], the pivots (0, 1) and (2, 3), (0, 2) and (1, 3), or (0, 3)
# and (1, 2); its slices pick their rows p and q in d and V^dagger, then in o the rows
# p1, q1 and columns p2, q2 of X = A[(p1, q1), (p2, q2)], and the ones o conjugates
_ROUNDS = (
    (np.s_[::2], np.s_[1::2], np.s_[1:3], np.s_[5:3:-1], np.s_[1::4], np.s_[2:5:2], np.s_[:0]),
    (np.s_[:2], np.s_[2:], np.s_[:3:2], np.s_[5:2:-2], np.s_[::5], np.s_[2:4], np.s_[5:]),
    (np.s_[:2], np.s_[3:1:-1], np.s_[:2], np.s_[4:2:-1], np.s_[::4], np.s_[1:4:2], np.s_[3:5]),
)


def _paired_sweep(d: np.ndarray, o: np.ndarray, adjoint: np.ndarray | None = None) -> None:
    """One sweep of ``_jacobi``'s d, o and V^dagger at n = 4, in place, in the
    parallel ordering of Brent & Luk (1985): each round zeroes two disjoint
    pivots and takes the block X between them to R1^dagger X R2."""
    for k, (p, q, p1, q1, p2, q2, lower) in enumerate(_ROUNDS):
        c, sp, shift = _rotation(o[k::3], d[p], d[q])
        d[p] -= shift
        d[q] += shift
        o[k::3] = 0.0
        sp_conj = sp.conj()
        np.conjugate(o[lower], out=o[lower])
        _rotate(o[p1], o[q1], c[0], sp[0], sp_conj[0])
        _rotate(o[p2], o[q2], c[1], sp_conj[1], sp[1])
        np.conjugate(o[lower], out=o[lower])
        if adjoint is not None:
            _rotate(adjoint[p], adjoint[q], c[:, None], sp[:, None], sp_conj[:, None])


def _eigenvalues_of(sym: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``sym[members]`` from one kernel call, none if there are
    no members; its NoConvergence names the index in ``sym``."""
    if not members.size:
        return np.empty((0, sym.shape[1]))
    try:
        return _jacobi(sym[members])[0]
    except NoConvergence as error:
        raise NoConvergence(int(members[error.index]), error.unconverged, len(sym)) from None


def _require_finite(error: type[NumericalError], *arrays: np.ndarray,
                    message: str = "matrix has non-finite entries") -> None:
    if not all(np.isfinite(arr).all() for arr in arrays):
        raise error(message)


def _require_defect_within(halved: float, tol: float, error: type[NonHermitian]) -> None:
    """Raise ``error`` if 2 ``halved`` = max|M - M^dagger| exceeds ``tol``; as a
    Python float it doubles to inf past the largest double, with no warning."""
    defect = 2.0 * float(halved)
    if not defect <= tol:
        raise error(f"Hermiticity defect {defect:.3e} exceeds {tol:.1e}")


def _hermitized(arr: np.ndarray, tol: float, error: type[NonHermitian]) -> np.ndarray:
    """(M + M^dagger)/2 over the last two axes, raising ``error`` when an entry
    is not finite or max|M - M^dagger| exceeds ``tol``.

    Finiteness is checked first, so inf - inf never reaches the defect.  The
    defect and the sum both come from the halves, which cannot overflow;
    halving is exact above the subnormal range.
    """
    _require_finite(error, arr)
    sym = arr * 0.5
    adjoint = sym.conj().swapaxes(-1, -2)
    _require_defect_within(np.max(np.abs(sym - adjoint), initial=0.0), tol, error)
    sym += adjoint  # a view of the fresh copy conj() made
    return sym


def _qubit_entries(arr: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """``_hermitized`` of a (B, 2, 2) stack, with its ``tol`` (np.inf for no
    bound), read in place as the entries (Re x00, Re x11, x01/2 + conj(x10)/2);
    the halved defect is |Im x| on the diagonal and |x01/2 - conj(x10)/2| off it."""
    _require_finite(NonHermitian, arr)
    x00, x11 = arr[:, 0, 0], arr[:, 1, 1]
    upper, lower = arr[:, 0, 1] * 0.5, arr[:, 1, 0].conj() * 0.5
    halved = [np.abs(x).max(initial=0.0) for x in (x00.imag, x11.imag, upper - lower)]
    _require_defect_within(max(halved), tol, NonHermitian)
    return x00.real, x11.real, upper + lower


def hermitian_eig(mat: np.ndarray) -> Spectrum:
    """Diagonalize a Hermitian matrix.

    Raises NonHermitian if an entry is not finite or max|M - M^dagger|
    exceeds 1e-10, and NumericalError if an eigenvalue exceeds the largest
    double; the iteration runs on the Hermitized average (M + M^dagger)/2.
    """
    sym = _hermitized(_as_square(mat), _HERMITIAN_TOL, NonHermitian)
    w, v = _jacobi(sym[None], vectors=True)
    _require_finite(NumericalError, w, message="an eigenvalue exceeds the largest double")
    order = np.argsort(w[0], kind="stable")
    return Spectrum(eigenvalues=w[0, order], eigenvectors=v[0][:, order])


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix.

    Eigenvalues in [-1e-10, 0) are treated as rounding images of zero and
    clamped; anything below -1e-10 raises NotPSD.  Raises NonHermitian and
    NumericalError as ``hermitian_eig`` does, and DimensionMismatch on 0x0.
    """
    return _psd_sqrts(_hermitized(_as_square(mat), _HERMITIAN_TOL, NonHermitian)[None])[0]


def _psd_sqrts(stack: np.ndarray) -> np.ndarray:
    """Principal square roots of a Hermitian (B, d, d) stack, with the clamp
    and the NotPSD check of ``psd_sqrt``, from one kernel call; 0x0 matrices
    have none, and raise DimensionMismatch naming the stack's shape."""
    if not stack.shape[-1]:
        raise DimensionMismatch(f"0x0 matrices have no square root, got stack shape {stack.shape}")
    w, v = _jacobi(stack, vectors=True)
    _require_finite(NumericalError, w, message="an eigenvalue exceeds the largest double")
    _require_clamp_window(w.min(axis=1))
    root = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ v.conj().swapaxes(1, 2)
    return 0.5 * (root + root.conj().swapaxes(1, 2))


def _require_clamp_window(smallest: np.ndarray) -> None:
    if np.any(smallest < -_PSD_CLAMP):
        raise NotPSD(f"eigenvalue {np.min(smallest):.3e} below the -{_PSD_CLAMP:.1e} clamping window")


def _inner_floor(smallest: np.ndarray, leading: np.ndarray) -> np.ndarray:
    """The floor 1e-13 max(1, leading) of the eigenvalues of M, once none is below -1e-10."""
    if np.any(smallest < -1e-10):
        raise NotPSD(f"inner product matrix has eigenvalue {np.min(smallest):.3e}")
    return 1e-13 * np.maximum(1.0, leading)


def fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Uhlmann-Jozsa fidelity of two density matrices.

    Computed as (Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 by ``fidelities``
    on a stack of one pair, with its checks, floor and clamp.
    """
    return float(fidelities(*_as_pair(rho1, rho2))[0])


def fidelities(rho1_stack: np.ndarray, rho2_stack: np.ndarray) -> np.ndarray:
    """Fidelities of the pairs of two (B, d, d) stacks of density matrices.

    F = (Tr sqrt(M))^2 with M = sqrt(rho1) rho2 sqrt(rho1).  Raises
    NonHermitian if an entry is not finite or rho1 is not Hermitian within
    1e-10, and NotPSD if rho1 or M has an eigenvalue below -1e-10; rho1's
    eigenvalues in [-1e-10, 0) are clamped to zero, as by ``psd_sqrt``.
    Eigenvalues of M below 1e-13 of its leading one are zeroed.  Values in
    (1, 1 + 1e-9] are clamped to 1; a larger overshoot raises
    FidelityOvershoot.  Stacks of 0x0 matrices raise DimensionMismatch.

    At d = 2 the closed form F = Tr(rho1 rho2) + 2 sqrt(det rho1 det rho2)
    needs no eigensolve and reads both stacks in place; larger stacks, and
    the d = 2 pairs whose closed form overflows, take two Jacobi kernel
    calls in all.
    """
    a = np.asarray(rho1_stack, dtype=np.complex128)
    b = np.asarray(rho2_stack, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape != b.shape:
        raise DimensionMismatch(f"expected two equal (B, d, d) stacks, got {a.shape} and {b.shape}")
    # rho2 is checked finite first, as inf * 0 would warn before any check;
    # M depends only on its Hermitian part, so its defect is not bounded
    if a.shape[1] == 2:
        rho2 = _qubit_entries(b, np.inf)
        rho1 = _qubit_entries(a, _HERMITIAN_TOL)
        # finite entries can overflow on the way (rho1 = 1e160 I makes D inf)
        with np.errstate(over="ignore", invalid="ignore"):
            values, closed = _qubit_fidelities(rho1, rho2)
        overflowed = np.flatnonzero(~closed)
        if overflowed.size:
            # Hermitian parts, as the closed form reads them
            sym1, sym2 = (_hermitized(x[overflowed], np.inf, NonHermitian) for x in (a, b))
            values[overflowed] = _fidelity_jacobi(sym1, sym2)
        return _clamp_overshoot(values)
    _require_finite(NonHermitian, b)
    return _clamp_overshoot(_fidelity_jacobi(_hermitized(a, _HERMITIAN_TOL, NonHermitian), b))


def _qubit_fidelities(rho1: tuple[np.ndarray, ...],
                      rho2: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Unclamped fidelities of two stacks of ``_qubit_entries``, and the mask
    of the pairs where they hold: where T, D and l+ below are finite.

    The eigenvalues of M sum to T = Tr(rho1 rho2) and multiply to
    D = det rho1 det rho2.  The larger one comes from the quadratic and the
    smaller as D over it, which keeps its digits where it is tiny; they
    decide the PSD check and the floor.  Where both survive the floor,
    F = (sqrt(l+) + sqrt(l-))^2 = T + 2 sqrt(D); where only l+ does,
    F = l+ = T - l-.
    """
    (a00, a11, a01), (b00, b11, b01) = rho1, rho2
    # rho1 has eigenvalues s/2 +- r
    half_trace, half_gap = 0.5 * (a00 + a11), 0.5 * (a00 - a11)
    r = np.hypot(half_gap, np.abs(a01))
    smallest = half_trace - r
    _require_clamp_window(smallest)
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
    floor = _inner_floor(low, high)
    both = low >= floor
    values = np.where(
        both,
        trace + 2.0 * np.sqrt(np.where(both, product, 0.0)),
        np.where(high >= floor, trace - low, 0.0),
    )
    return values, np.isfinite(trace) & np.isfinite(product) & np.isfinite(high)


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
    # 1e300 I overflows M, and a finite M's eigenvalue or F can overflow: F > 1 each time
    with np.errstate(over="ignore", invalid="ignore"):
        inner = root @ b @ root
        inner = 0.5 * (inner + inner.conj().swapaxes(1, 2))
        _require_finite(FidelityOvershoot, inner,
                        message="sqrt(rho1) rho2 sqrt(rho1) overflows, so the fidelity exceeds 1")
        # ascending, so the square roots are summed in a fixed order
        w = np.sort(_jacobi(inner)[0], axis=1)
        # eigenvalues this far below the leading one are rounding images of exact
        # zeros; taking their square roots would inject ~1e-7 noise into the trace
        w = np.where(w < _inner_floor(w[:, 0], w[:, -1:]), 0.0, w)
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
    _require_finite(NonHermitian, a, b)
    # an overflow (inf, or NaN from inf - inf) needs an entry of M above 1e154, so F > 1
    with np.errstate(over="ignore", invalid="ignore"):
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
    a larger overshoot or the NaN of an overflow raises FidelityOvershoot."""
    over = ~(values <= 1.0 + 1e-9)
    if np.any(over):
        value = float(np.nan_to_num(np.asarray(values)[over].flat[0], nan=np.inf))
        raise FidelityOvershoot(f"fidelity {value!r} exceeds 1 beyond the 1e-9 window")
    return np.minimum(values, 1.0)


def _qubit_norms(x00: np.ndarray, x11: np.ndarray, x01: np.ndarray) -> np.ndarray:
    """Trace norms max(|s|, 2r) of Hermitian 2x2 matrices [[x00, x01], [., x11]]
    with real diagonals: eigenvalues s/2 +- r, s = x00 + x11 and
    r = hypot((x00 - x11)/2, |x01|); a norm past the largest double is inf."""
    with np.errstate(over="ignore"):
        radius = np.hypot(0.5 * (x00 - x11), np.abs(x01))
        return np.maximum(np.abs(x00 + x11), 2.0 * radius)


def trace_norms(stack: np.ndarray) -> np.ndarray:
    """Trace norms ||X_b||_1 of a (B, d, d) stack of Hermitian matrices.

    Raises NonHermitian if an entry is not finite or max|X - X^dagger|
    exceeds 1e-10 anywhere in the stack; the norms are taken of the
    Hermitized averages.  At d = 2 a matrix with trace s has eigenvalues
    s/2 +- r, r = hypot((X00 - X11)/2, |X01|), so its norm is max(|s|, 2r)
    with no eigensolve, from its entries read in place.  At d >= 3 a matrix
    in which no row holds more than one exactly nonzero off-diagonal entry
    is a direct sum of 1x1 blocks, of norm |X_ii|, and 2x2 blocks, of norm
    max(|s|, 2r); its norm is the sum over rows of those, a block's at its
    first row, in the order the kernel sums its eigenvalues, so a diagonal
    matrix gets the kernel's bits.  The other matrices take one
    eigenvalues-only kernel call, whose NoConvergence names the index in
    this stack; an eigenvalue past the largest double raises NumericalError.
    A 0x0 matrix has norm 0.
    """
    arr = _as_square(stack, 3)
    if arr.shape[1] == 2:
        return _finite_norms(_qubit_norms(*_qubit_entries(arr, _HERMITIAN_TOL)))
    sym = _hermitized(arr, _HERMITIAN_TOL, NonHermitian)
    b, n = sym.shape[:2]
    if not n:
        return np.zeros(b)
    rows = np.arange(n)
    coupled = sym != 0.0
    coupled[:, rows, rows] = False
    # the Hermitized stack is exactly Hermitian, so coupling is symmetric and
    # one partner per row makes a matching: a row's partner, itself if none
    count = np.count_nonzero(coupled, axis=2)
    partner = np.where(count > 0, coupled.argmax(axis=2), rows)
    direct = count.max(axis=1) <= 1
    norms = np.empty(b)
    dense = np.flatnonzero(~direct)
    spectra = np.abs(_eigenvalues_of(sym, dense))
    blocks = np.flatnonzero(direct)
    diagonal = np.diagonal(sym, axis1=1, axis2=2).real[blocks]
    pairs = partner[blocks]
    parts = np.where(pairs == rows, np.abs(diagonal), 0.0)
    matrix, first = np.nonzero(pairs > rows)
    second = pairs[matrix, first]
    parts[matrix, first] = _qubit_norms(
        diagonal[matrix, first], diagonal[matrix, second], sym[blocks[matrix], first, second]
    )
    with np.errstate(over="ignore"):
        norms[dense] = spectra.sum(axis=1)
        norms[blocks] = parts.sum(axis=1)
    return _finite_norms(norms)


def _finite_norms(norms: np.ndarray) -> np.ndarray:
    """The norms, or NumericalError if one passed the largest double."""
    _require_finite(NumericalError, norms, message="a trace norm exceeds the largest double")
    return norms


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Trace distance (1/2)||rho1 - rho2||_1 for Hermitian operands.

    The difference goes through ``trace_norms`` and its checks; a
    difference of finite operands that overflows raises NonHermitian.
    """
    a, b = _as_pair(rho1, rho2)
    # inf - inf would warn before trace_norms could name it
    _require_finite(NonHermitian, a, b)
    # taken whole: a difference of halves would halve the 1e-10 Hermiticity window
    with np.errstate(over="ignore"):
        diff = a - b
    _require_finite(NonHermitian, diff, message="rho1 - rho2 overflows: an entry exceeds the largest double")
    return 0.5 * float(trace_norms(diff)[0])


def _ldl_certified(sym: np.ndarray, margin: float) -> np.ndarray:
    """(B,) mask of the matrices of a Hermitian (B, n, n) stack that
    S + margin I certifies positive definite, so lambda_min(S) > -2 margin.

    S + margin I is factored as L D L^dagger, batched and right-looking over
    the columns, reading only the lower triangle.  A matrix is certified when
    every pivot of D is positive and the margin exceeds
    n^2 1e-15 (1 + max|S_ii|), which bounds the factorisation's backward
    error (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10):
    the computed factors are exactly those of S + margin I + E with
    ||E||_2 < margin.  A pivot that is not positive, NaN or overflows leaves
    its matrix uncertified, not refused.
    """
    n = sym.shape[1]
    diagonal = np.abs(np.diagonal(sym, axis1=1, axis2=2))
    certified = margin > n * n * 1e-15 * (1.0 + diagonal.max(axis=1))
    a = sym + margin * np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            pivot = a[:, k, k].real
            certified &= pivot > 0.0
            column = a[:, k + 1:, k]
            # an uncertified matrix divides by 1, so no pivot of zero warns
            scaled = column.conj() / np.where(certified, pivot, 1.0)[:, None]
            a[:, k + 1:, k + 1:] -= column[:, :, None] * scaled[:, None, :]
    return certified


def validate_density(mat: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Check that ``mat`` is a density matrix and return a Hermitized copy.

    With the default tolerance the checks are: Hermiticity defect at most
    1e-12, real trace within 1e-10 of 1 with imaginary part at most 1e-12,
    and eigenvalues at least -1e-10.  Passing a different ``tol`` rescales
    all three windows together.  The checks are those of
    ``validate_densities`` on a stack of one, so a state that an LDL^dagger
    factorisation of S + (tol/2) I certifies needs no eigensolve.
    """
    return validate_densities(_as_square(mat)[None], tol)[0]


def validate_densities(stack: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """``validate_density`` over a (B, d, d) stack.

    Each check runs over the whole stack before the next, so on a stack
    with one bad matrix the error is the one ``validate_density`` raises on
    that matrix alone.  The eigenvalue check first factors each Hermitized
    S + (tol/2) I as L D L^dagger: positive pivots certify lambda_min(S) >
    -tol with no eigensolve.  Every other matrix (a pivot at or below zero,
    NaN or overflow, or a margin tol/2 within the factorisation's rounding
    bound n^2 1e-15 (1 + max|S_ii|)) goes to one Jacobi kernel call, which
    decides and words every NotPSD.  A certified matrix's eigenvalues stay
    above -tol, and a kernel eigenvalue does not depend on its batch, so the
    message is the one the kernel gives on the whole stack.
    """
    arr = _as_square(stack, 3)
    tight = tol * 1e-2
    sym = _hermitized(arr, tight, NotHermitian)
    # finite entries whose trace overflows give inf (or NaN), refused below
    with np.errstate(over="ignore", invalid="ignore"):
        tr = np.trace(arr, axis1=1, axis2=2)
    bad = np.flatnonzero(~(np.abs(tr.real - 1.0) <= tol))
    if bad.size:
        real = float(tr[bad[0]].real)
        raise TraceNotOne(f"trace real part {real!r} differs from 1 by {abs(real - 1.0):.3e}")
    bad = np.flatnonzero(np.abs(tr.imag) > tight)
    if bad.size:
        raise TraceNotOne(f"trace imaginary part {tr[bad[0]].imag:.3e} exceeds {tight:.1e}")
    uncertified = np.flatnonzero(~_ldl_certified(sym, 0.5 * tol))
    smallest = _eigenvalues_of(sym, uncertified).min(axis=1)
    if np.any(smallest < -tol):
        raise NotPSD(f"eigenvalue {np.min(smallest):.3e} below -{tol:.1e}")
    return sym
