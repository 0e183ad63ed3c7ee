"""A 40-digit referee for the fidelity routes and the LAPACK oracle.

mpmath diagonalizes the same double-precision states at 40 significant
digits, where rounding noise sits far below 1e-20.  On rank-deficient states
the double-precision routes must floor the eigenvalues of sqrt(rho1) rho2
sqrt(rho1): without the floor the square roots of their rounding images put
~1e-8 into the fidelity.  The referee settles what the right value is.
"""
from __future__ import annotations

import functools

import mpmath
import numpy as np
import pytest

from kraus_witness import (
    JCMPhoton,
    JCMQubit,
    YEMarkov,
    YENonMarkov,
    default_blp_grid,
    default_blp_pairs,
    factor_fidelity,
    fidelity,
    trace_norms,
)
from kraus_witness import channels, linalg

from conftest import oracle_fidelity

FIELD = JCMPhoton(alpha_c=1, n_max=31)

# (rho1, rho2) builders: a d = 33 rank-2 field pair at (t, t + tau) = (1, 2),
# a pure qubit against a mixed one, and the rank-3 dephasing state against
# its image at Gamma t = 1
PAIRS = {
    "field-rank-2": lambda: (FIELD.state(1.0), FIELD.state(2.0)),
    "pure-qubit": lambda: (np.array([[0.8, 0.4], [0.4, 0.2]], dtype=complex),
                           JCMQubit().state(0.7)),
    "ye-markov-rank-3": lambda: (YEMarkov().state(0.0), YEMarkov().state(1.0)),
}


@functools.cache
def referee(name: str) -> float:
    return exact_fidelity(*PAIRS[name]())


def exact_fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """(Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 at 40 digits, negative
    eigenvalues (rounding images of zero) clipped at both square roots."""
    with mpmath.workdps(40):
        a, b = mpmath.matrix(rho1.tolist()), mpmath.matrix(rho2.tolist())
        w, v = mpmath.eighe((a + a.H) / 2)
        root = v * mpmath.diag([mpmath.sqrt(max(x, 0)) for x in w]) * v.H
        inner = root * (b + b.H) / 2 * root
        lam = mpmath.eighe((inner + inner.H) / 2, eigvals_only=True)
        return float(mpmath.fsum(mpmath.sqrt(max(x, 0)) for x in lam) ** 2)


def exact_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian double-precision matrix at 40
    digits, rounded to doubles."""
    with mpmath.workdps(40):
        a = mpmath.matrix(mat.tolist())
        return np.array(sorted(float(x) for x in mpmath.eighe((a + a.H) / 2, eigvals_only=True)))


@pytest.mark.parametrize("name", PAIRS)
def test_generic_route(name):
    assert fidelity(*PAIRS[name]()) == pytest.approx(referee(name), abs=1e-12)


@pytest.mark.parametrize("name", PAIRS)
def test_floored_oracle(name):
    assert oracle_fidelity(*PAIRS[name]()) == pytest.approx(referee(name), abs=1e-12)


def test_factor_route():
    assert factor_fidelity(FIELD.factor(1.0), FIELD.factor(2.0)) == pytest.approx(
        referee("field-rank-2"), abs=1e-12
    )


# smaller eigenvalues of the near-pure qubits: exactly pure through mixed
NEAR_PURE = (0.0, 1e-15, 1e-12, 1e-9, 1e-6, 0.3)


def _qubit(rng: np.random.Generator, smaller: float) -> np.ndarray:
    """Exactly Hermitian U diag(1 - smaller, smaller) U^dagger, U random."""
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    m = (q * [1.0 - smaller, smaller]) @ q.conj().T
    return np.array([[m[0, 0].real, m[0, 1]], [m[0, 1].conjugate(), m[1, 1].real]])


@pytest.mark.parametrize("smaller1", NEAR_PURE)
def test_qubit_closed_form_near_pure(smaller1):
    """Near-pure pairs are ill-conditioned: below the eigenvalue floor both
    routes drop sqrt(l-), up to ~6e-8 of F.  The closed form must be no
    further from the referee than the two-Jacobi route is."""
    rng = np.random.default_rng(NEAR_PURE.index(smaller1))
    for smaller2 in NEAR_PURE:
        rho1, rho2 = _qubit(rng, smaller1), _qubit(rng, smaller2)
        exact = exact_fidelity(rho1, rho2)
        closed, jacobi = fidelity(rho1, rho2), linalg._fidelity_jacobi(rho1[None], rho2[None])[0]
        assert abs(closed - exact) <= abs(jacobi - exact) + 1e-15, (smaller2, closed, jacobi, exact)
        assert abs(closed - jacobi) <= 1e-9


def test_ye_revival_difference_matches_the_kernel():
    # a random pair's difference under the non-Markovian dephasing is dense,
    # so the revival takes its trace norm from the n = 4 Jacobi rounds
    spec = YENonMarkov()
    rho1, rho2, _ = next(pair for pair in default_blp_pairs(spec) if pair[2] == "random-0")
    t = default_blp_grid(spec)[[57]]
    x = channels._evolve(spec.kraus(t), (rho1 - rho2)[None], spec.valid_dim, spec.NAME)[0, 0]
    assert np.all(x != 0.0)
    exact = exact_eigenvalues(x)
    w = np.sort(linalg._jacobi(x[None])[0][0])
    assert np.abs(w - exact).max() <= 1e-15 * np.abs(exact).max()
    assert trace_norms(x[None])[0] == pytest.approx(np.abs(exact).sum(), rel=1e-15)
