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

from kraus_witness import JCMPhoton, JCMQubit, YEMarkov, factor_fidelity, fidelity

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
    """(Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 at 40 digits, negative
    eigenvalues (rounding images of zero) clipped at both square roots."""
    rho1, rho2 = PAIRS[name]()
    with mpmath.workdps(40):
        a, b = mpmath.matrix(rho1.tolist()), mpmath.matrix(rho2.tolist())
        w, v = mpmath.eighe((a + a.H) / 2)
        root = v * mpmath.diag([mpmath.sqrt(max(x, 0)) for x in w]) * v.H
        inner = root * (b + b.H) / 2 * root
        lam = mpmath.eighe((inner + inner.H) / 2, eigvals_only=True)
        return float(mpmath.fsum(mpmath.sqrt(max(x, 0)) for x in lam) ** 2)


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
