"""Canonical decoherence rates as a generator-side referee, next to the
divisibility test's Choi mass of the intermediate maps.

An invertible evolution Lambda_t has the generator L_t = dLambda_t/dt
Lambda_t^-1, and L_t has canonical rates gamma_k(t): the eigenvalues of
Q C Q, where C is the Choi matrix of L_t and Q projects out the maximally
entangled state (Hall, Cresser, Li & Andersson, PRA 89, 042120 (2014)).  The
evolution is CP-divisible exactly when no rate is negative.  numpy.linalg
is the oracle here: it inverts the transfer matrices and diagonalizes Q C Q,
and no package eigensolver runs.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from kraus_witness import CKDephase, JCMQubit, YEMarkov, YENonMarkov, blp_measure, default_blp_grid, transfer_matrix

from test_acceptance import CLOSED_FORM_SPECS
from test_divisibility import _MAX_CONDITION, FIRES

# the step of the finite differences that give dLambda_t/dt
H = 1e-5

# the rates of a divisible evolution vanish at t0 and grow like t
START_FROM_ZERO = (YENonMarkov(), CKDephase(), JCMQubit())


def rates(spec, t: float) -> np.ndarray:
    """The canonical rates at time t, ascending: dLambda_t/dt by central
    differences of the transfer matrix, forward at the start time t0."""
    d = spec.dim
    now = transfer_matrix(spec.channel(t))
    later = transfer_matrix(spec.channel(t + H))
    if t == spec.t0:
        derivative = (later - now) / H
    else:
        derivative = (later - transfer_matrix(spec.channel(t - H))) / (2.0 * H)
    generator = derivative @ np.linalg.inv(now)
    # row-major vec: L[(a, b), (i, j)] = L(|i><j|)_ab, Choi[(i, a), (j, b)]
    choi = generator.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)
    entangled = np.eye(d).reshape(d * d) / math.sqrt(d)
    q = np.eye(d * d) - np.outer(entangled, entangled)
    kossakowski = q @ choi @ q
    return np.linalg.eigvalsh(0.5 * (kossakowski + kossakowski.conj().T))


@pytest.mark.parametrize("Gamma", [1.0, 3.0])
def test_exponential_branch_starts_at_its_rate(Gamma):
    assert rates(YEMarkov(Gamma=Gamma), 0.0)[-1] == pytest.approx(Gamma, rel=1e-2)


@pytest.mark.parametrize("spec", START_FROM_ZERO, ids=[spec.NAME for spec in START_FROM_ZERO])
def test_memory_rates_start_at_zero_and_grow_like_t(spec):
    assert np.abs(rates(spec, spec.t0)).max() <= 10.0 * H
    leading = [rates(spec, spec.t0 + t)[-1] for t in (1e-3, 1e-2)]
    assert math.log10(leading[1] / leading[0]) == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize(
    "spec", CLOSED_FORM_SPECS + (JCMQubit(alpha_c=1, n_max=31),),
    ids=[spec.NAME for spec in CLOSED_FORM_SPECS] + ["jcm-qubit-coherent"],
)
def test_a_rate_turns_negative_exactly_when_the_revival_fires(spec):
    smallest, skipped = np.inf, 0
    for t in default_blp_grid(spec):
        singular = np.linalg.svd(transfer_matrix(spec.channel(t)), compute_uv=False)
        if singular[-1] * _MAX_CONDITION < singular[0]:
            skipped += 1
            continue
        smallest = min(smallest, rates(spec, float(t))[0])
    # ck's T(t) is singular where cos(t - t0) = 0, at t = pi/2 and 3 pi/2
    assert skipped == (2 if spec.NAME == "ck" else 0)
    revival = blp_measure(spec).value
    assert (smallest < -1e-3) == (revival > FIRES), f"smallest rate {smallest:.3g}, revival value {revival:.3g}"
