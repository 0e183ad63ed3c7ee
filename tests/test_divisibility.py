"""CP-divisibility as a third classifier, next to the revival measure and the
fidelity witness of acceptance clause c11.

The intermediate map V = T(t + h) T(t)^-1 of a divisible evolution is
completely positive, so its Choi matrix has no negative eigenvalue; the
summed negative Choi mass over a grid is the integrand of Rivas, Huelga &
Plenio, PRL 105, 050403 (2010).  numpy.linalg is the oracle here: it inverts
the transfer matrices and diagonalizes the Choi matrices, and no package
eigensolver runs.
"""
from __future__ import annotations

import numpy as np
import pytest

from kraus_witness import JCMQubit, blp_measure, default_blp_grid, transfer_matrix

from test_acceptance import CLOSED_FORM_SPECS

FIRES = 1e-6

# steps from a T(t) this ill-conditioned are skipped: its inverse is noise
_MAX_CONDITION = 1e8


def negative_choi_mass(spec) -> tuple[float, int]:
    """Summed negative Choi mass of V over the default revival grid, and the
    number of steps skipped for an ill-conditioned T(t)."""
    d = spec.dim
    transfers = [transfer_matrix(spec.channel(float(t))) for t in default_blp_grid(spec)]
    mass, skipped = 0.0, 0
    for early, late in zip(transfers, transfers[1:]):
        singular = np.linalg.svd(early, compute_uv=False)
        if singular[-1] * _MAX_CONDITION < singular[0]:
            skipped += 1
            continue
        v = late @ np.linalg.inv(early)
        # row-major vec: V[(a, b), (i, j)] = V(|i><j|)_ab, Choi[(i, a), (j, b)]
        choi = v.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)
        eigs = np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))
        mass -= float(eigs[eigs < 0.0].sum())
    return mass, skipped


@pytest.mark.parametrize(
    "spec", CLOSED_FORM_SPECS + (JCMQubit(alpha_c=1, n_max=31),),
    ids=[spec.NAME for spec in CLOSED_FORM_SPECS] + ["jcm-qubit-coherent"],
)
def test_revival_measure_fires_exactly_when_divisibility_fails(spec):
    mass, skipped = negative_choi_mass(spec)
    # ck's T(t) is singular where cos(t - t0) = 0, at t = pi/2 and 3 pi/2
    assert skipped == (2 if spec.NAME == "ck" else 0)
    revival = blp_measure(spec).value
    assert (revival > FIRES) == (mass > FIRES), (
        f"revival value {revival:.3g}, negative Choi mass {mass:.3g}"
    )
