"""Randomized invariants of the fidelity stack.

Everything here is seeded through hypothesis with derandomize=True so a run
is reproducible without recording example databases.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kraus_witness import (
    CKDephase,
    JCMQubit,
    YEMarkov,
    YENonMarkov,
    apply,
    fidelity,
    fidelity_difference,
    hermitian_eig,
    memory_fidelity,
    model_channel,
    psd_sqrt,
)

from conftest import random_density, random_hermitian

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=2, max_value=5)

CHANNEL_SPECS = (YEMarkov(), YENonMarkov(), JCMQubit(), CKDephase())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=seeds, dim=dims)
def test_fidelity_symmetric_and_bounded(seed, dim):
    rng = np.random.default_rng(seed)
    rho1 = random_density(rng, dim)
    rho2 = random_density(rng, dim)
    f12 = fidelity(rho1, rho2)
    f21 = fidelity(rho2, rho1)
    assert abs(f12 - f21) <= 1e-10
    assert 0.0 <= f12 <= 1.0
    assert fidelity(rho1, rho1) >= 1.0 - 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=seeds, dim=dims)
def test_fidelity_pure_state_reduction(seed, dim):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    pure = np.outer(psi, psi.conj())
    rho = random_density(rng, dim)
    overlap = float(np.real(psi.conj() @ rho @ psi))
    assert abs(fidelity(pure, rho) - overlap) <= 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=seeds, dim=dims)
def test_fidelity_commuting_states(seed, dim):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(dim))
    q = rng.dirichlet(np.ones(dim))
    basis = hermitian_eig(random_hermitian(rng, dim)).eigenvectors
    rho1 = basis @ np.diag(p).astype(complex) @ basis.conj().T
    rho2 = basis @ np.diag(q).astype(complex) @ basis.conj().T
    expected = float(np.sum(np.sqrt(p * q)) ** 2)
    assert abs(fidelity(rho1, rho2) - expected) <= 1e-10


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=seeds, dim=dims)
def test_psd_sqrt_squares_back(seed, dim):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, dim)
    root = psd_sqrt(rho)
    assert np.max(np.abs(root @ root - rho)) <= 1e-10
    assert np.max(np.abs(root - root.conj().T)) <= 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=seeds,
    spec_index=st.integers(min_value=0, max_value=len(CHANNEL_SPECS) - 1),
    t=st.floats(min_value=0.01, max_value=6.0, allow_nan=False),
)
def test_fidelity_monotone_under_channels(seed, spec_index, t):
    spec = CHANNEL_SPECS[spec_index]
    rng = np.random.default_rng(seed)
    rho1 = random_density(rng, spec.dim)
    rho2 = random_density(rng, spec.dim)
    channel = model_channel(spec, t)
    before = fidelity(rho1, rho2)
    after = fidelity(apply(channel, rho1), apply(channel, rho2))
    assert after >= before - 1e-9


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    spec_index=st.integers(min_value=0, max_value=len(CHANNEL_SPECS) - 1),
    # tau stays below pi/2 so the vacuum-driven atom never reaches the
    # orthogonal point where the reference fidelity degenerates
    tau=st.floats(min_value=0.05, max_value=1.4, allow_nan=False),
    t=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
def test_difference_anchored_and_bounded_below(spec_index, tau, t):
    spec = CHANNEL_SPECS[spec_index]
    assert fidelity_difference(spec, 0.0, tau) == 0.0
    # the numerator fidelity is nonnegative, pinning G above -1
    assert fidelity_difference(spec, t, tau) >= -1.0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=seeds, dim=dims)
def test_eigendecomposition_reconstructs(seed, dim):
    rng = np.random.default_rng(seed)
    herm = random_hermitian(rng, dim)
    spec = hermitian_eig(herm)
    vecs, vals = spec.eigenvectors, spec.eigenvalues
    rebuilt = vecs @ np.diag(vals).astype(complex) @ vecs.conj().T
    scale = max(1.0, float(np.max(np.abs(vals))))
    assert np.max(np.abs(rebuilt - herm)) <= 1e-10 * scale
    assert np.all(np.diff(vals) >= -1e-12 * scale)


# paper claim 2: the overlap with the initial state is larger under slower
# memory.  f(t; gamma) = (Gamma/2)(t - (1 - e^(-gamma t))/gamma) rises with
# gamma at fixed t, and F0 depends on gamma only through the coherence e^(-2f)/3
MEMORY_GAMMAS = np.geomspace(1e-4, 1e3, 29)
MEMORY_TIMES = np.linspace(0.0, 20.0, 1001)


@pytest.mark.parametrize("alpha_x", [0.0, 0.5, 1.0])
def test_memory_fidelity_never_rises_with_gamma(alpha_x):
    scans = np.array([
        memory_fidelity(YENonMarkov(gamma=gamma, alpha_x=alpha_x), MEMORY_TIMES).values
        for gamma in MEMORY_GAMMAS
    ])
    assert np.all(np.diff(scans, axis=0) <= 0.0)


@pytest.mark.parametrize("gamma", MEMORY_GAMMAS)
def test_memory_decay_approaches_the_semigroup(gamma):
    # entry (1, 1) of the first operator is p = e^(-f) against c = e^(-Gamma t/2);
    # 0 <= Gamma t/2 - f <= Gamma/(2 gamma) and e^(-x) is 1-Lipschitz for x >= 0
    Gamma = 2.0
    p = YENonMarkov(Gamma=Gamma, gamma=gamma).kraus(MEMORY_TIMES)[:, 0, 1, 1]
    c = YEMarkov(Gamma=Gamma).kraus(MEMORY_TIMES)[:, 0, 1, 1]
    assert np.max(np.abs(p - c)) <= Gamma / (2.0 * gamma)
