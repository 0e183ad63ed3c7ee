"""numpy.linalg oracle for the benchmark's output checks.

Nothing here calls into ``kraus_witness``.  States and channels are rebuilt
from the models' Kraus formulas, and every eigenproblem goes through LAPACK
(``numpy.linalg.eigh`` / ``eigvalsh``), so agreement with the package's
Jacobi route is an independent check.

The fidelity applies the same relative eigenvalue floor as the package
(1e-13 of the leading eigenvalue of sqrt(rho1) rho2 sqrt(rho1)).  Without it
the square roots of rounding-level eigenvalues put up to ~3e-8 of noise into
fidelities of rank-deficient states such as the field-sector ones.
"""
from __future__ import annotations

import math

import numpy as np

EIG_FLOOR = 1e-13
TOL = 1e-9


def fidelities(rho1: np.ndarray, rho2: np.ndarray, floor: float = EIG_FLOOR) -> np.ndarray:
    """Uhlmann-Jozsa fidelity of two stacks of density matrices, shape (n, d, d)."""
    w, v = np.linalg.eigh(rho1)
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)[:, None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    inner = root @ rho2 @ root
    inner = 0.5 * (inner + np.conj(np.swapaxes(inner, -1, -2)))
    lam = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    if floor:
        cut = floor * np.maximum(1.0, lam[:, -1:])
        lam = np.where(lam < cut, 0.0, lam)
    value = np.sum(np.sqrt(lam), axis=1) ** 2
    # the package clamps overshoot inside (1, 1 + 1e-9] to exactly 1
    return np.where((value > 1.0) & (value <= 1.0 + 1e-9), 1.0, value)


def fidelity(rho1: np.ndarray, rho2: np.ndarray, floor: float = EIG_FLOOR) -> float:
    return float(fidelities(rho1[None], rho2[None], floor)[0])


def trace_distances(rho1: np.ndarray, rho2: np.ndarray) -> np.ndarray:
    """(1/2)||rho1 - rho2||_1 over stacks of Hermitian matrices."""
    diff = rho1 - rho2
    diff = 0.5 * (diff + np.conj(np.swapaxes(diff, -1, -2)))
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)


def evolve(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k^dagger for a (k, d, d) operator stack and (..., d, d) states."""
    return np.einsum("kij,...jl,kml->...im", kraus, rho, kraus.conj())


# ---------------------------------------------------------------------------
# Kraus operators of the models, one time at a time


def coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    amps[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, cutoff + 1):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps


def default_cutoff(alpha: complex) -> int:
    a = abs(alpha)
    return int(math.ceil(a * a + 10.0 * a + 20.0))


def _dephase(c: float, s: float) -> np.ndarray:
    return np.array(
        [
            np.diag([c * c, c, c, 1.0]),
            np.diag([c * s, 0.0, s, 0.0]),
            np.diag([c * s, s, 0.0, 0.0]),
            np.diag([s * s, 0.0, 0.0, 0.0]),
        ],
        dtype=np.complex128,
    )


def ye_markov_kraus(t: float, Gamma: float = 1.0) -> np.ndarray:
    return _dephase(math.exp(-0.5 * Gamma * t), math.sqrt(-math.expm1(-Gamma * t)))


def ye_nonmarkov_kraus(t: float, Gamma: float = 1.0, gamma: float = 1e-4) -> np.ndarray:
    f = max(0.0, 0.5 * Gamma * (t + math.expm1(-gamma * t) / gamma))
    return _dephase(math.exp(-f), math.sqrt(-math.expm1(-2.0 * f)))


def ck_kraus(t: float) -> np.ndarray:
    half = 0.5 * t
    return np.array(
        [math.cos(half) * np.eye(2), math.sin(half) * np.diag([1.0, -1.0])],
        dtype=np.complex128,
    )


def jcm_qubit_kraus(t: float, amps: np.ndarray, g: float = 1.0) -> np.ndarray:
    """One operator per final photon number; basis (excited, ground)."""
    cutoff = amps.size - 1
    n = np.arange(cutoff + 1)
    up = g * t * np.sqrt(n + 1.0)
    dn = g * t * np.sqrt(n.astype(float))
    prev = np.concatenate([[0.0], amps[:-1]])
    nxt = np.concatenate([amps[1:], [0.0]])
    ops = np.empty((cutoff + 1, 2, 2), dtype=np.complex128)
    ops[:, 0, 0] = amps * np.cos(up)
    ops[:, 0, 1] = -1j * nxt * np.sin(up)
    ops[:, 1, 0] = -1j * prev * np.sin(dn)
    ops[:, 1, 1] = amps * np.cos(dn)
    return ops


# ---------------------------------------------------------------------------
# reference states along a time grid, shape (n, d, d)


def jcm_photon_states(alpha: complex, cutoff: int, times: np.ndarray, g: float = 1.0) -> np.ndarray:
    """Field state from the truncated coherent projector, padded by one level."""
    dim = cutoff + 2
    vec = np.zeros(dim, dtype=np.complex128)
    vec[: cutoff + 1] = coherent_amplitudes(alpha, cutoff)
    root = np.sqrt(np.arange(dim) + 1.0)
    phase = g * np.asarray(times, dtype=float)[:, None] * root
    stay = np.cos(phase) * vec
    emit = np.zeros_like(stay)
    emit[:, 1:] = -1j * np.sin(phase[:, :-1]) * vec[:-1]
    return stay[:, :, None] * stay[:, None, :].conj() + emit[:, :, None] * emit[:, None, :].conj()


def jcm_qubit_states(alpha: complex, cutoff: int, times: np.ndarray, g: float = 1.0) -> np.ndarray:
    """Atom state for an initially excited atom, through the Kraus route."""
    amps = coherent_amplitudes(alpha, cutoff)
    excited = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
    return np.array([evolve(jcm_qubit_kraus(float(t), amps, g), excited) for t in times])


def ck_states(rho0: np.ndarray, times: np.ndarray) -> np.ndarray:
    return np.array([evolve(ck_kraus(float(t)), rho0) for t in times])


# ---------------------------------------------------------------------------
# the quantities the benchmark checks


def make_grid(start: float, stop: float, step: float) -> np.ndarray:
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(count)


def witness_G(states, times: np.ndarray, tau: float) -> np.ndarray:
    """G(t, tau) = (F[rho(t), rho(t + tau)] - F[rho(0), rho(tau)]) / F[rho(0), rho(tau)].

    ``states`` maps an array of times to a stack of density matrices.
    """
    times = np.asarray(times, dtype=float)
    reference = fidelities(states(np.array([0.0])), states(np.array([tau])))[0]
    values = (fidelities(states(times), states(times + tau)) - reference) / reference
    return np.where(times == 0.0, 0.0, values)


def blp_value(kraus, grid: np.ndarray, rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Trace-distance revival estimate: max over pairs of the summed positive
    central-difference slope, exactly as the package defines it."""
    distances = np.empty((rho1.shape[0], grid.size))
    for j, t in enumerate(grid):
        ops = kraus(float(t))
        distances[:, j] = trace_distances(evolve(ops, rho1), evolve(ops, rho2))
    h = float(grid[1] - grid[0])
    sigma = np.empty_like(distances)
    sigma[:, 1:-1] = (distances[:, 2:] - distances[:, :-2]) / (2.0 * h)
    sigma[:, 0] = (distances[:, 1] - distances[:, 0]) / h
    sigma[:, -1] = (distances[:, -1] - distances[:, -2]) / h
    return max(0.0, float(np.max(np.sum(np.clip(sigma, 0.0, None), axis=1) * h)))
