"""Shared test helpers.

oracle_fidelity is the independent route: it goes through numpy's LAPACK
eigensolver and never touches the package's Jacobi implementation, so any
agreement between the two is meaningful.  It zeroes eigenvalues of
sqrt(rho1) rho2 sqrt(rho1) below 1e-13 of the leading one, as the package
and bench/oracle.py do: on rank-deficient states their square roots are
rounding noise worth up to ~1e-8 of fidelity, and test_referee.py checks the
floored value against a 40-digit computation.
"""
from __future__ import annotations

import numpy as np
import pytest

from kraus_witness import linalg

# the golden-file helpers assert for the tests that call them
pytest.register_assert_rewrite("golden")


def oracle_fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
    w, v = np.linalg.eigh(rho1)
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.conj().T
    inner = root @ rho2 @ root
    inner = 0.5 * (inner + inner.conj().T)
    lam = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    lam = np.where(lam < 1e-13 * max(1.0, lam[-1]), 0.0, lam)
    return float(np.sum(np.sqrt(lam)) ** 2)


def oracle_trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    diff = rho1 - rho2
    diff = 0.5 * (diff + diff.conj().T)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return raw + raw.conj().T


def forbid_eigensolves(monkeypatch):
    """Make any Jacobi kernel call fail the test."""
    def no_eigensolve(stack, vectors=False):
        raise AssertionError("an eigensolve ran")

    monkeypatch.setattr(linalg, "_jacobi", no_eigensolve)


def record_kernel_calls(monkeypatch):
    """(stack shape, vectors) of every Jacobi kernel call, in order."""
    calls = []
    jacobi = linalg._jacobi

    def recorded(stack, vectors=False):
        calls.append((stack.shape, vectors))
        return jacobi(stack, vectors)

    monkeypatch.setattr(linalg, "_jacobi", recorded)
    return calls


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)
