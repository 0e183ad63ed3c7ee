"""Non-Markovianity witnesses built on state fidelity and trace distance.

The fidelity witness compares the fidelity between rho(t) and rho(t + tau)
against the same lag taken at the start t0 of the evolution (t0 = 0 for every
model but a late-started revival model),

    G(t, tau) = (F[rho(t), rho(t + tau)] - F[rho(t0), rho(t0 + tau)]) / F[rho(t0), rho(t0 + tau)].

A strictly negative dip certifies memory in the dynamics; the converse does
not hold, so the verdict vocabulary only ever asserts the witnessed side.
The trace-distance estimate integrates distinguishability revivals over a
sampled pair set and is a lower bound by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import apply
from .errors import DegenerateDenominator, GridTooCoarse, OracleMismatch, UsageError
from .linalg import fidelity, trace_distance
from .models import (
    JCMPhoton,
    ModelSpec,
    model_channel,
    model_closed_fidelity,
    model_state,
)

NON_MARKOVIAN_WITNESSED = "NonMarkovianWitnessed"
NO_VIOLATION_FOUND = "NoViolationFound"

DEFAULT_WITNESS_TOL = 1e-8

# reference fidelity this small cannot normalize the difference
_DENOMINATOR_FLOOR = 1e-12

# generic recomputation happens at every cross-check stride along a scan
_CROSS_CHECK_STRIDE = 10
_CROSS_CHECK_TOL = 1e-9

_MIN_BLP_POINTS = 200


@dataclass(frozen=True)
class ScanResult:
    """Values of a scanned quantity over an ascending time grid."""

    abscissa: np.ndarray
    values: np.ndarray
    min_value: float
    min_at: float
    max_value: float
    witness_triggered: bool
    witness_tol: float
    label: str = ""


@dataclass(frozen=True)
class Verdict:
    """Outcome of the fidelity witness over one or more lags.

    NoViolationFound means exactly that; it never claims the dynamics is
    Markovian.  scans holds one scan per lag, in the order of tau_list, and
    evidence is the one with the deepest minimum.
    """

    outcome: str
    evidence: ScanResult
    tau_list: tuple[float, ...]
    witness_tol: float
    scans: tuple[ScanResult, ...]


@dataclass(frozen=True)
class BlpEstimate:
    """Sampled lower bound of the trace-distance revival measure."""

    value: float
    pair_count: int
    best_pair: str
    grid: np.ndarray


def make_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Ascending grid start, start + step, ... not exceeding stop.

    Built as start + step * arange so repeated runs are bit identical.
    """
    if step <= 0.0:
        raise GridTooCoarse(f"step must be positive, got {step!r}")
    if stop <= start:
        raise GridTooCoarse(f"empty window: start {start!r}, stop {stop!r}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(count)


def _fidelity(spec: ModelSpec, t: float, tau: float, closed: bool) -> float | None:
    """F[rho(t), rho(t + tau)]: the closed form when closed is set (None where
    the model has none), else the generic eigenvalue route."""
    if closed:
        return model_closed_fidelity(spec, t, tau)
    return fidelity(model_state(spec, t), model_state(spec, t + tau))


def _reference(spec: ModelSpec, tau: float, closed: bool = True) -> tuple[float, bool]:
    """Reference fidelity F[rho(t0), rho(t0 + tau)], at least 1e-12, and
    whether the closed form gave it; the generic route serves when closed is
    unset or no closed form exists."""
    value = _fidelity(spec, spec.t0, tau, closed)
    if value is None:
        closed = False
        value = _fidelity(spec, spec.t0, tau, closed)
    if value <= _DENOMINATOR_FLOOR:
        raise DegenerateDenominator(
            f"reference fidelity {value:.3e} at lag {tau!r} cannot normalize G"
        )
    return value, closed


def _G(spec: ModelSpec, t: float, tau: float, reference: float, closed: bool) -> float:
    if t == spec.t0:
        return 0.0
    return (_fidelity(spec, t, tau, closed) - reference) / reference


def fidelity_difference(spec: ModelSpec, t: float, tau: float) -> float:
    """Relative fidelity gap G(t, tau); exactly zero at the start time t0.

    Raises DegenerateDenominator when the reference fidelity F[rho(t0),
    rho(t0 + tau)] is at most 1e-12, which happens at lags where the
    reference states become orthogonal.
    """
    reference, closed = _reference(spec, tau)
    return _G(spec, t, tau, reference, closed)


def scan_G(
    spec: ModelSpec,
    t_grid: np.ndarray,
    tau: float,
    witness_tol: float = DEFAULT_WITNESS_TOL,
) -> ScanResult:
    """Evaluate G(t, tau) over a grid, flagging any dip below -witness_tol.

    Models with a closed-form fidelity use it for every point and recompute
    every tenth point through the generic eigenvalue route; disagreement
    beyond 1e-9 raises OracleMismatch.
    """
    t_grid = _check_scan_grid(t_grid)
    reference, closed = _reference(spec, tau)
    values = np.array([_G(spec, float(t), tau, reference, closed) for t in t_grid])
    if closed:
        generic_reference, _ = _reference(spec, tau, closed=False)
        for i in range(0, t_grid.size, _CROSS_CHECK_STRIDE):
            t = float(t_grid[i])
            gap = abs(_G(spec, t, tau, generic_reference, False) - values[i])
            if gap > _CROSS_CHECK_TOL:
                raise OracleMismatch(
                    f"closed-form and generic G differ by {gap:.3e} at t = {t!r}"
                )
    return _summarize(t_grid, values, witness_tol, label=f"G[{spec.NAME}] tau={tau!r}")


def memory_fidelity(spec: ModelSpec, t_grid: np.ndarray) -> ScanResult:
    """Fidelity of rho(t) against the initial state rho(t0) over a grid."""
    t_grid = _check_scan_grid(t_grid)
    t0 = spec.t0
    # the first point tells whether the model has a closed form
    closed = _fidelity(spec, t0, float(t_grid[0]) - t0, True) is not None
    values = np.array([_fidelity(spec, t0, float(t) - t0, closed) for t in t_grid])
    # fidelities are nonnegative, so a zero tolerance never fires
    return _summarize(t_grid, values, 0.0, label=f"F0[{spec.NAME}]")


def _check_scan_grid(t_grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise GridTooCoarse(f"scan grid needs at least 2 points, got shape {grid.shape}")
    if grid[0] < 0.0 or np.any(np.diff(grid) <= 0.0):
        raise GridTooCoarse("scan grid must be ascending and nonnegative")
    return grid


def _summarize(
    t_grid: np.ndarray, values: np.ndarray, witness_tol: float, label: str
) -> ScanResult:
    imin = int(np.argmin(values))
    min_value = float(values[imin])
    return ScanResult(
        abscissa=t_grid,
        values=values,
        min_value=min_value,
        min_at=float(t_grid[imin]),
        max_value=float(values.max()),
        witness_triggered=min_value < -witness_tol,
        witness_tol=witness_tol,
        label=label,
    )


def markovianity_verdict(
    spec: ModelSpec,
    tau_list: tuple[float, ...] | None = None,
    t_grid: np.ndarray | None = None,
    witness_tol: float = DEFAULT_WITNESS_TOL,
) -> Verdict:
    """Run the fidelity witness at each lag and report the strongest scan.

    Any lag whose scan dips below -witness_tol yields
    NonMarkovianWitnessed; otherwise the outcome is NoViolationFound, which
    deliberately leaves the Markovian question open.  The default grid is
    the model's GRID shifted to start at its start time t0.
    """
    rate = spec.rate
    if tau_list is None:
        tau_list = (spec.TAU / rate,)
    tau_list = tuple(float(tau) for tau in tau_list)
    if not tau_list:
        raise UsageError("the lag list tau_list is empty; give at least one lag")
    if t_grid is None:
        start, stop, step = spec.GRID
        t_grid = spec.t0 + make_grid(start / rate, stop / rate, step / rate)
    scans = tuple(scan_G(spec, t_grid, tau, witness_tol=witness_tol) for tau in tau_list)
    triggered = any(s.witness_triggered for s in scans)
    return Verdict(
        outcome=NON_MARKOVIAN_WITNESSED if triggered else NO_VIOLATION_FOUND,
        evidence=min(scans, key=lambda s: s.min_value),
        tau_list=tau_list,
        witness_tol=witness_tol,
        scans=scans,
    )


# ---------------------------------------------------------------------------
# trace-distance revival estimate


def _fibonacci_directions(count: int) -> np.ndarray:
    k = np.arange(count) + 0.5
    z = 1.0 - 2.0 * k / count
    azimuth = k * math.pi * (3.0 - math.sqrt(5.0))
    radial = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([radial * np.cos(azimuth), radial * np.sin(azimuth), z], axis=1)


def _bloch_state(vec: np.ndarray) -> np.ndarray:
    x, y, z = (float(c) for c in vec)
    return 0.5 * np.array(
        [[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]], dtype=np.complex128
    )


def _random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho).real


def default_blp_pairs(
    spec: ModelSpec, seed: int = 0
) -> list[tuple[np.ndarray, np.ndarray, str]]:
    """Seeded pair sample adapted to the model's state space.

    Qubit models get 66 antipodal pure pairs spread by a Fibonacci sphere
    plus 10 random mixed pairs; the dephasing families get initial states
    from their own reference family with perturbed parameters plus random
    full-rank pairs; the field sector gets truncated coherent and Fock
    pairs.
    """
    rng = np.random.default_rng(seed)
    pairs: list[tuple[np.ndarray, np.ndarray, str]] = []
    if spec.dim == 2:
        for i, direction in enumerate(_fibonacci_directions(66)):
            pairs.append(
                (_bloch_state(direction), _bloch_state(-direction), f"antipodal-{i}")
            )
        for i in range(10):
            pairs.append(
                (_random_density(rng, 2), _random_density(rng, 2), f"mixed-{i}")
            )
        return pairs
    if isinstance(spec, JCMPhoton):
        dim = spec.dim
        for i in range(6):
            a1, a2 = rng.uniform(0.2, 1.5, size=2) * np.exp(
                1j * rng.uniform(0.0, 2.0 * math.pi, size=2)
            )
            pairs.append(
                (
                    _embedded_coherent(a1, spec),
                    _embedded_coherent(a2, spec),
                    f"coherent-{i}",
                )
            )
        for i in range(4):
            rho1 = np.zeros((dim, dim), dtype=np.complex128)
            rho2 = np.zeros((dim, dim), dtype=np.complex128)
            rho1[i, i] = 1.0
            rho2[i + 1, i + 1] = 1.0
            pairs.append((rho1, rho2, f"fock-{i}-{i + 1}"))
        return pairs
    field, top, gap = spec.BLP_FAMILY
    for i in range(10):
        lo, hi = np.sort(rng.uniform(0.0, top, size=2))
        while hi - lo < gap:
            lo, hi = np.sort(rng.uniform(0.0, top, size=2))
        pairs.append(
            (
                model_state(replace(spec, **{field: float(lo)}), 0.0),
                model_state(replace(spec, **{field: float(hi)}), 0.0),
                f"family-{i}",
            )
        )
    for i in range(10):
        pairs.append(
            (_random_density(rng, 4), _random_density(rng, 4), f"random-{i}")
        )
    return pairs


def _embedded_coherent(alpha: complex, spec: JCMPhoton) -> np.ndarray:
    rho = replace(spec, alpha_c=alpha, n_max=spec.cutoff).state(0.0)
    return rho / np.trace(rho).real


def default_blp_grid(spec: ModelSpec) -> np.ndarray:
    """Uniform raw-time grid from the start time t0, long enough to contain
    the model's revivals."""
    return spec.t0 + np.linspace(0.0, spec.BLP_GRID[0] / spec.rate, spec.BLP_GRID[1])


def blp_measure(
    spec: ModelSpec,
    t_grid: np.ndarray | None = None,
    pairs: list[tuple[np.ndarray, np.ndarray, str]] | None = None,
    seed: int = 0,
) -> BlpEstimate:
    """Sampled lower bound of the trace-distance revival measure.

    For each pair the trace distance is tracked along the grid, its time
    derivative estimated by central differences (one-sided at the ends),
    and the positive part summed by a rectangle rule.  The estimate is the
    maximum over pairs; finer grids and richer pair sets can only tighten
    it upward toward the true measure.
    """
    if t_grid is None:
        t_grid = default_blp_grid(spec)
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size < _MIN_BLP_POINTS:
        raise GridTooCoarse(
            f"revival estimate needs at least {_MIN_BLP_POINTS} grid points, "
            f"got {grid.size}"
        )
    steps = np.diff(grid)
    if np.any(steps <= 0.0):
        raise GridTooCoarse("revival grid must be strictly ascending")
    h = float(steps[0])
    if np.max(np.abs(steps - h)) > 1e-9 * h:
        raise GridTooCoarse("revival grid must be uniform")
    if pairs is None:
        pairs = default_blp_pairs(spec, seed=seed)

    n_times = grid.size
    distances = np.empty((len(pairs), n_times))
    for j, t in enumerate(grid):
        channel = model_channel(spec, float(t))
        for i, (rho1, rho2, _) in enumerate(pairs):
            distances[i, j] = trace_distance(apply(channel, rho1), apply(channel, rho2))

    best_value = 0.0
    best_label = pairs[0][2] if pairs else ""
    for i, (_, _, label) in enumerate(pairs):
        d = distances[i]
        sigma = np.empty(n_times)
        sigma[1:-1] = (d[2:] - d[:-2]) / (2.0 * h)
        sigma[0] = (d[1] - d[0]) / h
        sigma[-1] = (d[-1] - d[-2]) / h
        value = float(np.sum(np.clip(sigma, 0.0, None)) * h)
        if value > best_value:
            best_value = value
            best_label = label
    return BlpEstimate(
        value=best_value, pair_count=len(pairs), best_pair=best_label, grid=grid
    )
