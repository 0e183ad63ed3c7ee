"""Non-Markovianity witnesses built on state fidelity and trace distance.

The fidelity witness compares the fidelity between rho(t) and rho(t + tau)
against the same lag taken at the start t0 of the evolution (t0 = 0 for every
model but a late-started revival model),

    G(t, tau) = (F[rho(t), rho(t + tau)] - F[rho(t0), rho(t0 + tau)]) / F[rho(t0), rho(t0 + tau)].

A strictly negative dip certifies memory in the dynamics; the converse does
not hold, so the verdict vocabulary only ever asserts the witnessed side.
The trace-distance estimate sums distinguishability revivals over a sampled
pair set on a sampled grid; it estimates the measure and bounds it neither way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import evolve_chunks
from .errors import (
    DegenerateDenominator,
    DimensionMismatch,
    GridTooCoarse,
    OracleMismatch,
    UsageError,
)
from .linalg import factor_fidelity, fidelities, trace_norms, validate_densities
from .models import JCMPhoton, ModelSpec, _check_grid

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
    """Sampled estimate of the trace-distance revival measure, not a bound."""

    value: float
    pair_count: int
    best_pair: str
    grid: np.ndarray


def make_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Ascending grid start, start + step, ... not exceeding stop.

    Built as start + step * arange so repeated runs are bit identical; a
    point count numpy cannot size or allocate raises GridTooCoarse.
    """
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise GridTooCoarse(f"grid needs finite values, got {start!r}, {stop!r}, {step!r}")
    if step <= 0.0:
        raise GridTooCoarse(f"step must be positive, got {step!r}")
    if stop <= start:
        raise GridTooCoarse(f"empty window: start {start!r}, stop {stop!r}")
    try:
        return start + step * np.arange(int((stop - start) / step + 1e-9) + 1)
    except (OverflowError, ValueError, MemoryError):
        # a count past int (inf), past numpy's array size, or past memory
        raise GridTooCoarse(
            f"grid from {start!r} to {stop!r} in steps of {step!r} has too many points"
        ) from None


# fidelity routes, in order of preference
_CLOSED, _FACTOR, _GENERIC = "closed", "factor", "generic"


def _route(spec: ModelSpec) -> str:
    """The model's fidelity route: its closed form where it has one, else
    its Kraus factors where its class gives them, else the generic route.
    No factor is built to decide."""
    if spec.closed_fidelity(spec.t0, 0.0) is not None:
        return _CLOSED
    if type(spec).factor is not ModelSpec.factor:
        return _FACTOR
    return _GENERIC


def _fidelities(
    spec: ModelSpec, ts: np.ndarray, lags: np.ndarray | float, route: str
) -> np.ndarray:
    """F[rho(t), rho(t + lag)] over ts and lags broadcast together: one
    ``fidelities`` call on the generic route, one ``factor_fidelity`` call
    on the factor route, one scalar call per pair on the closed route."""
    with np.errstate(over="ignore"):
        # an overflowing t + lag is inf, which states and factor refuse by name
        later = ts + lags
    if route == _GENERIC:
        return fidelities(*np.broadcast_arrays(spec.states(ts), spec.states(later)))
    if route == _FACTOR:
        return factor_fidelity(*np.broadcast_arrays(spec.factor(ts), spec.factor(later)))
    pairs = np.broadcast(ts, lags)
    return np.array([spec.closed_fidelity(float(t), float(lag)) for t, lag in pairs])


def _G(spec: ModelSpec, ts: np.ndarray, tau: float, route: str) -> np.ndarray:
    """G at each t of ts, with the reference F[rho(t0), rho(t0 + tau)] taken
    from the same batch (ts's first entry where that is t0); exactly zero
    at t0.  A reference of at most 1e-12 raises DegenerateDenominator."""
    times = ts if ts[0] == spec.t0 else np.concatenate(([spec.t0], ts))
    values = _fidelities(spec, times, tau, route)
    reference = values[0]
    if reference <= _DENOMINATOR_FLOOR:
        raise DegenerateDenominator(
            f"reference fidelity {reference:.3e} at lag {tau!r} cannot normalize G"
        )
    return np.where(ts == spec.t0, 0.0, (values[-ts.size:] - reference) / reference)


def fidelity_difference(spec: ModelSpec, t: float, tau: float) -> float:
    """Relative fidelity gap G(t, tau); exactly zero at the start time t0.

    Raises DegenerateDenominator when the reference fidelity F[rho(t0),
    rho(t0 + tau)] is at most 1e-12, which happens at lags where the
    reference states become orthogonal.
    """
    return float(_G(spec, np.array([float(t)]), tau, _route(spec))[0])


def scan_G(
    spec: ModelSpec,
    t_grid: np.ndarray,
    tau: float,
    witness_tol: float = DEFAULT_WITNESS_TOL,
) -> ScanResult:
    """Evaluate G(t, tau) over a grid, flagging any dip below -witness_tol.

    The model picks the route for the whole scan: its closed form where it
    has one, else its Kraus factors, else the generic route, which takes
    the grid in one batch.  Every route evaluates the reference pair at t0
    in the same batch as the grid.  A closed-form scan recomputes every
    tenth point through the generic route; disagreement beyond 1e-9 raises
    OracleMismatch at the first such point.
    """
    t_grid = _check_scan_grid(t_grid)
    route = _route(spec)
    values = _G(spec, t_grid, tau, route)
    if route == _CLOSED:
        checked = t_grid[::_CROSS_CHECK_STRIDE]
        gaps = np.abs(_G(spec, checked, tau, _GENERIC) - values[::_CROSS_CHECK_STRIDE])
        failing = np.flatnonzero(gaps > _CROSS_CHECK_TOL)
        if failing.size:
            i = int(failing[0])
            raise OracleMismatch(
                f"closed-form and generic G differ by {gaps[i]:.3e} at t = {float(checked[i])!r}"
            )
    return _summarize(t_grid, values, witness_tol, label=f"G[{spec.NAME}] tau={tau!r}")


def memory_fidelity(spec: ModelSpec, t_grid: np.ndarray) -> ScanResult:
    """Fidelity of rho(t) against the initial state rho(t0) over a grid."""
    t_grid = _check_scan_grid(t_grid)
    t0 = spec.t0
    values = _fidelities(spec, np.array([t0]), t_grid - t0, _route(spec))
    # fidelities are nonnegative, so a zero tolerance never fires
    return _summarize(t_grid, values, 0.0, label=f"F0[{spec.NAME}]")


def _check_scan_grid(t_grid: np.ndarray) -> np.ndarray:
    grid = _check_grid(t_grid, 2, "scan grid")
    if grid[0] < 0.0:
        raise GridTooCoarse("scan grid must start at a nonnegative time")
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
                replace(spec, **{field: float(lo)}).state(0.0),
                replace(spec, **{field: float(hi)}).state(0.0),
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


def _pair_state(rho: np.ndarray, dim: int, label: str) -> np.ndarray:
    state = np.asarray(rho, dtype=np.complex128)
    if state.shape != (dim, dim):
        raise DimensionMismatch(
            f"pair {label!r}: state shape {state.shape} does not match model dimension {dim}"
        )
    return state


def _revival_distances(
    spec: ModelSpec, grid: np.ndarray, pairs: list[tuple[np.ndarray, np.ndarray, str]]
) -> np.ndarray:
    """(pairs x times) trace distances D = (1/2)||Lambda_t(rho1 - rho2)||_1.

    Every state is checked first, all in one stack.  The channel is linear,
    so each pair is evolved once, as its difference, by ``evolve_chunks``;
    each chunk's norms are one ``trace_norms`` call.  A norm does not depend
    on the batch it is taken in, so the chunking moves no bit.
    """
    dim = spec.dim
    states = validate_densities(np.array([
        _pair_state(rho, dim, label) for rho1, rho2, label in pairs for rho in (rho1, rho2)
    ]))
    differences = states[0::2] - states[1::2]
    distances = np.empty((len(pairs), grid.size))
    for start, evolved in evolve_chunks(spec.kraus, grid, differences, spec.valid_dim, spec.NAME):
        norms = trace_norms(evolved.reshape(-1, dim, dim)).reshape(-1, len(pairs))
        distances[:, start:start + len(norms)] = 0.5 * norms.T
    return distances


def blp_measure(
    spec: ModelSpec,
    t_grid: np.ndarray | None = None,
    pairs: list[tuple[np.ndarray, np.ndarray, str]] | None = None,
) -> BlpEstimate:
    """Sampled estimate of the trace-distance revival measure.

    For each pair the trace distance is tracked along the grid, its time
    derivative estimated by central differences (one-sided at the ends),
    and the positive part summed with weight h at every point, ends too.
    The estimate is the maximum over pairs (the first pair wins a tie), and
    no bound: the sum misses growth between points and adds about h/2 times
    the growth rate at each end, so a finer grid can move it either way.
    Without ``pairs`` the sample is ``default_blp_pairs(spec)``, at seed 0.
    Every state must be a (dim, dim) density matrix (DimensionMismatch,
    or ``validate_density``'s errors at its default tolerance); all are
    checked before any evolution.
    """
    if t_grid is None:
        t_grid = default_blp_grid(spec)
    grid = _check_grid(t_grid, _MIN_BLP_POINTS, "revival grid")
    steps = np.diff(grid)
    h = float(steps[0])
    if np.max(np.abs(steps - h)) > 1e-9 * h:
        raise GridTooCoarse("revival grid must be uniform")
    if pairs is None:
        pairs = default_blp_pairs(spec)
    if not pairs:
        return BlpEstimate(value=0.0, pair_count=0, best_pair="", grid=grid)

    distances = _revival_distances(spec, grid, pairs)
    # central differences inside, first-order one-sided at the ends
    values = np.clip(np.gradient(distances, h, axis=1), 0.0, None).sum(axis=1) * h
    best = int(np.argmax(values))
    return BlpEstimate(
        value=float(values[best]), pair_count=len(pairs), best_pair=pairs[best][2], grid=grid
    )
