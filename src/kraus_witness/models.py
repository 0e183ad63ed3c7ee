"""Exactly solvable open-system models with Kraus and closed-form routes.

Four families, each exposing the same three faces: its Kraus operators and
its evolved reference states at an array of times, and (where one exists) a
closed-form fidelity between the states at two times.  The field sector also
gives its state as a Kraus factor V, rho = V V^dagger.  Each model class
holds its own formulas.  The free functions are the channel builders and
ye_markov_fidelity and ye_markov_lindblad, each a model's method;
coherent_amplitudes, which the classes call; ye_nonmarkov_decay, the memory
branch's decay record at one time; default_fock_cutoff, the Jaynes-Cummings
cutoff; the model_* dispatchers; and build_model, a model from its registry
name.  The channel, state (factor included) and closed-form routes are kept
independent so the test suite can play them against each other.

Models
------
ye-markov      two-qubit dephasing with exponential decay, semigroup.
ye-nonmarkov   same operator structure driven by a flattened decay p(t)
               whose short-time behaviour is quadratic rather than linear.
jcm-qubit      resonant atom-field interaction, atom sector, field initially
               coherent (vacuum as the special case alpha_c = 0).
jcm-photon     the same interaction viewed from the truncated field sector.
ck             qubit dephasing with a cosine coherence revival.

All times are finite and nonnegative, t + tau of a closed form included, and
no Rabi angle g t sqrt(n + 1) overflows; rates are strictly positive.  A
model's ``kraus(ts)`` fills one (T, k, d, d) operator stack for T times, with
no pruning of zero operators, and ``states(ts)`` one (T, d, d) state stack;
``state(t)`` is a stack of one of the latter, and ``channel(t)`` and the free
channel builders wrap a stack of one of the former as a KrausChannel.
Per-time scalars of the dephasing families come from ``math``, one call per
time, so a stack holds the same bits as the matrix built alone.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import KrausChannel, LindbladSet
from .errors import (
    CutoffTooSmall,
    GridTooCoarse,
    InvalidInitialState,
    NegativeTime,
    ParamOutOfRange,
)

# Fock truncation must leave less than this much coherent-state weight outside
_TAIL_CEILING = 1e-12


def _check_time(t: float) -> float:
    t = float(t)
    if not 0.0 <= t < math.inf:
        raise NegativeTime(f"evolution time must be finite and nonnegative, got {t!r}")
    return t


def _check_times(ts: np.ndarray | float, t0: float = 0.0) -> np.ndarray:
    """Times as by _check_time, none of them before the start time t0."""
    ts = np.asarray(ts, dtype=float)
    refused = ts[~((ts >= t0) & (ts < math.inf))]
    for t in refused.flat:
        _check_time(t)  # raises at the first negative or non-finite time
    if refused.size:
        raise NegativeTime(f"t = {float(refused[0])!r} precedes the initial time t0 = {t0!r}")
    return ts


def _check_grid(grid: np.ndarray, min_points: int, name: str) -> np.ndarray:
    """A 1-D, finite, strictly ascending float grid of at least min_points."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < min_points:
        raise GridTooCoarse(f"{name} needs at least {min_points} points, got shape {grid.shape}")
    if not np.isfinite(grid).all():
        raise GridTooCoarse(f"{name} must be finite")
    if np.any(np.diff(grid) <= 0.0):
        raise GridTooCoarse(f"{name} must be strictly ascending")
    return grid


def _check_rate(value: float, name: str) -> float:
    value = float(value)
    if not value > 0.0 or not math.isfinite(value):
        raise ParamOutOfRange(f"{name} must be positive and finite, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# model parameter records


class ModelSpec:
    """One model: a frozen dataclass of its parameters that gives the Kraus
    channel and reference state at time t, the closed-form fidelity where one
    exists, and the rate turning the dimensionless abscissa into raw time.

    Class constants: NAME (registry and CLI name), GRID (default
    dimensionless scan grid, start/stop/step), TAU (default dimensionless
    lag), BLP_GRID (dimensionless stop and point count of the revival grid),
    ABSCISSA (CLI name of the dimensionless time), FLAGS (CLI flag key ->
    field) and, for the dephasing families only, BLP_FAMILY (the field
    perturbed for BLP pairs, drawn in [0, top] at least gap apart).  t0 is
    the start time, where the reference state rho(t0) is given; the default
    grids are measured from it.
    """

    t0 = 0.0

    @property
    def valid_dim(self) -> int:
        """Leading block on which the channel is complete."""
        return self.dim

    def kraus(self, ts: np.ndarray) -> np.ndarray:
        """(T, k, dim, dim) Kraus operator stack at each of the 1-D times ts."""
        raise NotImplementedError

    def channel(self, t: float) -> KrausChannel:
        """The channel at time t, a stack of one from ``kraus``."""
        return KrausChannel(self.kraus([float(t)])[0], label=self.NAME, valid_dim=self.valid_dim)

    def states(self, ts: np.ndarray) -> np.ndarray:
        """(T, dim, dim) stack of the reference states at each of the 1-D times ts."""
        raise NotImplementedError

    def state(self, t: float) -> np.ndarray:
        """The state at time t, a stack of one from ``states``."""
        return self.states([float(t)])[0]

    def factor(self, t: float | np.ndarray) -> np.ndarray | None:
        """A (dim, r) factor V with rho(t) = V V^dagger, (T, dim, r) for T
        times, or None where the model offers none."""
        return None

    def closed_fidelity(self, t: float, tau: float) -> float | None:
        """Closed-form F[rho(t), rho(t + tau)], or None where none is known;
        t, tau and t + tau are checked either way, and overshoot clamped at 1."""
        t, tau = _check_time(t), _check_time(tau)
        _check_time(t + tau)
        value = self._closed(t, tau)
        return None if value is None else min(value, 1.0)

    def _closed(self, t: float, tau: float) -> float | None:
        """The unclamped closed form at checked times, or None."""
        return None

    def lindblad(self) -> LindbladSet | None:
        """Constant-rate generator set, or None where the model has none."""
        return None


@dataclass(frozen=True)
class YEMarkov(ModelSpec):
    """Two-qubit dephasing semigroup; lam sets the initial coherence."""

    Gamma: float = 1.0
    lam: float = 0.5

    NAME = "ye-markov"
    dim = 4
    GRID = (0.0, 10.0, 0.02)
    TAU = 1.0
    BLP_GRID = (10.0, 201)
    ABSCISSA = "Gamma_t"
    FLAGS = {"Gamma": "Gamma", "lam": "lam"}
    BLP_FAMILY = ("lam", 4.0, 0.2)

    def __post_init__(self) -> None:
        _check_rate(self.Gamma, "Gamma")
        if not 0.0 <= self.lam <= 4.0:
            raise ParamOutOfRange(f"lam must lie in [0, 4], got {self.lam!r}")

    @property
    def rate(self) -> float:
        return self.Gamma

    def kraus(self, ts: np.ndarray) -> np.ndarray:
        """Dephasing skeleton with c = e^(-Gamma t/2), s = sqrt(1 - e^(-Gamma t))."""
        ts = _check_times(ts).tolist()
        c = [math.exp(-0.5 * self.Gamma * t) for t in ts]
        s = [math.sqrt(-math.expm1(-self.Gamma * t)) for t in ts]
        return _dephase_kraus(np.array(c), np.array(s))

    def states(self, ts: np.ndarray) -> np.ndarray:
        """Populations (1,4,4,0)/9, central coherence lam e^(-Gamma t)/9."""
        coherence = [self.lam * math.exp(-self.Gamma * t) / 9.0 for t in _check_times(ts).tolist()]
        return _dephase_states((1 / 9, 4 / 9, 4 / 9, 0.0), coherence)

    def _closed(self, t: float, tau: float) -> float:
        # the states commute, so F is the classical overlap of their spectra
        x = self.lam * math.exp(-self.Gamma * t)
        y = self.lam * math.exp(-self.Gamma * (t + tau))
        return (1.0 + math.sqrt((4.0 + x) * (4.0 + y)) + math.sqrt((4.0 - x) * (4.0 - y))) ** 2 / 81.0

    def lindblad(self) -> LindbladSet:
        """Jump operators generating the exponential dephasing branch."""
        l1 = np.diag([1.0, 0.0, 1.0, 0.0]).astype(np.complex128)
        l2 = np.diag([1.0, 1.0, 0.0, 0.0]).astype(np.complex128)
        return LindbladSet((l1, l2), rate=self.Gamma)


@dataclass(frozen=True)
class YENonMarkov(ModelSpec):
    """Dephasing with a reservoir memory time 1/gamma; alpha_x shapes the
    initial X state."""

    Gamma: float = 1.0
    gamma: float = 1e-4
    alpha_x: float = 0.5

    NAME = "ye-nonmarkov"
    dim = 4
    GRID = (0.0, 20.0, 0.02)
    TAU = 1.0
    BLP_GRID = (20.0, 401)
    ABSCISSA = "Gamma_t"
    FLAGS = {"Gamma": "Gamma", "gamma": "gamma", "alpha_x": "alpha_x"}
    BLP_FAMILY = ("alpha_x", 1.0, 0.05)

    def __post_init__(self) -> None:
        _check_rate(self.Gamma, "Gamma")
        _check_rate(self.gamma, "gamma")
        if not 0.0 <= self.alpha_x <= 1.0:
            raise ParamOutOfRange(f"alpha_x must lie in [0, 1], got {self.alpha_x!r}")

    @property
    def rate(self) -> float:
        return self.Gamma

    def kraus(self, ts: np.ndarray) -> np.ndarray:
        """Dephasing skeleton with the memory branch's p(t), q(t)."""
        _, p, q = _memory_decays(_check_times(ts).tolist(), self.Gamma, self.gamma)
        return _dephase_kraus(np.array(p), np.array(q))

    def states(self, ts: np.ndarray) -> np.ndarray:
        """X state: populations (alpha_x, 1, 1, 1 - alpha_x)/3, central
        coherence p(t)^2/3."""
        _, p, _ = _memory_decays(_check_times(ts).tolist(), self.Gamma, self.gamma)
        coherence = [p_t ** 2 / 3.0 for p_t in p]
        a = self.alpha_x
        return _dephase_states((a / 3, 1 / 3, 1 / 3, (1.0 - a) / 3), coherence)

    def _closed(self, t: float, tau: float) -> float:
        _, (p1, p2), (q1, q2) = _memory_decays([t, t + tau], self.Gamma, self.gamma)
        # 1 - p^2 = q^2 exactly through expm1, so the small-f branch keeps digits
        return (1.0 + math.sqrt((1.0 + p1 ** 2) * (1.0 + p2 ** 2)) + q1 * q2) ** 2 / 9.0


@dataclass(frozen=True)
class _JaynesCummings(ModelSpec):
    """Resonant atom-field interaction with the field initially coherent."""

    g: float = 1.0
    alpha_c: complex = 0j
    n_max: int | None = None

    TAU = 10.0
    BLP_GRID = (10.0, 401)
    ABSCISSA = "g_t"
    FLAGS = {"g": "g", "alpha": "alpha_c", "n_cut": "n_max"}

    def __post_init__(self) -> None:
        _check_rate(self.g, "g")
        if not cmath.isfinite(self.alpha_c):
            raise ParamOutOfRange(f"alpha_c must be finite, got {self.alpha_c!r}")
        if self.n_max is not None and self.n_max < 1:
            raise ParamOutOfRange(f"n_max must be at least 1, got {self.n_max!r}")

    @property
    def cutoff(self) -> int:
        if self.n_max is not None:
            return self.n_max
        return default_fock_cutoff(self.alpha_c)

    @property
    def rate(self) -> float:
        return self.g

    def _rabi(self, ts: np.ndarray | float, levels: int) -> tuple[np.ndarray, ...]:
        """Checked times ts, the certified coherent amplitudes, and the Rabi
        angles theta_n = g t sqrt(n + 1) for n < levels, one row per time."""
        ts = _check_times(ts)
        amps = coherent_amplitudes(self.alpha_c, self.cutoff)
        self._check_angle(float(ts.max(initial=0.0)), levels)
        return ts, amps, self.g * ts[..., None] * np.sqrt(np.arange(levels) + 1.0)

    def _check_angle(self, t: float, levels: int = 1) -> None:
        """Refuse a time t whose largest Rabi angle g t sqrt(levels) overflows."""
        if not math.isfinite(self.g * t * math.sqrt(levels)):
            raise ParamOutOfRange(
                f"Rabi angle g t sqrt({levels}) is not finite at g = {self.g!r}, t = {t!r}"
            )


@dataclass(frozen=True)
class JCMQubit(_JaynesCummings):
    """Atom sector of the resonant interaction; field starts coherent."""

    NAME = "jcm-qubit"
    dim = 2
    GRID = (0.0, 10.0, 0.01)

    def kraus(self, ts: np.ndarray) -> np.ndarray:
        """One operator per final field occupation, basis order (excited,
        ground).  Every index up to the cutoff is kept, including ones that
        are identically zero at alpha_c = 0; nothing is pruned.  The ground
        row's angle at level n is theta_(n-1), and cos(0) = 1 at level 0."""
        ts, amps, theta = self._rabi(ts, self.cutoff + 1)
        cos, sin = np.cos(theta), np.sin(theta[:, :-1])
        ops = np.zeros((ts.size, self.cutoff + 1, 2, 2), dtype=np.complex128)
        ops[:, :, 0, 0] = amps * cos
        ops[:, :-1, 0, 1] = -1j * amps[1:] * sin
        ops[:, 1:, 1, 0] = -1j * amps[:-1] * sin
        ops[:, 0, 1, 1] = amps[0]
        ops[:, 1:, 1, 1] = amps[1:] * cos[:, :-1]
        return ops

    def states(self, ts: np.ndarray) -> np.ndarray:
        """Reduced atom states of an initially excited atom at the times ts,
        one (T, cutoff + 1) table of Rabi angles for every sum."""
        ts, amps, theta = self._rabi(ts, self.cutoff + 1)
        weights = np.abs(amps) ** 2
        cos, sin = np.cos(theta), np.sin(theta[:, :-1])
        out = np.empty((ts.size, 2, 2), dtype=np.complex128)
        out[:, 0, 0] = np.sum(weights * cos ** 2, axis=1)
        out[:, 1, 1] = np.sum(weights[: self.cutoff] * sin ** 2, axis=1)
        coherence = 1j * np.sum(cos[:, 1:] * sin * amps[1:] * np.conj(amps[:-1]), axis=1)
        out[:, 0, 1] = coherence
        out[:, 1, 0] = np.conj(coherence)
        return out

    def _closed(self, t: float, tau: float) -> float | None:
        # the closed form covers the vacuum field only; pi/g periodic in t
        if self.alpha_c != 0:
            return None
        self._check_angle(t + tau)
        g = self.g
        c1, s1 = math.cos(g * t), math.sin(g * t)
        c2, s2 = math.cos(g * (t + tau)), math.sin(g * (t + tau))
        return (abs(c1 * c2) + abs(s1 * s2)) ** 2


@dataclass(frozen=True)
class JCMPhoton(_JaynesCummings):
    """Field sector of the resonant interaction, truncated at n_max photons."""

    NAME = "jcm-photon"
    GRID = (0.0, 10.0, 0.05)

    @property
    def dim(self) -> int:
        # one slot above the cutoff so a decaying atom can deposit its photon
        return self.cutoff + 2

    @property
    def valid_dim(self) -> int:
        # inputs live at or below the cutoff
        return self.cutoff + 1

    def kraus(self, ts: np.ndarray) -> np.ndarray:
        """[stay, emit] on Fock levels 0..cutoff + 1: cos(theta_n) on the
        diagonal and -i sin(theta_n) moving level n one up, with
        theta_n = g t sqrt(n + 1); a cutoff too small for the field is
        refused, as by every Jaynes-Cummings formula."""
        ts, _, theta = self._rabi(ts, self.dim)
        levels = np.arange(self.dim)
        ops = np.zeros((ts.size, 2, self.dim, self.dim), dtype=np.complex128)
        ops[:, 0, levels, levels] = np.cos(theta)
        ops[:, 1, levels[1:], levels[:-1]] = -1j * np.sin(theta[:, :-1])
        return ops

    def factor(self, t: float | np.ndarray) -> np.ndarray:
        """(dim, 2) Kraus factor [K_0 psi, K_1 psi], (T, dim, 2) for T times:
        cos(theta_n) psi_n and -i sin(theta_n) psi_n moved up one level, with
        theta_n = g t sqrt(n + 1) and psi the truncated coherent vector."""
        ts, psi, theta = self._rabi(t, self.cutoff + 1)
        v = np.zeros(ts.shape + (self.dim, 2), dtype=np.complex128)
        v[..., :-1, 0] = np.cos(theta) * psi
        v[..., 1:, 1] = -1j * np.sin(theta) * psi
        return v

    def states(self, ts: np.ndarray) -> np.ndarray:
        """Field states V V^dagger at the times ts, V = ``factor(ts)``."""
        v = self.factor(ts)
        return v @ v.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class CKDephase(ModelSpec):
    """Qubit dephasing with cosine coherence revival, started at t0."""

    rho11: float = 0.5
    rho22: float = 0.5
    rho12: complex = 0.5 + 0j
    t0: float = 0.0

    NAME = "ck"
    dim = 2
    rate = 1.0
    GRID = (0.0, 2.0 * math.pi, 0.005)
    TAU = math.pi / 6.0
    BLP_GRID = (2.0 * math.pi, 629)
    ABSCISSA = "t"
    FLAGS = {"rho11": "rho11", "rho22": "rho22", "rho12": "rho12"}

    def __post_init__(self) -> None:
        rho11, rho22, rho12 = self.rho11, self.rho22, self.rho12
        if not all(cmath.isfinite(v) for v in (rho11, rho22, rho12)):
            raise InvalidInitialState(
                f"entries must be finite, got ({rho11!r}, {rho22!r}, {rho12!r})"
            )
        if rho11 < 0.0 or rho22 < 0.0:
            raise InvalidInitialState(
                f"populations must be nonnegative, got ({rho11!r}, {rho22!r})"
            )
        if abs(rho11 + rho22 - 1.0) > 1e-12:
            raise InvalidInitialState(f"populations must sum to 1, got {rho11 + rho22!r}")
        det = rho11 * rho22 - abs(rho12) ** 2
        if det < -1e-12:
            raise InvalidInitialState(
                f"coherence too large: rho11*rho22 - |rho12|^2 = {det:.3e}"
            )
        _check_t0(self.t0)

    def kraus(self, ts: np.ndarray) -> np.ndarray:
        """cos((t - t0)/2) I and sin((t - t0)/2) sigma_z; times before t0
        are refused."""
        half = [0.5 * (t - self.t0) for t in _check_times(ts, self.t0).tolist()]
        cos = np.array([math.cos(h) for h in half])[:, None, None]
        sin = np.array([math.sin(h) for h in half])[:, None, None]
        k0 = cos * np.eye(2, dtype=np.complex128)
        k1 = sin * np.diag([1.0, -1.0]).astype(np.complex128)
        return np.stack([k0, k1], axis=1)

    def states(self, ts: np.ndarray) -> np.ndarray:
        """Populations frozen, coherence scaled by cos(t - t0), one
        ``math.cos`` per time; times before t0 are refused, as by the
        channel."""
        ts = _check_times(ts, self.t0).tolist()
        off = np.array([self.rho12 * math.cos(t - self.t0) for t in ts])
        out = np.empty((len(ts), 2, 2), dtype=np.complex128)
        out[:, 0, 0] = self.rho11
        out[:, 0, 1] = off
        out[:, 1, 0] = np.conj(off)
        out[:, 1, 1] = self.rho22
        return out

    def _closed(self, t: float, tau: float) -> float | None:
        # the closed form covers the default, maximally coherent start only
        if (self.rho11, self.rho22, self.rho12, self.t0) != (0.5, 0.5, 0.5 + 0j, 0.0):
            return None
        c1, c2 = math.cos(t), math.cos(t + tau)
        return 0.5 * (1.0 + c1 * c2 + abs(math.sin(t) * math.sin(t + tau)))

    def lindblad(self) -> LindbladSet:
        """Memory-kernel operator set for the cosine-revival model."""
        sz = np.diag([1.0, -1.0]).astype(np.complex128)
        return LindbladSet((sz,), rate=0.5)


MODEL_CLASSES: dict[str, type[ModelSpec]] = {
    cls.NAME: cls for cls in (YEMarkov, YENonMarkov, JCMQubit, JCMPhoton, CKDephase)
}


# ---------------------------------------------------------------------------
# decay functions


@dataclass(frozen=True)
class DecayFunctions:
    """Scalar decay profile of the memory branch at one instant: p_t and q_t
    with p^2 + q^2 = 1, and the integrated decay exponent f_t behind p_t."""

    p_t: float
    q_t: float
    f_t: float


def ye_nonmarkov_decay(t: float, Gamma: float, gamma: float) -> DecayFunctions:
    """Evaluate the memory-branch decay functions at time t.

    f(t) = (Gamma/2) (t + (exp(-gamma t) - 1)/gamma) grows from ~Gamma gamma
    t^2/4 at small times to ~Gamma t/2 once t >> 1/gamma.  expm1 keeps both
    regimes accurate.
    """
    (f,), (p_t,), (q_t,) = _memory_decays(
        [_check_time(t)], _check_rate(Gamma, "Gamma"), _check_rate(gamma, "gamma")
    )
    return DecayFunctions(p_t=p_t, q_t=q_t, f_t=f)


def _memory_decays(
    ts: list[float], Gamma: float, gamma: float
) -> tuple[list[float], list[float], list[float]]:
    """f, p and q of ``ye_nonmarkov_decay`` at each of the times ts, whose
    checks the caller has made, with no record per time."""
    f = [max(0.5 * Gamma * (t + math.expm1(-gamma * t) / gamma), 0.0) for t in ts]
    return f, [math.exp(-f_t) for f_t in f], [math.sqrt(-math.expm1(-2.0 * f_t)) for f_t in f]


# ---------------------------------------------------------------------------
# dephasing family, exponential branch


def _dephase_kraus(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    # shared operator skeleton of both dephasing models, c^2 + s^2 = 1 at
    # each of the T times; all four operators are diagonal, row i of a
    # time's table holding the diagonal of K_i
    one, zero = np.ones_like(c), np.zeros_like(c)
    table = np.array([
        [c * c, c, c, one],
        [c * s, zero, s, zero],
        [c * s, s, zero, zero],
        [s * s, zero, zero, zero],
    ])
    ops = np.zeros((c.size, 4, 4, 4), dtype=np.complex128)
    ops[:, :, range(4), range(4)] = np.moveaxis(table, -1, 0)
    return ops


def _dephase_states(diag: tuple[float, float, float, float], coherence: list[float]) -> np.ndarray:
    # X states of both dephasing models: fixed populations, one real central coherence per time
    rho = np.zeros((len(coherence), 4, 4), dtype=np.complex128)
    rho[:, range(4), range(4)] = diag
    rho[:, 1, 2] = rho[:, 2, 1] = coherence
    return rho


def ye_markov_channel(t: float, Gamma: float = 1.0) -> KrausChannel:
    """Dephasing channel at time t with decay e^(-Gamma t) of the central
    coherence."""
    return YEMarkov(Gamma=Gamma).channel(t)


def ye_markov_fidelity(t: float, tau: float, Gamma: float = 1.0, lam: float = 0.5) -> float:
    """Closed-form fidelity between the reference states at t and t + tau."""
    return YEMarkov(Gamma=Gamma, lam=lam).closed_fidelity(t, tau)


def ye_markov_lindblad(Gamma: float = 1.0) -> LindbladSet:
    """Jump operators generating the exponential dephasing branch."""
    return YEMarkov(Gamma=Gamma).lindblad()


# ---------------------------------------------------------------------------
# dephasing family, memory branch


def ye_nonmarkov_channel(t: float, Gamma: float = 1.0, gamma: float = 1e-4) -> KrausChannel:
    """Same operator skeleton as the exponential branch with p, q in place of
    the exponential pair."""
    return YENonMarkov(Gamma=Gamma, gamma=gamma).channel(t)


# ---------------------------------------------------------------------------
# resonant atom-field interaction


def default_fock_cutoff(alpha_c: complex) -> int:
    """Truncation level guaranteeing a coherent tail below the certificate."""
    a = abs(alpha_c)
    return int(math.ceil(a * a + 10.0 * a + 20.0))


def coherent_amplitudes(alpha_c: complex, n_max: int) -> np.ndarray:
    """Amplitudes <N|alpha> for N = 0..n_max, with the tail certificate.

    Raises CutoffTooSmall when the discarded weight beyond n_max exceeds
    1e-12, so every downstream sum is exact to well below state tolerances.
    """
    if n_max < 1:
        raise ParamOutOfRange(f"n_max must be at least 1, got {n_max!r}")
    alpha = complex(alpha_c)
    amps = np.zeros(n_max + 1, dtype=np.complex128)
    amps[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, n_max + 1):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    tail = max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)))
    if tail > _TAIL_CEILING:
        raise CutoffTooSmall(
            f"coherent weight {tail:.3e} beyond N = {n_max} exceeds {_TAIL_CEILING:.1e}"
        )
    return amps


def jcm_qubit_channel(t: float, spec: JCMQubit) -> KrausChannel:
    """Atom-sector channel, one Kraus operator per final field occupation."""
    return spec.channel(t)


def jcm_photon_channel(t: float, g: float = 1.0, n_cut: int = 20) -> KrausChannel:
    """Field-sector channel on Fock levels 0..n_cut + 1.

    Complete on the leading (n_cut + 1)-dimensional block: the atom can push
    one photon above the cutoff, so inputs must live at or below n_cut.
    """
    return JCMPhoton(g=g, n_max=n_cut).channel(t)


# ---------------------------------------------------------------------------
# cosine-revival dephasing


def _check_t0(t0: float) -> float:
    t0 = float(t0)
    if not 0.0 <= t0 < math.inf:
        raise ParamOutOfRange(f"t0 must be finite and nonnegative, got {t0!r}")
    return t0


def ck_channel(t: float, t0: float = 0.0) -> KrausChannel:
    """Dephasing channel whose coherence factor is cos(t - t0)."""
    return CKDephase(t0=t0).channel(t)


# ---------------------------------------------------------------------------
# model dispatch


def model_channel(spec: ModelSpec, t: float) -> KrausChannel:
    """Kraus channel of any model at time t."""
    return spec.channel(t)


def model_state(spec: ModelSpec, t: float) -> np.ndarray:
    """Evolved reference state of any model at time t."""
    return spec.state(t)


def model_closed_fidelity(spec: ModelSpec, t: float, tau: float) -> float | None:
    """Closed-form fidelity F[rho(t), rho(t + tau)] where one is known.

    Returns None for configurations without a closed form (coherent-field
    atom sector, the field sector, or non-default revival initial states);
    callers then fall back to the Kraus-factor route where the model has
    one, else to the generic route, which at d = 2 runs no eigensolve.
    """
    return spec.closed_fidelity(t, tau)


def build_model(name: str, **params: object) -> ModelSpec:
    """Instantiate a model spec from its registry name."""
    try:
        cls = MODEL_CLASSES[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_CLASSES))
        raise ParamOutOfRange(f"unknown model {name!r}; choose one of {known}") from None
    return cls(**params)


EvolutionFamily = Callable[[float], KrausChannel]
