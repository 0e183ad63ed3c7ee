"""Exactly solvable open-system models with Kraus and closed-form routes.

Four families, each exposing the same three faces: a Kraus channel at time t,
the evolved reference state, and (where one exists) a closed-form fidelity
between the states at two times.  The field sector also gives its state as
a Kraus factor V, rho = V V^dagger.  Each model class holds its own formulas.
The free functions are the channel builders, ye_markov_fidelity,
ye_markov_lindblad, ye_nonmarkov_decay and coherent_amplitudes, which the
classes call; default_fock_cutoff, which picks the Jaynes-Cummings cutoff;
the model_* dispatchers; and build_model, which builds a model from its
registry name.  The channel, state (factor included) and closed-form
routes are kept independent so the test suite can play them against each other.

Models
------
ye-markov      two-qubit dephasing with exponential decay, semigroup.
ye-nonmarkov   same operator structure driven by a flattened decay p(t)
               whose short-time behaviour is quadratic rather than linear.
jcm-qubit      resonant atom-field interaction, atom sector, field initially
               coherent (vacuum as the special case alpha_c = 0).
jcm-photon     the same interaction viewed from the truncated field sector.
ck             qubit dephasing with a cosine coherence revival.

All times are finite and nonnegative; rates are strictly positive.  Channel
builders fill one (k, d, d) operator stack and return it as a plain
KrausChannel, with no pruning of zero operators.
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


def _check_times(ts: np.ndarray | float) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    for t in ts[~((ts >= 0.0) & (ts < math.inf))].flat:
        _check_time(t)  # raises at the first refused time
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

    def channel(self, t: float) -> KrausChannel:
        raise NotImplementedError

    def state(self, t: float) -> np.ndarray:
        raise NotImplementedError

    def states(self, ts: np.ndarray) -> np.ndarray:
        """(T, dim, dim) stack of the states at the times ts."""
        return np.array([self.state(float(t)) for t in ts])

    def factor(self, t: float | np.ndarray) -> np.ndarray | None:
        """A (dim, r) factor V with rho(t) = V V^dagger, (T, dim, r) for T
        times, or None where the model offers none."""
        return None

    def closed_fidelity(self, t: float, tau: float) -> float | None:
        """Closed-form F[rho(t), rho(t + tau)], or None where none is known."""
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

    def channel(self, t: float) -> KrausChannel:
        return ye_markov_channel(t, self.Gamma)

    def state(self, t: float) -> np.ndarray:
        """Populations (1,4,4,0)/9, central coherence lam e^(-Gamma t)/9."""
        t = _check_time(t)
        coherence = self.lam * math.exp(-self.Gamma * t) / 9.0
        return _dephase_state((1 / 9, 4 / 9, 4 / 9, 0.0), coherence)

    def closed_fidelity(self, t: float, tau: float) -> float:
        return ye_markov_fidelity(t, tau, self.Gamma, self.lam)

    def lindblad(self) -> LindbladSet:
        return ye_markov_lindblad(self.Gamma)


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

    def channel(self, t: float) -> KrausChannel:
        return ye_nonmarkov_channel(t, self.Gamma, self.gamma)

    def state(self, t: float) -> np.ndarray:
        """X state: populations (alpha_x, 1, 1, 1 - alpha_x)/3, central
        coherence p(t)^2/3."""
        d = ye_nonmarkov_decay(t, self.Gamma, self.gamma)
        a = self.alpha_x
        return _dephase_state((a / 3, 1 / 3, 1 / 3, (1.0 - a) / 3), d.p_t ** 2 / 3.0)

    def closed_fidelity(self, t: float, tau: float) -> float:
        t = _check_time(t)
        tau = _check_time(tau)
        d1 = ye_nonmarkov_decay(t, self.Gamma, self.gamma)
        d2 = ye_nonmarkov_decay(t + tau, self.Gamma, self.gamma)
        # 1 - p^2 = q^2 exactly through expm1, so the small-f branch keeps digits
        value = (
            1.0
            + math.sqrt((1.0 + d1.p_t ** 2) * (1.0 + d2.p_t ** 2))
            + d1.q_t * d2.q_t
        ) ** 2 / 9.0
        return min(value, 1.0)


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


@dataclass(frozen=True)
class JCMQubit(_JaynesCummings):
    """Atom sector of the resonant interaction; field starts coherent."""

    NAME = "jcm-qubit"
    dim = 2
    GRID = (0.0, 10.0, 0.01)

    def channel(self, t: float) -> KrausChannel:
        return jcm_qubit_channel(t, self)

    def state(self, t: float) -> np.ndarray:
        """Reduced atom state at time t for an initially excited atom."""
        return self.states(np.array([_check_time(t)]))[0]

    def states(self, ts: np.ndarray) -> np.ndarray:
        """Reduced atom states at the times ts, one (T, cutoff) array of
        Rabi phases per sum."""
        ts = _check_times(ts)
        amps = coherent_amplitudes(self.alpha_c, self.cutoff)
        weights = np.abs(amps) ** 2
        n_grid = np.arange(self.cutoff + 1)
        gt = self.g * ts[:, None]
        theta_up = gt * np.sqrt(n_grid + 1.0)
        theta_dn = gt * np.sqrt(n_grid[1:].astype(float))
        out = np.empty((ts.size, 2, 2), dtype=np.complex128)
        out[:, 0, 0] = np.sum(weights * np.cos(theta_up) ** 2, axis=1)
        out[:, 1, 1] = np.sum(weights[: self.cutoff] * np.sin(theta_dn) ** 2, axis=1)
        coherence = 1j * np.sum(
            np.cos(theta_up[:, 1:]) * np.sin(theta_dn) * amps[1:] * np.conj(amps[:-1]), axis=1
        )
        out[:, 0, 1] = coherence
        out[:, 1, 0] = np.conj(coherence)
        return out

    def closed_fidelity(self, t: float, tau: float) -> float | None:
        # the closed form covers the vacuum field only; pi/g periodic in t
        if self.alpha_c != 0:
            return None
        t = _check_time(t)
        tau = _check_time(tau)
        g = self.g
        c1, s1 = math.cos(g * t), math.sin(g * t)
        c2, s2 = math.cos(g * (t + tau)), math.sin(g * (t + tau))
        value = (abs(c1 * c2) + abs(s1 * s2)) ** 2
        return min(value, 1.0)


@dataclass(frozen=True)
class JCMPhoton(_JaynesCummings):
    """Field sector of the resonant interaction, truncated at n_max photons."""

    NAME = "jcm-photon"
    GRID = (0.0, 10.0, 0.05)

    @property
    def dim(self) -> int:
        # one slot above the cutoff so a decaying atom can deposit its photon
        return self.cutoff + 2

    def channel(self, t: float) -> KrausChannel:
        return jcm_photon_channel(t, self.g, self.cutoff)

    def factor(self, t: float | np.ndarray) -> np.ndarray:
        """(dim, 2) Kraus factor [K_0 psi, K_1 psi], (T, dim, 2) for T times:
        cos(theta_n) psi_n and -i sin(theta_n) psi_n moved up one level, with
        theta_n = g t sqrt(n + 1) and psi the truncated coherent vector."""
        ts = _check_times(t)
        theta = self.g * ts[..., None] * np.sqrt(np.arange(self.cutoff + 1) + 1.0)
        psi = coherent_amplitudes(self.alpha_c, self.cutoff)
        v = np.zeros(ts.shape + (self.dim, 2), dtype=np.complex128)
        v[..., :-1, 0] = np.cos(theta) * psi
        v[..., 1:, 1] = -1j * np.sin(theta) * psi
        return v

    def state(self, t: float) -> np.ndarray:
        """Field state V V^dagger at time t, V = ``factor(t)``."""
        v = self.factor(t)
        return v @ v.conj().T


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

    def channel(self, t: float) -> KrausChannel:
        return ck_channel(t, self.t0)

    def state(self, t: float) -> np.ndarray:
        """Populations frozen, coherence scaled by cos(t - t0); times before
        t0 are refused, as by the channel."""
        t = _check_start(t, self.t0)
        off = self.rho12 * math.cos(t - self.t0)
        return np.array(
            [[self.rho11, off], [np.conj(off), self.rho22]], dtype=np.complex128
        )

    def closed_fidelity(self, t: float, tau: float) -> float | None:
        # the closed form covers the default, maximally coherent start only
        if (self.rho11, self.rho22, self.rho12, self.t0) != (0.5, 0.5, 0.5 + 0j, 0.0):
            return None
        t = _check_time(t)
        tau = _check_time(tau)
        c1, c2 = math.cos(t), math.cos(t + tau)
        value = 0.5 * (1.0 + c1 * c2 + abs(math.sin(t) * math.sin(t + tau)))
        return min(value, 1.0)

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
    t = _check_time(t)
    Gamma = _check_rate(Gamma, "Gamma")
    gamma = _check_rate(gamma, "gamma")
    f = 0.5 * Gamma * (t + math.expm1(-gamma * t) / gamma)
    f = max(f, 0.0)
    p_t = math.exp(-f)
    q_t = math.sqrt(-math.expm1(-2.0 * f))
    return DecayFunctions(p_t=p_t, q_t=q_t, f_t=f)


# ---------------------------------------------------------------------------
# dephasing family, exponential branch


def _dephase_kraus(c: float, s: float) -> np.ndarray:
    # shared operator skeleton of both dephasing models, c^2 + s^2 = 1; all
    # four operators are diagonal, row i holding the diagonal of K_i
    ops = np.zeros((4, 4, 4), dtype=np.complex128)
    ops[:, range(4), range(4)] = [
        [c * c, c, c, 1.0],
        [c * s, 0.0, s, 0.0],
        [c * s, s, 0.0, 0.0],
        [s * s, 0.0, 0.0, 0.0],
    ]
    return ops


def _dephase_state(diag: tuple[float, float, float, float], coherence: float) -> np.ndarray:
    rho = np.diag(diag).astype(np.complex128)
    rho[1, 2] = coherence
    rho[2, 1] = coherence
    return rho


def ye_markov_channel(t: float, Gamma: float = 1.0) -> KrausChannel:
    """Dephasing channel at time t with decay e^(-Gamma t) of the central
    coherence."""
    t = _check_time(t)
    Gamma = _check_rate(Gamma, "Gamma")
    c = math.exp(-0.5 * Gamma * t)
    s = math.sqrt(-math.expm1(-Gamma * t))
    return KrausChannel(_dephase_kraus(c, s), label="ye-markov")


def ye_markov_fidelity(t: float, tau: float, Gamma: float = 1.0, lam: float = 0.5) -> float:
    """Closed-form fidelity between the reference states at t and t + tau.

    The two states commute for all times, so the fidelity reduces to the
    classical overlap of the eigenvalue lists.
    """
    t = _check_time(t)
    tau = _check_time(tau)
    x = lam * math.exp(-Gamma * t)
    y = lam * math.exp(-Gamma * (t + tau))
    value = (1.0 + math.sqrt((4.0 + x) * (4.0 + y)) + math.sqrt((4.0 - x) * (4.0 - y))) ** 2 / 81.0
    return min(value, 1.0)


def ye_markov_lindblad(Gamma: float = 1.0) -> LindbladSet:
    """Jump operators generating the exponential dephasing branch."""
    _check_rate(Gamma, "Gamma")
    l1 = np.diag([1.0, 0.0, 1.0, 0.0]).astype(np.complex128)
    l2 = np.diag([1.0, 1.0, 0.0, 0.0]).astype(np.complex128)
    return LindbladSet((l1, l2), rate=Gamma)


# ---------------------------------------------------------------------------
# dephasing family, memory branch


def ye_nonmarkov_channel(t: float, Gamma: float = 1.0, gamma: float = 1e-4) -> KrausChannel:
    """Same operator skeleton as the exponential branch with p, q in place of
    the exponential pair."""
    d = ye_nonmarkov_decay(t, Gamma, gamma)
    return KrausChannel(_dephase_kraus(d.p_t, d.q_t), label="ye-nonmarkov")


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
    """Atom-sector channel, one Kraus operator per final field occupation.

    Basis order is (excited, ground).  The operator list keeps every index
    up to the cutoff, including ones that are identically zero at
    alpha_c = 0; nothing is pruned.
    """
    t = _check_time(t)
    amps = coherent_amplitudes(spec.alpha_c, spec.cutoff)
    n = np.arange(spec.cutoff + 1, dtype=float)
    theta_up = spec.g * t * np.sqrt(n + 1.0)
    theta_dn = spec.g * t * np.sqrt(n)
    ops = np.zeros((spec.cutoff + 1, 2, 2), dtype=np.complex128)
    ops[:, 0, 0] = amps * np.cos(theta_up)
    ops[:-1, 0, 1] = -1j * amps[1:] * np.sin(theta_up[:-1])
    ops[1:, 1, 0] = -1j * amps[:-1] * np.sin(theta_dn[1:])
    ops[:, 1, 1] = amps * np.cos(theta_dn)
    return KrausChannel(ops, label="jcm-qubit")


def jcm_photon_channel(t: float, g: float = 1.0, n_cut: int = 20) -> KrausChannel:
    """Field-sector channel on Fock levels 0..n_cut + 1.

    Complete on the leading (n_cut + 1)-dimensional block: the atom can push
    one photon above the cutoff, so inputs must live at or below n_cut.
    """
    t = _check_time(t)
    g = _check_rate(g, "g")
    if n_cut < 1:
        raise ParamOutOfRange(f"n_cut must be at least 1, got {n_cut!r}")
    theta = g * t * np.sqrt(np.arange(n_cut + 2) + 1.0)
    stay = np.diag(np.cos(theta))
    emit = np.diag(-1j * np.sin(theta[:-1]), k=-1)
    return KrausChannel((stay, emit), label="jcm-photon", valid_dim=n_cut + 1)


# ---------------------------------------------------------------------------
# cosine-revival dephasing


def _check_t0(t0: float) -> float:
    t0 = float(t0)
    if not 0.0 <= t0 < math.inf:
        raise ParamOutOfRange(f"t0 must be finite and nonnegative, got {t0!r}")
    return t0


def _check_start(t: float, t0: float) -> float:
    t = _check_time(t)
    if t < _check_t0(t0):
        raise NegativeTime(f"t = {t!r} precedes the initial time t0 = {t0!r}")
    return t


def ck_channel(t: float, t0: float = 0.0) -> KrausChannel:
    """Dephasing channel whose coherence factor is cos(t - t0)."""
    t = _check_start(t, t0)
    half = 0.5 * (t - t0)
    k0 = math.cos(half) * np.eye(2, dtype=np.complex128)
    k1 = math.sin(half) * np.diag([1.0, -1.0]).astype(np.complex128)
    return KrausChannel((k0, k1), label="ck")


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
