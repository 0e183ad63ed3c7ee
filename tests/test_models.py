"""Model layer: decay functions, operators, reference states, closed-form
fidelities, dispatch."""
from __future__ import annotations

import math

import numpy as np
import pytest

from kraus_witness import (
    CKDephase,
    CutoffTooSmall,
    InvalidInitialState,
    JCMPhoton,
    JCMQubit,
    MODEL_CLASSES,
    NegativeTime,
    ParamOutOfRange,
    YEMarkov,
    YENonMarkov,
    apply,
    build_model,
    channel_defect,
    default_blp_grid,
    ck_channel,
    coherent_amplitudes,
    default_fock_cutoff,
    jcm_photon_channel,
    jcm_qubit_channel,
    model_channel,
    model_closed_fidelity,
    model_state,
    validate_density,
    ye_markov_channel,
    ye_markov_fidelity,
)

from kraus_witness import models
from conftest import oracle_fidelity
from test_acceptance import CLOSED_FORM_SPECS

ALL_SPECS = [YEMarkov(), YENonMarkov(), JCMQubit(), JCMPhoton(), CKDephase()]

# vacuum and coherent field sectors
_FIELDS = [JCMPhoton(), JCMPhoton(alpha_c=1, n_max=31), JCMPhoton(alpha_c=0.6 + 0.8j)]
_FIELD_IDS = ["vacuum", "alpha-1", "alpha-0.6+0.8j"]


class TestDecayFunctions:
    """The memory branch's f, p and q from ``models._memory_decays``."""

    def test_branch_normalization(self, rng):
        _, p, q = models._memory_decays(rng.uniform(0.0, 20.0, size=30).tolist(), 1.0, 1e-4)
        for p_t, q_t in zip(p, q):
            assert p_t**2 + q_t**2 == pytest.approx(1.0, abs=1e-14)

    def test_exponent_nonnegative_and_nondecreasing(self):
        f, _, _ = models._memory_decays(np.linspace(0.0, 30.0, 200).tolist(), 1.0, 1e-4)
        assert min(f) >= 0.0
        assert all(b >= a for a, b in zip(f, f[1:]))

    def test_small_memory_rate_limit(self):
        # f ~ Gamma gamma t^2 / 4 when gamma t << 1
        _, (p_t,), _ = models._memory_decays([1.0], 1.0, 1e-4)
        assert p_t == pytest.approx(1.0 - 1e-4 / 4.0, abs=1e-6)

    def test_fast_memory_rate_limit(self):
        # f -> Gamma t / 2 once gamma t >> 1
        (f_t,), _, _ = models._memory_decays([1.0], 1.0, 1e3)
        assert f_t == pytest.approx(0.5, abs=1e-3)

    # _memory_decays trusts its caller; the model makes the checks before
    # any decay is taken

    def test_rejects_negative_time(self):
        with pytest.raises(NegativeTime):
            YENonMarkov().kraus([-0.1])

    def test_rejects_negative_rate(self):
        with pytest.raises(ParamOutOfRange):
            YENonMarkov(Gamma=-1.0, gamma=1e-4)


class TestSpecValidation:
    def test_markov_lambda_window(self):
        YEMarkov(lam=4.0)
        with pytest.raises(ParamOutOfRange):
            YEMarkov(lam=4.5)
        with pytest.raises(ParamOutOfRange):
            YEMarkov(lam=-0.1)

    def test_nonmarkov_alpha_window(self):
        YENonMarkov(alpha_x=1.0)
        with pytest.raises(ParamOutOfRange):
            YENonMarkov(alpha_x=1.5)

    def test_nonpositive_rates(self):
        with pytest.raises(ParamOutOfRange):
            YEMarkov(Gamma=0.0)
        with pytest.raises(ParamOutOfRange):
            JCMQubit(g=-1.0)

    def test_ck_initial_state(self):
        CKDephase(rho11=0.3, rho22=0.7, rho12=0.2 + 0.1j)
        with pytest.raises(InvalidInitialState):
            CKDephase(rho11=0.6, rho22=0.6)
        with pytest.raises(InvalidInitialState):
            CKDephase(rho11=-0.1, rho22=1.1)
        with pytest.raises(InvalidInitialState):
            # coherence above the positivity ceiling sqrt(rho11 rho22)
            CKDephase(rho11=0.5, rho22=0.5, rho12=0.8)

    @pytest.mark.parametrize(
        "entries",
        [dict(rho11=math.nan, rho22=0.5), dict(rho12=complex(math.nan, 0.0))],
    )
    def test_ck_nonfinite_entries(self, entries):
        with pytest.raises(InvalidInitialState):
            CKDephase(**entries)

    @pytest.mark.parametrize("cls", [JCMQubit, JCMPhoton])
    @pytest.mark.parametrize("alpha", [complex(math.nan, 0.0), complex(math.inf, 0.0),
                                       complex(0.0, -math.inf)])
    def test_jcm_nonfinite_field(self, cls, alpha):
        with pytest.raises(ParamOutOfRange):
            cls(alpha_c=alpha)
        with pytest.raises(ParamOutOfRange):
            cls(alpha_c=alpha, n_max=10)

    @pytest.mark.parametrize("cls", [JCMQubit, JCMPhoton])
    def test_jcm_cutoff_below_one(self, cls):
        with pytest.raises(ParamOutOfRange, match="n_max must be at least 1, got 0"):
            cls(n_max=0)


class TestExponentialDephasing:
    def test_time_zero_is_identity(self):
        ch = ye_markov_channel(0.0)
        np.testing.assert_allclose(ch.operators[0], np.eye(4), atol=1e-15)
        for k in ch.operators[1:]:
            assert np.max(np.abs(k)) == 0.0
        assert channel_defect(ch) == 0.0

    def test_half_coherence_operator(self):
        # e^(-Gamma t / 2) = 1/2 exactly at Gamma t = 2 ln 2
        ch = ye_markov_channel(2.0 * math.log(2.0))
        np.testing.assert_allclose(
            np.diag(ch.operators[0]).real, [0.25, 0.5, 0.5, 1.0], atol=1e-15
        )

    def test_state_entries(self):
        rho = YEMarkov(1.0, 0.5).state(1.0)
        np.testing.assert_allclose(
            np.diag(rho).real, np.array([1.0, 4.0, 4.0, 0.0]) / 9.0, atol=1e-15
        )
        assert rho[1, 2] == pytest.approx(0.5 * math.exp(-1.0) / 9.0, abs=1e-16)

    def test_channel_reproduces_state(self, rng):
        rho0 = YEMarkov().state(0.0)
        for t in rng.uniform(0.0, 10.0, size=25):
            gap = np.max(
                np.abs(apply(ye_markov_channel(float(t)), rho0) - YEMarkov().state(float(t)))
            )
            assert gap <= 1e-12

    def test_fidelity_at_zero_lag(self, rng):
        for t in rng.uniform(0.0, 10.0, size=10):
            assert ye_markov_fidelity(float(t), 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_fidelity_long_lag_plateau(self):
        assert ye_markov_fidelity(0.0, 50.0) == pytest.approx(
            0.9965137269205128, abs=1e-15
        )

    def test_fidelity_nondecreasing_at_fixed_lag(self):
        grid = np.linspace(0.0, 10.0, 401)
        vals = [ye_markov_fidelity(float(t), 1.0) for t in grid]
        assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))

    def test_fidelity_matches_oracle(self, rng):
        for _ in range(20):
            t, tau = rng.uniform(0.0, 8.0, size=2)
            closed = ye_markov_fidelity(float(t), float(tau))
            generic = oracle_fidelity(
                YEMarkov().state(float(t)), YEMarkov().state(float(t + tau))
            )
            assert closed == pytest.approx(generic, abs=1e-9)


class TestMemoryDephasing:
    def test_state_entries(self):
        spec = YENonMarkov(alpha_x=0.5)
        rho = spec.state(2.0)
        np.testing.assert_allclose(
            np.diag(rho).real, np.array([0.5, 1.0, 1.0, 0.5]) / 3.0, atol=1e-15
        )
        _, (p_t,), _ = models._memory_decays([2.0], spec.Gamma, spec.gamma)
        assert rho[1, 2] == pytest.approx(p_t**2 / 3.0, abs=1e-16)

    @pytest.mark.parametrize("gamma", [1e-4, 10.0])
    @pytest.mark.parametrize("window", ["revival", "small-time"])
    def test_stacks_match_per_time_decays(self, gamma, window):
        # kraus and states hold the bits of stacks built from one
        # _memory_decays call per time
        spec = YENonMarkov(gamma=gamma)
        ts = default_blp_grid(spec) if window == "revival" else np.linspace(0.0, 1e-3, 101)
        decays = [models._memory_decays([t], spec.Gamma, spec.gamma) for t in ts.tolist()]
        p = np.array([p_t for _, (p_t,), _ in decays])
        q = np.array([q_t for _, _, (q_t,) in decays])
        a = spec.alpha_x
        populations = (a / 3, 1 / 3, 1 / 3, (1.0 - a) / 3)
        states = models._dephase_states(populations, [p_t ** 2 / 3.0 for p_t in p.tolist()])
        assert spec.kraus(ts).tobytes() == models._dephase_kraus(p, q).tobytes()
        assert spec.states(ts).tobytes() == states.tobytes()

    def test_channel_reproduces_state(self, rng):
        spec = YENonMarkov()
        rho0 = spec.state(0.0)
        from kraus_witness import ye_nonmarkov_channel

        for t in rng.uniform(0.0, 20.0, size=25):
            evolved = apply(ye_nonmarkov_channel(float(t), spec.Gamma, spec.gamma), rho0)
            assert np.max(np.abs(evolved - spec.state(float(t)))) <= 1e-12

    def test_fidelity_matches_oracle(self, rng):
        spec = YENonMarkov()
        for _ in range(20):
            t, tau = rng.uniform(0.0, 15.0, size=2)
            closed = spec.closed_fidelity(float(t), float(tau))
            generic = oracle_fidelity(
                spec.state(float(t)),
                spec.state(float(t + tau)),
            )
            assert closed == pytest.approx(generic, abs=1e-9)


class TestCoherentAmplitudes:
    def test_vacuum(self):
        amps = coherent_amplitudes(0.0, 5)
        np.testing.assert_allclose(amps, [1, 0, 0, 0, 0, 0], atol=1e-15)

    def test_poisson_weights(self):
        alpha = 1.5 + 0.5j
        amps = coherent_amplitudes(alpha, default_fock_cutoff(alpha))
        n = abs(alpha) ** 2
        for k in (0, 1, 2, 3):
            expected = math.exp(-n) * n**k / math.factorial(k)
            assert abs(amps[k]) ** 2 == pytest.approx(expected, rel=1e-12)

    def test_norm_certificate(self):
        amps = coherent_amplitudes(2.0, default_fock_cutoff(2.0))
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_tiny_cutoff(self):
        with pytest.raises(CutoffTooSmall):
            coherent_amplitudes(2.0, 1)

    def test_rejects_cutoff_below_one(self):
        # even the vacuum, which n_max = 0 would hold exactly
        with pytest.raises(ParamOutOfRange, match="n_max must be at least 1, got 0"):
            coherent_amplitudes(0j, 0)


def _coherent_weights(alpha: complex, n_max: int) -> list[float]:
    """|psi_n|^2 of the coherent state for n = 0..n_max, from ``math``."""
    mean = abs(alpha) ** 2
    return [math.exp(-mean) * mean ** n / math.factorial(n) for n in range(n_max + 1)]


class TestRabiAngles:
    """Populations of the coherent exchange against theta_n = g t sqrt(n + 1)
    written here, so the angle table every formula shares is checked on its own."""

    ALPHA, N_MAX, G = 0.6 + 0.8j, 31, 1.3
    TIMES = (0.0, 0.37, 1.0, 2.5, 7.9)

    def _angles(self, t: float) -> list[float]:
        return [self.G * t * math.sqrt(n + 1) for n in range(self.N_MAX + 1)]

    def test_atom_excited_population(self):
        spec = JCMQubit(g=self.G, alpha_c=self.ALPHA, n_max=self.N_MAX)
        weights = _coherent_weights(self.ALPHA, self.N_MAX)
        rho0 = np.diag([1.0, 0.0]).astype(np.complex128)
        states = spec.states(np.array(self.TIMES))
        for t, rho in zip(self.TIMES, states):
            expected = sum(w * math.cos(th) ** 2 for w, th in zip(weights, self._angles(t)))
            assert abs(rho[0, 0] - expected) <= 1e-13
            assert abs(apply(spec.channel(t), rho0)[0, 0] - expected) <= 1e-13

    def test_field_populations(self):
        spec = JCMPhoton(g=self.G, alpha_c=self.ALPHA, n_max=self.N_MAX)
        weights = _coherent_weights(self.ALPHA, self.N_MAX) + [0.0]
        rho0 = spec.state(0.0)
        states = spec.states(np.array(self.TIMES))
        for t, rho in zip(self.TIMES, states):
            theta = self._angles(t) + [0.0]
            expected = [
                weights[n] * math.cos(theta[n]) ** 2
                + (weights[n - 1] * math.sin(theta[n - 1]) ** 2 if n else 0.0)
                for n in range(spec.dim)
            ]
            assert np.max(np.abs(np.diagonal(rho) - expected)) <= 1e-13
            evolved = apply(spec.channel(t), rho0)
            assert np.max(np.abs(np.diagonal(evolved) - expected)) <= 1e-13


class TestRabiAngleOverflow:
    """A finite time whose Rabi angle g t sqrt(n + 1) overflows is refused
    by name, before any NaN or overflow warning appears."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec", [JCMQubit(alpha_c=1), JCMPhoton(alpha_c=1), JCMPhoton()],
                             ids=["qubit-coherent", "photon-coherent", "photon-vacuum"])
    def test_stacks_refuse_the_time(self, spec):
        factor = (spec.factor,) if isinstance(spec, JCMPhoton) else ()
        for build in (spec.kraus, spec.states) + factor:
            with pytest.raises(ParamOutOfRange, match="Rabi angle"):
                build(np.array([0.0, 1e308]))
        with pytest.raises(ParamOutOfRange, match="Rabi angle"):
            spec.channel(1e308)

    @pytest.mark.filterwarnings("error")
    def test_closed_form_refuses_the_time(self):
        # t + tau = 2e307 is finite, g (t + tau) is not
        with pytest.raises(ParamOutOfRange, match="Rabi angle g t sqrt\\(1\\)"):
            JCMQubit(g=10).closed_fidelity(1e307, 1e307)
        assert 0.0 <= JCMQubit(g=10).closed_fidelity(1e306, 1e306) <= 1.0

    def test_empty_stacks_need_no_angle(self):
        assert JCMQubit().kraus([]).shape == (0, 21, 2, 2)
        assert JCMPhoton().factor(np.array([])).shape == (0, 22, 2)


class TestAtomMode:
    def test_vacuum_populations(self, rng):
        spec = JCMQubit()
        for t in rng.uniform(0.0, 10.0, size=10):
            rho = spec.state(float(t))
            assert rho[0, 0].real == pytest.approx(math.cos(float(t)) ** 2, abs=1e-14)
            assert rho[1, 1].real == pytest.approx(math.sin(float(t)) ** 2, abs=1e-14)
            assert abs(rho[0, 1]) <= 1e-15

    def test_vacuum_period(self):
        gap = np.max(np.abs(JCMQubit().state(0.3) - JCMQubit().state(0.3 + math.pi)))
        assert gap <= 1e-12

    def test_channel_reproduces_state(self, rng):
        for alpha in (0.0, 0.8 + 0.3j):
            spec = JCMQubit(alpha_c=alpha)
            rho0 = spec.state(0.0)
            for t in rng.uniform(0.0, 6.0, size=10):
                evolved = apply(jcm_qubit_channel(float(t), spec), rho0)
                assert np.max(np.abs(evolved - spec.state(float(t)))) <= 1e-12

    def test_coherent_drive_creates_coherence(self):
        rho = JCMQubit(alpha_c=1.0).state(0.5)
        assert abs(rho[0, 1]) > 1e-3
        validate_density(rho)

    def test_cutoff_stability(self):
        lo = JCMQubit(alpha_c=2.0, n_max=60).state(1.0)
        hi = JCMQubit(alpha_c=2.0, n_max=80).state(1.0)
        assert np.max(np.abs(lo - hi)) <= 1e-10

    def test_cutoff_certificate(self):
        with pytest.raises(CutoffTooSmall):
            JCMQubit(alpha_c=2.0, n_max=1).state(1.0)

    def test_vacuum_fidelity_pins(self):
        assert JCMQubit().closed_fidelity(0.0, 0.0) == pytest.approx(1.0, abs=1e-14)
        # the second state hits the ground state at g(t+tau) = pi/2
        assert JCMQubit().closed_fidelity(math.pi / 4, math.pi / 4) == pytest.approx(0.5, abs=1e-12)

    def test_vacuum_fidelity_matches_oracle(self, rng):
        spec = JCMQubit()
        for _ in range(20):
            t, tau = rng.uniform(0.0, 8.0, size=2)
            closed = spec.closed_fidelity(float(t), float(tau))
            generic = oracle_fidelity(
                spec.state(float(t)), spec.state(float(t + tau))
            )
            assert closed == pytest.approx(generic, abs=1e-9)


class TestFieldMode:
    def test_initial_state(self):
        spec = JCMPhoton()
        rho0 = spec.state(0.0)
        assert rho0[0, 0] == pytest.approx(1.0)
        assert np.trace(rho0).real == pytest.approx(1.0, abs=1e-14)

    def test_subspace_completeness(self, rng):
        for t in rng.uniform(0.0, 10.0, size=10):
            assert channel_defect(jcm_photon_channel(float(t))) <= 1e-12

    def test_full_transfer(self):
        # vacuum plus excited atom swaps into a single photon at g t = pi/2
        rho = JCMPhoton().state(math.pi / 2)
        assert rho[1, 1].real == pytest.approx(1.0, abs=1e-12)
        assert rho[0, 0].real == pytest.approx(0.0, abs=1e-12)

    def test_factor_at_start(self):
        spec = JCMPhoton(alpha_c=0.5 - 0.5j)
        v = spec.factor(0.0)
        assert v.shape == (spec.dim, 2)
        amps = coherent_amplitudes(0.5 - 0.5j, spec.cutoff)
        assert v[: spec.cutoff + 1, 0].tolist() == amps.tolist()
        assert not v[spec.cutoff + 1:, 0].any() and not v[:, 1].any()

    @pytest.mark.parametrize("spec", _FIELDS, ids=_FIELD_IDS)
    def test_factor_stacks_the_factors(self, spec):
        ts = np.array([0.0, 0.37, 1.0, 2.5, 9.99])
        stack = spec.factor(ts)
        assert stack.shape == (ts.size, spec.dim, 2)
        for t, v in zip(ts, stack):
            np.testing.assert_array_equal(v, spec.factor(float(t)))
        # [psi, 0] at t = 0
        psi = np.zeros(spec.dim, dtype=np.complex128)
        psi[: spec.cutoff + 1] = coherent_amplitudes(spec.alpha_c, spec.cutoff)
        np.testing.assert_array_equal(stack[0], np.stack([psi, np.zeros(spec.dim)], axis=1))

    @pytest.mark.parametrize("spec", [YEMarkov(), YENonMarkov(), JCMQubit(), CKDephase()],
                             ids=lambda spec: spec.NAME)
    def test_only_the_field_sector_has_a_factor(self, spec):
        assert spec.factor(1.0) is None

    def test_cutoff_certificate(self):
        spec = JCMPhoton(alpha_c=2, n_max=1)
        with pytest.raises(CutoffTooSmall):
            spec.kraus([0.5])
        with pytest.raises(CutoffTooSmall):
            spec.channel(0.5)

    def test_channel_reproduces_state(self, rng):
        # the factor is built from its formula, the channel independently
        for spec in _FIELDS:
            rho0 = spec.state(0.0)
            for t in rng.uniform(0.0, 8.0, size=10):
                evolved = apply(jcm_photon_channel(float(t), spec.g, spec.cutoff), rho0)
                assert np.max(np.abs(evolved - spec.state(float(t)))) <= 1e-12


class TestRevivalDephasing:
    def test_coherence_flip(self):
        rho = CKDephase().state(math.pi)
        assert rho[0, 1] == pytest.approx(-0.5, abs=1e-14)
        np.testing.assert_allclose(np.diag(rho).real, [0.5, 0.5], atol=1e-15)

    def test_channel_reproduces_state(self, rng):
        spec = CKDephase()
        rho0 = spec.state(0.0)
        for t in rng.uniform(0.0, 2.0 * math.pi, size=100):
            evolved = apply(ck_channel(float(t)), rho0)
            assert np.max(np.abs(evolved - spec.state(float(t)))) <= 1e-12

    def test_fidelity_pin(self):
        assert CKDephase().closed_fidelity(0.0, math.pi / 2) == pytest.approx(0.5, abs=1e-14)

    def test_fidelity_matches_oracle(self, rng):
        spec = CKDephase()
        for _ in range(20):
            t, tau = rng.uniform(0.0, 2.0 * math.pi, size=2)
            closed = spec.closed_fidelity(float(t), float(tau))
            generic = oracle_fidelity(
                spec.state(float(t)), spec.state(float(t + tau))
            )
            assert closed == pytest.approx(generic, abs=1e-9)

    def test_start_offset(self, rng):
        spec = CKDephase(t0=1.0)
        np.testing.assert_allclose(
            spec.state(1.0), CKDephase().state(0.0), atol=1e-15
        )
        with pytest.raises(NegativeTime):
            ck_channel(0.5, t0=1.0)
        with pytest.raises(NegativeTime):
            spec.state(0.5)
        # the channel at t carries the state at t0 to the state at t
        rho_t0 = model_state(spec, spec.t0)
        for t in np.concatenate([[spec.t0], rng.uniform(spec.t0, 8.0, size=20)]):
            evolved = apply(model_channel(spec, float(t)), rho_t0)
            assert np.max(np.abs(evolved - model_state(spec, float(t)))) <= 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t0", [math.nan, math.inf, -1.0])
    def test_start_must_be_finite_and_nonnegative(self, t0):
        with pytest.raises(ParamOutOfRange, match="t0 must be finite and nonnegative"):
            CKDephase(t0=t0)
        with pytest.raises(ParamOutOfRange, match="t0 must be finite and nonnegative"):
            ck_channel(1.0, t0=t0)


# every model, a late-started revival model and a coherent atom sector
_KRAUS_SPECS = ALL_SPECS + [CKDephase(t0=1.0), JCMQubit(alpha_c=1, n_max=31)]
_KRAUS_IDS = [spec.NAME for spec in ALL_SPECS] + ["ck-late-start", "jcm-qubit-coherent"]


class TestKrausStack:
    """``kraus(ts)`` is each model's one operator formula: row i of a stack
    holds the same bits as the stack of one at ts[i] and as ``channel``."""

    @pytest.mark.parametrize("spec", _KRAUS_SPECS, ids=_KRAUS_IDS)
    def test_rows_are_stacks_of_one(self, spec):
        grid = default_blp_grid(spec)
        stack = spec.kraus(grid)
        channel = spec.channel(float(grid[0]))
        assert stack.dtype == np.complex128
        assert stack.shape == (grid.size,) + channel.operators.shape
        assert channel.label == spec.NAME and channel.valid_dim == spec.valid_dim
        for i, t in enumerate(grid):
            assert stack[i].tobytes() == spec.kraus(grid[i:i + 1])[0].tobytes()
            assert stack[i].tobytes() == spec.channel(float(t)).operators.tobytes()

    @pytest.mark.parametrize("t", [math.nan, -0.5])
    @pytest.mark.parametrize("spec", _KRAUS_SPECS, ids=_KRAUS_IDS)
    def test_refuses_nan_and_negative_times(self, spec, t):
        with pytest.raises(NegativeTime):
            spec.kraus(np.array([spec.t0, t, spec.t0 + 1.0]))

    def test_refuses_times_before_the_start(self):
        with pytest.raises(NegativeTime, match="t = 0.5 precedes the initial time t0 = 1.0"):
            CKDephase(t0=1.0).kraus(np.array([1.0, 0.5]))

    def test_empty_stack(self):
        assert YEMarkov().kraus(np.array([])).shape == (0, 4, 4, 4)
        assert CKDephase().kraus(np.array([])).shape == (0, 2, 2, 2)


class TestDispatch:
    def test_registry_round_trip(self):
        for name, cls in MODEL_CLASSES.items():
            assert build_model(name).__class__ is cls
            assert cls.NAME == name

    def test_unknown_model(self):
        with pytest.raises(ParamOutOfRange, match="unknown model"):
            build_model("nope")

    def test_state_channel_consistency(self, rng):
        for spec in ALL_SPECS:
            rho0 = model_state(spec, 0.0)
            t = float(rng.uniform(0.1, 2.0))
            evolved = apply(model_channel(spec, t), rho0)
            assert np.max(np.abs(evolved - model_state(spec, t))) <= 1e-12

    def test_no_model_class_has_its_own_state(self):
        # states(ts) is each model's one state formula, state(t) a stack of one
        for cls in MODEL_CLASSES.values():
            assert "states" in vars(cls) and "state" not in vars(cls), cls.NAME

    @pytest.mark.parametrize(
        "spec", ALL_SPECS + [JCMQubit(alpha_c=1, n_max=31)], ids=lambda s: s.NAME
    )
    def test_states_stack_the_states(self, spec):
        # row i holds the same bits as the stack of one at ts[i] and as state
        ts = default_blp_grid(spec)
        stack = spec.states(ts)
        assert stack.dtype == np.complex128
        assert stack.shape == (ts.size, spec.dim, spec.dim)
        for i, t in enumerate(ts):
            assert stack[i].tobytes() == spec.states(ts[i:i + 1])[0].tobytes()
            assert stack[i].tobytes() == spec.state(float(t)).tobytes()
            assert stack[i].tobytes() == model_state(spec, float(t)).tobytes()

    @pytest.mark.parametrize("spec", [CKDephase(t0=1.0), CKDephase(rho11=0.9, rho22=0.1, rho12=0.1)],
                             ids=["late-start", "mixed"])
    def test_revival_states_stack_the_states(self, spec):
        ts = default_blp_grid(spec)
        stack = spec.states(ts)
        assert stack.shape == (ts.size, 2, 2)
        for i, t in enumerate(ts):
            assert stack[i].tobytes() == spec.states(ts[i:i + 1])[0].tobytes()
            assert stack[i].tobytes() == spec.state(float(t)).tobytes()
        with pytest.raises(NegativeTime):
            spec.states(np.array([spec.t0, spec.t0 - 0.5]))

    @pytest.mark.parametrize("spec", _FIELDS, ids=_FIELD_IDS)
    def test_field_states_are_factor_products(self, spec):
        for t, rho in zip(default_blp_grid(spec), spec.states(default_blp_grid(spec))):
            v = spec.factor(float(t))
            assert rho.tobytes() == (v @ v.conj().T).tobytes()

    def test_empty_state_stack(self):
        for spec in ALL_SPECS:
            assert spec.states(np.array([])).shape == (0, spec.dim, spec.dim)

    def test_states_reject_negative_times(self):
        with pytest.raises(NegativeTime, match="-0.5"):
            JCMQubit(alpha_c=1, n_max=31).states(np.array([0.0, -0.5, 1.0]))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -0.5])
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.NAME)
    def test_non_finite_times_are_refused(self, spec, t):
        for build in (spec.state, spec.channel, lambda t: spec.states(np.array([0.0, t]))):
            with pytest.raises(NegativeTime, match="finite and nonnegative"):
                build(t)

    def test_factor_refuses_non_finite_times(self):
        for t in (math.nan, math.inf, -1.0):
            with pytest.raises(NegativeTime, match="finite and nonnegative"):
                JCMPhoton().factor(t)
            with pytest.raises(NegativeTime, match="finite and nonnegative"):
                JCMPhoton().factor(np.array([0.0, t]))

    def test_closed_fidelity_availability(self):
        assert model_closed_fidelity(YEMarkov(), 0.1, 0.2) is not None
        assert model_closed_fidelity(JCMQubit(), 0.1, 0.2) is not None
        assert model_closed_fidelity(JCMQubit(alpha_c=1.0), 0.1, 0.2) is None
        assert model_closed_fidelity(JCMPhoton(), 0.1, 0.2) is None
        assert model_closed_fidelity(CKDephase(), 0.1, 0.2) is not None
        assert model_closed_fidelity(CKDephase(rho11=0.3, rho22=0.7, rho12=0.2), 0.1, 0.2) is None

    @pytest.mark.parametrize("spec", CLOSED_FORM_SPECS, ids=lambda s: s.NAME)
    def test_closed_forms_refuse_an_infinite_later_time(self, spec):
        # t and tau are finite, t + tau overflows
        with pytest.raises(NegativeTime, match="got inf"):
            spec.closed_fidelity(1e308, 1e308)

    @pytest.mark.parametrize("spec", [JCMPhoton(), JCMQubit(alpha_c=1.0),
                                      CKDephase(rho11=0.3, rho22=0.7, rho12=0.2)],
                             ids=lambda s: s.NAME)
    def test_times_are_checked_where_no_closed_form_exists(self, spec):
        for t, tau in ((-1.0, 0.5), (0.5, math.nan), (1e308, 1e308)):
            with pytest.raises(NegativeTime):
                spec.closed_fidelity(t, tau)

    def test_closed_forms_clamp_only_in_the_base_class(self):
        assert "closed_fidelity" in vars(models.ModelSpec)
        for cls in MODEL_CLASSES.values():
            assert "closed_fidelity" not in vars(cls), cls.NAME

    @pytest.mark.parametrize("params", [dict(lam=9.0), dict(Gamma=-1.0), dict(Gamma=math.nan)])
    def test_free_closed_form_checks_its_parameters(self, params):
        with pytest.raises(ParamOutOfRange):
            ye_markov_fidelity(1.0, 1.0, **params)

    def test_lindblad_availability(self):
        assert YEMarkov().lindblad() is not None
        assert CKDephase().lindblad() is not None
        assert YENonMarkov().lindblad() is None
        assert JCMQubit().lindblad() is None

    def test_rates_and_grids(self):
        assert YEMarkov(Gamma=2.0).rate == 2.0
        assert JCMQubit(g=3.0).rate == 3.0
        assert CKDephase().rate == 1.0
        for spec in ALL_SPECS:
            start, stop, step = spec.GRID
            assert start == 0.0 and stop > start and 0 < step < stop
            assert spec.TAU > 0.0

    def test_build_model_rejects_bad_param(self):
        with pytest.raises((ParamOutOfRange, TypeError)):
            build_model("ye-markov", lam=9.0)
