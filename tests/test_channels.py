"""Channel layer: completeness, application, stacks over time, generator rhs."""
from __future__ import annotations

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from kraus_witness import (
    CKDephase,
    DimensionMismatch,
    InvalidChannel,
    JCMPhoton,
    JCMQubit,
    KrausChannel,
    LindbladSet,
    YEMarkov,
    YENonMarkov,
    apply,
    channel_defect,
    ck_channel,
    default_blp_grid,
    lgks_rhs,
    model_channel,
    model_state,
    semigroup_defect,
    trace_distance,
    transfer_matrix,
    validate_cptp,
    validate_density,
    ye_markov_channel,
    ye_markov_lindblad,
    ye_nonmarkov_channel,
)

from kraus_witness import channels

from conftest import random_density


def broken_dephasing_channel(t: float) -> KrausChannel:
    """The exponential dephasing set with its decay amplitude doubled, which
    destroys completeness."""
    good = ye_markov_channel(t)
    k0, k1, k2, k3 = good.operators
    return KrausChannel((k0, 2.0 * k1, 2.0 * k2, 4.0 * k3), label="broken")


class TestKrausChannel:
    def test_requires_operators(self):
        with pytest.raises(InvalidChannel):
            KrausChannel(())

    def test_requires_square(self):
        with pytest.raises(DimensionMismatch):
            KrausChannel((np.zeros((2, 3)),))

    def test_requires_matching_shapes(self):
        with pytest.raises(DimensionMismatch, match=r"\(2, 2\) and \(3, 3\)"):
            KrausChannel((np.eye(2), np.eye(3)))

    def test_requires_operator_matrices(self):
        with pytest.raises(DimensionMismatch):
            KrausChannel((np.eye(2)[0],))

    def test_dim(self):
        assert ye_markov_channel(0.5).dim == 4

    def test_valid_dim_defaults_to_dim(self):
        assert ye_markov_channel(0.5).valid_dim == 4
        assert KrausChannel((np.eye(3),), valid_dim=2).valid_dim == 2

    @pytest.mark.parametrize("name, value", [
        ("operators", np.zeros((1, 4, 4))), ("label", "other"), ("valid_dim", 1),
    ])
    def test_frozen(self, name, value):
        channel = ye_markov_channel(0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(channel, name, value)
        assert channel.label == "ye-markov" and channel.valid_dim == 4

    def test_valid_dim_range(self):
        with pytest.raises(DimensionMismatch):
            KrausChannel((np.eye(2),), valid_dim=3)

    def test_equality_is_identity(self):
        ch = ye_markov_channel(1.0)
        assert ch == ch
        assert (ye_markov_channel(1.0) == ye_markov_channel(1.0)) is False
        lset = ye_markov_lindblad()
        assert lset == lset
        assert (ye_markov_lindblad() == ye_markov_lindblad()) is False
        assert len({lset, lset}) == 1


class TestValidateCptp:
    def test_identity(self):
        assert validate_cptp(KrausChannel((np.eye(3, dtype=complex),))) == 0.0

    def test_model_channels(self, rng):
        specs = [YEMarkov(), YENonMarkov(), CKDephase()]
        for spec in specs:
            for _ in range(10):
                t = float(rng.uniform(0.0, 10.0))
                assert validate_cptp(model_channel(spec, t)) <= 1e-12

    def test_broken_channel_defect_value(self):
        # doubling the decay amplitude inflates the completeness sum; the
        # worst entry lands on the fully damped slot at (1 + 3 w^2)^2 - 1
        t = 1.0
        w2 = -math.expm1(-t)
        expected = (1.0 + 3.0 * w2) ** 2 - 1.0
        bad = broken_dephasing_channel(t)
        with pytest.raises(InvalidChannel):
            validate_cptp(bad)
        assert channel_defect(bad) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nan_channel(self):
        with pytest.raises(InvalidChannel):
            validate_cptp(KrausChannel(np.full((1, 2, 2), np.nan)))

    def test_writes_nothing_to_the_channel(self):
        channel = ye_markov_channel(1.0)
        before = dict(vars(channel))
        validate_cptp(channel)
        after = vars(channel)
        assert after.keys() == before.keys()
        assert all(after[name] is value for name, value in before.items())


def scaled_identity(excess: float) -> KrausChannel:
    """A labelled qubit identity scaled so its completeness defect is about
    ``excess``."""
    return KrausChannel((math.sqrt(1.0 + excess) * np.eye(2, dtype=complex),), label="scaled")


class TestCompletenessGate:
    """apply and transfer_matrix refuse above 1e-8, validate_cptp above 1e-10."""

    def test_defect_between_thresholds(self):
        channel = scaled_identity(1e-9)
        assert 1e-10 < channel_defect(channel) < 1e-8
        rho = np.eye(2, dtype=complex) / 2
        np.testing.assert_allclose(apply(channel, rho), rho, rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(transfer_matrix(channel), np.eye(4), rtol=0.0, atol=1e-8)
        with pytest.raises(InvalidChannel, match="exceeds 1.0e-10 for channel 'scaled'"):
            validate_cptp(channel)
        assert validate_cptp(channel, tol=1e-8) == channel_defect(channel)

    def test_defect_above_ceiling(self):
        channel = scaled_identity(1e-7)
        assert 1e-8 < channel_defect(channel)
        with pytest.raises(InvalidChannel, match="exceeds 1.0e-08 for channel 'scaled'"):
            apply(channel, np.eye(2, dtype=complex) / 2)
        with pytest.raises(InvalidChannel, match="exceeds 1.0e-08 for channel 'scaled'"):
            transfer_matrix(channel)
        with pytest.raises(InvalidChannel, match="exceeds 1.0e-10 for channel 'scaled'"):
            validate_cptp(channel)


class TestApply:
    def test_identity_channel(self, rng):
        rho = random_density(rng, 3)
        out = apply(KrausChannel((np.eye(3, dtype=complex),)), rho)
        np.testing.assert_allclose(out, rho, atol=1e-15)

    def test_reproduces_reference_states(self, rng):
        spec = YEMarkov()
        rho0 = YEMarkov().state(0.0)
        for _ in range(20):
            t = float(rng.uniform(0.0, 10.0))
            direct = model_state(spec, t)
            via_channel = apply(model_channel(spec, t), rho0)
            assert np.max(np.abs(direct - via_channel)) <= 1e-12

    def test_coherence_factor(self):
        rho0 = CKDephase().state(0.0)
        out = apply(ck_channel(2.0), rho0)
        assert out[0, 1] == pytest.approx(0.5 * math.cos(2.0), abs=1e-14)

    def test_preserves_trace_and_hermiticity(self, rng):
        for spec in (YEMarkov(), YENonMarkov(), CKDephase()):
            rho = random_density(rng, spec.dim)
            out = apply(model_channel(spec, float(rng.uniform(0, 5))), rho)
            assert abs(np.trace(out).real - 1.0) <= 1e-10
            assert abs(np.trace(out).imag) <= 1e-12
            assert np.max(np.abs(out - out.conj().T)) <= 1e-11
            validate_density(out)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            apply(ye_markov_channel(1.0), np.eye(2, dtype=complex) / 2)

    def test_rejects_incomplete_channel(self, rng):
        with pytest.raises(InvalidChannel):
            apply(broken_dephasing_channel(1.0), random_density(rng, 4))

    def test_rejects_nan_channel(self):
        with pytest.raises(InvalidChannel):
            apply(KrausChannel(np.full((1, 2, 2), np.nan)), np.eye(2, dtype=complex) / 2)

    @pytest.mark.parametrize("call", [
        lambda channel: apply(channel, np.eye(2, dtype=complex) / 2),
        transfer_matrix,
        lambda channel: channels._evolve(channel.operators[None], np.eye(2)[None] / 2, 2, "big"),
    ], ids=["apply", "transfer_matrix", "_evolve"])
    def test_rejects_a_channel_whose_completeness_sum_overflows(self, call):
        # K^dagger K of 1e160 I is inf: a defect of inf, refused with no warning
        with pytest.raises(InvalidChannel, match="completeness defect inf exceeds"):
            call(KrausChannel([1e160 * np.eye(2)]))

    def test_exponential_branch_is_semigroup(self, rng):
        rho0 = YEMarkov().state(0.0)
        for _ in range(10):
            t1, t2 = rng.uniform(0.1, 5.0, size=2)
            sequential = apply(
                ye_markov_channel(float(t2)),
                apply(ye_markov_channel(float(t1)), rho0),
            )
            direct = apply(ye_markov_channel(float(t1 + t2)), rho0)
            assert np.max(np.abs(sequential - direct)) <= 1e-12

    def test_revival_composition_gap(self):
        # two quarter revivals kill the coherence; one half revival flips it
        half = math.pi / 2.0
        rho0 = CKDephase().state(0.0)
        twice = apply(ck_channel(half), apply(ck_channel(half), rho0))
        gap = trace_distance(twice, CKDephase().state(math.pi))
        assert gap == pytest.approx(0.5, abs=1e-12)


class TestLgksRhs:
    def test_dephasing_pattern(self):
        lam = 0.5
        rhs = lgks_rhs(ye_markov_lindblad(1.0), YEMarkov(1.0, lam).state(0.0))
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 2] = -lam / 9.0
        expected[2, 1] = -lam / 9.0
        np.testing.assert_allclose(rhs, expected, atol=1e-15)

    def test_traceless(self, rng):
        rhs = lgks_rhs(ye_markov_lindblad(2.0), random_density(rng, 4))
        assert abs(np.trace(rhs)) <= 1e-14

    def test_sigma_z_kernel(self):
        # sigma_z rho sigma_z - rho doubles the sign flip on the coherence
        rho = CKDephase().state(0.0)
        rhs = lgks_rhs(CKDephase().lindblad(), rho)
        assert rhs[0, 1] == pytest.approx(-2.0 * 0.5, abs=1e-15)
        assert rhs[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_rate_validation(self):
        with pytest.raises(InvalidChannel):
            LindbladSet((np.eye(2, dtype=complex),), rate=-1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0])
    def test_rate_must_be_finite(self, rate):
        with pytest.raises(InvalidChannel, match="rate must be nonnegative and finite"):
            LindbladSet((np.eye(2, dtype=complex),), rate=rate)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lgks_rhs(CKDephase().lindblad(), np.eye(4, dtype=complex) / 4)


# every model's channel, the coherent-field atom sector and the padded field
# sector (complete on its leading block only) included
STACK_SPECS = [YEMarkov(), YENonMarkov(), JCMQubit(), JCMQubit(alpha_c=1.0 + 0.5j),
               JCMPhoton(), JCMPhoton(alpha_c=1.0), CKDephase(t0=0.5)]
STACK_IDS = ["ye-markov", "ye-nonmarkov", "jcm-qubit", "jcm-qubit-coherent",
             "jcm-photon", "jcm-photon-coherent", "ck-late-start"]


def loop_sandwich(ops, rho):
    out = np.zeros_like(rho, dtype=np.complex128)
    for k in ops:
        out += k @ rho @ k.conj().T
    return out


def loop_gram(ops):
    out = np.zeros(ops[0].shape, dtype=np.complex128)
    for k in ops:
        out += k.conj().T @ k
    return out


class TestStackedMatchesLoop:
    """The stacked matmuls against a per-operator loop, to 1e-15 absolute."""

    @pytest.mark.parametrize("spec", STACK_SPECS, ids=STACK_IDS)
    def test_channel_operations(self, spec, rng):
        for t in spec.t0 + rng.uniform(0.0, 5.0, size=3):
            channel = model_channel(spec, float(t))
            ops = channel.operators
            assert ops.dtype == np.complex128 and ops.ndim == 3
            rho = model_state(spec, spec.t0)
            np.testing.assert_allclose(
                apply(channel, rho), loop_sandwich(ops, rho), rtol=0.0, atol=1e-15
            )
            block = channel.valid_dim or channel.dim
            expected = np.max(np.abs(loop_gram(ops)[:block, :block] - np.eye(block)))
            assert abs(channel_defect(channel) - expected) <= 1e-15

    @pytest.mark.parametrize("spec", [JCMQubit(), YENonMarkov(), JCMPhoton()],
                             ids=["jcm-qubit", "ye-nonmarkov", "jcm-photon"])
    def test_stacked_defects(self, spec):
        ops = spec.kraus(default_blp_grid(spec))
        block = spec.valid_dim
        # reversing the operator axis makes a non-contiguous view of the same channels
        for stack in (ops, ops[:, ::-1]):
            grams = np.array([loop_gram(channel)[:block, :block] for channel in stack])
            np.testing.assert_allclose(channels._gram(stack)[:, :block, :block], grams,
                                       rtol=0.0, atol=1e-15)
            expected = np.max(np.abs(grams - np.eye(block)), axis=(1, 2))
            np.testing.assert_allclose(channels._defects(stack, block), expected,
                                       rtol=0.0, atol=1e-15)

    def test_jcm_qubit_keeps_every_operator(self):
        spec = JCMQubit()
        assert model_channel(spec, 1.0).operators.shape == (spec.cutoff + 1, 2, 2)

    @pytest.mark.parametrize("lset", [ye_markov_lindblad(2.0), CKDephase().lindblad()],
                             ids=["ye-markov", "ck"])
    def test_lgks_rhs(self, lset, rng):
        ops = lset.operators
        assert ops.dtype == np.complex128 and ops.ndim == 3
        rho = random_density(rng, lset.dim)
        gram = loop_gram(ops)
        expected = loop_sandwich(ops, rho) - 0.5 * (gram @ rho + rho @ gram)
        np.testing.assert_allclose(lgks_rhs(lset, rho), expected, rtol=0.0, atol=1e-15)


class TestTransferMatrix:
    @pytest.mark.parametrize("spec", STACK_SPECS, ids=STACK_IDS)
    def test_matches_operator_loop(self, spec, rng):
        # linear on any operator, so a non-Hermitian one is evolved too
        t = spec.t0 + float(rng.uniform(0.0, 5.0))
        channel = model_channel(spec, t)
        d = channel.dim
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        evolved = (transfer_matrix(channel) @ x.ravel()).reshape(d, d)
        expected = loop_sandwich(channel.operators, x)
        np.testing.assert_allclose(evolved, expected, rtol=0.0, atol=1e-13)

    def test_kronecker_sum(self, rng):
        # a random mixture of three unitaries is a complete set
        raw = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
        ops = np.linalg.qr(raw)[0] / np.sqrt(3.0)
        channel = KrausChannel(ops)
        expected = sum(np.kron(k, k.conj()) for k in ops)
        np.testing.assert_allclose(transfer_matrix(channel), expected, rtol=0.0, atol=1e-14)

    def test_rejects_incomplete_channel(self):
        with pytest.raises(InvalidChannel, match="completeness defect"):
            transfer_matrix(broken_dephasing_channel(1.0))

    def test_rejects_nan_channel(self):
        with pytest.raises(InvalidChannel):
            transfer_matrix(KrausChannel(np.full((1, 2, 2), np.nan)))


# the four 2x2 matrix units; their images under a channel are the columns
# of its transfer matrix
UNITS = np.eye(4, dtype=complex).reshape(4, 2, 2)


class TestStackedGate:
    """One completeness check per stack of channels, at the same ceiling."""

    @pytest.mark.parametrize("excess, refused", [(1e-9, False), (1e-7, True)])
    def test_one_time_of_a_stack(self, excess, refused):
        identity = np.eye(2, dtype=complex)[None]
        ops = np.stack([identity, math.sqrt(1.0 + excess) * identity, identity])
        if refused:
            with pytest.raises(InvalidChannel, match="exceeds 1.0e-08 for channel 'scaled'"):
                channels._evolve(ops, UNITS, 2, "scaled")
        else:
            transfers = channels._evolve(ops, UNITS, 2, "scaled").reshape(3, 4, 4)
            np.testing.assert_allclose(transfers, np.broadcast_to(np.eye(4), (3, 4, 4)),
                                       rtol=0.0, atol=1e-8)

    def test_nan_in_a_stack(self):
        ops = np.stack([np.eye(2, dtype=complex)[None], np.full((1, 2, 2), np.nan)])
        with pytest.raises(InvalidChannel, match="nan"):
            channels._evolve(ops, UNITS, 2, "")

    @pytest.mark.parametrize("spec", STACK_SPECS, ids=STACK_IDS)
    def test_matches_each_channel(self, spec):
        ts = spec.t0 + np.linspace(0.0, 5.0, 17)
        ops = spec.kraus(ts)
        transfers = channels._transfer_matrices(ops)
        defects = channels._defects(ops, spec.valid_dim)
        for t, transfer, defect in zip(ts, transfers, defects):
            channel = model_channel(spec, float(t))
            assert transfer.tobytes() == transfer_matrix(channel).tobytes()
            assert defect == channel_defect(channel)


class TestCompletenessDefects:
    @pytest.mark.parametrize("budget, stacks", [(1, 16), (1 << 30, 1)], ids=["one-time", "whole"])
    @pytest.mark.parametrize("spec", STACK_SPECS, ids=STACK_IDS)
    def test_matches_each_channel(self, spec, budget, stacks, monkeypatch):
        ts = spec.t0 + np.linspace(0.0, 5.0, 17)
        sizes = []
        monkeypatch.setattr(channels, "_DEFECT_STACK_BYTES", budget)
        defects = channels.completeness_defects(
            lambda times: sizes.append(len(times)) or spec.kraus(times), ts, spec.valid_dim
        )
        # the first stack sizes a time's operators and gives that time's defect
        assert sizes == [1] + [16 // stacks] * stacks
        assert defects.tolist() == [channel_defect(model_channel(spec, float(t))) for t in ts]


class TestCallers:
    @pytest.mark.parametrize("module", ["cli", "witnesses"])
    def test_import_no_private_name(self, module):
        # the byte budgets and the cuts they make stay behind channels' public functions
        tree = ast.parse((Path(channels.__file__).parent / f"{module}.py").read_text())
        private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and node.module in ("channels", "kraus_witness.channels")
                   for alias in node.names if alias.name.startswith("_")]
        assert private == []


class TestEvolve:
    @pytest.mark.parametrize("spec", STACK_SPECS, ids=STACK_IDS)
    def test_matches_operator_loop(self, spec, rng):
        # the dephasing families take the Schur route, the others the
        # transfer route; linear on any operator, so non-Hermitian ones too
        ops = spec.kraus(spec.t0 + rng.uniform(0.0, 5.0, size=3))
        d = spec.dim
        xs = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
        evolved = channels._evolve(ops, xs, spec.valid_dim, spec.NAME)
        expected = [[loop_sandwich(channel, x) for x in xs] for channel in ops]
        np.testing.assert_allclose(evolved, expected, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("spec", STACK_SPECS, ids=STACK_IDS)
    def test_zero_operators_change_no_bit(self, spec, rng):
        # on both routes: operators zero at every time are dropped before the
        # completeness check and the build
        ops = spec.kraus(spec.t0 + rng.uniform(0.0, 5.0, size=3))
        d = spec.dim
        xs = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
        zeros = np.zeros((3, 2, d, d), dtype=complex)
        padded = np.concatenate([zeros[:, :1], ops, zeros], axis=1)
        evolved = channels._evolve(ops, xs, spec.valid_dim, spec.NAME)
        assert channels._evolve(padded, xs, spec.valid_dim, spec.NAME).tobytes() == evolved.tobytes()

    def test_operator_zero_at_some_times_is_kept(self):
        # the second operator is needed at the first time only
        half = np.sqrt(0.5) * np.eye(2, dtype=complex)
        ops = np.array([[half, half], [np.eye(2), np.zeros((2, 2))]], dtype=complex)
        evolved = channels._evolve(ops, UNITS, 2, "sometimes")
        np.testing.assert_allclose(evolved, np.broadcast_to(UNITS, (2, 4, 2, 2)), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("live", [
        [0.5 * np.eye(2)],
        [],
        [np.eye(2), np.full((2, 2), np.nan)],
    ], ids=["incomplete", "all-zero", "nan"])
    def test_live_set_is_checked(self, live):
        ops = np.array([[*live, np.zeros((2, 2)), np.zeros((2, 2))]] * 2, dtype=complex)
        with pytest.raises(InvalidChannel, match="for channel 'checked'"):
            channels._evolve(ops, UNITS, 2, "checked")


class TestSemigroupDefect:
    def test_exponential_branch_tiny(self):
        family = lambda t: ye_markov_channel(t, 1.0)  # noqa: E731
        rho0 = YEMarkov().state(0.0)
        grid = np.linspace(0.5, 5.0, 5)
        worst = max(
            semigroup_defect(family, rho0, float(t1), float(t2))
            for t1 in grid
            for t2 in grid
        )
        assert worst <= 1e-12

    def test_memory_branch_fails(self):
        spec = YENonMarkov(gamma=1e-4)
        family = lambda t: ye_nonmarkov_channel(t, spec.Gamma, spec.gamma)  # noqa: E731
        rho0 = model_state(spec, 0.0)
        grid = np.linspace(1.0, 10.0, 5)
        worst = max(
            semigroup_defect(family, rho0, float(t1), float(t2))
            for t1 in grid
            for t2 in grid
        )
        assert worst > 1e-3

    def test_revival_model_fails(self):
        family = lambda t: ck_channel(t)  # noqa: E731
        rho0 = CKDephase().state(0.0)
        assert semigroup_defect(family, rho0, 1.0, 1.5) > 1e-3
