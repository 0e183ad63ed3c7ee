"""Small-time structure probe and generator residual."""
from __future__ import annotations

import math
import re
from dataclasses import fields

import numpy as np
import pytest

from kraus_witness import (
    CKDephase,
    CONST_IDENTITY_DEFICIT,
    DimensionMismatch,
    FitDegenerate,
    GridTooCoarse,
    JCMPhoton,
    JCMQubit,
    KrausChannel,
    LINEAR_T,
    LindbladSet,
    NegativeTime,
    SQRT_T,
    UNCLASSIFIED,
    YEMarkov,
    YENonMarkov,
    jcm_photon_channel,
    lgks_residual,
    small_time_exponents,
    ye_markov_channel,
    ye_markov_lindblad,
)


def fits_by_index(report):
    return {f.index: f for f in report.fits}


class TestSmallTimeExponents:
    def test_sqrt_family(self):
        report = small_time_exponents(YEMarkov())
        fits = fits_by_index(report)
        assert 0.45 <= fits[1].exponent <= 0.55
        assert 0.45 <= fits[2].exponent <= 0.55
        assert fits[1].classification == SQRT_T
        assert fits[2].classification == SQRT_T
        assert 0.95 <= fits[3].exponent <= 1.05
        assert report.classification == SQRT_T

    def test_sqrt_family_leading_deficit(self):
        report = small_time_exponents(YEMarkov())
        lead = fits_by_index(report)[0]
        assert lead.leading and lead.constant_at_zero
        assert lead.classification == CONST_IDENTITY_DEFICIT
        # the surviving-coherence operator loses weight linearly in t
        assert 0.95 <= lead.exponent <= 1.05

    def test_linear_family(self):
        report = small_time_exponents(YENonMarkov())
        fits = fits_by_index(report)
        assert 0.95 <= fits[1].exponent <= 1.05
        assert 0.95 <= fits[2].exponent <= 1.05
        assert fits[1].classification == LINEAR_T
        # the doubly-damped operator sits one order higher and is flagged so
        # it does not drive the family call
        assert 1.9 <= fits[3].exponent <= 2.1
        assert "quadratic" in fits[3].note
        assert report.classification == LINEAR_T

    def test_revival_family(self):
        report = small_time_exponents(CKDephase())
        fits = fits_by_index(report)
        assert 0.95 <= fits[1].exponent <= 1.05
        assert fits[1].classification == LINEAR_T
        assert 1.9 <= fits[0].exponent <= 2.1
        assert report.classification == LINEAR_T

    def test_vacuum_atom_family(self):
        report = small_time_exponents(JCMQubit())
        fits = fits_by_index(report)
        assert fits[1].classification == LINEAR_T
        dead = [f for f in report.fits if f.index >= 2]
        assert dead and all(f.classification == UNCLASSIFIED for f in dead)
        assert all("identically zero" in f.note for f in dead)
        assert report.classification == LINEAR_T

    def test_coherent_atom_family_has_no_power_law(self):
        # every operator starts at a multiple of the identity, so nothing
        # vanishes at t = 0 and the family call stays open
        report = small_time_exponents(JCMQubit(alpha_c=2.0))
        kinds = {f.classification for f in report.fits}
        assert kinds <= {CONST_IDENTITY_DEFICIT, UNCLASSIFIED}
        assert report.classification == UNCLASSIFIED

    def test_photon_emission_operator(self):
        report = small_time_exponents(lambda t: jcm_photon_channel(t, 1.0, 8))
        fits = fits_by_index(report)
        assert 0.95 <= fits[1].exponent <= 1.05
        assert fits[1].classification == LINEAR_T
        assert report.classification == LINEAR_T

    def test_window_recorded(self):
        grid = np.geomspace(1e-5, 1e-3, 8)
        report = small_time_exponents(YEMarkov(), t_grid=grid)
        np.testing.assert_allclose(report.window, grid)

    def test_grid_too_short(self):
        with pytest.raises(GridTooCoarse, match="at least 6"):
            small_time_exponents(YEMarkov(), t_grid=np.geomspace(1e-4, 1e-2, 5))

    def test_grid_not_positive(self):
        bad = np.array([0.0, 1e-3, 2e-3, 3e-3, 4e-3, 5e-3])
        with pytest.raises(GridTooCoarse):
            small_time_exponents(YEMarkov(), t_grid=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_grid_not_finite(self, bad):
        grid = np.append(np.geomspace(1e-4, 1e-2, 6), bad)
        with pytest.raises(GridTooCoarse, match="finite"):
            small_time_exponents(YEMarkov(), t_grid=grid)

    def test_grid_not_ascending(self):
        with pytest.raises(GridTooCoarse):
            small_time_exponents(YEMarkov(), t_grid=np.geomspace(1e-2, 1e-4, 12))

    def test_constant_family_degenerate(self):
        family = lambda t: KrausChannel((np.eye(2, dtype=complex),))  # noqa: E731
        with pytest.raises(FitDegenerate):
            small_time_exponents(family)


# every model, a late-started revival model and two coherent atom sectors
_SPECS = [
    YEMarkov(), YENonMarkov(), JCMQubit(), JCMPhoton(), CKDephase(), CKDephase(t0=1.0),
    JCMQubit(alpha_c=2.0), JCMQubit(alpha_c=0.6 + 0.8j, n_max=31),
]
_IDS = ["ye-markov", "ye-nonmarkov", "jcm-qubit", "jcm-photon", "ck", "ck-late-start",
        "jcm-qubit-alpha-2", "jcm-qubit-alpha-0.6+0.8j"]


def _counting(spec):
    """A copy of spec whose kraus and channel calls are logged."""
    calls = []

    class Counting(type(spec)):
        def kraus(self, ts):
            calls.append("kraus")
            return super().kraus(ts)

        def channel(self, t):
            calls.append("channel")
            return super().channel(t)

    return Counting(**{f.name: getattr(spec, f.name) for f in fields(spec)}), calls


class TestOperatorStack:
    """A spec is probed from one ``kraus`` stack, with the same bits as the
    bare family of its channels."""

    @pytest.mark.parametrize("spec", _SPECS, ids=_IDS)
    def test_one_kraus_call_and_no_channel(self, spec):
        counting, calls = _counting(spec)
        small_time_exponents(counting)
        assert calls == ["kraus"]

    @pytest.mark.parametrize("spec", _SPECS, ids=_IDS)
    def test_spec_matches_its_bare_family(self, spec):
        report = small_time_exponents(spec)
        bare = small_time_exponents(lambda t: spec.channel(spec.t0 + t))
        assert len(report.fits) == len(bare.fits)
        for a, b in zip(report.fits, bare.fits):
            assert (a.exponent, a.residual) == (b.exponent, b.residual)
            assert (a.classification, a.constant_at_zero, a.leading, a.note) == (
                b.classification, b.constant_at_zero, b.leading, b.note)
        assert report.classification == bare.classification

    def test_more_operators_later_refused(self):
        # a pruned family: only the identity survives at t = 0
        def pruned(t):
            ops = ye_markov_channel(t).operators
            return KrausChannel(ops[[bool(k.any()) for k in ops]])

        expected = "shape (4, 4, 4) at t = 0.0001, (1, 4, 4) at t = 0"
        with pytest.raises(DimensionMismatch, match=re.escape(expected)):
            small_time_exponents(pruned)

    def test_fewer_operators_later_refused(self):
        grid = np.geomspace(1e-4, 1e-2, 12)

        def dropping(t):
            # two operators are dropped from the sixth window time on
            return KrausChannel(ye_markov_channel(t).operators[: 4 if t < grid[5] else 2])

        expected = f"shape (2, 4, 4) at t = {float(grid[5])!r}, (4, 4, 4) at t = 0"
        with pytest.raises(DimensionMismatch, match=re.escape(expected)):
            small_time_exponents(dropping, grid)


class TestStartTime:
    """A late-started model is probed from its start t0, not from t = 0."""

    EARLY = CKDephase(rho11=0.9, rho22=0.1, rho12=0.1)
    LATE = CKDephase(rho11=0.9, rho22=0.1, rho12=0.1, t0=1.0)

    def test_exponents_measured_from_start(self):
        early = small_time_exponents(self.EARLY)
        late = small_time_exponents(self.LATE)
        assert late.classification == early.classification
        assert len(late.fits) == len(early.fits)
        for a, b in zip(early.fits, late.fits):
            assert b.classification == a.classification
            assert b.exponent == pytest.approx(a.exponent, abs=1e-9)

    @pytest.mark.parametrize("delta", [1e-2, 1e-3])
    def test_lgks_residual_measured_from_start(self, delta):
        lset = self.LATE.lindblad()
        early = lgks_residual(self.EARLY, lset, delta)
        assert lgks_residual(self.LATE, lset, delta) == pytest.approx(early, abs=1e-12)


class TestLgksResidual:
    def test_zero_step(self):
        assert lgks_residual(YEMarkov(), ye_markov_lindblad(), 0.0) == 0.0

    def test_exponential_branch_second_order(self):
        lset = ye_markov_lindblad()
        r1 = lgks_residual(YEMarkov(), lset, 1e-3)
        r2 = lgks_residual(YEMarkov(), lset, 5e-4)
        assert 3e-8 <= r1 <= 5e-8
        assert 3.2 <= r1 / r2 <= 4.8

    def test_memory_branch_needs_time_dependent_rate(self):
        # a fixed-rate generator cannot track the memory branch; with the
        # instantaneous rate Gamma gamma delta / 2 the residual is again
        # second order in the step
        spec = YENonMarkov()
        ops = (
            np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex),
            np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex),
        )
        delta = 0.1
        r1 = lgks_residual(
            spec, LindbladSet(ops, rate=spec.Gamma * spec.gamma * delta / 2.0), delta
        )
        r2 = lgks_residual(
            spec,
            LindbladSet(ops, rate=spec.Gamma * spec.gamma * delta / 4.0),
            delta / 2.0,
        )
        assert 7.5 <= r1 / r2 <= 9.0

    def test_rejects_negative_step(self):
        with pytest.raises(NegativeTime):
            lgks_residual(YEMarkov(), ye_markov_lindblad(), -1e-3)
