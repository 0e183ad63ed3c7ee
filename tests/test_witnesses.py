"""Fidelity-difference witness, verdicts, and the trace-distance revival
estimator."""
from __future__ import annotations

import math

import numpy as np
import pytest

from kraus_witness import (
    CKDephase,
    DegenerateDenominator,
    GridTooCoarse,
    JCMPhoton,
    JCMQubit,
    NO_VIOLATION_FOUND,
    NON_MARKOVIAN_WITNESSED,
    OracleMismatch,
    UsageError,
    YEMarkov,
    YENonMarkov,
    blp_measure,
    default_blp_grid,
    default_blp_pairs,
    fidelity,
    fidelity_difference,
    make_grid,
    markovianity_verdict,
    memory_fidelity,
    model_state,
    scan_G,
    validate_density,
)


class _SkewedCK(CKDephase):
    """Default revival model whose closed form is 1e-6 off away from t = 0."""

    def closed_fidelity(self, t, tau):
        return super().closed_fidelity(t, tau) - (1e-6 if t > 0.0 else 0.0)


class TestMakeGrid:
    def test_inclusive_endpoints(self):
        grid = make_grid(0.0, 10.0, 0.02)
        assert len(grid) == 501
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(10.0, abs=1e-12)

    def test_uniform_spacing(self):
        grid = make_grid(0.0, 2.0 * math.pi, 0.005)
        steps = np.diff(grid)
        assert np.max(np.abs(steps - 0.005)) <= 1e-12

    def test_rejects_bad_step(self):
        with pytest.raises(GridTooCoarse):
            make_grid(0.0, 1.0, 0.0)
        with pytest.raises(GridTooCoarse):
            make_grid(0.0, 1.0, -0.1)

    def test_rejects_empty_window(self):
        with pytest.raises(GridTooCoarse):
            make_grid(1.0, 1.0, 0.1)


class TestFidelityDifference:
    def test_zero_at_origin(self):
        # both fidelities reduce to F[rho(0), rho(tau)], the value is exact
        assert fidelity_difference(YEMarkov(), 0.0, 1.0) == 0.0

    def test_matches_manual_ratio(self):
        t, tau = 1.3, math.pi / 6.0
        closed = CKDephase().closed_fidelity
        expected = (closed(t, tau) - closed(0.0, tau)) / closed(0.0, tau)
        assert fidelity_difference(CKDephase(), t, tau) == pytest.approx(
            expected, abs=1e-14
        )

    def test_degenerate_reference(self):
        # at g tau = pi/2 the vacuum-driven atom is orthogonal to its start,
        # so the reference fidelity underflows
        with pytest.raises(DegenerateDenominator):
            fidelity_difference(JCMQubit(), 1.0, math.pi / 2.0)


class TestScanG:
    def test_exponential_branch_stays_positive(self):
        grid = make_grid(0.0, 10.0, 0.02)
        result = scan_G(YEMarkov(), grid, 1.0)
        assert result.min_value >= -1e-12
        assert not result.witness_triggered
        assert result.max_value == pytest.approx(1.3996669317e-3, rel=1e-6)
        assert result.min_at == pytest.approx(grid[int(np.argmin(result.values))])

    def test_memory_branch_stays_positive(self):
        grid = make_grid(0.0, 20.0, 0.02)
        result = scan_G(YENonMarkov(), grid, 1.0)
        assert result.min_value >= -1e-12
        assert result.max_value == pytest.approx(3.690393845e-7, rel=1e-6)

    def test_cross_check_agrees_with_generic(self):
        spec, tau = CKDephase(), math.pi / 6.0
        grid = make_grid(0.0, 2.0 * math.pi, 0.05)
        closed = scan_G(spec, grid, tau)
        # G at every grid point from the generic eigenvalue route
        reference = fidelity(model_state(spec, 0.0), model_state(spec, tau))
        generic = [
            (fidelity(model_state(spec, t), model_state(spec, t + tau)) - reference)
            / reference
            for t in grid
        ]
        np.testing.assert_allclose(closed.values, generic, atol=1e-10)

    def test_cross_check_catches_skewed_closed_form(self):
        grid = make_grid(0.0, 2.0 * math.pi, 0.05)
        with pytest.raises(OracleMismatch, match="closed-form and generic G differ"):
            scan_G(_SkewedCK(), grid, math.pi / 6.0)

    def test_trigger_threshold(self):
        grid = make_grid(0.0, 2.0 * math.pi, 0.05)
        relaxed = scan_G(CKDephase(), grid, math.pi / 6.0)
        assert not relaxed.witness_triggered
        # a negative tolerance flags any scan whose minimum sits below it
        strict = scan_G(CKDephase(), grid, math.pi / 6.0, witness_tol=-1.0)
        assert strict.witness_triggered


class TestMemoryFidelity:
    def test_starts_at_one(self):
        grid = make_grid(0.0, 10.0, 0.1)
        result = memory_fidelity(YEMarkov(), grid)
        assert result.values[0] == pytest.approx(1.0, abs=1e-14)
        assert not result.witness_triggered

    def test_exponential_branch_plateau(self):
        grid = make_grid(0.0, 50.0, 0.5)
        result = memory_fidelity(YEMarkov(), grid)
        assert result.values[-1] == pytest.approx(0.9965137269205128, abs=1e-12)

    def test_slow_memory_keeps_more_overlap(self):
        grid = make_grid(0.0, 10.0, 0.05)
        slow = memory_fidelity(YENonMarkov(gamma=0.01), grid)
        fast = memory_fidelity(YENonMarkov(gamma=10.0), grid)
        margin = np.min(np.asarray(slow.values) - np.asarray(fast.values))
        assert margin >= -1e-10


class TestMarkovianityVerdict:
    @pytest.mark.parametrize(
        "spec", [YEMarkov(), YENonMarkov(), JCMQubit(), CKDephase()], ids=lambda s: s.NAME
    )
    def test_no_violation_on_reference_states(self, spec):
        verdict = markovianity_verdict(spec)
        assert verdict.outcome == NO_VIOLATION_FOUND
        assert verdict.evidence.min_value >= -1e-12
        assert len(verdict.tau_list) >= 1

    def test_trigger_path(self):
        verdict = markovianity_verdict(CKDephase(), witness_tol=-1.0)
        assert verdict.outcome == NON_MARKOVIAN_WITNESSED
        assert verdict.evidence.witness_triggered
        assert verdict.witness_tol == -1.0

    def test_explicit_tau_list(self):
        verdict = markovianity_verdict(YEMarkov(), tau_list=[0.5, 1.0, 2.0])
        assert verdict.tau_list == (0.5, 1.0, 2.0)
        # one scan per lag, in order; the evidence is the deepest of them
        assert [s.label for s in verdict.scans] == [
            f"G[ye-markov] tau={tau!r}" for tau in verdict.tau_list
        ]
        assert verdict.evidence is min(verdict.scans, key=lambda s: s.min_value)

    def test_empty_tau_list(self):
        with pytest.raises(UsageError, match="empty"):
            markovianity_verdict(YEMarkov(), tau_list=())

    def test_late_start_default_grid(self):
        # the default grid and the reference lag start at t0, not at 0
        verdict = markovianity_verdict(CKDephase(t0=1.0))
        assert verdict.outcome == NO_VIOLATION_FOUND
        assert verdict.evidence.abscissa[0] == 1.0
        assert verdict.evidence.values[0] == 0.0


class TestStartTime:
    """A model started at t0 = 1 is the t0 = 0 model shifted by one."""

    entries = dict(rho11=0.9, rho22=0.1, rho12=0.1 + 0j)

    def test_scan_is_shifted(self):
        grid = make_grid(0.0, 2.0 * math.pi, 0.05)
        tau = math.pi / 6.0
        late = scan_G(CKDephase(t0=1.0, **self.entries), grid + 1.0, tau)
        early = scan_G(CKDephase(**self.entries), grid, tau)
        np.testing.assert_allclose(late.values, early.values, rtol=0.0, atol=1e-12)
        assert fidelity_difference(CKDephase(t0=1.0, **self.entries), 1.0, tau) == 0.0

    def test_memory_fidelity_is_shifted(self):
        grid = make_grid(0.0, 2.0 * math.pi, 0.05)
        late = memory_fidelity(CKDephase(t0=1.0, **self.entries), grid + 1.0)
        early = memory_fidelity(CKDephase(**self.entries), grid)
        np.testing.assert_allclose(late.values, early.values, rtol=0.0, atol=1e-12)

    def test_blp_grid_starts_at_t0(self):
        late = default_blp_grid(CKDephase(t0=1.0))
        np.testing.assert_array_equal(late, 1.0 + default_blp_grid(CKDephase()))


class TestBlpPairs:
    def test_pair_counts(self):
        assert len(default_blp_pairs(JCMQubit())) == 76
        assert len(default_blp_pairs(CKDephase())) == 76
        assert len(default_blp_pairs(YEMarkov())) == 20
        assert len(default_blp_pairs(YENonMarkov())) == 20
        assert len(default_blp_pairs(JCMPhoton())) == 10

    def test_pairs_are_density_matrices(self):
        for spec in (YEMarkov(), JCMQubit(), JCMPhoton()):
            for rho_a, rho_b, label in default_blp_pairs(spec):
                assert label
                validate_density(rho_a)
                validate_density(rho_b)

    def test_seed_reproducibility(self):
        first = default_blp_pairs(YEMarkov(), seed=7)
        second = default_blp_pairs(YEMarkov(), seed=7)
        for (a1, b1, l1), (a2, b2, l2) in zip(first, second):
            assert l1 == l2
            np.testing.assert_array_equal(a1, a2)
            np.testing.assert_array_equal(b1, b2)


class TestBlpMeasure:
    def test_contractive_branch_is_flat(self):
        estimate = blp_measure(YEMarkov())
        assert estimate.value <= 1e-6
        assert estimate.pair_count == 20

    def test_revival_branch_accumulates(self):
        estimate = blp_measure(CKDephase())
        assert 1.8 <= estimate.value <= 2.1
        assert estimate.best_pair.startswith("antipodal")

    def test_grid_too_short(self):
        with pytest.raises(GridTooCoarse):
            blp_measure(YEMarkov(), t_grid=np.linspace(0.0, 10.0, 50))

    def test_grid_not_uniform(self):
        bad = np.concatenate([np.linspace(0.0, 5.0, 150), np.linspace(5.1, 10.0, 150)])
        with pytest.raises(GridTooCoarse):
            blp_measure(YEMarkov(), t_grid=bad)

    def test_default_grid_shapes(self):
        assert len(default_blp_grid(YEMarkov())) == 201
        assert len(default_blp_grid(YENonMarkov())) == 401
        assert len(default_blp_grid(JCMQubit())) == 401
        assert len(default_blp_grid(CKDephase())) == 629
