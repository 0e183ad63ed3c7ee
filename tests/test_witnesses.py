"""Fidelity-difference witness, verdicts, and the trace-distance revival
estimator."""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
import pytest

from kraus_witness import (
    CKDephase,
    DegenerateDenominator,
    DimensionMismatch,
    GridTooCoarse,
    InvalidChannel,
    JCMPhoton,
    JCMQubit,
    NegativeTime,
    NO_VIOLATION_FOUND,
    NON_MARKOVIAN_WITNESSED,
    NotHermitian,
    NotPSD,
    OracleMismatch,
    TraceNotOne,
    UsageError,
    YEMarkov,
    YENonMarkov,
    apply,
    blp_measure,
    default_blp_grid,
    default_blp_pairs,
    fidelity,
    fidelity_difference,
    hermitian_eig,
    make_grid,
    markovianity_verdict,
    memory_fidelity,
    model_channel,
    model_state,
    scan_G,
    small_time_exponents,
    trace_distance,
    validate_density,
)
from kraus_witness import channels, models, witnesses

from conftest import forbid_eigensolves, record_kernel_calls


class _SkewedCK(CKDephase):
    """Default revival model whose closed form is 1e-6 off away from t = 0."""

    def closed_fidelity(self, t, tau):
        return super().closed_fidelity(t, tau) - (1e-6 if t > 0.0 else 0.0)


@dataclass(frozen=True)
class _LeakyCK(CKDephase):
    """Revival model whose operators at t = 1 are scaled by sqrt(1 + excess)."""

    excess: float = 1e-7

    def kraus(self, ts):
        ops = super().kraus(ts)
        ops[np.asarray(ts) == 1.0] *= math.sqrt(1.0 + self.excess)
        return ops


def _record_factor_calls(monkeypatch):
    """The times array of every ``JCMPhoton.factor`` call, in order."""
    calls = []
    factor = JCMPhoton.factor

    def recorded(self, t):
        calls.append(np.asarray(t))
        return factor(self, t)

    monkeypatch.setattr(JCMPhoton, "factor", recorded)
    return calls


# qubit models without a closed form, so their scans take the generic route
_GENERIC_QUBIT_SCANS = [
    (CKDephase(rho11=0.9, rho22=0.1, rho12=0.1), math.pi / 6.0, make_grid(0.0, 2.0 * math.pi, 0.05)),
    (CKDephase(rho11=0.9, rho22=0.1, rho12=0.1, t0=1.0), math.pi / 6.0,
     1.0 + make_grid(0.0, 2.0 * math.pi, 0.05)),
    (JCMQubit(alpha_c=1, n_max=31), 3.0, make_grid(0.0, 10.0, 0.05)),
]
_GENERIC_QUBIT_IDS = ["ck-mixed", "ck-mixed-late-start", "jcm-qubit-coherent"]


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

    @pytest.mark.parametrize("start, stop, step", [
        (0.0, math.inf, 1.0),
        (-math.inf, 0.0, 1.0),
        (0.0, math.nan, 1.0),
        (0.0, 1.0, math.nan),
        (0.0, 1.0, math.inf),
    ])
    def test_rejects_non_finite(self, start, stop, step):
        with pytest.raises(GridTooCoarse):
            make_grid(start, stop, step)

    # 1e300 points, and a count that overflows to infinity: neither is built
    @pytest.mark.parametrize("stop", [1.0, 1e300])
    def test_rejects_a_count_numpy_cannot_size(self, stop):
        message = f"grid from 0.0 to {stop!r} in steps of 1e-300 has too many points"
        with pytest.raises(GridTooCoarse, match=f"^{re.escape(message)}$"):
            make_grid(0.0, stop, 1e-300)

    def test_rejects_a_count_no_address_space_holds(self):
        # 2^59 points that numpy can size, 4 EiB that it cannot allocate
        step = 2.0 ** -59
        message = f"grid from 0.0 to 1.0 in steps of {step!r} has too many points"
        with pytest.raises(GridTooCoarse, match=f"^{re.escape(message)}$"):
            make_grid(0.0, 1.0, step)


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

    def test_degenerate_reference_on_generic_route(self):
        # a pure start whose coherence flips sign at tau = pi: rho(0) and
        # rho(pi) are orthogonal, and the model has no closed form
        spec, tau = CKDephase(rho11=0.5, rho22=0.5, rho12=0.5j), math.pi
        message = r"^reference fidelity .* at lag 3\.141592653589793 cannot normalize G$"
        with pytest.raises(DegenerateDenominator, match=message):
            scan_G(spec, make_grid(0.0, 2.0, 0.1), tau)
        with pytest.raises(DegenerateDenominator, match=message):
            fidelity_difference(spec, 1.0, tau)


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

    def test_cross_check_names_the_first_failing_point(self):
        # the skew starts after t = 0, so the first checked point that fails
        # is the second one, grid[10] = 0.5
        grid = make_grid(0.0, 2.0 * math.pi, 0.05)
        with pytest.raises(OracleMismatch, match=r"at t = 0\.5$"):
            scan_G(_SkewedCK(), grid, math.pi / 6.0)

    def test_factor_route_matches_generic(self):
        spec, tau = JCMPhoton(alpha_c=1j, n_max=31), 1.0
        grid = np.array([0.0, 1.0, 2.5])
        reference = fidelity(model_state(spec, 0.0), model_state(spec, tau))
        generic = [
            (fidelity(model_state(spec, t), model_state(spec, t + tau)) - reference)
            / reference
            for t in grid[1:]
        ]
        np.testing.assert_allclose(scan_G(spec, grid, tau).values, [0.0] + generic,
                                   rtol=0.0, atol=1e-12)

    def test_factor_route_needs_no_eigensolve(self, monkeypatch):
        forbid_eigensolves(monkeypatch)
        scan = scan_G(JCMPhoton(alpha_c=1, n_max=31), make_grid(0.0, 10.0, 0.05), 1.0)
        assert scan.values.size == 201

    @pytest.mark.parametrize("spec, tau, grid", _GENERIC_QUBIT_SCANS, ids=_GENERIC_QUBIT_IDS)
    def test_generic_qubit_route_needs_no_eigensolve(self, spec, tau, grid, monkeypatch):
        forbid_eigensolves(monkeypatch)
        assert scan_G(spec, grid, tau).values.size == grid.size

    def test_closed_route_cross_check_needs_no_eigensolve(self, monkeypatch):
        forbid_eigensolves(monkeypatch)
        grid = make_grid(0.0, 2.0 * math.pi, 0.005)
        assert scan_G(CKDephase(), grid, math.pi / 6.0).values.size == grid.size

    @pytest.mark.parametrize("spec", [YEMarkov(), YENonMarkov()], ids=["ye-markov", "ye-nonmarkov"])
    @pytest.mark.parametrize("step, points", [(0.02, 501), (0.0025, 4001)])
    def test_d4_cross_check_makes_two_kernel_calls(self, spec, step, points, monkeypatch):
        # every tenth point is checked, all in one stack: square roots with
        # eigenvectors, then the inner eigenvalues
        calls = record_kernel_calls(monkeypatch)
        grid = make_grid(0.0, 10.0, step)
        assert scan_G(spec, grid, 1.0).values.size == grid.size == points
        checked = (grid[::10].size, 4, 4)
        assert calls == [(checked, True), (checked, False)]

    @pytest.mark.parametrize("spec, tau, grid", _GENERIC_QUBIT_SCANS, ids=_GENERIC_QUBIT_IDS)
    def test_batched_generic_route_matches_per_point(self, spec, tau, grid):
        reference = fidelity(model_state(spec, spec.t0), model_state(spec, spec.t0 + tau))
        per_point = [
            0.0 if t == spec.t0 else
            (fidelity(model_state(spec, t), model_state(spec, t + tau)) - reference) / reference
            for t in grid
        ]
        values = scan_G(spec, grid, tau).values
        assert values[0] == 0.0
        np.testing.assert_allclose(values, per_point, rtol=0.0, atol=1e-12)
        assert fidelity_difference(spec, float(grid[7]), tau) == pytest.approx(
            per_point[7], abs=1e-12
        )

    def test_trigger_threshold(self):
        grid = make_grid(0.0, 2.0 * math.pi, 0.05)
        relaxed = scan_G(CKDephase(), grid, math.pi / 6.0)
        assert not relaxed.witness_triggered
        # a negative tolerance flags any scan whose minimum sits below it
        strict = scan_G(CKDephase(), grid, math.pi / 6.0, witness_tol=-1.0)
        assert strict.witness_triggered


# one model per route: closed, factor and generic
_ROUTE_SPECS = [
    (YEMarkov(), 1.0),
    (CKDephase(), math.pi / 6.0),
    (JCMPhoton(alpha_c=1, n_max=31), 1.0),
    (CKDephase(rho11=0.9, rho22=0.1, rho12=0.1), math.pi / 6.0),
    (JCMQubit(alpha_c=1, n_max=31), 3.0),
]
_ROUTE_IDS = ["closed-ye-markov", "closed-ck", "factor-jcm-photon", "generic-ck-mixed",
              "generic-jcm-qubit-coherent"]


class TestRouteParity:
    @pytest.mark.parametrize("spec, tau", _ROUTE_SPECS, ids=_ROUTE_IDS)
    @pytest.mark.parametrize("start", [0.0, 0.3], ids=["from-t0", "after-t0"])
    def test_point_matches_scan(self, spec, tau, start):
        grid = start + make_grid(0.0, 3.0, 0.25)
        values = scan_G(spec, grid, tau).values
        for i in (0, grid.size // 2, grid.size - 1):
            assert fidelity_difference(spec, float(grid[i]), tau) == values[i]


class TestFactorWork:
    # a factor-route scan makes one factor call for the times t, the
    # reference t0 among them, and one for the times t + tau
    @pytest.mark.parametrize("grid, times", [
        (np.arange(1.0, 7.0), 14),
        (np.arange(0.0, 6.0), 12),
        (make_grid(0.0, 10.0, 0.05), 402),
    ], ids=["field-scan-grid", "from-t0", "default-grid"])
    def test_factor_scan_work(self, grid, times, monkeypatch):
        calls = _record_factor_calls(monkeypatch)
        scan_G(JCMPhoton(alpha_c=1, n_max=31), grid, 1.0)
        assert len(calls) == 2
        assert sum(c.size for c in calls) == times

    def test_factor_memory_fidelity_work(self, monkeypatch):
        # t0 once, then the six grid times
        calls = _record_factor_calls(monkeypatch)
        memory_fidelity(JCMPhoton(alpha_c=1, n_max=31), np.arange(0.0, 6.0))
        assert len(calls) == 2
        assert sum(c.size for c in calls) == 7

    def test_factor_route_builds_no_channel(self, monkeypatch):
        def no_channel(*args, **kwargs):
            raise AssertionError("a channel was built")

        monkeypatch.setattr(models, "jcm_photon_channel", no_channel)
        spec, grid = JCMPhoton(alpha_c=1, n_max=31), make_grid(0.0, 10.0, 0.05)
        assert scan_G(spec, grid, 1.0).values.size == grid.size
        assert memory_fidelity(spec, grid).values.size == grid.size


class TestNonFiniteGrids:
    # one model per route: closed, factor and generic
    @pytest.mark.parametrize("spec", [
        CKDephase(), JCMPhoton(), CKDephase(rho11=0.9, rho22=0.1, rho12=0.1),
    ], ids=["closed", "factor", "generic"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_scan_grids(self, spec, bad):
        grid = np.array([0.0, 1.0, bad])
        with pytest.raises(GridTooCoarse, match="finite"):
            markovianity_verdict(spec, (0.5,), grid)
        with pytest.raises(GridTooCoarse, match="finite"):
            memory_fidelity(spec, grid)

    # the grid and tau are finite, t + tau overflows on the later rows; the
    # small g keeps the field sector's Rabi angles finite
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec", [
        CKDephase(), JCMPhoton(g=1e-3, alpha_c=1), CKDephase(rho11=0.9, rho22=0.1, rho12=0.1),
    ], ids=["closed", "factor", "generic"])
    def test_overflowing_later_time(self, spec):
        with pytest.raises(NegativeTime, match="finite and nonnegative, got inf"):
            scan_G(spec, make_grid(0.0, 1.7e308, 1e307), 1.7e308)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_revival_grid(self, bad):
        with pytest.raises(GridTooCoarse, match="finite"):
            blp_measure(CKDephase(), t_grid=np.append(np.linspace(0.0, 6.0, 250), bad))


# every grid check, with its minimum size and a valid grid of that many points
GRID_CHECKS = [
    (lambda grid: memory_fidelity(CKDephase(), grid), 2, np.array([0.0, 1.0])),
    (lambda grid: blp_measure(CKDephase(), t_grid=grid), 200, np.linspace(0.0, 6.0, 200)),
    (lambda grid: small_time_exponents(YEMarkov(), grid), 6, np.geomspace(1e-4, 1e-2, 6)),
]


class TestGridRules:
    """Scan, revival and exponent grids share one set of rules."""

    @pytest.mark.parametrize("check, points, grid", GRID_CHECKS,
                             ids=["scan", "revival", "exponent"])
    def test_shared_rules(self, check, points, grid):
        check(grid)
        with pytest.raises(GridTooCoarse, match=f"at least {points}"):
            check(grid[:-1])
        with pytest.raises(GridTooCoarse, match=f"at least {points}"):
            check(grid[None])
        with pytest.raises(GridTooCoarse, match="finite"):
            check(np.append(grid, math.nan))
        with pytest.raises(GridTooCoarse, match="ascending"):
            check(grid[::-1])

    def test_own_rules(self):
        with pytest.raises(GridTooCoarse, match="nonnegative"):
            memory_fidelity(CKDephase(), np.array([-1.0, 1.0]))
        with pytest.raises(GridTooCoarse, match="uniform"):
            blp_measure(CKDephase(), t_grid=np.linspace(0.0, 6.0, 200) ** 2)
        with pytest.raises(GridTooCoarse, match="positive"):
            small_time_exponents(YEMarkov(), np.linspace(0.0, 1e-2, 6))


class TestMemoryFidelity:
    def test_factor_route(self, monkeypatch):
        spec, grid = JCMPhoton(alpha_c=1, n_max=31), np.array([0.0, 0.5, 3.0])
        expected = [fidelity(model_state(spec, 0.0), model_state(spec, t)) for t in grid]
        forbid_eigensolves(monkeypatch)
        np.testing.assert_allclose(memory_fidelity(spec, grid).values, expected,
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("spec, tau, grid", _GENERIC_QUBIT_SCANS, ids=_GENERIC_QUBIT_IDS)
    def test_generic_route_matches_per_point(self, spec, tau, grid):
        expected = [fidelity(model_state(spec, spec.t0), model_state(spec, t)) for t in grid]
        np.testing.assert_allclose(memory_fidelity(spec, grid).values, expected,
                                   rtol=0.0, atol=1e-12)

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

    def test_matches_explicit_differences(self):
        # the explicit loop formula: central differences inside, one-sided at
        # the ends, rectangle rule; of two equal pairs the first is reported
        spec = CKDephase()
        plus = np.full((2, 2), 0.5, dtype=complex)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        estimate = blp_measure(spec, pairs=[(plus, minus, "first"), (plus, minus, "second")])
        grid = estimate.grid
        h = grid[1] - grid[0]
        d = np.array([
            trace_distance(apply(model_channel(spec, t), plus), apply(model_channel(spec, t), minus))
            for t in grid
        ])
        sigma = np.concatenate([
            [(d[1] - d[0]) / h], (d[2:] - d[:-2]) / (2.0 * h), [(d[-1] - d[-2]) / h]
        ])
        expected = float(np.sum(np.clip(sigma, 0.0, None)) * h)
        assert estimate.value == expected
        assert estimate.value > 1.0
        assert (estimate.pair_count, estimate.best_pair) == (2, "first")

    def test_empty_pair_list(self):
        estimate = blp_measure(YEMarkov(), pairs=[])
        assert (estimate.value, estimate.pair_count, estimate.best_pair) == (0.0, 0, "")

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

    @pytest.mark.parametrize("bad, error", [
        (np.eye(3, dtype=complex) / 3, DimensionMismatch),
        (np.array([[1, 1], [0, 0]], dtype=complex), NotHermitian),
        (np.array([[2, 0], [0, 0]], dtype=complex), TraceNotOne),
        (np.diag([1.5, -0.5]).astype(complex), NotPSD),
    ], ids=["shape", "non-hermitian", "trace", "negative"])
    def test_rejects_non_states_before_evolving(self, bad, error, monkeypatch):
        def no_evolution(spec, ts):
            raise AssertionError("a Kraus stack was built before every state was checked")

        monkeypatch.setattr(CKDephase, "kraus", no_evolution)
        good = np.eye(2, dtype=complex) / 2
        with pytest.raises(error):
            blp_measure(CKDephase(), pairs=[(good, good, "fine"), (good, bad, "bad")])

    def test_no_eigensolve_per_pair_and_time(self, monkeypatch):
        # the 2 x 2 trace norms are closed-form, and every default pair state
        # is certified positive semidefinite by its LDL^dagger factorisation
        forbid_eigensolves(monkeypatch)
        blp_measure(CKDephase())

    def test_atom_sector_runs_no_eigensolve(self, monkeypatch):
        forbid_eigensolves(monkeypatch)
        blp_measure(JCMQubit())

    def test_every_kernel_call_is_a_trace_norm_call(self, monkeypatch):
        # the 20 default pairs' 40 states are certified without the kernel;
        # every call takes trace norms, and of those only the 10 random
        # pairs' evolved differences are dense: the 10 family pairs differ
        # in their populations alone, so each evolves to a diagonal matrix
        calls = record_kernel_calls(monkeypatch)
        spec = YENonMarkov()
        blp_measure(spec)
        assert all(shape[1:] == (4, 4) and not vectors for shape, vectors in calls)
        assert sum(shape[0] for shape, _ in calls) == 10 * default_blp_grid(spec).size


def _per_pair_distances(spec, grid, pairs):
    """Trace distances the slow way: both states through apply, then the
    eigenvalues of the difference."""
    distances = np.empty((len(pairs), grid.size))
    for j, t in enumerate(grid):
        channel = model_channel(spec, float(t))
        for i, (rho1, rho2, _) in enumerate(pairs):
            w = hermitian_eig(apply(channel, rho1) - apply(channel, rho2)).eigenvalues
            distances[i, j] = 0.5 * float(np.sum(np.abs(w)))
    return distances


class TestRevivalDistances:
    """The transfer-matrix route against the per-pair route, at 1e-13."""

    @pytest.mark.parametrize("spec, stride", [
        (CKDephase(), 37),
        (CKDephase(t0=1.0), 37),
        (JCMQubit(), 23),
        (YEMarkov(), 11),
        (YENonMarkov(), 23),
    ], ids=["ck", "ck-late-start", "jcm-qubit", "ye-markov", "ye-nonmarkov"])
    def test_matches_per_pair_route(self, spec, stride):
        grid = default_blp_grid(spec)[::stride]
        pairs = default_blp_pairs(spec)
        fast = witnesses._revival_distances(spec, grid, pairs)
        slow = _per_pair_distances(spec, grid, pairs)
        np.testing.assert_allclose(fast, slow, rtol=0.0, atol=1e-13)

    def test_matches_per_pair_route_in_the_field_sector(self):
        spec = JCMPhoton()
        grid = default_blp_grid(spec)[[0, 57, 200]]
        pairs = default_blp_pairs(spec)[::3]
        fast = witnesses._revival_distances(spec, grid, pairs)
        slow = _per_pair_distances(spec, grid, pairs)
        np.testing.assert_allclose(fast, slow, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("spec", [YEMarkov(), YENonMarkov(), JCMQubit(), JCMPhoton(),
                                      CKDephase()],
                             ids=["ye-markov", "ye-nonmarkov", "jcm-qubit", "jcm-photon", "ck"])
    def test_chunking_changes_nothing(self, spec, monkeypatch):
        grid = default_blp_grid(spec)[:25]
        pairs = default_blp_pairs(spec)
        whole = witnesses._revival_distances(spec, grid, pairs)
        # a chunk of 7 times per trace_norms call, the last one short
        monkeypatch.setattr(channels, "_EVOLVED_CHUNK_BYTES", 7 * 16 * spec.dim ** 2 * len(pairs))
        np.testing.assert_array_equal(witnesses._revival_distances(spec, grid, pairs), whole)
        # and transfer stacks of 3 times inside each chunk, the last one short
        monkeypatch.setattr(channels, "_TRANSFER_STACK_BYTES", 3 * 16 * spec.dim ** 4)
        np.testing.assert_array_equal(witnesses._revival_distances(spec, grid, pairs), whole)

    @pytest.mark.parametrize("spec, times, sizes", [
        (CKDephase(), 629, [431, 198]),
        (JCMPhoton(), 40, [27, 13]),
    ], ids=["ck", "jcm-photon"])
    def test_one_kraus_stack_per_chunk(self, spec, times, sizes, monkeypatch):
        # ck: 76 pairs at d = 2 give chunks of 2 MiB // (16 * 4 * 76) = 431 times;
        # jcm-photon: 10 pairs at d = 22 give 2 MiB // (16 * 484 * 10) = 27
        # times, whose one stack the transfer stacks of one time each slice
        calls = []
        kraus = type(spec).kraus

        def recorded(self, ts):
            calls.append(np.array(ts))
            return kraus(self, ts)

        monkeypatch.setattr(type(spec), "kraus", recorded)
        grid = default_blp_grid(spec)[:times]
        witnesses._revival_distances(spec, grid, default_blp_pairs(spec))
        assert [c.size for c in calls] == sizes
        np.testing.assert_array_equal(np.concatenate(calls), grid)

    @pytest.mark.parametrize("spec, times, events", [
        (CKDephase(), 629, [("check", 431), ("check", 198)]),
        (JCMPhoton(), 40, [("check", 1), ("images", 1)] * 40),
    ], ids=["ck", "jcm-photon"])
    def test_each_time_checked_once_before_its_images(self, spec, times, events, monkeypatch):
        # ck takes the Schur route and checks each chunk's multipliers at
        # once; jcm-photon takes the transfer route in blocks of one time,
        # each checked before its transfer matrices are formed and applied
        seen = []
        require_complete, transferred = channels._require_complete, channels._transferred

        def checked(defects, *args):
            seen.append(("check", len(defects)))
            return require_complete(defects, *args)

        def transfers(pairs):
            seen.append(("images", len(pairs)))
            return transferred(pairs)

        monkeypatch.setattr(channels, "_require_complete", checked)
        monkeypatch.setattr(channels, "_transferred", transfers)
        witnesses._revival_distances(spec, default_blp_grid(spec)[:times], default_blp_pairs(spec))
        assert seen == events

    @pytest.mark.parametrize("spec", [CKDephase(), CKDephase(t0=1.0), YEMarkov(), YENonMarkov()],
                             ids=["ck", "ck-late-start", "ye-markov", "ye-nonmarkov"])
    def test_schur_route_matches_transfer_route(self, spec, monkeypatch):
        # diagonal operators make each channel an entrywise multiplier, which
        # holds the bits of the transfer-matrix product it replaces
        grid, pairs = default_blp_grid(spec), default_blp_pairs(spec)
        assert channels._structure(spec.kraus(grid))[1]
        built = []
        kraus_pairs, structure = channels._kraus_pairs, channels._structure

        def recorded(ops):
            built.append(len(ops))
            return kraus_pairs(ops)

        monkeypatch.setattr(channels, "_kraus_pairs", recorded)
        schur = witnesses._revival_distances(spec, grid, pairs)
        assert built == []
        # the same live operators, declared off-diagonal: every time is transferred
        monkeypatch.setattr(channels, "_structure", lambda ops: (structure(ops)[0], False))
        transfer = witnesses._revival_distances(spec, grid, pairs)
        assert sum(built) == grid.size
        assert schur.tobytes() == transfer.tobytes()

    @pytest.mark.parametrize("spec", [JCMQubit(), JCMPhoton()], ids=["jcm-qubit", "jcm-photon"])
    def test_off_diagonal_operators_keep_the_transfer_route(self, spec, monkeypatch):
        transferred = []
        kraus_pairs = channels._kraus_pairs

        def recorded(ops):
            transferred.append(len(ops))
            return kraus_pairs(ops)

        monkeypatch.setattr(channels, "_kraus_pairs", recorded)
        grid = default_blp_grid(spec)[:30]
        assert not channels._structure(spec.kraus(grid))[1]
        witnesses._revival_distances(spec, grid, default_blp_pairs(spec)[:2])
        assert sum(transferred) == grid.size, (
            "a channel with off-diagonal operators took the Schur route"
        )

    def test_refuses_an_incomplete_time(self):
        grid = 0.0625 * np.arange(256)  # holds t = 1 exactly
        with pytest.raises(InvalidChannel, match="exceeds 1.0e-08 for channel 'ck'"):
            blp_measure(_LeakyCK(), grid)
        # the same model below the ceiling evolves
        assert blp_measure(_LeakyCK(excess=1e-9), grid).value > 0.0

    def test_refuses_an_incomplete_diagonal_stack_on_the_schur_route(self, monkeypatch):
        # the leaky operators are diagonal, so the refusal comes from the
        # completeness check ahead of the Schur route, with the same message
        def no_transfer(*args):
            raise AssertionError("a diagonal stack took the transfer route")

        monkeypatch.setattr(channels, "_kraus_pairs", no_transfer)
        grid = 0.0625 * np.arange(256)
        with pytest.raises(InvalidChannel, match="exceeds 1.0e-08 for channel 'ck'"):
            blp_measure(_LeakyCK(), grid)
