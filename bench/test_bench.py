"""Self-tests of the benchmark: span arithmetic, the oracle, the metric list.

Run from the root of a checkout with ``python3 -m pytest -q bench``.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import kraus_witness as kw  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Tracer, instrument, layer_metrics  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _span(tracer: Tracer, clock: FakeClock, name: str, start: float, end: float, body=None):
    clock.now = start
    tracer.enter(name)
    if body is not None:
        body()
    clock.now = end
    tracer.exit()


def test_nested_span_self_time_excludes_the_child():
    clock = FakeClock()
    tracer = Tracer(clock)
    _span(tracer, clock, "outer", 0.0, 10.0, lambda: _span(tracer, clock, "inner", 2.0, 5.0))
    assert tracer.total["outer"] == 10.0
    assert tracer.self_time["outer"] == 7.0
    assert tracer.self_time["inner"] == 3.0


def test_sibling_spans_are_both_subtracted_and_grandchildren_only_once():
    clock = FakeClock()
    tracer = Tracer(clock)

    def children():
        _span(tracer, clock, "a", 1.0, 3.0)
        _span(tracer, clock, "b", 4.0, 8.0, lambda: _span(tracer, clock, "c", 5.0, 6.0))

    _span(tracer, clock, "outer", 0.0, 10.0, children)
    assert tracer.self_time["outer"] == 4.0
    assert tracer.self_time["b"] == 3.0
    assert tracer.self_time["c"] == 1.0
    assert tracer.calls == {"outer": 1, "a": 1, "b": 1, "c": 1}
    # self times partition the root span
    assert sum(tracer.self_time.values()) == tracer.total["outer"]


def test_wrapped_call_closes_its_span_when_it_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 2.0
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("f", boom)()
    assert tracer.calls["f"] == 1
    assert tracer.total["f"] == 2.0
    assert not tracer._stack


def test_instrument_counts_layers_and_restores_the_package():
    original = kw.linalg.hermitian_eig
    tracer = Tracer()
    with instrument(tracer):
        kw.witnesses.scan_G(kw.JCMQubit(alpha_c=0.5), np.linspace(0.0, 1.0, 5), 1.0)
    assert kw.linalg.hermitian_eig is original
    assert tracer.calls["witnesses.scan_G"] == 1
    # reference plus four nonzero grid points, two eigensolves per fidelity
    assert tracer.calls["linalg.fidelity"] == 5
    assert tracer.calls["linalg.eig.d2"] == 10
    metrics = layer_metrics(tracer, scan_calls=1, lags=1)
    assert metrics["witnesses.scan_G.calls_per_lag"] == 1.0
    assert metrics["witnesses.route.closed_share"] == 0.0
    assert metrics["linalg.eig.calls"] == 10


def test_floored_oracle_matches_the_package_on_a_rank_two_field_state():
    spec = kw.JCMPhoton(alpha_c=1.0, n_max=31)
    rho1 = kw.model_state(spec, 3.0)
    rho2 = kw.model_state(spec, 5.0)
    assert np.linalg.matrix_rank(rho1, tol=1e-10) == 2
    package = kw.fidelity(rho1, rho2)
    # without the floor, square roots of rounding-level eigenvalues add ~3e-8
    assert abs(oracle.fidelity(rho1, rho2, floor=0.0) - package) > 1e-9
    assert abs(oracle.fidelity(rho1, rho2) - package) < 1e-12


def test_oracle_states_match_the_package_models():
    alpha = complex(math.cos(0.7), math.sin(0.7))
    times = np.array([0.0, 0.3, 2.5])
    photon = kw.JCMPhoton(alpha_c=alpha, n_max=31)
    qubit = kw.JCMQubit(alpha_c=alpha, n_max=31)
    got = oracle.jcm_photon_states(alpha, 31, times)
    assert np.max(np.abs(got - [kw.model_state(photon, t) for t in times])) < 1e-14
    got = oracle.jcm_qubit_states(alpha, 31, times)
    assert np.max(np.abs(got - [kw.model_state(qubit, t) for t in times])) < 1e-14
    vacuum = oracle.coherent_amplitudes(0j, 20)
    for spec, kraus in (
        (kw.CKDephase(), oracle.ck_kraus),
        (kw.JCMQubit(), lambda t: oracle.jcm_qubit_kraus(t, vacuum)),
        (kw.YEMarkov(), oracle.ye_markov_kraus),
        (kw.YENonMarkov(), oracle.ye_nonmarkov_kraus),
    ):
        for t in times:
            ops = np.array(kw.model_channel(spec, float(t)).operators)
            assert np.max(np.abs(ops - kraus(float(t)))) < 1e-14


def test_scaled_times_use_the_readings_on_both_sides_of_each_call():
    # a yardstick running at twice its nominal time halves the call's time
    assert run.scaled([4.0, 6.0], [2.0, 2.0, 4.0], nominal=1.0) == [2.0, 2.0]
    # readings at nominal speed leave the times as measured
    assert run.scaled([0.5], [0.25, 0.25], nominal=0.25) == [0.5]


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == ["blp-revival", "field-scan", "cli-suite"]
