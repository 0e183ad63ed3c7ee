"""Outside-in spans around the package's layer boundaries.

The package is not edited.  ``instrument`` replaces public functions where
other modules imported them (``witnesses.fidelity``, ``witnesses.apply``,
``linalg.hermitian_eig`` and so on) with wrappers that open a span, and puts
the originals back on exit.  Spans are aggregated as they close: calls,
total time and self time per name, where self time is a span's duration
minus the part of it covered by its child spans.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

# (module, attribute, span name); a binding a later version of the package
# no longer has is skipped, and its counts then read 0
PATCHES: tuple[tuple[str, str, str], ...] = (
    ("linalg", "hermitian_eig", "linalg.eig"),
    ("linalg", "psd_sqrt", "linalg.psd_sqrt"),
    ("witnesses", "fidelity", "linalg.fidelity"),
    ("witnesses", "trace_distance", "linalg.trace_distance"),
    ("channels", "apply", "channels.apply"),
    ("models", "apply", "channels.apply"),
    ("witnesses", "apply", "channels.apply"),
    ("channels", "channel_defect", "channels.channel_defect"),
    ("witnesses", "model_channel", "models.channel"),
    ("probes", "model_channel", "models.channel"),
    ("cli", "model_channel", "models.channel"),
    ("witnesses", "model_state", "models.state"),
    ("probes", "model_state", "models.state"),
    ("cli", "model_state", "models.state"),
    ("witnesses", "model_closed_fidelity", "models.closed_fidelity"),
    ("witnesses", "scan_G", "witnesses.scan_G"),
    ("cli", "scan_G", "witnesses.scan_G"),
    ("cli", "markovianity_verdict", "witnesses.markovianity_verdict"),
    ("cli", "memory_fidelity", "witnesses.memory_fidelity"),
    ("witnesses", "blp_measure", "witnesses.blp_measure"),
    ("cli", "small_time_exponents", "probes.small_time_exponents"),
    ("cli", "main", "cli.main"),
)


# per-layer metrics of a traced run: name, unit, which direction is better
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("linalg.eig.calls", "count", "lower"),
    ("linalg.eig.calls.d2", "count", "lower"),
    ("linalg.eig.calls.d4", "count", "lower"),
    ("linalg.eig.calls.d22", "count", "lower"),
    ("linalg.eig.calls.d33", "count", "lower"),
    ("linalg.eig.self_s", "s", "lower"),
    ("linalg.eig.us_per_call.d2", "us", "lower"),
    ("linalg.eig.us_per_call.d4", "us", "lower"),
    ("linalg.eig.us_per_call.d33", "us", "lower"),
    ("linalg.fidelity.calls", "count", "lower"),
    ("linalg.fidelity.self_s", "s", "lower"),
    ("linalg.psd_sqrt.calls", "count", "lower"),
    ("linalg.psd_sqrt.self_s", "s", "lower"),
    ("linalg.trace_distance.calls", "count", "lower"),
    ("linalg.trace_distance.self_s", "s", "lower"),
    ("channels.apply.calls", "count", "lower"),
    ("channels.apply.self_s", "s", "lower"),
    ("channels.apply.kraus_ops", "count", "lower"),
    ("channels.apply.nonzero_op_ratio", "ratio", "higher"),
    ("channels.channel_defect.calls", "count", "lower"),
    ("channels.channel_defect.self_s", "s", "lower"),
    ("models.channel.calls", "count", "lower"),
    ("models.channel.self_s", "s", "lower"),
    ("models.state.calls", "count", "lower"),
    ("models.state.self_s", "s", "lower"),
    ("models.closed_fidelity.calls", "count", "lower"),
    ("models.closed_fidelity.self_s", "s", "lower"),
    ("witnesses.scan_G.calls", "count", "lower"),
    ("witnesses.scan_G.calls_per_lag", "ratio", "lower"),
    ("witnesses.scan_G.self_s", "s", "lower"),
    ("witnesses.route.closed_share", "ratio", "higher"),
    ("witnesses.blp_measure.self_s", "s", "lower"),
    ("probes.small_time_exponents.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.import.numpy_s", "s", "lower"),
    ("cli.import.package_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# metrics a traced run must repeat exactly at a given seed
EXACT = tuple(
    name
    for name, unit, _ in PER_LAYER
    if unit == "count" or name in (
        "channels.apply.nonzero_op_ratio",
        "witnesses.scan_G.calls_per_lag",
        "witnesses.route.closed_share",
    )
)


class Tracer:
    """Span recorder for one thread of synchronous calls.

    Children of a span close before it does and never overlap each other,
    so the part of a span they cover is the sum of their durations.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []
        self._before = {"channels.apply": _KrausCount()}
        self._after = {"linalg.eig": _eig_by_dim, "models.closed_fidelity": _closed_route}

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        before = self._before.get(name)
        after = self._after.get(name)

        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.exit()
            if after is not None:
                after(self, args, kwargs, result, duration)
            return result

        traced.__wrapped__ = fn
        return traced


def _eig_by_dim(tracer: Tracer, args, kwargs, result, duration: float) -> None:
    mat = args[0] if args else kwargs.get("mat")
    key = f"linalg.eig.d{np.shape(mat)[0]}"
    tracer.calls[key] += 1
    tracer.total[key] += duration


class _KrausCount:
    """Counts operators applied, and how many of them are not identically
    zero; the count is computed once per channel object."""

    def __init__(self) -> None:
        self.channel = None
        self.sizes = (0, 0)

    def __call__(self, tracer: Tracer, args, kwargs) -> None:
        channel = args[0] if args else kwargs.get("channel")
        if channel is not self.channel:
            ops = getattr(channel, "operators", ())
            self.channel = channel
            self.sizes = (len(ops), sum(1 for k in ops if np.any(k)))
        tracer.counts["channels.apply.kraus_ops"] += self.sizes[0]
        tracer.counts["channels.apply.nonzero_ops"] += self.sizes[1]


def _closed_route(tracer: Tracer, args, kwargs, result, duration: float) -> None:
    if result is not None:
        tracer.counts["models.closed_fidelity.values"] += 1


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every binding in PATCHES for the duration of the block."""
    saved = []
    try:
        for module_name, attr, span in PATCHES:
            module = importlib.import_module(f"kraus_witness.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, scan_calls: int, lags: int) -> dict[str, float]:
    """Per-layer figures from one traced pass.

    ``scan_calls`` and ``lags`` count the scan_G calls made by tasks that ask
    for scans, and the lags those tasks asked for.
    """
    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = tracer.calls[span]
        elif field == "self_s":
            out[name] = tracer.self_time[span]
    for dim in (2, 4, 22, 33):
        out[f"linalg.eig.calls.d{dim}"] = tracer.calls[f"linalg.eig.d{dim}"]
    for dim in (2, 4, 33):
        key = f"linalg.eig.d{dim}"
        out[f"linalg.eig.us_per_call.d{dim}"] = 1e6 * _ratio(tracer.total[key], tracer.calls[key])
    ops = tracer.counts["channels.apply.kraus_ops"]
    out["channels.apply.kraus_ops"] = ops
    out["channels.apply.nonzero_op_ratio"] = _ratio(tracer.counts["channels.apply.nonzero_ops"], ops)
    out["witnesses.scan_G.calls_per_lag"] = _ratio(scan_calls, lags)
    closed = tracer.counts["models.closed_fidelity.values"]
    out["witnesses.route.closed_share"] = _ratio(closed, closed + tracer.calls["linalg.fidelity"])
    return out
