"""Command line front end.

Four subcommands: ``figure`` reproduces one of the five reference curves as
a CSV, ``witness`` runs the fidelity witness and reports a verdict,
``probe`` fits small-time Kraus exponents, ``validate`` checks channel
completeness over a time window.

Exit codes are disjoint by situation: 0 success, 1 usage problems,
2 numerical failures, 3 witness fired.  All times and lags on the command
line are dimensionless (Gamma t, g t, or bare t depending on the model);
conversion to raw model time happens here, not in the library.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .channels import completeness_defects
from .errors import KrausWitnessError, UsageError
from .models import MODEL_CLASSES, ModelSpec
from .probes import SMALL_TIME_WINDOW, small_time_exponents
from .witnesses import (
    NON_MARKOVIAN_WITNESSED,
    DEFAULT_WITNESS_TOL,
    make_grid,
    markovianity_verdict,
    memory_fidelity,
    scan_G,
)

_ENV_WITNESS_TOL = "KRAUS_WITNESS_TOL"

_FIGURE_MODEL = {1: "ye-markov", 2: "ye-nonmarkov", 3: "ye-nonmarkov",
                 4: "jcm-qubit", 5: "ck"}

# model parameter options, in the order inapplicable ones are reported; every
# subcommand takes them all
_PARAMS = {
    "Gamma": dict(type=float, help="dephasing rate"),
    "lam": dict(type=float, help="initial coherence weight, 0 to 4"),
    "gamma": dict(type=float, help="reservoir memory rate"),
    "gamma2": dict(type=float, help="memory rate of the second curve (figure 3 only)"),
    "alpha_x": dict(type=float, help="X-state population parameter, 0 to 1"),
    "g": dict(type=float, help="atom-field coupling"),
    "alpha": dict(type=complex, help="coherent field amplitude, complex accepted"),
    "n_cut": dict(type=int, help="Fock cutoff"),
    "rho11": dict(type=float, help="upper population"),
    "rho22": dict(type=float, help="lower population"),
    "rho12": dict(type=complex, help="initial coherence"),
}

# argparse keywords per option; the flag is _flag(key).  The type serves the
# flag and the config file alike, where a tau is a comma-separated list of
# them; every option but config has one, and only those a config file may set
_OPTIONS = {
    "model": dict(type=str, choices=sorted(MODEL_CLASSES), help="model name"),
    "config": dict(help="flat key=value file; flags override it"),
    "out": dict(type=str, help="CSV output path"),
    "witness_tol": dict(type=float, help="negativity depth that fires the witness "
                                         "(default $KRAUS_WITNESS_TOL, else 1e-8)"),
    "start": dict(type=float, help="grid start, dimensionless time"),
    "stop": dict(type=float, help="grid stop, dimensionless time"),
    "step": dict(type=float, help="grid step, dimensionless time"),
    "tau": dict(type=float, action="append", help="comparison lag, dimensionless; repeatable"),
    "t_min": dict(type=float, help="probe window start (raw model time)"),
    "t_max": dict(type=float, help="probe window stop (raw model time)"),
    "points": dict(type=int, help="probe window size, at least 6"),
    "samples": dict(type=int, help="number of sampled times (default 50)"),
    **_PARAMS,
}

# numbers the CLI consumes itself; the models range-check their parameters
_FINITE_KEYS = ("start", "stop", "step", "tau", "witness_tol", "t_min", "t_max")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _flag(key: str) -> str:
    return "--lambda" if key == "lam" else "--" + key.replace("_", "-")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="kraus-witness",
        description="Fidelity-difference witness of memory in open-system dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand declares only the options it reads
    for name, text, run, keys in (
        ("figure", "write one reference curve as CSV", cmd_figure,
         ("config", "out", "start", "stop", "step", "tau")),
        ("witness", "scan the fidelity witness and print a verdict", cmd_witness,
         ("model", "config", "out", "witness_tol", "start", "stop", "step", "tau")),
        ("probe", "fit small-time growth exponents of the Kraus operators", cmd_probe,
         ("model", "config", "out", "t_min", "t_max", "points")),
        ("validate", "check channel completeness over a time window", cmd_validate,
         ("model", "config", "start", "stop", "samples")),
    ):
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        if name == "figure":
            p.add_argument("figure_id", type=int, choices=range(1, 6), metavar="1-5")
        for key in keys + tuple(_PARAMS):
            p.add_argument(_flag(key), dest=key, **_OPTIONS[key])
    return parser


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    # undecodable bytes come through as lone surrogates, so the line can be named
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError:
                raise UsageError(f"{path}:{lineno}: not UTF-8 text") from None
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if "type" not in _OPTIONS.get(key, {}):
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _merge_config(ns: argparse.Namespace) -> None:
    """Fill each option the flags left unset from the --config file.

    A key the subcommand has no option for is skipped unconverted, so one
    file can serve every subcommand.
    """
    if not ns.config:
        return
    for key, raw in _load_config(ns.config).items():
        if key not in vars(ns) or getattr(ns, key) is not None:
            continue
        if key == "tau":
            try:
                value = [float(part) for part in raw.split(",") if part.strip()]
            except ValueError:
                raise UsageError(f"config tau must be comma-separated floats, got {raw!r}")
        else:
            try:
                value = _OPTIONS[key]["type"](raw)
            except ValueError:
                raise UsageError(f"config key {key!r} has malformed value {raw!r}")
        setattr(ns, key, value)


def _check_finite(ns: argparse.Namespace) -> None:
    for key in _FINITE_KEYS:
        value = getattr(ns, key, None)
        if value is not None and not np.all(np.isfinite(value)):
            raise UsageError(f"{_flag(key)} must be finite, got {value!r}")


def _witness_tol(ns: argparse.Namespace) -> float:
    """--witness-tol or config value, else KRAUS_WITNESS_TOL, else the default."""
    if ns.witness_tol is not None:
        return ns.witness_tol
    env = os.environ.get(_ENV_WITNESS_TOL)
    if env is None:
        return DEFAULT_WITNESS_TOL
    try:
        value = float(env)
    except ValueError:
        raise UsageError(f"{_ENV_WITNESS_TOL} must be a float, got {env!r}")
    if not math.isfinite(value):
        raise UsageError(f"{_ENV_WITNESS_TOL} must be finite, got {env!r}")
    return value


def _require_model(ns: argparse.Namespace) -> str:
    name = ns.model
    if name is None:
        raise UsageError("--model is required (or provide model= in the config file)")
    if name not in MODEL_CLASSES:
        raise UsageError(
            f"unknown model {name!r}; choose one of {', '.join(sorted(MODEL_CLASSES))}"
        )
    return name


def _build_spec(name: str, ns: argparse.Namespace,
                allow_extra: set[str] = frozenset(), **fixed: object) -> ModelSpec:
    """Model spec from the parameter flags; ``fixed`` fields override them."""
    cls = MODEL_CLASSES[name]
    # a parameter left unset falls back to the dataclass default
    params = {}
    for key in _PARAMS:
        value = getattr(ns, key)
        if value is None:
            continue
        if key in cls.FLAGS:
            params[cls.FLAGS[key]] = value
        elif key not in allow_extra:
            raise UsageError(f"parameter {_flag(key)} does not apply to model {name!r}")
    params.update(fixed)
    try:
        return cls(**params)
    except KrausWitnessError as err:
        # bad parameter values arriving through flags are usage problems
        raise UsageError(str(err)) from err


def _lags(ns: argparse.Namespace, spec: ModelSpec) -> list[float]:
    taus = ns.tau if ns.tau is not None else [spec.TAU]
    if not taus:
        raise UsageError("at least one lag is required, got an empty tau list")
    if min(taus) < 0.0:
        raise UsageError(f"lags must be nonnegative, got {taus!r}")
    return taus


def _window(ns: argparse.Namespace, default: tuple[float, ...]) -> tuple[float, float]:
    """Dimensionless --start/--stop, which must satisfy stop > start >= 0."""
    start = ns.start if ns.start is not None else default[0]
    stop = ns.stop if ns.stop is not None else default[1]
    if not (stop > start >= 0.0):
        raise UsageError(
            f"grid must satisfy stop > start >= 0, got start={start!r} stop={stop!r}"
        )
    return start, stop


def _raw_grid(ns: argparse.Namespace, spec: ModelSpec,
              default: tuple[float, float, float]) -> np.ndarray:
    """Scan grid in raw model time from the dimensionless window and --step,
    which must satisfy 0 < step < (stop - start)/10."""
    start, stop = _window(ns, default)
    step = ns.step if ns.step is not None else default[2]
    if not step > 0.0:
        raise UsageError(f"grid must satisfy step > 0, got step={step!r}")
    if not step < (stop - start) / 10.0:
        raise UsageError(
            f"grid must satisfy step < (stop - start)/10, got step={step!r} "
            f"over window {stop - start!r}"
        )
    rate = spec.rate
    return make_grid(start / rate, stop / rate, step / rate)


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    # newline="" keeps "\n" line ends on every platform
    with open(path, "w", encoding="utf-8", newline="") as handle:
        np.savetxt(handle, np.column_stack(columns), fmt="%.17g", delimiter=",",
                   header=",".join(header), comments="")


def _summarize_column(x: np.ndarray, y: np.ndarray, name: str, xname: str) -> str:
    imin, imax = int(np.argmin(y)), int(np.argmax(y))
    return (
        f"{name}: min {y[imin]:.6e} at {xname} = {x[imin]:.6g}, "
        f"max {y[imax]:.6e} at {xname} = {x[imax]:.6g}"
    )


def cmd_figure(ns: argparse.Namespace) -> int:
    fid = ns.figure_id
    model_name = _FIGURE_MODEL[fid]
    extra = {"gamma2"} if fid == 3 else set()
    spec = _build_spec(model_name, ns, allow_extra=extra)
    tau_raw = _lags(ns, spec)[0] / spec.rate
    # figure 3 compares memory kernels over a shorter window than the model's
    grid = _raw_grid(ns, spec, (0.0, 10.0, 0.02) if fid == 3 else spec.GRID)
    x = grid * spec.rate
    xname = spec.ABSCISSA
    out = ns.out or f"fig{fid}.csv"

    # CSV columns are the contract: the abscissa is always named t and holds
    # the dimensionless scaled time shown on the figure axes
    if fid == 1:
        f_values = np.array([spec.closed_fidelity(float(t), tau_raw) for t in grid])
        _write_csv(out, ["t", "F"], [x, f_values])
        print(f"figure 1: wrote {x.size} rows to {out}")
        print(_summarize_column(x, f_values, "F", xname))
    elif fid in (2, 4, 5):
        scan = scan_G(spec, grid, tau_raw)
        _write_csv(out, ["t", "G"], [x, scan.values])
        print(f"figure {fid}: wrote {x.size} rows to {out}")
        print(_summarize_column(x, scan.values, "G", xname))
    else:
        slow = _build_spec(model_name, ns, allow_extra=extra,
                           gamma=ns.gamma if ns.gamma is not None else 0.01)
        fast = _build_spec(model_name, ns, allow_extra=extra,
                           gamma=ns.gamma2 if ns.gamma2 is not None else 10.0)
        scan_slow = memory_fidelity(slow, grid)
        scan_fast = memory_fidelity(fast, grid)
        _write_csv(
            out,
            ["t", "F_markov", "F_nonmarkov"],
            [x, scan_fast.values, scan_slow.values],
        )
        print(f"figure 3: wrote {x.size} rows to {out}")
        print(_summarize_column(x, scan_fast.values, f"F_markov(gamma={fast.gamma:g})", xname))
        print(_summarize_column(x, scan_slow.values, f"F_nonmarkov(gamma={slow.gamma:g})", xname))
    return 0


def cmd_witness(ns: argparse.Namespace) -> int:
    name = _require_model(ns)
    spec = _build_spec(name, ns)
    witness_tol = _witness_tol(ns)
    taus = _lags(ns, spec)
    grid = _raw_grid(ns, spec, spec.GRID)
    if witness_tol < 0.0:
        # negative tolerance flips the trigger; allowed, but say so
        print(
            f"note: witness tolerance {witness_tol!r} is negative; "
            "the witness will fire on any scan",
            file=sys.stderr,
        )
    rate = spec.rate
    xname = spec.ABSCISSA

    verdict = markovianity_verdict(
        spec,
        tau_list=tuple(tau / rate for tau in taus),
        t_grid=grid,
        witness_tol=witness_tol,
    )
    columns = [grid * rate]
    header = [xname]
    for tau, scan in zip(taus, verdict.scans):
        print(
            f"tau={tau:g}: min G = {scan.min_value:+.6e} at {xname} = "
            f"{scan.min_at * rate:.6g}, max G = {scan.max_value:+.6e}"
        )
        header.append(f"G_tau={tau:g}")
        columns.append(scan.values)
    if ns.out:
        _write_csv(ns.out, header, columns)
        print(f"wrote {grid.size} rows to {ns.out}")
    print(f"verdict: {verdict.outcome}")
    return 3 if verdict.outcome == NON_MARKOVIAN_WITNESSED else 0


def cmd_probe(ns: argparse.Namespace) -> int:
    name = _require_model(ns)
    spec = _build_spec(name, ns)
    lo, hi, count = (default if value is None else value for value, default in
                     zip((ns.t_min, ns.t_max, ns.points), SMALL_TIME_WINDOW))
    if not (0.0 < lo < hi):
        raise UsageError(f"probe window must satisfy 0 < t-min < t-max, got [{lo!r}, {hi!r}]")
    if count < 0:
        raise UsageError(f"--points must be nonnegative, got {count!r}")
    report = small_time_exponents(spec, np.geomspace(lo, hi, count))
    print(f"model {name}: window [{report.window[0]:g}, {report.window[-1]:g}] "
          f"({report.window.size} points)")
    print(f"{'op':>4} {'exponent':>10} {'residual':>10}  classification")
    for fit in report.fits:
        marker = "*" if fit.leading else " "
        note = f"  ({fit.note})" if fit.note else ""
        print(f"{fit.index:>3}{marker} {fit.exponent:>10.4f} {fit.residual:>10.2e}"
              f"  {fit.classification}{note}")
    print(f"family classification: {report.classification}")
    if ns.out:
        _write_csv(
            ns.out,
            ["op", "exponent", "residual"],
            [
                np.array([f.index for f in report.fits], dtype=float),
                np.array([f.exponent for f in report.fits]),
                np.array([f.residual for f in report.fits]),
            ],
        )
        print(f"wrote {len(report.fits)} rows to {ns.out}")
    return 0


def cmd_validate(ns: argparse.Namespace) -> int:
    name = _require_model(ns)
    spec = _build_spec(name, ns)
    start, stop = _window(ns, spec.GRID)
    samples = ns.samples if ns.samples is not None else 50
    if samples < 2:
        raise UsageError(f"--samples must be at least 2, got {samples!r}")
    rate = spec.rate
    times = np.linspace(start / rate, stop / rate, samples)
    defects = completeness_defects(spec.kraus, times, spec.valid_dim)
    worst = float(defects.max())
    at = float(times[int(np.argmax(defects))] * rate)
    print(
        f"model {name}: max completeness defect {worst:.3e} at "
        f"{spec.ABSCISSA} = {at:.6g} over {samples} times"
    )
    if worst <= 1e-10:
        print("channel valid within 1e-10")
        return 0
    print("channel completeness defect exceeds 1e-10")
    return 2


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        _merge_config(ns)
        _check_finite(ns)
        return ns.run(ns)
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if code is not None else 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except KrausWitnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
