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
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import KrausWitnessError, UsageError
from .models import (
    MODEL_CLASSES,
    ModelSpec,
    model_channel,
    model_closed_fidelity,
    model_state,
)
from .probes import small_time_exponents
from .witnesses import (
    NON_MARKOVIAN_WITNESSED,
    DEFAULT_WITNESS_TOL,
    make_grid,
    markovianity_verdict,
    memory_fidelity,
    scan_G,
)

_ENV_WITNESS_TOL = "KRAUS_WITNESS_TOL"

# model parameter flags, in the order inapplicable ones are reported
_ALL_PARAM_KEYS = ("Gamma", "lam", "gamma", "gamma2", "alpha_x", "g", "alpha",
                   "n_cut", "rho11", "rho22", "rho12")

_FIGURE_MODEL = {1: "ye-markov", 2: "ye-nonmarkov", 3: "ye-nonmarkov",
                 4: "jcm-qubit", 5: "ck"}


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters after flag/config/environment merging.

    The grid is dimensionless and must satisfy stop > start >= 0,
    step > 0, and step < (stop - start)/10.
    """

    model: ModelSpec
    grid: tuple[float, float, float]
    tau_list: tuple[float, ...]
    output_path: str | None
    witness_tol: float

    def __post_init__(self) -> None:
        if not self.tau_list:
            raise UsageError("at least one lag is required, got an empty tau list")
        if min(self.tau_list) < 0.0:
            raise UsageError(f"lags must be nonnegative, got {list(self.tau_list)!r}")
        start, stop, step = self.grid
        if not (stop > start >= 0.0):
            raise UsageError(
                f"grid must satisfy stop > start >= 0, got start={start!r} stop={stop!r}"
            )
        if not step > 0.0:
            raise UsageError(f"grid must satisfy step > 0, got step={step!r}")
        if not step < (stop - start) / 10.0:
            raise UsageError(
                f"grid must satisfy step < (stop - start)/10, got step={step!r} "
                f"over window {stop - start!r}"
            )
        if self.witness_tol < 0.0:
            # negative tolerance flips the trigger; allowed, but say so
            print(
                f"note: witness tolerance {self.witness_tol!r} is negative; "
                "the witness will fire on any scan",
                file=sys.stderr,
            )


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="kraus-witness",
        description="Fidelity-difference witness of memory in open-system dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser) -> None:
        p.add_argument("--config", help="flat key=value file; flags override it")
        p.add_argument("--out", help="CSV output path")
        p.add_argument("--witness-tol", dest="witness_tol", type=float,
                       help="negativity depth that fires the witness (default 1e-8)")
        p.add_argument("--start", type=float, help="grid start, dimensionless time")
        p.add_argument("--stop", type=float, help="grid stop, dimensionless time")
        p.add_argument("--step", type=float, help="grid step, dimensionless time")
        p.add_argument("--tau", action="append", type=float,
                       help="comparison lag, dimensionless; repeatable")
        p.add_argument("--Gamma", type=float, help="dephasing rate")
        p.add_argument("--gamma", type=float, help="reservoir memory rate")
        p.add_argument("--gamma2", type=float,
                       help="memory rate of the second curve (figure 3 only)")
        p.add_argument("--lambda", dest="lam", type=float,
                       help="initial coherence weight, 0 to 4")
        p.add_argument("--alpha-x", dest="alpha_x", type=float,
                       help="X-state population parameter, 0 to 1")
        p.add_argument("--g", type=float, help="atom-field coupling")
        p.add_argument("--alpha", type=complex,
                       help="coherent field amplitude, complex accepted")
        p.add_argument("--n-cut", dest="n_cut", type=int, help="Fock cutoff")
        p.add_argument("--rho11", type=float, help="upper population")
        p.add_argument("--rho22", type=float, help="lower population")
        p.add_argument("--rho12", type=complex, help="initial coherence")

    fig = sub.add_parser("figure", help="write one reference curve as CSV")
    fig.add_argument("figure_id", type=int, choices=range(1, 6), metavar="1-5")
    add_common(fig)

    for name, text in (
        ("witness", "scan the fidelity witness and print a verdict"),
        ("probe", "fit small-time growth exponents of the Kraus operators"),
        ("validate", "check channel completeness over a time window"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--model", choices=sorted(MODEL_CLASSES), help="model name")
        add_common(p)
        if name == "probe":
            p.add_argument("--t-min", dest="t_min", type=float,
                           help="probe window start (raw model time)")
            p.add_argument("--t-max", dest="t_max", type=float,
                           help="probe window stop (raw model time)")
            p.add_argument("--points", type=int, help="probe window size, at least 6")
        if name == "validate":
            p.add_argument("--samples", type=int,
                           help="number of sampled times (default 50)")
    return parser


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


_CONVERTERS = {
    "start": float, "stop": float, "step": float, "witness_tol": float,
    "samples": int, "points": int, "n_cut": int,
    "t_min": float, "t_max": float,
    "Gamma": float, "lam": float, "gamma": float, "gamma2": float,
    "alpha_x": float, "g": float, "rho11": float, "rho22": float,
    "alpha": complex, "rho12": complex,
    "model": str, "out": str,
}

_CONFIG_KEYS = {*_CONVERTERS, "tau"}


def _resolve(ns: argparse.Namespace, key: str, config: dict[str, str]):
    """Flag value if given, else config value, else None."""
    flag_value = getattr(ns, key, None)
    if flag_value is not None:
        return flag_value
    if key in config:
        raw = config[key]
        if key == "tau":
            try:
                return [float(part) for part in raw.split(",") if part.strip()]
            except ValueError:
                raise UsageError(f"config tau must be comma-separated floats, got {raw!r}")
        converter = _CONVERTERS[key]
        try:
            return converter(raw)
        except ValueError:
            raise UsageError(f"config key {key!r} has malformed value {raw!r}")
    return None


def _resolve_witness_tol(ns: argparse.Namespace, config: dict[str, str]) -> float:
    value = _resolve(ns, "witness_tol", config)
    if value is not None:
        return float(value)
    env = os.environ.get(_ENV_WITNESS_TOL)
    if env is not None:
        try:
            return float(env)
        except ValueError:
            raise UsageError(f"{_ENV_WITNESS_TOL} must be a float, got {env!r}")
    return DEFAULT_WITNESS_TOL


def _build_spec(name: str, ns: argparse.Namespace, config: dict[str, str],
                allow_extra: set[str] = frozenset()) -> ModelSpec:
    cls = MODEL_CLASSES[name]
    # a parameter left unset falls back to the dataclass default
    params = {}
    for key in _ALL_PARAM_KEYS:
        value = _resolve(ns, key, config)
        if value is None:
            continue
        if key in cls.FLAGS:
            params[cls.FLAGS[key]] = value
        elif key not in allow_extra:
            flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
            raise UsageError(f"parameter {flag} does not apply to model {name!r}")
    try:
        return cls(**params)
    except KrausWitnessError as err:
        # bad parameter values arriving through flags are usage problems
        raise UsageError(str(err)) from err


def _run_config(spec: ModelSpec, ns: argparse.Namespace, config: dict[str, str],
                grid_default: tuple[float, float, float] | None = None) -> RunConfig:
    d_start, d_stop, d_step = grid_default if grid_default is not None else spec.GRID
    start = _resolve(ns, "start", config)
    stop = _resolve(ns, "stop", config)
    step = _resolve(ns, "step", config)
    taus = _resolve(ns, "tau", config)
    if taus is None:
        taus = [spec.TAU]
    return RunConfig(
        model=spec,
        grid=(
            start if start is not None else d_start,
            stop if stop is not None else d_stop,
            step if step is not None else d_step,
        ),
        tau_list=tuple(float(t) for t in taus),
        output_path=_resolve(ns, "out", config),
        witness_tol=_resolve_witness_tol(ns, config),
    )


def _raw_grid(cfg: RunConfig) -> np.ndarray:
    rate = cfg.model.rate
    start, stop, step = cfg.grid
    return make_grid(start / rate, stop / rate, step / rate)


def _format_row(values) -> str:
    return ",".join(format(float(v), ".17g") for v in values)


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    rows = [",".join(header)]
    for i in range(len(columns[0])):
        rows.append(_format_row(col[i] for col in columns))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(rows) + "\n")


def _summarize_column(x: np.ndarray, y: np.ndarray, name: str, xname: str) -> str:
    imin, imax = int(np.argmin(y)), int(np.argmax(y))
    return (
        f"{name}: min {y[imin]:.6e} at {xname} = {x[imin]:.6g}, "
        f"max {y[imax]:.6e} at {xname} = {x[imax]:.6g}"
    )


def cmd_figure(ns: argparse.Namespace) -> int:
    config = _load_config(ns.config) if ns.config else {}
    fid = ns.figure_id
    model_name = _FIGURE_MODEL[fid]
    extra = {"gamma", "gamma2"} if fid == 3 else set()
    spec = _build_spec(model_name, ns, config, allow_extra=extra)
    # figure 3 compares memory kernels over a shorter window than the model's
    cfg = _run_config(spec, ns, config, grid_default=(0.0, 10.0, 0.02) if fid == 3 else None)
    rate = spec.rate
    grid = _raw_grid(cfg)
    x = grid * rate
    xname = spec.ABSCISSA
    out = cfg.output_path or f"fig{fid}.csv"
    tau_raw = cfg.tau_list[0] / rate

    # CSV columns are the contract: the abscissa is always named t and holds
    # the dimensionless scaled time shown on the figure axes
    if fid == 1:
        f_values = np.array([model_closed_fidelity(spec, float(t), tau_raw) for t in grid])
        _write_csv(out, ["t", "F"], [x, f_values])
        print(f"figure 1: wrote {x.size} rows to {out}")
        print(_summarize_column(x, f_values, "F", xname))
    elif fid in (2, 4, 5):
        scan = scan_G(spec, grid, tau_raw, witness_tol=cfg.witness_tol)
        _write_csv(out, ["t", "G"], [x, scan.values])
        print(f"figure {fid}: wrote {x.size} rows to {out}")
        print(_summarize_column(x, scan.values, "G", xname))
    else:
        gamma_nonmarkov = _resolve(ns, "gamma", config)
        gamma_markov = _resolve(ns, "gamma2", config)
        from dataclasses import replace

        slow = replace(spec, gamma=gamma_nonmarkov if gamma_nonmarkov is not None else 0.01)
        fast = replace(spec, gamma=gamma_markov if gamma_markov is not None else 10.0)
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


def _require_model(ns: argparse.Namespace, config: dict[str, str]) -> str:
    name = _resolve(ns, "model", config)
    if name is None:
        raise UsageError("--model is required (or provide model= in the config file)")
    if name not in MODEL_CLASSES:
        raise UsageError(
            f"unknown model {name!r}; choose one of {', '.join(sorted(MODEL_CLASSES))}"
        )
    return name


def cmd_witness(ns: argparse.Namespace) -> int:
    config = _load_config(ns.config) if ns.config else {}
    name = _require_model(ns, config)
    spec = _build_spec(name, ns, config)
    cfg = _run_config(spec, ns, config)
    rate = spec.rate
    grid = _raw_grid(cfg)
    xname = spec.ABSCISSA

    verdict = markovianity_verdict(
        spec,
        tau_list=tuple(tau / rate for tau in cfg.tau_list),
        t_grid=grid,
        witness_tol=cfg.witness_tol,
    )
    columns = [grid * rate]
    header = [xname]
    for tau, scan in zip(cfg.tau_list, verdict.scans):
        print(
            f"tau={tau:g}: min G = {scan.min_value:+.6e} at {xname} = "
            f"{scan.min_at * rate:.6g}, max G = {scan.max_value:+.6e}"
        )
        header.append(f"G_tau={tau:g}")
        columns.append(scan.values)
    if cfg.output_path:
        _write_csv(cfg.output_path, header, columns)
        print(f"wrote {grid.size} rows to {cfg.output_path}")
    print(f"verdict: {verdict.outcome}")
    return 3 if verdict.outcome == NON_MARKOVIAN_WITNESSED else 0


def cmd_probe(ns: argparse.Namespace) -> int:
    config = _load_config(ns.config) if ns.config else {}
    name = _require_model(ns, config)
    spec = _build_spec(name, ns, config)
    t_min = _resolve(ns, "t_min", config)
    t_max = _resolve(ns, "t_max", config)
    points = _resolve(ns, "points", config)
    if any(v is not None for v in (t_min, t_max, points)):
        lo = t_min if t_min is not None else 1e-4
        hi = t_max if t_max is not None else 1e-2
        count = points if points is not None else 12
        if not (0.0 < lo < hi):
            raise UsageError(f"probe window must satisfy 0 < t-min < t-max, got [{lo!r}, {hi!r}]")
        window = np.geomspace(lo, hi, count)
    else:
        window = None
    report = small_time_exponents(spec, window)
    print(f"model {name}: window [{report.window[0]:g}, {report.window[-1]:g}] "
          f"({report.window.size} points)")
    print(f"{'op':>4} {'exponent':>10} {'residual':>10}  classification")
    for fit in report.fits:
        marker = "*" if fit.leading else " "
        note = f"  ({fit.note})" if fit.note else ""
        print(f"{fit.index:>3}{marker} {fit.exponent:>10.4f} {fit.residual:>10.2e}"
              f"  {fit.classification}{note}")
    print(f"family classification: {report.classification}")
    out = _resolve(ns, "out", config)
    if out:
        _write_csv(
            out,
            ["op", "exponent", "residual"],
            [
                np.array([f.index for f in report.fits], dtype=float),
                np.array([f.exponent for f in report.fits]),
                np.array([f.residual for f in report.fits]),
            ],
        )
        print(f"wrote {len(report.fits)} rows to {out}")
    return 0


def cmd_validate(ns: argparse.Namespace) -> int:
    config = _load_config(ns.config) if ns.config else {}
    name = _require_model(ns, config)
    spec = _build_spec(name, ns, config)
    cfg = _run_config(spec, ns, config)
    samples = _resolve(ns, "samples", config)
    samples = samples if samples is not None else 50
    if samples < 2:
        raise UsageError(f"--samples must be at least 2, got {samples!r}")
    # building the reference state exercises the cutoff certificate
    model_state(spec, 0.0)
    rate = spec.rate
    start, stop, _ = cfg.grid
    times = np.linspace(start / rate, stop / rate, samples)
    from .channels import channel_defect

    defects = np.array([channel_defect(model_channel(spec, float(t))) for t in times])
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
        parser = _build_parser()
        ns = parser.parse_args(argv)
        if ns.command == "figure":
            return cmd_figure(ns)
        if ns.command == "witness":
            return cmd_witness(ns)
        if ns.command == "probe":
            return cmd_probe(ns)
        if ns.command == "validate":
            return cmd_validate(ns)
        raise UsageError(f"unknown command {ns.command!r}")
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
