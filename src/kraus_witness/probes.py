"""Small-time structure probes for Kraus families.

A family whose generator is of constant-rate LGKS form has, besides one
operator close to the identity, operators growing like sqrt(t); a family
built from a memory kernel grows them like t instead.  The probe fits
log-norm against log-time on a short geometric window and classifies each
operator, then the family as a whole.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import LindbladSet, lgks_rhs
from .errors import FitDegenerate, GridTooCoarse, NegativeTime
from .models import EvolutionFamily, ModelSpec, _check_grid, model_channel, model_state

SQRT_T = "SqrtT"
LINEAR_T = "LinearT"
CONST_IDENTITY_DEFICIT = "ConstIdentityDeficit"
UNCLASSIFIED = "Unclassified"

# half-width of the acceptance bands around the ideal exponents 1/2 and 1
_BAND = 0.05

# default probe window (start, stop, points), geometric in raw model time
SMALL_TIME_WINDOW = (1e-4, 1e-2, 12)

# norms below this are treated as exact zeros when deciding what to fit
_ZERO_FLOOR = 1e-200


def default_small_time_grid() -> np.ndarray:
    """Geometric window over which Kraus norms still follow their leading
    power law."""
    return np.geomspace(*SMALL_TIME_WINDOW)


@dataclass(frozen=True)
class OperatorFit:
    """Log-log fit of one Kraus operator's norm over the probe window.

    For operators with a nonzero t = 0 limit the fitted series is the
    deficit ||K(t) - K(0)||_F rather than the norm itself.
    """

    index: int
    exponent: float
    residual: float
    classification: str
    constant_at_zero: bool
    leading: bool
    note: str = ""


@dataclass(frozen=True)
class ExponentReport:
    """Per-operator fits plus the family-level verdict.

    The family classification is the classification of the smallest fitted
    exponent among operators that vanish at t = 0, excluding quadratic
    entries, whose norms are composition bookkeeping rather than generator
    structure.
    """

    label: str
    window: np.ndarray
    fits: tuple[OperatorFit, ...]
    classification: str


def _classify(exponent: float) -> tuple[str, str]:
    if abs(exponent - 0.5) <= _BAND:
        return SQRT_T, ""
    if abs(exponent - 1.0) <= _BAND:
        return LINEAR_T, ""
    if abs(exponent - 2.0) <= 2 * _BAND:
        return LINEAR_T, "quadratic family, second order in the linear branch"
    return UNCLASSIFIED, ""


def _loglog_fit(t_grid: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    logs_t = np.log(t_grid)
    logs_v = np.log(values)
    slope, intercept = np.polyfit(logs_t, logs_v, 1)
    fitted = slope * logs_t + intercept
    residual = float(np.sqrt(np.mean((fitted - logs_v) ** 2)))
    return float(slope), residual


def small_time_exponents(
    model: ModelSpec | EvolutionFamily,
    t_grid: np.ndarray | None = None,
) -> ExponentReport:
    """Fit the growth exponent of every Kraus operator near t = 0.

    ``model`` is either a model spec, whose times are measured from its start
    t0, or a bare ``t -> KrausChannel`` family.
    The grid must be finite, strictly positive, ascending, and hold at least
    six points; the default spans [1e-4, 1e-2] geometrically.
    """
    if t_grid is None:
        t_grid = default_small_time_grid()
    t_grid = _check_grid(t_grid, 6, "exponent grid")
    if t_grid[0] <= 0.0:
        raise GridTooCoarse("exponent grid must start at a positive time")

    if callable(model):
        family: EvolutionFamily = model
        label = getattr(model, "__name__", "family")
    else:
        family = lambda t: model_channel(model, model.t0 + t)  # noqa: E731
        label = model.NAME

    ops0 = family(0.0).operators
    norms0 = np.array([np.linalg.norm(k) for k in ops0])
    scale = max(1.0, float(norms0.max()))
    leading = int(np.argmax(norms0))

    channels = [family(float(t)) for t in t_grid]
    fits: list[OperatorFit] = []
    fitted_nonleading = False
    for idx in range(len(ops0)):
        constant = norms0[idx] > 1e-12 * scale
        base = ops0[idx] if constant else 0.0
        series = np.array([np.linalg.norm(ch.operators[idx] - base) for ch in channels])
        zero_mask = series <= _ZERO_FLOOR
        exponent = residual = 0.0
        if np.all(zero_mask):
            classification, note = UNCLASSIFIED, "identically zero over the window"
        elif np.any(zero_mask):
            classification, note = UNCLASSIFIED, "vanishes inside the window, no power law"
        else:
            exponent, residual = _loglog_fit(t_grid, series)
            if constant:
                classification = CONST_IDENTITY_DEFICIT
                note = "deficit fit against the t = 0 operator"
            else:
                classification, note = _classify(exponent)
            fitted_nonleading |= idx != leading
        fits.append(
            OperatorFit(
                index=idx,
                exponent=exponent,
                residual=residual,
                classification=classification,
                constant_at_zero=constant,
                leading=idx == leading,
                note=note,
            )
        )

    if not fitted_nonleading:
        raise FitDegenerate("no operator besides the leading one has a fittable norm")

    candidates = [
        f
        for f in fits
        if not f.constant_at_zero
        and f.classification in (SQRT_T, LINEAR_T)
        and "quadratic" not in f.note
    ]
    if candidates:
        verdict = min(candidates, key=lambda f: f.exponent).classification
    else:
        verdict = UNCLASSIFIED
    return ExponentReport(
        label=label,
        window=t_grid,
        fits=tuple(fits),
        classification=verdict,
    )


def lgks_residual(spec: ModelSpec, lset: LindbladSet, delta: float) -> float:
    """Frobenius gap between the true step and one Euler step of the
    constant-rate generator.

    Returns ||rho(t0 + delta) - rho(t0) - delta * rate * D[rho(t0)]||_F.  For a
    family actually generated by the set this shrinks like delta^2, so
    halving delta divides the residual by about four.
    """
    delta = float(delta)
    if delta < 0.0:
        raise NegativeTime(f"delta must be nonnegative, got {delta!r}")
    if delta == 0.0:
        return 0.0
    rho0 = model_state(spec, spec.t0)
    rho_d = model_state(spec, spec.t0 + delta)
    step = rho0 + delta * lset.rate * lgks_rhs(lset, rho0)
    return float(np.linalg.norm(rho_d - step))
