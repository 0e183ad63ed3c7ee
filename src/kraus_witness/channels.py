"""Kraus channels, composition, and the LGKS right-hand side.

A channel is a (k, d, d) stack of Kraus operators K_i acting as
rho -> sum_i K_i rho K_i^dagger.  Completeness sum_i K_i^dagger K_i = I is
checked in one place, ``validate_cptp``, on every ``apply`` and
``transfer_matrix``; channels whose operator set is only complete on a
leading subspace (truncated field sectors, conditioned dynamics) declare that
subspace through ``valid_dim``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidChannel
from .linalg import validate_density

# apply() and transfer_matrix() refuse a channel whose completeness defect exceeds this
_APPLY_DEFECT_CEILING = 1e-8


def _as_operator_stack(operators: Sequence[np.ndarray]) -> np.ndarray:
    """The operators as one (k, d, d) complex128 stack of square matrices;
    ragged input raises DimensionMismatch naming two of its shapes."""
    try:
        stack = np.asarray(operators, dtype=np.complex128)
    except ValueError:
        shapes = [np.shape(k) for k in operators]
        mixed = [shape for shape in shapes if shape != shapes[0]]
        if mixed:
            raise DimensionMismatch(f"mixed Kraus shapes {shapes[0]} and {mixed[0]}") from None
        raise
    if stack.shape[:1] == (0,):
        raise InvalidChannel("a channel needs at least one Kraus operator")
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DimensionMismatch(f"Kraus operators must be square, got shape {stack.shape[1:]}")
    return stack


def _sandwich(ops: np.ndarray, state: np.ndarray) -> np.ndarray:
    """sum_i K_i state K_i^dagger over the stack."""
    return (ops @ state @ ops.conj().swapaxes(1, 2)).sum(axis=0)


def _gram(ops: np.ndarray) -> np.ndarray:
    """sum_i K_i^dagger K_i over the stack."""
    return (ops.conj().swapaxes(1, 2) @ ops).sum(axis=0)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Kraus operator stack, shape (k, d, d), frozen like ``LindbladSet``.

    valid_dim restricts the completeness requirement to the leading
    valid_dim x valid_dim block; inputs must then be supported on that block.
    It is the full dimension unless a smaller block is given.
    """

    operators: np.ndarray
    label: str = ""
    valid_dim: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "operators", _as_operator_stack(self.operators))
        if self.valid_dim is None:
            object.__setattr__(self, "valid_dim", self.dim)
        elif not 1 <= self.valid_dim <= self.dim:
            raise DimensionMismatch(
                f"valid_dim {self.valid_dim} outside 1..{self.dim}"
            )

    @property
    def dim(self) -> int:
        return self.operators.shape[1]


@dataclass(frozen=True, eq=False)
class LindbladSet:
    """Jump operators L_i and a common nonnegative rate.

    The rate multiplies the whole dissipator; rhs evaluation itself is
    rate-free so the same set can serve families with time-dependent rates.
    """

    operators: np.ndarray
    rate: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "operators", _as_operator_stack(self.operators))
        if not 0.0 <= self.rate < np.inf:
            raise InvalidChannel(f"rate must be nonnegative and finite, got {self.rate!r}")

    @property
    def dim(self) -> int:
        return self.operators.shape[1]


def channel_defect(channel: KrausChannel) -> float:
    """Max-norm defect of sum_i K_i^dagger K_i against the identity.

    Only the leading valid_dim x valid_dim block is compared.
    """
    block = channel.valid_dim
    total = _gram(channel.operators)
    return float(np.max(np.abs(total[:block, :block] - np.eye(block))))


def validate_cptp(channel: KrausChannel, tol: float = 1e-10) -> float:
    """Completeness defect, raising InvalidChannel when it exceeds ``tol``."""
    defect = channel_defect(channel)
    if not defect <= tol:
        raise InvalidChannel(
            f"completeness defect {defect:.3e} exceeds {tol:.1e}"
            + (f" for channel {channel.label!r}" if channel.label else "")
        )
    return defect


def apply(channel: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Evolve a density matrix through the channel.

    The input must be a valid density matrix and the channel complete within
    1e-8; the output is again a density matrix (checked by the test suite,
    not re-validated here, since the map is exactly trace preserving when the
    completeness defect vanishes).
    """
    state = np.asarray(rho, dtype=np.complex128)
    if state.shape != (channel.dim, channel.dim):
        raise DimensionMismatch(
            f"state shape {state.shape} does not match channel dimension {channel.dim}"
        )
    validate_cptp(channel, _APPLY_DEFECT_CEILING)
    return _sandwich(channel.operators, state)


def transfer_matrix(channel: KrausChannel) -> np.ndarray:
    """The channel as the (d^2, d^2) matrix T = sum_i K_i (x) conj(K_i).

    T acts on row-major vectorized operators, vec(Lambda(X)) = T vec(X), and
    by linearity on any operator, not only on states.  The channel must be
    complete within 1e-8, as for ``apply``.
    """
    validate_cptp(channel, _APPLY_DEFECT_CEILING)
    ops = channel.operators
    d = channel.dim
    # one product over the operator index: M[(i, a), (j, b)] = sum_k K_ia conj(K_jb)
    flat = ops.transpose(1, 2, 0).reshape(d * d, -1)
    pairs = (flat @ flat.conj().T).reshape(d, d, d, d)
    return pairs.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def compose(late: KrausChannel, early: KrausChannel) -> KrausChannel:
    """Channel performing ``early`` then ``late``; the operator stack is every
    product K_late K_early, late-major and unpruned."""
    if late.dim != early.dim:
        raise DimensionMismatch(
            f"cannot compose dimensions {late.dim} and {early.dim}"
        )
    ops = (late.operators[:, None] @ early.operators[None]).reshape(-1, late.dim, late.dim)
    label = f"{late.label}*{early.label}" if (late.label or early.label) else ""
    return KrausChannel(ops, label, min(late.valid_dim, early.valid_dim))


def lgks_rhs(lset: LindbladSet, rho: np.ndarray) -> np.ndarray:
    """Rate-free dissipator sum_i (L_i rho L_i^dagger - (1/2){L_i^dagger L_i, rho}).

    The caller multiplies by the physical rate; this keeps the same operator
    set usable when the rate varies in time.
    """
    state = np.asarray(rho, dtype=np.complex128)
    if state.shape != (lset.dim, lset.dim):
        raise DimensionMismatch(
            f"state shape {state.shape} does not match Lindblad dimension {lset.dim}"
        )
    out = _sandwich(lset.operators, state)
    anticomm = _gram(lset.operators)
    out -= 0.5 * (anticomm @ state + state @ anticomm)
    return out


def semigroup_defect(
    family: Callable[[float], KrausChannel],
    rho0: np.ndarray,
    t1: float,
    t2: float,
) -> float:
    """Max-norm gap between running t1 then t2 and running t1 + t2 directly.

    Zero (to rounding) exactly when the family composes as a one-parameter
    semigroup on this state.
    """
    state = validate_density(rho0, tol=1e-8)
    sequential = apply(family(t2), apply(family(t1), state))
    direct = apply(family(t1 + t2), state)
    return float(np.max(np.abs(sequential - direct)))
