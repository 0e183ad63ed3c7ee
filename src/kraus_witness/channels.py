"""Kraus channels, composition, and the LGKS right-hand side.

A channel is a (k, d, d) stack of Kraus operators K_i acting as
rho -> sum_i K_i rho K_i^dagger.  Completeness sum_i K_i^dagger K_i = I is
checked lazily and cached on the channel object; channels whose operator set
is only complete on a leading subspace (truncated field sectors, conditioned
dynamics) declare that subspace through ``valid_dim``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidChannel
from .linalg import validate_density

# apply() refuses to run a channel whose completeness defect exceeds this
_APPLY_DEFECT_CEILING = 1e-8


def _as_operator_stack(operators: Sequence[np.ndarray]) -> np.ndarray:
    """Check that the operators are square and of one shape, and return them
    as one (k, d, d) complex128 stack; shapes are compared first, so ragged
    input raises DimensionMismatch."""
    shapes = [np.shape(k) for k in operators]
    if not shapes:
        raise InvalidChannel("a channel needs at least one Kraus operator")
    dim = shapes[0]
    if len(dim) != 2 or dim[0] != dim[1]:
        raise DimensionMismatch(f"Kraus operators must be square, got shape {dim}")
    for shape in shapes[1:]:
        if shape != dim:
            raise DimensionMismatch(f"mixed Kraus shapes {dim} and {shape}")
    return np.asarray(operators, dtype=np.complex128)


def _sandwich(ops: np.ndarray, state: np.ndarray) -> np.ndarray:
    """sum_i K_i state K_i^dagger over the stack."""
    return (ops @ state @ ops.conj().swapaxes(1, 2)).sum(axis=0)


def _gram(ops: np.ndarray) -> np.ndarray:
    """sum_i K_i^dagger K_i over the stack."""
    return (ops.conj().swapaxes(1, 2) @ ops).sum(axis=0)


@dataclass(eq=False)
class KrausChannel:
    """Kraus operator stack, shape (k, d, d), with a cached completeness defect.

    valid_dim restricts the completeness requirement to the leading
    valid_dim x valid_dim block; inputs must then be supported on that block.
    """

    operators: np.ndarray
    label: str = ""
    valid_dim: int | None = None
    _defect: float | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.operators = _as_operator_stack(self.operators)
        if self.valid_dim is not None and not (1 <= self.valid_dim <= self.dim):
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
        if self.rate < 0.0:
            raise InvalidChannel(f"rate must be nonnegative, got {self.rate!r}")

    @property
    def dim(self) -> int:
        return self.operators.shape[1]


def channel_defect(channel: KrausChannel) -> float:
    """Max-norm defect of sum_i K_i^dagger K_i against the identity.

    For channels with valid_dim set, only the leading block is compared.
    The result is cached on the channel.
    """
    total = _gram(channel.operators)
    block = channel.valid_dim if channel.valid_dim is not None else channel.dim
    defect_mat = total[:block, :block] - np.eye(block)
    defect = float(np.max(np.abs(defect_mat)))
    channel._defect = defect
    return defect


def validate_cptp(channel: KrausChannel, tol: float = 1e-10) -> float:
    """Completeness defect, raising InvalidChannel when it exceeds ``tol``."""
    defect = channel_defect(channel)
    if not defect <= tol:
        raise InvalidChannel(
            f"completeness defect {defect:.3e} exceeds {tol:.1e}"
            + (f" for channel {channel.label!r}" if channel.label else "")
        )
    return defect


def _complete_operators(channel: KrausChannel) -> np.ndarray:
    """The channel's operator stack, once its cached completeness defect is
    known to be within the 1e-8 ceiling."""
    if channel._defect is None:
        channel_defect(channel)
    if not channel._defect <= _APPLY_DEFECT_CEILING:
        raise InvalidChannel(
            f"refusing to apply channel with completeness defect {channel._defect:.3e}"
        )
    return channel.operators


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
    return _sandwich(_complete_operators(channel), state)


def transfer_matrix(channel: KrausChannel) -> np.ndarray:
    """The channel as the (d^2, d^2) matrix T = sum_i K_i (x) conj(K_i).

    T acts on row-major vectorized operators, vec(Lambda(X)) = T vec(X), and
    by linearity on any operator, not only on states.  The channel must be
    complete within 1e-8, as for ``apply``.
    """
    ops = _complete_operators(channel)
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
    valid = None
    if late.valid_dim is not None or early.valid_dim is not None:
        valid = min(
            late.valid_dim if late.valid_dim is not None else late.dim,
            early.valid_dim if early.valid_dim is not None else early.dim,
        )
    label = f"{late.label}*{early.label}" if (late.label or early.label) else ""
    return KrausChannel(operators=ops, label=label, valid_dim=valid)


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
