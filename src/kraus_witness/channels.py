"""Kraus channels, stacks of them over time, and the LGKS right-hand side.

A channel is a (k, d, d) stack of Kraus operators K_i acting as
rho -> sum_i K_i rho K_i^dagger.  Completeness sum_i K_i^dagger K_i = I is
checked in one place, ``_checked_defects``, which takes a (T, k, d, d) stack
of T channels at once; ``validate_cptp``, ``apply`` and ``transfer_matrix``
run it on a stack of one, and ``_evolve`` on a chunk of times, which
``_chunks`` alone cuts, for ``evolve_chunks`` and ``completeness_defects``.
Channels whose operator set is only complete on a leading subspace
(truncated field sectors, conditioned dynamics) declare that subspace
through ``valid_dim``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidChannel

# apply(), transfer_matrix() and _evolve() refuse a channel whose completeness defect exceeds this
_APPLY_DEFECT_CEILING = 1e-8
# Byte budgets of the stacks _chunks cuts from a time array (whole times, at least one):
# transfer matrices _evolve builds at once, 512 times at d = 2 and one at d = 22;
_TRANSFER_STACK_BYTES = 128 << 10
# images evolve_chunks yields at once.  Default blp_measure at 1 / 2 / 4 MiB on 2 vCPUs:
# jcm-photon (27 times a chunk at 2 MiB) 3.1-3.5 / 2.6-2.7 / 3.1 s at 53 / 54 / 64 MB peak
# RSS, ye-nonmarkov 35 / 35 / 34 ms at 42 / 47 / 47 MB.  From 1 MiB on, each d <= 4 bench
# revival is one chunk, so its kernel pays its fixed cost (about 1 ms at d = 4) once;
_EVOLVED_CHUNK_BYTES = 2 << 20
# Kraus operators completeness_defects holds at once: 50 times of any default model
_DEFECT_STACK_BYTES = 1 << 20


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
    """sum_i K_i^dagger K_i over the operator axis of a (..., k, d, d) stack,
    as one product F^dagger F of the operators stacked into a (..., k d, d)
    column F, since k tiny products and their sum cost about ten times as
    much on a stack of channels of 21 qubit operators."""
    *lead, k, d, _ = ops.shape
    column = ops.reshape(*lead, k * d, d)
    return column.conj().swapaxes(-1, -2) @ column


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


def _defects(ops: np.ndarray, valid_dim: int) -> np.ndarray:
    """(T,) max-norm defects of sum_i K_i^dagger K_i against the identity,
    one per channel of a (T, k, d, d) stack, on the leading valid_dim block;
    a sum that overflows reads inf, or NaN where inf - inf meets in it."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = _gram(ops)[:, :valid_dim, :valid_dim]
        return np.max(np.abs(total - np.eye(valid_dim)), axis=(1, 2))


def _checked_defects(ops: np.ndarray, valid_dim: int, tol: float, label: str) -> np.ndarray:
    """``_defects`` of the stack, raising InvalidChannel when the worst one
    exceeds ``tol`` (NaN included): the one completeness check."""
    defects = _defects(ops, valid_dim)
    worst = np.max(defects, initial=0.0)
    if not worst <= tol:
        raise InvalidChannel(
            f"completeness defect {worst:.3e} exceeds {tol:.1e}"
            + (f" for channel {label!r}" if label else "")
        )
    return defects


def channel_defect(channel: KrausChannel) -> float:
    """Max-norm defect of sum_i K_i^dagger K_i against the identity.

    Only the leading valid_dim x valid_dim block is compared.
    """
    return float(_defects(channel.operators[None], channel.valid_dim)[0])


def validate_cptp(channel: KrausChannel, tol: float = 1e-10) -> float:
    """Completeness defect, raising InvalidChannel when it exceeds ``tol``."""
    return float(_checked_defects(channel.operators[None], channel.valid_dim, tol, channel.label)[0])


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
    return _transfer_matrices(channel.operators[None])[0]


def _transfer_matrices(ops: np.ndarray) -> np.ndarray:
    """Unchecked (T, d^2, d^2) transfer matrices of a (T, k, d, d) stack."""
    n, k, d = ops.shape[:3]
    # one product over the operator index: M[(i, a), (j, b)] = sum_k K_ia conj(K_jb)
    flat = ops.transpose(0, 2, 3, 1).reshape(n, d * d, k)
    pairs = (flat @ flat.conj().swapaxes(1, 2)).reshape(n, d, d, d, d)
    return pairs.transpose(0, 1, 3, 2, 4).reshape(n, d * d, d * d)


def _diagonal(ops: np.ndarray) -> bool:
    """Whether no operator of a (..., d, d) stack has an exactly nonzero
    off-diagonal entry."""
    d = ops.shape[-1]
    return not ops.reshape(-1, d * d)[:, ~np.eye(d, dtype=bool).ravel()].any()


def _evolve(ops: np.ndarray, xs: np.ndarray, valid_dim: int, label: str) -> np.ndarray:
    """(T, P, d, d) images of a (P, d, d) operator stack under each channel
    of a (T, k, d, d) Kraus stack, after one completeness check of the whole
    stack at the 1e-8 ceiling.  Operators exactly zero at every time of the
    stack (NaN counts as nonzero) add nothing to the check or the images and
    are dropped first; the vacuum jcm-qubit stack keeps 2 of its 21.
    Diagonal operators make channel t the entrywise product with
    M_t[i, j] = sum_k K_k,ii conj(K_k,jj), its transfer matrix's diagonal;
    others take transfer matrices, built within 128 KiB at a time.  Where
    M_t is real, as on every default model, both routes give the same bits."""
    live = ops.any(axis=(0, 2, 3))
    if not live.all():
        ops = ops[:, live]
    _checked_defects(ops, valid_dim, _APPLY_DEFECT_CEILING, label)
    if _diagonal(ops):
        diagonals = np.diagonal(ops, axis1=2, axis2=3).swapaxes(1, 2)
        return (diagonals @ diagonals.conj().swapaxes(1, 2))[:, None] * xs
    n, (p, d) = ops.shape[0], xs.shape[:2]
    flat = xs.reshape(p, d * d)
    # (T, P, d^2): the row-major vec of each image, vec(Lambda_t(X)) = T_t vec(X)
    evolved = np.empty((n, p, d * d), dtype=np.complex128)
    for part in _chunks(n, 16 * d ** 4, _TRANSFER_STACK_BYTES):
        np.matmul(flat, _transfer_matrices(ops[part]).swapaxes(1, 2), out=evolved[part])
    return evolved.reshape(n, p, d, d)


def _chunks(count: int, bytes_per_time: int, budget: int) -> list[slice]:
    """Slices of range(count), as many whole times as fit the budget, at least one."""
    step = max(1, budget // bytes_per_time)
    return [slice(start, start + step) for start in range(0, count, step)]


def evolve_chunks(
    kraus: Callable[[np.ndarray], np.ndarray],
    times: np.ndarray, xs: np.ndarray, valid_dim: int, label: str,
) -> Iterator[tuple[int, np.ndarray]]:
    """(start, images) per chunk of ``times``, where images are the (T, P, d, d)
    ``_evolve`` of a (P, d, d) stack under one ``kraus(times[start:start + T])``
    stack: as many times as keep the images within 2 MiB."""
    for part in _chunks(times.size, 16 * xs.size, _EVOLVED_CHUNK_BYTES):
        yield part.start, _evolve(kraus(times[part]), xs, valid_dim, label)


def completeness_defects(
    kraus: Callable[[np.ndarray], np.ndarray], times: np.ndarray, valid_dim: int
) -> np.ndarray:
    """(T,) ``_defects`` of the channels at ``times``, from ``kraus`` stacks of
    at most 1 MiB of operators: a first stack of one time, which sizes the
    stacks of the times after it."""
    first = kraus(times[:1])
    rest = times[1:]
    parts = _chunks(rest.size, first.nbytes, _DEFECT_STACK_BYTES)
    return np.concatenate(
        [_defects(first, valid_dim), *(_defects(kraus(rest[part]), valid_dim) for part in parts)]
    )


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
    # the one use of linalg here, so that loading channels does not load it
    from .linalg import validate_density

    state = validate_density(rho0, tol=1e-8)
    sequential = apply(family(t2), apply(family(t1), state))
    direct = apply(family(t1 + t2), state)
    return float(np.max(np.abs(sequential - direct)))
