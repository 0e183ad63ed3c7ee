"""Exception hierarchy shared across the package.

UsageError and its subclasses signal bad inputs or configuration and map to
CLI exit code 1; every other KrausWitnessError maps to exit code 2.
"""
from __future__ import annotations


class KrausWitnessError(Exception):
    """Base class for all package errors."""


class UsageError(KrausWitnessError):
    """Invalid configuration, flags, or call pattern."""


class GridTooCoarse(UsageError):
    """Time grid has too few points for the requested estimate."""


class NumericalError(KrausWitnessError):
    """A numerical contract was violated at run time."""


class DimensionMismatch(KrausWitnessError):
    """Operands have incompatible shapes."""


class NonHermitian(NumericalError):
    """Matrix is not Hermitian within tolerance."""


class NotHermitian(NonHermitian):
    """Density-matrix candidate fails the Hermiticity check."""


class NoConvergence(NumericalError):
    """Iterative eigensolver exhausted its sweep budget on a stack of
    ``batch`` matrices; ``unconverged`` of them were left, the first at
    ``index``."""

    def __init__(self, index: int, unconverged: int, batch: int) -> None:
        super().__init__(index, unconverged, batch)
        self.index, self.unconverged, self.batch = index, unconverged, batch

    def __str__(self) -> str:
        return (
            f"Jacobi sweeps exhausted for batch index {self.index} "
            f"({self.unconverged} of {self.batch} matrices unconverged)"
        )


class NotPSD(NumericalError):
    """Matrix has an eigenvalue below the tolerated negativity window."""


class TraceNotOne(NumericalError):
    """Density-matrix candidate does not have unit trace."""


class FidelityOvershoot(NumericalError):
    """Fidelity exceeded 1 by more than the clamping window."""


class InvalidChannel(NumericalError):
    """Kraus operator set fails the completeness requirement."""


class NegativeTime(KrausWitnessError):
    """Evolution time must be nonnegative."""


class ParamOutOfRange(KrausWitnessError):
    """Model parameter outside its documented range."""


class InvalidInitialState(KrausWitnessError):
    """Initial-state entries do not form a density matrix."""


class CutoffTooSmall(NumericalError):
    """Fock-space truncation fails the tail-weight certificate."""


class FitDegenerate(NumericalError):
    """Small-time probe has no operator series it can fit."""


class DegenerateDenominator(NumericalError):
    """Reference fidelity too small to normalize the fidelity difference."""


class OracleMismatch(NumericalError):
    """Closed-form and generic computations disagree beyond tolerance."""
