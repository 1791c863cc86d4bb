"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so library code should
raise the most specific class that applies.
"""

from __future__ import annotations


class CanonicaError(Exception):
    """Base class for all package errors."""


class ParseError(CanonicaError):
    """Malformed input: bad JSON, wrong shapes, non-finite entries."""


class PreconditionError(CanonicaError):
    """Input is outside the class an operation requires.

    Carries the measured residual of the failed membership test when one
    is available, so callers can report how far the input was from the
    required class, and the bound it missed when _check raised it.
    """

    def __init__(self, message: str, residual: float | None = None, bound: float | None = None):
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)
        self.residual = residual
        self.bound = bound

    @classmethod
    def _check(cls, message: str, residual: float, bound: float) -> None:
        """Raise PreconditionError(message, residual, bound) unless
        residual <= bound, which a NaN residual fails."""
        if not residual <= bound:
            raise cls(message, residual, bound)


class ConvergenceError(CanonicaError):
    """A numerical procedure failed to reach its target accuracy.

    Carries the measured residual and the bound it missed when _check
    raised it.
    """

    def __init__(self, message: str, residual: float | None = None, bound: float | None = None):
        super().__init__(message)
        self.residual = residual
        self.bound = bound

    @classmethod
    def _check(cls, stage: str, residual: float, bound: float) -> None:
        """Raise "{stage} residual r exceeds b" unless residual <= bound,
        which a NaN residual fails."""
        if not residual <= bound:
            raise cls(f"{stage} residual {residual:.3e} exceeds {bound:.3e}", residual, bound)
