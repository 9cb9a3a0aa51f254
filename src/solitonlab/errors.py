"""Exception hierarchy for the soliton laboratory, and the count and
positivity tests its validators share."""
import math
import numbers


def is_count(value) -> bool:
    """An integer that is not a bool: the test every count passes before its range."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _require_positive(name: str, value) -> None:
    """DomainError unless value is finite and > 0; NaN fails the test."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")


class SolitonLabError(Exception):
    """Base class for all library errors."""


class DomainError(SolitonLabError):
    """Input outside the physically or numerically admissible domain."""


class IntegrationError(SolitonLabError):
    """ODE integration failed (step-size underflow near a stiff blow-up)."""


class BracketError(SolitonLabError):
    """Shooting bracket endpoints do not straddle the critical amplitude."""


class ConvergenceError(SolitonLabError):
    """Iteration budget exhausted before reaching the requested tolerance."""


class TailError(SolitonLabError):
    """Far-field tail of a computed profile is inconsistent with exponential decay."""


class QuadratureError(SolitonLabError):
    """Mesh-halving quadrature estimates disagree beyond tolerance."""


class GridError(SolitonLabError):
    """3-D grid check deviates from the algebraic value beyond tolerance."""
