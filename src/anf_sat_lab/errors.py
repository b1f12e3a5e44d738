"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "AnfSatError",
    "MalformedClause",
    "VarOutOfRange",
    "HeaderMismatch",
    "UncoveredVariable",
    "EmptySet",
    "TooLarge",
    "InvariantViolation",
    "ResourceCap",
    "GenerationError",
]


class AnfSatError(Exception):
    """Base class for all package errors."""


class MalformedClause(AnfSatError):
    """Clause without three distinct variables (duplicate or tautology)."""


class VarOutOfRange(AnfSatError):
    """Literal references a variable outside 1..n."""


class HeaderMismatch(AnfSatError):
    """DIMACS body disagrees with the 'p cnf n m' header."""


class UncoveredVariable(AnfSatError):
    """Evaluation point does not cover the polynomial's support."""


class EmptySet(AnfSatError):
    """No descriptor exists for the empty solution set."""


class TooLarge(AnfSatError):
    """Input exceeds the exhaustive-computation bound."""


class InvariantViolation(AnfSatError):
    """A structural invariant (e.g. descriptor triangularity) was broken."""


class ResourceCap(AnfSatError):
    """A configurable size cap was exceeded; a reported outcome, not a bug."""

    def __init__(self, message: str, *, where: str = "", size: int = 0):
        super().__init__(message)
        self.where = where
        self.size = size


class GenerationError(AnfSatError):
    """Random instance generation cannot satisfy its constraints."""
