"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "SizeRamseyError",
    "DomainError",
    "Graph6Error",
    "EdgeListError",
    "CapacityError",
    "ConstructionError",
    "LasVegasError",
    "CertificateValidationError",
]


class SizeRamseyError(Exception):
    """Base class for all package errors."""


class DomainError(SizeRamseyError):
    """Input outside an operation's stated domain (bad r, non-tree target, ...)."""


class Graph6Error(SizeRamseyError):
    """Malformed graph6 input. Carries the byte offset of the first bad byte."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class EdgeListError(SizeRamseyError):
    """Malformed edge-list input. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class CapacityError(SizeRamseyError):
    """Requested size exceeds what a construction can host.

    `max_value` is the largest admissible value for the offending parameter.
    """

    def __init__(self, message: str, max_value: int):
        super().__init__(f"{message} (maximum admissible value: {max_value})")
        self.max_value = max_value


class ConstructionError(SizeRamseyError):
    """A coloring construction's precondition failed or its palette ran out."""


class LasVegasError(ConstructionError):
    """A randomized construction exhausted its retry budget.

    `retries` is the number of attempts made, `best` a short description of
    the closest miss, for diagnostics.
    """

    def __init__(self, message: str, retries: int, best: str = ""):
        detail = f"{message} after {retries} attempts"
        if best:
            detail += f"; closest miss: {best}"
        super().__init__(detail)
        self.retries = retries
        self.best = best


class CertificateValidationError(SizeRamseyError):
    """A certificate failed re-verification. `violations` lists every failed check."""

    def __init__(self, violations: list[str]):
        super().__init__("certificate invalid: " + "; ".join(violations))
        self.violations = list(violations)
