"""Exception types raised by the library."""

from __future__ import annotations


class ReasonConfError(Exception):
    """Base class for all library errors."""


class InvalidPathError(ReasonConfError):
    """A reasoning path violates a structural invariant (e.g. no token log-probs)."""


class NoCandidatesError(ReasonConfError):
    """Selection was requested from an empty confidence map."""


class EmptyBatchError(ReasonConfError):
    """An estimator was applied to a batch with no paths."""


class InvalidSampleSizeError(ReasonConfError):
    """A sampling operation was requested with a non-positive sample count."""


class EnumerationTooLargeError(ReasonConfError):
    """Exhaustive outcome enumeration would exceed the configured cap."""


class FitDegenerateError(ReasonConfError):
    """Mixture fitting is impossible: too few points or no spread in the data."""


class DomainError(ReasonConfError):
    """An argument lies outside the mathematical domain of the operation."""


class EmptyInputError(ReasonConfError):
    """A metric was requested over an empty collection."""


class ParseError(ReasonConfError):
    """A record in an input file failed validation.

    Carries the 1-based line number so callers can report all offending
    lines in one pass.
    """

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


class ConfigError(ReasonConfError):
    """A run configuration document is malformed or contains unknown keys."""
