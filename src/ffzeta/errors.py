"""Shared error types.

Refusals that a caller can anticipate (budget caps, invalid specs, undefined
values) are ValueError subclasses; internal-consistency violations that point
at a bug or a broken ring assumption raise ConsistencyError.
"""


class BudgetError(ValueError):
    """Work would exceed a fixed budget; refused before any of it is done."""


class RingValidationError(ValueError):
    """A ring spec failed validation; carries the report when available."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NonMaximalRingError(ValueError):
    """The coordinate ring has finite singular points, so class-group and
    L-polynomial machinery (which assumes a Dedekind ring) refuses to run."""


class RingFileError(ValueError):
    """A ring-spec file is malformed: syntax errors, missing keys, or bad
    literals.  Distinct from RingValidationError, which means the file parsed
    fine but describes a ring that fails validation."""


class CheckpointError(ValueError):
    """A search checkpoint file is malformed; resuming from it is refused."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed (functional equation, count mismatch)."""
