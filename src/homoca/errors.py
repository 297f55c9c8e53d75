"""Error types shared across the package.

InputError covers malformed tables, out-of-range indices and broken
preconditions; LawError is the InputError a constructor raises when a
defining law of its input fails (a transitive action, coordinates that
carry the origin to each cell, a stabilizer-closed neighborhood), and
carries the failing Verdict so `validate` can report it; BoundError means
an exhaustive computation was refused because the instance is too large
for table-based checking.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .verdict import Verdict


class InputError(ValueError):
    """Malformed input: bad shape, bad index, or a violated precondition."""


class LawError(InputError):
    """A defining law of the input fails; `verdict` is the failing Verdict."""

    def __init__(self, verdict: "Verdict"):
        super().__init__(f"law {verdict.law} fails: {verdict.witness}")
        self.verdict = verdict


class BoundError(RuntimeError):
    """Instance too large for the exhaustive table this operation needs."""


class EquivarianceError(ValueError):
    """A global map required to commute with shifts does not.

    Carries a witness dict with the offending group element and
    configuration so callers can report it.
    """

    def __init__(self, message: str, witness: dict):
        super().__init__(message)
        self.witness = witness
