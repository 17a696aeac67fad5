"""Structured validation errors for runtime containers and the convert gate.

Every container ``check()`` and the :func:`repro.convert` validation gate
raise subclasses of :class:`ValidationError`.  The hierarchy distinguishes
*what* is wrong (shape, structure, bounds, duplicates, ordering, dense
mismatch) and each error carries the machine-readable evidence — the
offending coordinate, position, or value — so the differential fuzzer and
callers can report and shrink failures without parsing messages.

:class:`ValidationError` subclasses :class:`ValueError`: code (and tests)
written against the historical ``check()`` contract keep working.
"""

from __future__ import annotations

from typing import Optional


class ValidationError(ValueError):
    """A runtime container violates its format's structural invariants.

    Attributes
    ----------
    container:
        ``repr()`` of the offending container, when known.
    remedy:
        A suggested fix (e.g. ``"pass assume_sorted=False"``), when one
        exists.  Appended to the rendered message.
    """

    def __init__(
        self,
        message: str,
        *,
        container: Optional[str] = None,
        remedy: Optional[str] = None,
    ):
        self.container = container
        self.remedy = remedy
        if remedy:
            message = f"{message} ({remedy})"
        if container:
            message = f"{container}: {message}"
        super().__init__(message)


class ShapeError(ValidationError):
    """Parallel arrays disagree in length, or a pointer array is missized."""


class StructureError(ValidationError):
    """A pointer array violates its endpoints or monotonicity contract."""


class BoundsError(ValidationError):
    """A coordinate or index lies outside the container's dimensions."""

    def __init__(self, message: str, *, coordinate=None, position=None, **kw):
        self.coordinate = coordinate
        self.position = position
        super().__init__(message, **kw)


class DuplicateCoordinateError(ValidationError):
    """The same dense coordinate is stored more than once."""

    def __init__(self, message: str, *, coordinate=None, positions=None, **kw):
        self.coordinate = coordinate
        self.positions = positions
        super().__init__(message, **kw)


class UnsortedInputError(ValidationError):
    """Entries violate the ordering the format (or caller) promised."""

    def __init__(self, message: str, *, position=None, **kw):
        self.position = position
        super().__init__(message, **kw)


class DenseMismatchError(ValidationError):
    """A container's shape or stored entries differ from its reference's."""

    def __init__(
        self, message: str, *, coordinate=None, expected=None, actual=None,
        **kw,
    ):
        self.coordinate = coordinate
        self.expected = expected
        self.actual = actual
        super().__init__(message, **kw)


__all__ = [
    "BoundsError",
    "DenseMismatchError",
    "DuplicateCoordinateError",
    "ShapeError",
    "StructureError",
    "UnsortedInputError",
    "ValidationError",
]
