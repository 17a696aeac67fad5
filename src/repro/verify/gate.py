"""The runtime validation gate at the ``convert`` boundary.

The synthesized inspectors are correct *given their preconditions*: index
arrays in bounds, no duplicate coordinates, and — for the sorted formats —
the promised ordering.  Historically nothing enforced those preconditions,
so a malformed container flowed through ``convert()`` and came out as a
silently corrupt result (or a bare ``IndexError`` from deep inside
generated code).  This module is the enforcement point:

* ``validate="off"``     — trust the caller entirely (benchmark mode),
* ``validate="inputs"``  — run the source container's :meth:`check` plus
  the ``assume_sorted`` order precondition (the default),
* ``validate="full"``    — additionally :meth:`check` the converted
  output and compare its stored entries with the source's.

Costs: ``"inputs"`` is a constant number of vectorized O(nnz) numpy
passes derived from the source format's level composition
(:meth:`repro.formats.levels.Composition.check`), plus at most one sort
for unordered coordinate formats — none when the coordinates already
arrive in strictly increasing order.  ``"full"`` adds the output's
:meth:`check` and a comparison of both sides' coordinate -> value maps,
O(stored entries) for every rank however large the declared shape
(:func:`repro.runtime.container.compare_contents`); its Python loop
over the entries makes it the debugging level, and the differential
fuzzer's.
"""

from __future__ import annotations

import repro.obs as obs
from repro.errors import ValidationError
from repro.formats.bindings import bind_source

VALIDATE_LEVELS = ("off", "inputs", "full")

_CHECKS = obs.counter("repro_gate_checks", "validation-gate checks run")
#: Rejections by ``ValidationError`` subclass and site.
_REJECTIONS = obs.counter(
    "repro_gate_rejections", "validation-gate rejections"
)


def normalize_level(level: str | None) -> str:
    """Validate and canonicalize a ``validate=`` argument."""
    if level is None:
        return "off"
    if level is False:  # tolerate validate=False for validate="off"
        return "off"
    name = str(level).lower()
    if name not in VALIDATE_LEVELS:
        raise ValueError(
            f"validate must be one of {VALIDATE_LEVELS}, got {level!r}"
        )
    return name


def check_input(container, *, level: str = "inputs",
                assume_sorted: bool | None = True) -> tuple[str, dict]:
    """Admit a source container: its descriptor name and environment,
    bound once (:func:`repro.formats.bindings.bind_source`).

    Above ``level="off"`` that environment is checked against the
    invariants its composition derives (bounds, duplicates, pointer
    invariants) and, for a plain COO under ``assume_sorted=True``, the
    lexicographic order the sorted descriptors rely on, so passing names
    it SCOO (under ``assume_sorted=None``, a plain COO whose entries the
    check finds strictly increasing); a violation raises a
    :class:`~repro.errors.ValidationError` subclass naming the offending
    coordinate or position.
    ``level="off"`` checks nothing; one scan detects the order.
    """
    level = normalize_level(level)
    if level == "off":
        return bind_source(container, assume_sorted=assume_sorted)
    _CHECKS.inc(where="input")
    try:
        return bind_source(container, assume_sorted=assume_sorted,
                           check=True)
    except ValidationError as err:
        _REJECTIONS.inc(error=type(err).__name__, where="input")
        raise


def check_output(result, source, *, level: str = "full",
                 format_name: str | None = None) -> None:
    """Gate a converted container against the source's contents.

    At ``level="full"`` the result's invariants are checked — those of
    ``format_name``, the format it was converted into, so an SCOO result
    must be sorted though its class also stores COO — and its shape and
    stored entries must equal the source's.  Lower levels do nothing —
    outputs of a well-formed input are correct by construction, which is
    exactly the property the fuzzer keeps honest.
    """
    if normalize_level(level) != "full":
        return
    _CHECKS.inc(where="output")
    try:
        result.check_against_dense(source, format_name=format_name)
    except ValidationError as err:
        _REJECTIONS.inc(error=type(err).__name__, where="output")
        raise


__all__ = [
    "VALIDATE_LEVELS",
    "ValidationError",
    "check_input",
    "check_output",
    "normalize_level",
]
