"""Correctness subsystem: the runtime validation gate and the fuzzer.

Two halves, one goal — no silent corruption:

* :mod:`repro.verify.gate` — the ``validate="off"|"inputs"|"full"`` knob
  threaded through :func:`repro.convert`, the planner, and the CLI.  It
  invokes every container's :meth:`check` (and, at ``"full"``, compares
  the output's stored entries with the source's) at the conversion
  boundary, turning malformed inputs into
  structured :class:`~repro.errors.ValidationError`\\ s instead of corrupt
  outputs.
* :mod:`repro.verify.fuzz` — the property-based differential fuzzer
  (``repro fuzz``): adversarial random inputs pushed through every
  synthesizable format pair x backend x optimize flag, cross-checked
  against the generated entries, the hand-written baselines, and the scalar
  lowering, with deterministic seeds, minimal-case shrinking, and a
  machine-readable failure report.
"""

from .gate import (
    VALIDATE_LEVELS,
    check_input,
    check_output,
    normalize_level,
)
from .fuzz import FuzzFailure, FuzzReport, fuzz, fuzz_random_formats

__all__ = [
    "FuzzFailure",
    "FuzzReport",
    "VALIDATE_LEVELS",
    "check_input",
    "check_output",
    "fuzz",
    "fuzz_random_formats",
    "normalize_level",
]
