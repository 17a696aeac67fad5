"""Lowering stage: optimized computation → lowered program → backend source.

The computation is lowered exactly once, to the loop and statement
:class:`~repro.spf.Program`; the active backend's
:meth:`~repro.backends.Backend.lower` hook prints that program as its
executable source.  The program travels on with the conversion, so the
cost models, the C listing
(:attr:`~repro.synthesis.SynthesizedConversion.c_source`, printed on
demand) and the deep-trace timed variant never lower again.
"""

from __future__ import annotations

from repro.backends import Backend, Lowering
from repro.pipeline.artifacts import BuiltComputation
from repro.spf import Program


def lower_stage(
    built: BuiltComputation, backend: Backend
) -> tuple[Program, Lowering]:
    """Lower the built computation, and print it for ``backend``."""
    program = built.comp.lower()
    return program, backend.lower(
        program,
        built.comp.name,
        list(built.params),
        list(built.returns),
        built.symtab,
    )
