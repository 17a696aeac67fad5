"""Lowering stage: optimized computation → lowered program → backend source.

The computation is lowered exactly once, to the loop and statement
:class:`~repro.spf.Program`; the active backend's
:meth:`~repro.backends.Backend.lower` hook prints that program as its
executable source.  The program travels on with the conversion (and
through the disk cache), so the cost models, the display C rendering
(:attr:`~repro.synthesis.SynthesizedConversion.c_source`, printed on
demand) and the deep-trace timed variant never lower again.
"""

from __future__ import annotations

from repro.backends import Backend
from repro.pipeline.artifacts import BuiltComputation, LoweredSource


def lower_stage(
    built: BuiltComputation, backend: Backend, notes: list[str]
) -> LoweredSource:
    """Lower the built computation for ``backend``."""
    program = built.comp.lower()
    lowering = backend.lower(
        program,
        built.comp.name,
        list(built.params),
        list(built.returns),
        built.symtab,
    )
    if lowering.vector_stats is not None:
        stats = lowering.vector_stats
        notes.append(
            f"{backend.name} backend: {stats['vectorized_nests']} "
            f"vectorized nest(s), {stats['scalar_nests']} scalar fallback "
            "nest(s)"
        )
    notes.extend(f"{backend.name} backend: {n}" for n in lowering.notes)
    return LoweredSource(
        backend=backend.name,
        source=lowering.source,
        program=program,
        vector_stats=lowering.vector_stats,
        notes=list(lowering.notes),
    )
