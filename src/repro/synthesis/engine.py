"""The inspector synthesis pipeline (Section 3.2 of the paper).

Given a source and a destination :class:`~repro.formats.FormatDescriptor`,
:func:`synthesize` produces an SPF :class:`~repro.spf.Computation` that
converts a tensor between the formats, following the paper's five steps —
run as an explicit staged pipeline with typed artifacts
(:mod:`repro.pipeline.artifacts`):

1. :func:`~repro.synthesis.compose.compose_stage` — invert the
   destination sparse-to-dense map and compose it with the source's
   (steps 1-2),
2. :func:`~repro.synthesis.casematch.case_match_stage` — classify the
   composed constraints, plan one population statement per unknown UF
   (step 3, Cases 1-5),
3. :func:`~repro.synthesis.build.build_stage` — emit the raw SPF
   computation: permutation, population, quantifier enforcement, the data
   copy (steps 1, 4, 5),
4. the :data:`~repro.pipeline.PASSES` manager — run the registered
   optimization passes (dedup, dead code elimination — which removes the
   permutation when the source already satisfies the destination
   ordering — loop fusion, and the opt-in binary-search rewrite),
5. :func:`~repro.synthesis.lower.lower_stage` — lower to the selected
   backend's executable source.

This module is the orchestrator only; the heavy lifting lives in the
stage modules.
"""

from __future__ import annotations

import time

import repro.obs as obs
from repro.backends import DEFAULT_BACKEND, Backend, get_backend
from repro.formats.descriptor import FormatDescriptor
from repro.pipeline import BINARY_SEARCH, PASSES, PassContext

from .build import build_stage
from .casematch import case_match_stage
from .compose import compose_stage
from .conversion import PERMUTATION, SynthesizedConversion
from .lower import lower_stage


#: Wall time per synthesis phase: ``compose``, ``solve``, ``build``,
#: ``optimize``, ``codegen``, and ``total`` for a whole cache-missing
#: :func:`~repro.synthesis.cache.synthesize_cached` call.
PHASE_SECONDS = obs.histogram(
    "repro_synthesis_seconds", "synthesis wall time by phase"
)


def _phase(
    name: str, start: float, span_name: str | None = None, **attrs
) -> float:
    """Close one synthesis phase: histogram + trace span; returns *now*.

    Each mark feeds the ``repro_synthesis_seconds{phase=<name>}``
    histogram (historical phase names) and — under tracing — a child span
    of the enclosing ``synthesize`` span (pipeline taxonomy names, e.g.
    the ``solve`` phase surfaces as the ``synthesis.case_match`` span).
    """
    now = time.perf_counter()
    PHASE_SECONDS.observe(now - start, phase=name)
    obs.add_span(
        f"synthesis.{span_name or name}", start, now, category="synthesis",
        **attrs,
    )
    return now


def synthesize(
    src: FormatDescriptor,
    dst: FormatDescriptor,
    *,
    optimize: bool = True,
    binary_search: bool = False,
    name: str | None = None,
    backend: "str | Backend" = DEFAULT_BACKEND,
    disabled_passes: tuple[str, ...] = (),
) -> SynthesizedConversion:
    """Synthesize the inspector converting ``src`` tensors into ``dst``.

    ``backend`` selects the lowering — a registered backend name
    (``"python"`` emits the scalar interpreted inspector, ``"numpy"`` the
    vectorized one) or a :class:`~repro.backends.Backend` instance.
    ``disabled_passes`` removes optimization passes by name (see
    ``repro passes``).
    """
    backend_obj = get_backend(backend)
    with obs.span(
        "synthesize",
        category="synthesis",
        src=src.name,
        dst=dst.name,
        backend=backend_obj.name,
        optimize=optimize,
    ) as span:
        conversion = _synthesize_impl(
            src,
            dst,
            optimize=optimize,
            binary_search=binary_search,
            name=name,
            backend=backend_obj,
            disabled_passes=disabled_passes,
        )
        span.set(statements=len(conversion.computation.stmts))
        return conversion


def _synthesize_impl(
    src: FormatDescriptor,
    dst: FormatDescriptor,
    *,
    optimize: bool,
    binary_search: bool,
    name: str | None,
    backend: Backend,
    disabled_passes: tuple[str, ...],
) -> SynthesizedConversion:
    # Resolve the pass pipeline up front so an unknown --disable-pass name
    # fails before any synthesis work happens.
    pass_config = PASSES.config(
        optimize=optimize,
        requested=(BINARY_SEARCH,) if binary_search else (),
        disabled=disabled_passes,
    )
    notes: list[str] = []
    fn_name = name or f"{src.name.lower()}_to_{dst.name.lower()}"

    # Phase attribution: explicit marks (not nested ``with`` blocks), so
    # each stage lands in PHASE_SECONDS under its own phase label.
    _mark = time.perf_counter()

    composed = compose_stage(src, dst, notes)
    uf_output_map = dict(composed.uf_map)
    _mark = _phase(
        "compose", _mark, constraints=len(composed.conjunction.constraints)
    )

    match = case_match_stage(composed, notes)
    _mark = _phase(
        "solve",
        _mark,
        span_name="case_match",
        unknown_ufs=len(match.unknown_ufs),
        plans=len(match.plans),
    )

    built = build_stage(
        composed, match, optimize=optimize, fn_name=fn_name, notes=notes
    )
    comp = built.comp
    _mark = _phase("build", _mark, statements=len(comp.stmts))

    # Optimization pipeline (Section 3.3): the registered passes.
    stmts_before_optimize = len(comp.stmts)
    start_optimize = time.perf_counter()
    with obs.span("synthesis.optimize", category="synthesis") as ospan:
        ctx = PassContext(
            comp=comp,
            returns=built.returns,
            symtab=built.symtab,
            notes=notes,
            permutation_name=PERMUTATION,
        )
        PASSES.run(ctx, pass_config)
        ospan.set(
            stmts_before=stmts_before_optimize,
            stmts_after=len(comp.stmts),
            eliminated=stmts_before_optimize - len(comp.stmts),
        )
    PHASE_SECONDS.observe(
        time.perf_counter() - start_optimize, phase="optimize"
    )
    _mark = time.perf_counter()

    program, lowering = lower_stage(built, backend)
    _phase(
        "codegen",
        _mark,
        span_name="lower",
        backend=backend.name,
        **(lowering.vector_stats or {}),
    )

    return SynthesizedConversion(
        name=fn_name,
        src_format=src.name,
        dst_format=dst.name,
        computation=comp,
        params=built.params,
        returns=built.returns,
        source=lowering.source,
        symtab=built.symtab,
        program=program,
        uf_output_map=uf_output_map,
        notes=notes,
        backend=backend.name,
        vector_stats=lowering.vector_stats,
    )
