"""The synthesis result type and the engine's shared naming conventions.

This module is the bottom of the synthesis package's import graph: the
stage modules (:mod:`.compose`, :mod:`.casematch`, :mod:`.build`,
:mod:`.lower`) all import the constants and :class:`SynthesisError` from
here, and :mod:`.engine` assembles their artifacts into a
:class:`SynthesizedConversion`.  Its lowered ``program`` is the record of
the conversion: the cost features, the C listing and the deep-trace timed
variant are all printed from it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import repro.obs as obs
from repro.backends import DEFAULT_BACKEND
from repro.backends.base import program_features
from repro.runtime.executor import compile_inspector
from repro.runtime.storage import as_list
from repro.spf import Computation, Program, SymbolTable
from repro.spf.codegen.c_emit import emit_c


class SynthesisError(ValueError):
    """Raised when a conversion cannot be synthesized."""


#: Suffix appended to destination tuple variables / UF names colliding
#: with the source's during disambiguation.
POSITION_VAR_SUFFIX = "2"
SOURCE_DATA = "Asrc"
DEST_DATA = "Adst"
PERMUTATION = "P"

#: Statement phases: the build stage tags every statement with its phase
#: and the engine orders statements by phase before optimization.
PH_ALLOC = 0
PH_PERM = 1
PH_PERMSYM = 2
PH_DYNALLOC = 3
PH_POP = 4
PH_SIZESYM = 5
PH_ENFORCE = 6
PH_DSTALLOC = 7
PH_COPY = 8


def _record_stmt_span(index: int, label: str, start: float, end: float):
    """The ``__OBS_STMT`` hook timed inspectors report through."""
    obs.add_span(label, start, end, category="execute.stmt", index=index)


def _array_bytes(value) -> int:
    """Rough allocation estimate for one inspector output."""
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(value, (list, tuple)):
        return 8 * len(value)
    return 8


@dataclass
class SynthesizedConversion:
    """The output of :func:`repro.synthesis.synthesize`.

    ``program`` is the optimized computation lowered once (with the
    ``symtab`` its printers read); ``source`` is the active backend's
    executable printing of it; :attr:`c_source` prints the C tier's unit
    on demand; ``notes`` logs the synthesis decisions (which case
    produced each statement, whether the permutation was eliminated...).
    ``computation`` is the optimized SPF computation itself (tandem
    synthesis re-optimizes it).
    """

    name: str
    src_format: str
    dst_format: str
    computation: Computation
    params: tuple[str, ...]
    returns: tuple[str, ...]
    source: str
    symtab: SymbolTable
    program: Program
    uf_output_map: dict[str, str]
    notes: list[str] = field(default_factory=list)
    #: Lowering backend whose executable source ``source`` is.
    backend: str = DEFAULT_BACKEND
    #: ``{"vectorized_nests": n}`` for the numpy backend.
    vector_stats: dict | None = None
    #: The compiled inspector; this conversion is its only memo.
    _compiled: object = None
    #: The deep-trace timed variant, compiled on first use.
    _timed: object = None

    @cached_property
    def c_source(self) -> str:
        """The C unit the C tier compiles for :attr:`program`, without the
        runtime header every unit embeds
        (:attr:`~repro.spf.codegen.c_emit.CEmitted.listing`).

        Printed on demand, whatever the conversion's tier: only consumers
        that ask (``repro synthesize --c``, the walkthrough example) pay.
        """
        return emit_c(
            self.program, self.name, self.params, self.returns, self.symtab
        ).listing

    @cached_property
    def features(self) -> dict:
        """:func:`~repro.backends.base.program_features` of
        :attr:`program`, which never changes: computed once, for every
        cost estimate of this conversion."""
        return program_features(self.program)

    def compile(self):
        """The generated inspector as a callable, compiled on first use."""
        if self._compiled is None:
            self._compiled = compile_inspector(
                self.name, self.source, backend=self.backend
            )
        return self._compiled

    def __call__(self, **inputs):
        """Run the inspector; returns the dict of destination arrays.

        Results have the same types whichever backend lowered the
        inspector — the typed arrays containers store (``array('d')``
        for ``Adst``, ``array('q')`` for every other array) and Python
        scalars; use :meth:`run_native` to keep the backend's own
        representation.
        """
        from repro.backends import get_backend

        result = self.run_native(**inputs)
        return get_backend(self.backend).materialize(result)

    def run_native(self, **inputs):
        """Run the inspector in its backend's native representation.

        The numpy and C backends return numpy arrays (scalar values pass
        through as-is); the python backend returns lists.  Interpreted
        source — the python tier — reads its array inputs as lists,
        copied once here.  Benchmarks time this entry point so the copy into
        typed arrays is not charged to the inspector.

        Under tracing (``REPRO_TRACE=1`` / ``trace=True``) the run is
        wrapped in an ``execute`` span with nnz / allocation / throughput
        attributes; under deep tracing the python and numpy tiers run the
        timed variant (:meth:`repro.backends.Backend.timed_source`), whose
        top-level nodes report ``execute.stmt`` child spans.
        """
        if obs.tracing():
            return self._run_traced(inputs)
        fn = self.compile()
        return fn(*self._arguments(inputs))

    def _arguments(self, inputs) -> list:
        """The inputs in parameter order, as lists for interpreted code."""
        from repro.backends import get_backend

        ordered = [inputs[p] for p in self.params]
        if get_backend(self.backend).interprets:
            ordered = [as_list(value) for value in ordered]
        return ordered

    def _timed_fn(self):
        """The deep-trace timed callable, or None on a tier without one."""
        if self._timed is None:
            from repro.backends import get_backend

            source = get_backend(self.backend).timed_source(self)
            if source is None:
                return None
            self._timed = compile_inspector(
                self.name,
                source,
                extra_env={
                    "__OBS_STMT": _record_stmt_span,
                    "__OBS_CLOCK": time.perf_counter,
                },
                backend=self.backend,
            )
        return self._timed

    def _run_traced(self, inputs: dict):
        ordered = self._arguments(inputs)
        source_data = inputs.get(SOURCE_DATA)
        nnz = len(source_data) if hasattr(source_data, "__len__") else None
        # Per-statement hooks are deep-trace only: always-on service
        # tracing (an adopted context with detail=False) keeps the execute
        # span but runs the untimed inspector.  The timed variant compiles
        # before the span opens, so ``execute`` times only the run.
        timed = self._timed_fn() if obs.TRACER.stmt_detail() else None
        with obs.span(
            "execute",
            category="runtime",
            conversion=self.name,
            backend=self.backend,
        ) as span:
            result = (timed or self.compile())(*ordered)
        attrs = {}
        if nnz is not None:
            attrs["nnz"] = nnz
            if span.duration > 0:
                attrs["throughput_nnz_per_s"] = round(nnz / span.duration)
        if isinstance(result, dict):
            attrs["bytes_allocated"] = sum(
                _array_bytes(value) for value in result.values()
            )
        span.set(**attrs)
        return result
