"""The synthesis result type and the engine's shared naming conventions.

This module is the bottom of the synthesis package's import graph: the
stage modules (:mod:`.compose`, :mod:`.casematch`, :mod:`.build`,
:mod:`.lower`) all import the constants and :class:`SynthesisError` from
here, and :mod:`.engine` assembles their artifacts into a
:class:`SynthesizedConversion`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import repro.obs as obs
from repro.runtime.executor import compile_inspector
from repro.runtime.storage import as_list
from repro.spf import Computation, SymbolTable


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
    """The ``__OBS_STMT`` hook instrumented inspectors report through."""
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

    ``source`` is the generated Python inspector; :attr:`c_source` renders
    the display C version of the loop chain on demand; ``notes`` logs the
    synthesis decisions (which case produced each statement, whether the
    permutation was eliminated...).
    """

    name: str
    src_format: str
    dst_format: str
    computation: Computation
    params: tuple[str, ...]
    returns: tuple[str, ...]
    source: str
    symtab: SymbolTable
    uf_output_map: dict[str, str]
    notes: list[str] = field(default_factory=list)
    #: Lowering backend this conversion was synthesized for: ``source`` is
    #: the active backend's source, ``scalar_source`` always the scalar one.
    backend: str = "python"
    scalar_source: str = ""
    #: ``{"vectorized_nests": n, "scalar_nests": m}`` for the numpy backend.
    vector_stats: dict | None = None
    #: Memoized display-C rendering; populated lazily by :attr:`c_source`
    #: (or from the disk-cache payload when a past process rendered it).
    _c_source: str | None = None
    _compiled: object = None
    #: Per-statement instrumented compile, built lazily under tracing;
    #: ``False`` records that instrumentation was attempted and failed.
    _instrumented: object = None

    @property
    def c_source(self) -> str:
        """The display C rendering of the loop chain, generated on demand.

        Every conversion used to pay C codegen up front; now only
        consumers that ask (``repro convert --c``, the walkthrough
        example) trigger it.  Conversions rehydrated from the disk cache
        carry whatever the writing process had rendered (possibly
        nothing — the SPF intermediates needed to regenerate are not
        persisted, so the display C is empty then).
        """
        if self._c_source is None:
            if self.computation is None or self.symtab is None:
                return ""
            self._c_source = self.computation.codegen(self.symtab, lang="c")
        return self._c_source

    def compile(self):
        """Compile the generated inspector into a callable (cached)."""
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
        attributes and per-statement child spans from the instrumented
        lowering (:mod:`repro.obs.instrument`).
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

    def _instrumented_fn(self):
        """The per-statement instrumented callable, or None."""
        if self._instrumented is None:
            from repro.obs.instrument import instrument_source

            rewritten = instrument_source(self.source, self.name)
            if rewritten is None:
                self._instrumented = False
            else:
                try:
                    self._instrumented = compile_inspector(
                        self.name,
                        rewritten[0],
                        extra_env={
                            "__OBS_STMT": _record_stmt_span,
                            "__OBS_CLOCK": time.perf_counter,
                        },
                        backend=self.backend,
                    )
                except ValueError:
                    self._instrumented = False
        return self._instrumented or None

    def _run_traced(self, inputs: dict):
        ordered = self._arguments(inputs)
        source_data = inputs.get(SOURCE_DATA)
        nnz = len(source_data) if hasattr(source_data, "__len__") else None
        with obs.span(
            "execute",
            category="runtime",
            conversion=self.name,
            backend=self.backend,
        ) as span:
            # Per-statement hooks are deep-trace only: always-on service
            # tracing (an adopted context with detail=False) keeps the
            # execute span but runs the uninstrumented inspector.
            fn = (
                self._instrumented_fn()
                if obs.TRACER.stmt_detail()
                else None
            ) or self.compile()
            result = fn(*ordered)
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
