"""Inspector/executor tandem optimization.

The paper's introduction argues for synthesizing conversions *into SPF*
precisely so that "by directly synthesizing the sparse format code to SPF
and expressing the original computation in SPF, both can be optimized in
tandem".  This module demonstrates that payoff.

Given a conversion ``src → dst`` followed by an executor kernel over the
destination format, :func:`tandem` builds both pipelines:

* the **naive** pipeline runs the compiled conversion inspector, then the
  compiled destination-format kernel on its outputs;
* the **tandem-optimized** pipeline retargets the executor through the
  composed sparse-to-dense maps (the destination's dense coordinates equal
  the source's, so its statements are the source-format kernel's, renamed
  by :meth:`~repro.spf.statements.Statement.rename_ufs` to read the source
  data array) and runs dead code elimination on the combined computation
  — for a single kernel application this removes every conversion
  statement, collapsing the pipeline to "run the kernel on the source
  format".  It is lowered once and printed by the python tier.

``scale`` is refused: its output is the format's value array, laid out as
the destination stores it (DIA's padding, CSC's column order), which no
kernel over the source produces.

The collapse is the formal version of the intro's observation that a
conversion only pays off when the computation repeats enough times; the
breakeven analysis lives in :mod:`repro.evalharness.amortization`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backends import get_backend
from repro.formats.descriptor import FormatDescriptor
from repro.kernels.executor_gen import (
    IN_PLACE,
    GeneratedKernel,
    KernelError,
    synthesize_kernel,
)
from repro.runtime.executor import compile_inspector
from repro.spf import Computation, Stmt, SymbolTable
from repro.spf.transforms import dead_code_elimination

from .conversion import DEST_DATA, SOURCE_DATA, SynthesizedConversion
from .engine import synthesize

#: The name the optimized pipeline is lowered under.
OPTIMIZED = "tandem_optimized"


@dataclass
class TandemResult:
    """The combined pipeline in naive and tandem-optimized forms."""

    src_format: str
    dst_format: str
    kernel_kind: str
    optimized_source: str
    params: tuple[str, ...]
    returns: tuple[str, ...]
    conversion_statements_removed: int
    conversion_eliminated: bool
    #: The naive pipeline: the conversion, then ``kernel`` over its
    #: outputs, each destination-kernel parameter in ``feeds`` read from
    #: the conversion output it names.
    conversion: SynthesizedConversion
    kernel: GeneratedKernel
    feeds: dict[str, str]
    notes: list[str] = field(default_factory=list)
    _optimized: object = None

    def run_naive(self, **inputs):
        converted = self.conversion.run_native(
            **{p: inputs[p] for p in self.conversion.params}
        )
        return self.kernel(**{
            p: converted[self.feeds[p]] if p in self.feeds else inputs[p]
            for p in self.kernel.params
        })

    def run_optimized(self, **inputs):
        if self._optimized is None:
            self._optimized = compile_inspector(OPTIMIZED, self.optimized_source)
        return self._optimized(*[inputs[p] for p in self.params])


def tandem(
    src: FormatDescriptor,
    dst: FormatDescriptor,
    kernel_kind: str = "spmv",
) -> TandemResult:
    """Build and optimize conversion + kernel across the boundary."""
    if kernel_kind in IN_PLACE:
        raise KernelError(
            f"tandem cannot fuse {kernel_kind!r} into a conversion: its "
            f"output is {dst.name}'s value array in {dst.name}'s layout, "
            f"which a kernel over {src.name} does not produce"
        )
    conversion = synthesize(src, dst)
    dst_kernel = synthesize_kernel(dst, kernel_kind)
    src_kernel = synthesize_kernel(src, kernel_kind)
    notes: list[str] = []

    uf_map = conversion.uf_output_map
    feeds = {
        p: DEST_DATA if p == "Adata" else uf_map.get(p, p)
        for p in dst_kernel.params
        if p == "Adata" or uf_map.get(p, p) in conversion.returns
    }
    kernel_extra = [
        p
        for p in dst_kernel.params
        if p not in set(conversion.params)
        and p not in feeds
        and p not in dst.derived_size_symbols()
    ]
    params = tuple(list(conversion.params) + kernel_extra)
    returns = dst_kernel.returns

    # ------------------------------------------------------------------
    # Tandem optimization on the combined SPF computation.
    # ------------------------------------------------------------------
    combined = Computation(OPTIMIZED)
    conversion_names = []
    for stmt in conversion.computation.stmts:
        added = combined.add_stmt(
            Stmt(stmt.body, stmt.space, None, stmt.reads, stmt.writes,
                 "", stmt.phase)
        )
        conversion_names.append(added.name)
    last_phase = max((s.phase for s in combined.stmts), default=0) + 1
    retarget = {"Adata": SOURCE_DATA}
    for stmt in src_kernel.computation.stmts:
        combined.add_stmt(
            Stmt(
                stmt.body.rename_ufs(retarget),
                stmt.space,
                None,
                [retarget.get(r, r) for r in stmt.reads],
                stmt.writes,
                "",
                last_phase,
            )
        )
    notes.append(
        f"executor retargeted from {dst.name} to {src.name} via the "
        "composed sparse-to-dense maps (dense coordinates agree)"
    )

    removed = dead_code_elimination(combined, live_out=returns)
    removed_conversion = sum(
        1 for s in removed if s.name in conversion_names
    )
    surviving_conversion = sum(
        1 for s in combined.stmts if s.name in conversion_names
    )
    conversion_eliminated = surviving_conversion == 0
    if conversion_eliminated:
        notes.append(
            f"dead code elimination removed all {removed_conversion} "
            "conversion statements: the destination format never "
            "materializes for a single kernel application"
        )
    else:
        notes.append(
            f"{surviving_conversion} conversion statement(s) remain live"
        )

    # The combined program reads the names of both: their tables' union.
    conv_t, kernel_t = conversion.symtab, src_kernel.symtab
    symtab = SymbolTable(
        arrays=conv_t.arrays | kernel_t.arrays,
        functions=conv_t.functions | kernel_t.functions,
        objects=conv_t.objects | kernel_t.objects,
        floats=conv_t.floats | kernel_t.floats,
    )
    optimized_source = get_backend("python").lower(
        combined.lower(), OPTIMIZED, params, returns, symtab
    ).source

    return TandemResult(
        src_format=src.name,
        dst_format=dst.name,
        kernel_kind=kernel_kind,
        optimized_source=optimized_source,
        params=params,
        returns=returns,
        conversion_statements_removed=removed_conversion,
        conversion_eliminated=conversion_eliminated,
        conversion=conversion,
        kernel=dst_kernel,
        feeds=feeds,
        notes=notes,
    )
