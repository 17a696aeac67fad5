"""Inspector/executor tandem optimization.

The paper's introduction argues for synthesizing conversions *into SPF*
precisely so that "by directly synthesizing the sparse format code to SPF
and expressing the original computation in SPF, both can be optimized in
tandem".  This module demonstrates that payoff.

Given a conversion ``src → dst`` followed by an executor kernel over the
destination format, :func:`tandem` builds both pipelines:

* the **naive** pipeline runs the conversion inspector, then the
  destination-format kernel on its outputs;
* the **tandem-optimized** pipeline retargets the executor through the
  composed sparse-to-dense maps (the destination's dense coordinates equal
  the source's, so the kernel's statement is re-expressed over the *source*
  iteration space, reading the source data array) and then runs dead code
  elimination on the combined computation — for a single kernel
  application this removes every conversion statement, collapsing the
  pipeline to "run the kernel on the source format".

The collapse is the formal version of the intro's observation that a
conversion only pays off when the computation repeats enough times; the
breakeven analysis lives in :mod:`repro.evalharness.amortization`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.formats.descriptor import FormatDescriptor
from repro.kernels.executor_gen import synthesize_kernel
from repro.runtime.executor import compile_inspector
from repro.spf import Computation, Stmt, SymbolTable
from repro.spf.transforms import dead_code_elimination

from .engine import synthesize


@dataclass
class TandemResult:
    """The combined pipeline in naive and tandem-optimized forms."""

    src_format: str
    dst_format: str
    kernel_kind: str
    naive_source: str
    optimized_source: str
    params: tuple[str, ...]
    returns: tuple[str, ...]
    conversion_statements_removed: int
    conversion_eliminated: bool
    #: Backend the conversion inspector was lowered with ("python"/"numpy").
    backend: str = "python"
    notes: list[str] = field(default_factory=list)
    _naive: object = None
    _optimized: object = None

    def run_naive(self, **inputs):
        if self._naive is None:
            self._naive = compile_inspector(
                "tandem_naive", self.naive_source, backend=self.backend
            )
        return self._naive(*[inputs[p] for p in self.params])

    def run_optimized(self, **inputs):
        if self._optimized is None:
            # The optimized pipeline is pure scalar code (the conversion is
            # eliminated), but compile it in the same namespace for parity.
            self._optimized = compile_inspector(
                "tandem_optimized", self.optimized_source, backend=self.backend
            )
        return self._optimized(*[inputs[p] for p in self.params])


def _rename_function(source: str, old: str, new: str) -> str:
    return source.replace(f"def {old}(", f"def {new}(", 1)


def _retarget_text(text: str) -> str:
    """Rewrite a destination-kernel body to read the source data array."""
    return re.sub(r"\bAdata\b", "Asrc", text)


def tandem(
    src: FormatDescriptor,
    dst: FormatDescriptor,
    kernel_kind: str = "spmv",
    *,
    backend: str = "python",
) -> TandemResult:
    """Build and optimize conversion + kernel across the boundary.

    ``backend`` selects the conversion inspector's lowering for the naive
    pipeline; the tandem-optimized pipeline eliminates the conversion, so
    its code is backend-independent.
    """
    conversion = synthesize(src, dst, backend=backend)
    dst_kernel = synthesize_kernel(dst, kernel_kind)
    src_kernel = synthesize_kernel(src, kernel_kind)
    notes: list[str] = []

    kernel_extra = [
        p
        for p in dst_kernel.params
        if p not in set(conversion.params)
        and p != "Adata"
        and conversion.uf_output_map.get(p, p) not in conversion.returns
        and p not in dst.derived_size_symbols()
    ]
    params = tuple(list(conversion.params) + kernel_extra)
    returns = dst_kernel.returns

    # ------------------------------------------------------------------
    # Naive pipeline: convert, then run the destination kernel.
    # ------------------------------------------------------------------
    uf_map = conversion.uf_output_map
    kernel_args = []
    for p in dst_kernel.params:
        generated = uf_map.get(p, p)
        if p == "Adata":
            kernel_args.append("__conv['Adst']")
        elif generated in conversion.returns:
            kernel_args.append(f"__conv[{generated!r}]")
        else:
            kernel_args.append(p)
    naive_source = "\n".join(
        [
            _rename_function(conversion.source, conversion.name, "__convert"),
            _rename_function(dst_kernel.source, dst_kernel.name, "__kernel"),
            f"def tandem_naive({', '.join(params)}):",
            f"    __conv = __convert({', '.join(conversion.params)})",
            f"    return __kernel({', '.join(kernel_args)})",
        ]
    )

    # ------------------------------------------------------------------
    # Tandem optimization on the combined SPF computation.
    # ------------------------------------------------------------------
    combined = Computation("tandem_core")
    conversion_names = []
    for stmt in conversion.computation.stmts:
        added = combined.add_stmt(
            Stmt(stmt.body, stmt.space, None, stmt.reads, stmt.writes,
                 "", stmt.phase)
        )
        conversion_names.append(added.name)
    last_phase = max((s.phase for s in combined.stmts), default=0) + 1
    assert src_kernel.computation is not None
    for stmt in src_kernel.computation.stmts:  # type: ignore[attr-defined]
        combined.add_stmt(
            Stmt(
                _retarget_text(stmt.text),
                stmt.space,
                None,
                [("Asrc" if r == "Adata" else r) for r in stmt.reads],
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

    symtab = SymbolTable(
        arrays=(
            set(src.index_ufs())
            | set(dst.index_ufs())
            | {"Asrc", "Adst", "Adata", "x", "y"}
        ),
        functions={"MORTON", "MORTON2", "MORTON3", "BSEARCH"},
        objects={"P"},
    )
    optimized_source = combined.codegen_function(
        list(params), list(returns), symtab,
        preamble=list(src_kernel.preamble),
    )
    optimized_source = _rename_function(
        optimized_source, "tandem_core", "tandem_optimized"
    )

    return TandemResult(
        src_format=src.name,
        dst_format=dst.name,
        kernel_kind=kernel_kind,
        naive_source=naive_source,
        optimized_source=optimized_source,
        params=params,
        returns=returns,
        conversion_statements_removed=removed_conversion,
        conversion_eliminated=conversion_eliminated,
        backend=backend,
        notes=notes,
    )
