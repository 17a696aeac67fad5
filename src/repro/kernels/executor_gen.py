"""Executor generation: sparse kernels synthesized from format descriptors.

The paper's framework expresses both the *inspector* (format conversion)
and the *executor* (the computation over the format) in SPF, "so both can
be optimized in tandem".  This module realizes the executor side: given any
format descriptor, it generates the kernel that iterates the format's
sparse iteration space — SpMV, transposed SpMV, row sums, scaling, and
value reductions — using exactly the same polyhedra-scanning code generator
as the synthesized conversions.

A format added to the library therefore gets working compute kernels for
free, with no hand-written per-format loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.formats.descriptor import FormatDescriptor
from repro.runtime.executor import compile_inspector
from repro.runtime.storage import as_list
from repro.spf import Computation, SymbolTable
from repro.spf.codegen.printers import print_expr
from repro.synthesis.compose import (
    _dense_source_exprs,
    _source_data_expr,
    _source_space,
)

KERNELS = ("spmv", "spmv_t", "row_sums", "scale", "value_sum")


class KernelError(ValueError):
    """Raised when a kernel cannot be generated for a descriptor."""


@dataclass
class GeneratedKernel:
    """A compiled executor generated from a format descriptor."""

    name: str
    kind: str
    format_name: str
    params: tuple[str, ...]
    returns: tuple[str, ...]
    source: str
    c_source: str
    computation: object = None
    preamble: tuple[str, ...] = ()
    notes: list[str] = field(default_factory=list)
    _compiled: object = None

    def compile(self):
        if self._compiled is None:
            self._compiled = compile_inspector(self.name, self.source)
        return self._compiled

    def __call__(self, **inputs):
        """Run the interpreted kernel on list copies of typed arrays."""
        fn = self.compile()
        return fn(*[as_list(inputs[p]) for p in self.params])


def synthesize_kernel(
    fmt: FormatDescriptor, kind: str, *, name: str | None = None
) -> GeneratedKernel:
    """Generate an executor of the given ``kind`` for one format.

    ``spmv`` / ``spmv_t`` / ``row_sums`` need a rank-2 format; ``scale``
    and ``value_sum`` work for any rank.
    """
    if kind not in KERNELS:
        raise KernelError(f"unknown kernel {kind!r}; available: {KERNELS}")
    if kind in ("spmv", "spmv_t", "row_sums") and fmt.rank != 2:
        raise KernelError(f"{kind} needs a rank-2 format, {fmt.name} is "
                          f"rank {fmt.rank}")

    fn_name = name or f"{fmt.name.lower()}_{kind}"
    # The executor iterates the sparse space; the dense coordinates are
    # recovered through the descriptor's map (exactly the engine's view).
    space = _source_space(fmt)
    symtab = SymbolTable(
        arrays=set(fmt.index_ufs()) | {"Adata", "x", "y"},
        functions={"MORTON", "MORTON2", "MORTON3"},
    )
    data_expr = print_expr(_source_data_expr(fmt), symtab, "py")
    dense = _dense_source_exprs(fmt)
    coords = [print_expr(dense[v], symtab, "py") for v in fmt.dense_vars]
    row, col = (coords + ["", ""])[:2]

    comp = Computation(fn_name)
    preamble: list[str] = []
    if kind == "spmv":
        preamble.append("y = [0.0] * NR")
        body = f"y[{row}] += Adata[{data_expr}] * x[{col}]"
        params_extra, returns = ["x"], ["y"]
    elif kind == "spmv_t":
        preamble.append("y = [0.0] * NC")
        body = f"y[{col}] += Adata[{data_expr}] * x[{row}]"
        params_extra, returns = ["x"], ["y"]
    elif kind == "row_sums":
        preamble.append("y = [0.0] * NR")
        body = f"y[{row}] += Adata[{data_expr}]"
        params_extra, returns = [], ["y"]
    elif kind == "scale":
        body = f"Adata[{data_expr}] = alpha * Adata[{data_expr}]"
        params_extra, returns = ["alpha"], ["Adata"]
    else:  # value_sum
        preamble.append("total = 0.0")
        body = f"total += Adata[{data_expr}]"
        params_extra, returns = [], ["total"]

    reads = sorted(fmt.index_ufs()) + ["Adata"] + (
        ["x"] if "x" in params_extra else []
    )
    comp.new_stmt(body, space, reads=reads, writes=returns)

    params = sorted(fmt.index_ufs()) + sorted(fmt.size_symbols()) + [
        "Adata"
    ] + params_extra
    source = comp.codegen_function(params, returns, symtab, preamble=preamble)
    return GeneratedKernel(
        name=fn_name,
        kind=kind,
        format_name=fmt.name,
        params=tuple(params),
        returns=tuple(returns),
        source=source,
        c_source=comp.codegen(symtab, lang="c"),
        computation=comp,
        preamble=tuple(preamble),
        notes=[f"iteration space: {space}"],
    )


_KERNEL_CACHE: dict = {}


def run_kernel(container, kind: str, **extra):
    """Run a generated kernel directly on a runtime container.

    ``extra`` carries kernel-specific inputs (``x`` for SpMV, ``alpha`` for
    scale).  Returns the kernel's single output (the vector / scalar / data
    array).
    """
    from repro.formats import container_format, container_to_env, get_format

    fmt_name = container_format(container)
    key = (fmt_name, kind)
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        kernel = synthesize_kernel(get_format(fmt_name), kind)
        kernel.compile()
        _KERNEL_CACHE[key] = kernel
    env = container_to_env(container)
    # The kernel reads list copies, so ``scale`` never writes the container.
    env["Adata"] = env.pop("Asrc")
    env.update(extra)
    outputs = kernel(**{p: env[p] for p in kernel.params})
    return outputs[kernel.returns[0]]
