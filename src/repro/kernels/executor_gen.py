"""Executor generation: sparse kernels synthesized from format descriptors.

The paper's framework expresses both the *inspector* (format conversion)
and the *executor* (the computation over the format) in SPF, "so both can
be optimized in tandem".  This module realizes the executor side: given any
format descriptor, it builds the kernel that iterates the format's sparse
iteration space — SpMV, transposed SpMV, row sums, scaling, and value
reductions — from typed statements (an ``Alloc`` of the output, then one
``Accumulate``, or ``scale``'s ``Scatter``), lowers it once with the same
polyhedra-scanning code generator as the conversions, and prints that
program as the python tier's source and as the C unit the C tier would
compile, as a conversion is.

A format added to the library therefore gets working compute kernels for
free, with no hand-written per-format loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.backends import get_backend
from repro.formats.descriptor import FormatDescriptor
from repro.ir import IntSet, Mul, Sym, UFCall
from repro.runtime.executor import compile_inspector
from repro.runtime.storage import as_list
from repro.spf import Computation, Program, SymbolTable
from repro.spf import statements as st
from repro.spf.codegen.c_emit import emit_c
from repro.synthesis.compose import (
    _dense_source_exprs,
    _source_data_expr,
    _source_space,
)

KERNELS = ("spmv", "spmv_t", "row_sums", "scale", "value_sum")

#: Kernels whose output is the format's own value array, in the format's
#: layout (DIA's padding, CSC's column order).
IN_PLACE = ("scale",)


class KernelError(ValueError):
    """Raised when a kernel cannot be generated for a descriptor."""


@dataclass
class GeneratedKernel:
    """A compiled executor generated from a format descriptor.

    ``program`` is its computation lowered once (with the ``symtab`` its
    printers read); ``source`` is the python tier's printing of it and
    :attr:`c_source` the C tier's.
    """

    name: str
    kind: str
    format_name: str
    params: tuple[str, ...]
    returns: tuple[str, ...]
    source: str
    symtab: SymbolTable
    program: Program
    computation: Computation
    _compiled: object = None

    @property
    def c_source(self) -> str:
        """The C unit :func:`~repro.spf.codegen.c_emit.emit_c` prints for
        :attr:`program`, without its runtime header."""
        return emit_c(
            self.program, self.name, self.params, self.returns, self.symtab
        ).listing

    def compile(self):
        if self._compiled is None:
            self._compiled = compile_inspector(self.name, self.source)
        return self._compiled

    @cached_property
    def writes(self) -> frozenset:
        """The inputs the program writes (``scale``'s ``Adata``)."""
        return frozenset(st.targets(self.program) & set(self.params))

    def __call__(self, **inputs):
        """Run the interpreted kernel on list copies of typed arrays; a
        list input the program writes is copied too, so the caller's
        never changes."""
        fn = self.compile()
        args = {p: as_list(inputs[p]) for p in self.params}
        for p in self.writes:
            if args[p] is inputs[p]:
                args[p] = list(args[p])
        return fn(*args.values())


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
        floats={"Adata", "x", "alpha"},
    )
    position = _source_data_expr(fmt)
    value = UFCall("Adata", [position])
    params_extra = {"spmv": ["x"], "spmv_t": ["x"], "scale": ["alpha"]}.get(
        kind, []
    )
    if kind == "scale":
        out, alloc = "Adata", None
        body = st.Scatter(out, (position,), Mul(Sym("alpha"), value))
    elif kind == "value_sum":
        out, alloc = "total", st.Alloc("total", None, floating=True)
        body = st.Accumulate(out, (), (value,))
    else:
        dense = _dense_source_exprs(fmt)
        row, col = (dense[v] for v in fmt.dense_vars)
        size = Sym("NR")
        if kind == "spmv_t":
            row, col, size = col, row, Sym("NC")
        out, alloc = "y", st.Alloc("y", size, floating=True)
        factors = (value, UFCall("x", [col])) if params_extra else (value,)
        body = st.Accumulate(out, (row,), factors)

    comp = Computation(fn_name)
    returns = [out]
    if alloc is not None:
        comp.new_stmt(alloc, IntSet(()))
    comp.new_stmt(body, space)

    params = sorted(fmt.index_ufs()) + sorted(fmt.size_symbols()) + [
        "Adata"
    ] + params_extra
    program = comp.lower()
    return GeneratedKernel(
        name=fn_name,
        kind=kind,
        format_name=fmt.name,
        params=tuple(params),
        returns=tuple(returns),
        source=get_backend("python").lower(
            program, fn_name, params, returns, symtab
        ).source,
        symtab=symtab,
        program=program,
        computation=comp,
    )


_KERNEL_CACHE: dict = {}


def run_kernel(container, kind: str, **extra):
    """Run a generated kernel directly on a runtime container.

    ``extra`` carries kernel-specific inputs (``x`` for SpMV, ``alpha`` for
    scale).  Returns the kernel's single output (the vector / scalar / data
    array).
    """
    from repro.formats import get_format
    from repro.formats.bindings import bind_source

    fmt_name, env = bind_source(container)
    key = (fmt_name, kind)
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        kernel = synthesize_kernel(get_format(fmt_name), kind)
        kernel.compile()
        _KERNEL_CACHE[key] = kernel
    # The kernel copies what it writes, so ``scale`` never writes the
    # container.
    env["Adata"] = env.pop("Asrc")
    env.update(extra)
    outputs = kernel(**{p: env[p] for p in kernel.params})
    return outputs[kernel.returns[0]]
