"""The scalar-Python lowering backend (the paper's listings)."""

from __future__ import annotations

from typing import Mapping, Sequence

from .base import Backend, BackendCapabilities, Lowering


class PythonBackend(Backend):
    """Interpreted scalar loop nests — dependency-free, easiest to read.

    This is the reference backend: every other backend's outputs must be
    element-for-element identical to it (the differential fuzzer and the
    backend-equivalence suite enforce that).
    """

    name = "python"
    description = "scalar loop nests interpreted by CPython (reference)"
    capabilities = BackendCapabilities(
        ranks=(2, 3),
        vectorized=False,
        strategies=("scalar-loops",),
    )
    interprets = True
    # Each loop over the nonzeros costs one pass, an interpreted element
    # weight 1.0; comparison sorts pay tuple keys and hash lookups, each
    # binary-search probe a call, and a linear diagonal search (a guarded
    # loop inside the copy) is the costliest per-nonzero pattern.
    cost_weights = {
        "passes": (1.0, 1.0),
        "sort": (4.0, 1.5),
        "set": (1.0, 1.0),
        "bucket_perm": (0.5, 0.5),
        "bsearch": (1.0, 1.5),
        "linear_search": (4.0, 1.0),
    }

    def lower(
        self,
        program,
        name: str,
        params: Sequence[str],
        returns: Sequence[str],
        symtab,
    ) -> Lowering:
        from repro.spf import emit_python_function

        return Lowering(
            source=emit_python_function(name, params, program, returns, symtab)
        )

    def timed_source(self, conversion) -> str:
        from repro.spf import emit_python_function

        return emit_python_function(
            conversion.name,
            conversion.params,
            conversion.program,
            conversion.returns,
            conversion.symtab,
            timing=True,
        )

    def namespace(self) -> dict:
        # Lazy: repro.runtime.__init__ imports the executor, which resolves
        # backends — importing it here at module level would cycle.
        from repro.runtime import executor

        return dict(executor._BASE_NAMESPACE)

    def native_inputs(self, inputs: Mapping) -> dict:
        """Typed arrays as lists: the interpreted loops' native form."""
        from repro.runtime.storage import as_list

        return {name: as_list(value) for name, value in inputs.items()}
