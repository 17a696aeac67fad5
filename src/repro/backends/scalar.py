"""The scalar-Python lowering backend (the paper's listings)."""

from __future__ import annotations

from typing import Mapping, Sequence

from .base import (
    Backend,
    BackendCapabilities,
    Lowering,
    structural_features,
    workload_units,
)


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
    differential_reference = None
    interprets = True

    def lower(
        self,
        comp,
        params: Sequence[str],
        returns: Sequence[str],
        symtab,
        *,
        scalar_source: str | None = None,
    ) -> Lowering:
        source = scalar_source
        if source is None:
            source = comp.codegen_function(list(params), list(returns), symtab)
        return Lowering(source=source)

    def namespace(self) -> dict:
        # Lazy: repro.runtime.__init__ imports the executor, which resolves
        # backends — importing it here at module level would cycle.
        from repro.runtime import executor

        return dict(executor._BASE_NAMESPACE)

    def native_inputs(self, inputs: Mapping) -> dict:
        """Typed arrays as lists: the interpreted loops' native form."""
        from repro.runtime.storage import as_list

        return {name: as_list(value) for name, value in inputs.items()}

    def estimate_cost(self, conversion, stats=None) -> float:
        """Cost model for interpreted scalar inspectors.

        Without ``stats``: each loop nest over the nonzeros costs one
        pass; comparison-sort permutations cost an extra log-factor pass;
        per-nonzero linear searches cost a diagonal-count factor.  With
        ``stats``, the same features are charged per element actually
        touched on the profiled matrix (interpreted per-element weight
        1.0 everywhere).
        """
        feats = structural_features(conversion)
        if stats is None:
            cost = float(feats["passes"])
            if feats["sort"]:
                cost += 4.0  # comparison sort + hash lookups
            if feats["set"]:
                cost += 1.0
            if feats["bucket_perm"]:
                cost += 0.5
            if feats["bsearch"]:
                cost += 1.0
            # A linear search loop (guarded loop inside the copy) is the
            # costliest per-nonzero pattern.
            if feats["linear_search"]:
                cost += 4.0
            return cost
        units = workload_units(conversion, stats)
        cost = feats["passes"] * units["pass_elems"]
        if feats["sort"]:
            cost += 1.5 * units["sort_elems"]  # tuple keys + hash lookups
        if feats["set"]:
            cost += 1.0 * units["sort_elems"]
        if feats["bucket_perm"]:
            cost += 0.5 * units["pass_elems"]
        if feats["bsearch"]:
            cost += 1.5 * units["bsearch_elems"]  # call overhead per probe
        if feats["linear_search"]:
            cost += units["linear_search_elems"]
        return cost
