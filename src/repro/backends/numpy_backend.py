"""The NumPy-vectorized lowering backend."""

from __future__ import annotations

from typing import Sequence

from .base import (
    Backend,
    BackendCapabilities,
    Lowering,
    structural_features,
    workload_units,
)


class NumpyBackend(Backend):
    """Whole-array re-emission of each loop nest via ``repro.spf.codegen``.

    Nests the read/write hazard check rejects print as scalar statements
    inside the same function (no synthesized conversion has one);
    :attr:`Lowering.vector_stats` reports the split.  Outputs must agree
    with the scalar backend element for element
    (``differential_reference``).
    """

    name = "numpy"
    description = "vectorized whole-array lowering (scalar fallback nests)"
    capabilities = BackendCapabilities(
        ranks=(2, 3),
        vectorized=True,
        strategies=(
            "histogram-prefix-sum",
            "stable-bucket-fill",
            "lexicographic-rank",
            "segmented-flatten",
            "gather-scatter",
            "scalar-fallback",
        ),
        requires=("numpy",),
    )
    differential_reference = "python"

    def require(self) -> None:
        from repro.runtime import npvec

        npvec.require_numpy()

    def lower(
        self,
        comp,
        params: Sequence[str],
        returns: Sequence[str],
        symtab,
        *,
        scalar_source: str | None = None,
    ) -> Lowering:
        lowering = comp.codegen_function_numpy(
            list(params), list(returns), symtab
        )
        return Lowering(
            source=lowering.source,
            vector_stats={
                "vectorized_nests": lowering.vectorized_nests,
                "scalar_nests": lowering.scalar_nests,
            },
            notes=list(lowering.notes),
        )

    def namespace(self) -> dict:
        from repro.runtime import executor, npvec

        npvec.require_numpy()
        namespace = dict(executor._BASE_NAMESPACE)
        namespace.update(executor._NUMPY_EXTRAS)
        return namespace

    def estimate_cost(self, conversion, stats=None) -> float:
        """Cost model for vectorized inspectors.

        Residual ``for`` loops are the scalar-fallback nests; vectorized
        nests cost a small constant each (a handful of array passes —
        numpy's per-element work is a couple of orders of magnitude
        cheaper than an interpreted pass).  With ``stats``, nests are
        charged per element touched on the profiled matrix: a vectorized
        element costs 1% of an interpreted one, and the sort/search
        helpers (lexsort ranks, vectorized binary search) carry the same
        discount.
        """
        source = conversion.source
        vstats = conversion.vector_stats or {}
        if stats is None:
            cost = float(source.count("for "))
            cost += 0.05 * vstats.get("vectorized_nests", 0)
            if "STABLE_POS(" in source or "DENSE_POS(" in source:
                cost += 0.2  # lexsort rank
            if "FILL_POS(" in source or "COUNT_POS(" in source:
                cost += 0.05
            if "BSEARCH_V(" in source:
                cost += 0.05
            if "if (" in source and "for d in range" in source:
                cost += 4.0  # linear search survived in a fallback nest
            return cost
        feats = structural_features(conversion)
        units = workload_units(conversion, stats)
        vectorized = vstats.get("vectorized_nests", 0)
        scalar = vstats.get("scalar_nests", feats["passes"])
        total_nests = max(vectorized + scalar, 1)
        # Per-element weight of one pass: vectorized share at 0.01,
        # scalar-fallback share at the interpreted 1.0.
        unit = (0.01 * vectorized + 1.0 * scalar) / total_nests
        cost = total_nests * units["pass_elems"] * unit
        if feats["sort"] or "STABLE_POS(" in source or "DENSE_POS(" in source:
            cost += 0.05 * units["sort_elems"]
        if feats["bsearch"]:
            cost += 0.05 * units["bsearch_elems"]
        if feats["linear_search"]:
            cost += units["linear_search_elems"]  # survives interpreted
        return cost
