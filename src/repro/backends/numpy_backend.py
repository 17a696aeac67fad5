"""The NumPy-vectorized lowering backend."""

from __future__ import annotations

from typing import Sequence

from .base import (
    Backend,
    BackendCapabilities,
    Lowering,
    program_features,
    workload_units,
)


def _print(program, name, params, returns, symtab, *, timing=False):
    from repro.spf.codegen.vectorize import emit_numpy_function
    from repro.spf.replay import mark_rank_lookups

    # Marking rewrites the program in place; a marked program prints the
    # same on every tier and marks again to itself.
    return emit_numpy_function(
        name, params, mark_rank_lookups(program), returns, symtab,
        timing=timing,
    )


class NumpyBackend(Backend):
    """Whole-array re-emission of each loop nest via ``repro.spf.codegen``.

    A program with a nest the read/write hazard check rejects is refused
    with :class:`~repro.spf.statements.UnsupportedStatement` (no
    synthesized conversion has one); :attr:`Lowering.vector_stats`
    counts the vectorized nests.  Outputs must agree with the scalar
    backend element for element (``differential_references``).
    """

    name = "numpy"
    description = "vectorized whole-array lowering"
    capabilities = BackendCapabilities(
        ranks=(2, 3),
        vectorized=True,
        strategies=(
            "histogram-prefix-sum",
            "stable-bucket-fill",
            "lexicographic-rank",
            "segmented-flatten",
            "gather-scatter",
        ),
        requires=("numpy",),
    )
    differential_references = ("python",)

    def require(self) -> None:
        from repro.runtime import npvec

        npvec.require_numpy()

    def lower(
        self,
        program,
        name: str,
        params: Sequence[str],
        returns: Sequence[str],
        symtab,
    ) -> Lowering:
        return _print(program, name, params, returns, symtab)

    def timed_source(self, conversion) -> str:
        return _print(
            conversion.program,
            conversion.name,
            conversion.params,
            conversion.returns,
            conversion.symtab,
            timing=True,
        ).source

    def namespace(self) -> dict:
        from repro.runtime import executor, npvec

        npvec.require_numpy()
        namespace = dict(executor._BASE_NAMESPACE)
        namespace.update(executor._NUMPY_EXTRAS)
        return namespace

    def estimate_cost(self, conversion, stats=None) -> float:
        """Cost model for vectorized inspectors.

        Each nest costs a small constant (a handful of array passes —
        numpy's per-element work is a couple of orders of magnitude
        cheaper than an interpreted pass).  With ``stats``, nests are
        charged per element touched on the profiled matrix: a vectorized
        element costs 1% of an interpreted one, and the sort/search
        helpers (lexsort ranks, vectorized binary search) carry the same
        discount.
        """
        feats = program_features(conversion.program)
        vectorized = (conversion.vector_stats or {}).get("vectorized_nests", 0)
        if stats is None:
            cost = 0.05 * vectorized
            if feats["sort"]:
                cost += 0.2  # lexsort rank
            if feats["bucket_perm"]:
                cost += 0.05
            if feats["bsearch"]:
                cost += 0.05
            return cost
        units = workload_units(conversion, stats)
        cost = vectorized * units["pass_elems"] * 0.01
        if feats["sort"]:
            cost += 0.05 * units["sort_elems"]
        if feats["bsearch"]:
            cost += 0.05 * units["bsearch_elems"]
        return cost
