"""The NumPy-vectorized lowering backend."""

from __future__ import annotations

from typing import Sequence

from .base import Backend, BackendCapabilities, Lowering


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
    # Each nest is a handful of whole-array passes: a vectorized element
    # costs 1% of an interpreted one, and the sort and search helpers
    # (lexsort ranks, vectorized binary search) carry the same discount.
    cost_weights = {
        "nests": (0.05, 0.01),
        "sort": (0.2, 0.05),
        "bucket_perm": (0.05, 0.0),
        "bsearch": (0.05, 0.05),
    }

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
