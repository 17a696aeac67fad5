"""The :class:`Backend` contract: one pluggable lowering target.

A backend owns everything that differs between the scalar-Python and
vectorized lowerings of a synthesized inspector:

* **lowering** — turning an optimized SPF :class:`~repro.spf.Computation`
  into executable source (:meth:`Backend.lower`),
* **execution namespace** — the runtime helpers generated code may
  reference (:meth:`Backend.namespace`),
* **result materialization** — copying native outputs into the typed
  arrays containers store, at the public ``convert()`` boundary
  (:meth:`Backend.materialize`),
* **input staging** — the native representation benchmark harnesses feed
  the inspector (:meth:`Backend.native_inputs`), and whether the backend's
  source is interpreted Python that reads list inputs
  (:attr:`Backend.interprets`),
* **cost estimation** — the planner's machine-independent edge weights
  (:meth:`Backend.estimate_cost`),

plus declarative :class:`BackendCapabilities` the CLI and planner can
inspect without running anything.

This module deliberately imports nothing from the rest of the package at
module level (only the stdlib): every layer — the synthesis engine, the
runtime executor, the planner — can depend on :mod:`repro.backends`
without import cycles.  Hooks that need runtime helpers import them
lazily.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.planner.stats import MatrixStats
    from repro.spf import Computation, SymbolTable


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can do, declared rather than probed.

    ``ranks`` lists the tensor ranks the lowering handles; ``strategies``
    names the vectorization (or execution) strategies generated code may
    use — surfaced by ``repro passes`` so an operator can see why a
    backend was (not) chosen; ``requires`` lists soft dependencies that
    must import for the backend to be usable.
    """

    ranks: tuple[int, ...] = (2, 3)
    vectorized: bool = False
    strategies: tuple[str, ...] = ()
    requires: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "ranks": list(self.ranks),
            "vectorized": self.vectorized,
            "strategies": list(self.strategies),
            "requires": list(self.requires),
        }


@dataclass
class Lowering:
    """The result of lowering one computation through a backend."""

    source: str
    #: e.g. ``{"vectorized_nests": n, "scalar_nests": m}`` — None when the
    #: backend has no vectorization split to report.
    vector_stats: dict | None = None
    notes: list[str] = field(default_factory=list)


def structural_features(conversion) -> dict:
    """Cost-relevant structure shared by the backend cost models.

    Derived from the generated source: loop-nest count, whether a
    comparison-sort permutation / ordered-set / bucket permutation is
    built, and whether per-nonzero searches (linear or binary) survive in
    the code.  Backends weight these features differently but detect them
    identically.
    """
    return source_features(conversion.source)


def source_features(source: str) -> dict:
    """:func:`structural_features` over a source string directly.

    Backends whose executable ``conversion.source`` is not the scalar
    lowering (the C backend's is a marshalling wrapper) feature-extract
    from ``conversion.scalar_source`` instead.
    """
    return {
        "passes": source.count("for "),
        "sort": "OrderedList(" in source,
        "set": "OrderedSet(" in source,
        "bucket_perm": (
            "LexBucketPermutation(" in source or "P_count" in source
        ),
        "bsearch": "BSEARCH(" in source or "BSEARCH_V(" in source,
        # A guarded loop inside the copy is a per-nonzero linear search.
        "linear_search": "if (" in source and "for d in range" in source,
    }


def _bcsr_block(name: str) -> int:
    digits = name[4:]
    return int(digits) if digits.isdigit() else 2


def workload_units(conversion, stats: "MatrixStats") -> dict:
    """Per-feature element counts for one conversion on one matrix.

    The matrix-independent cost models charge each structural feature a
    constant; this scales those constants by how many elements the
    feature actually touches on a concrete matrix:

    * a pass visits every *storage slot* — nnz for coordinate and
      compressed formats, ``nrows * ndiags`` for DIA, ``nrows * width``
      for ELL, ``nnz / fill`` for a blocked format's padded blocks,
    * a comparison sort is ``nnz * log2(nnz)``,
    * a linear diagonal search is ``nnz * ndiags / 2``; its binary
      variant ``nnz * log2(ndiags)``.
    """
    n = max(stats.nnz, 1)
    slots = float(n)
    for fmt in (conversion.src_format, conversion.dst_format):
        name = (fmt or "").upper()
        if name.startswith("DIA"):
            slots = max(slots, float(stats.nrows * max(stats.ndiags, 1)))
        elif name.startswith("ELL"):
            slots = max(slots, float(stats.nrows * max(stats.row_max, 1)))
        elif name.startswith("BCSR"):
            fill = max(stats.fill(_bcsr_block(name)), 1e-3)
            slots = max(slots, n / fill)
    nd = max(stats.ndiags, 1)
    return {
        "pass_elems": slots,
        "sort_elems": n * math.log2(n + 1),
        "linear_search_elems": n * nd / 2.0,
        "bsearch_elems": n * math.log2(nd + 1),
    }


class Backend:
    """Base class for lowering backends; register instances, not classes.

    The legacy string ``backend="python"|"numpy"`` API resolves to
    registered instances through :func:`repro.backends.get_backend`, so
    subclasses must set a unique :attr:`name`.
    """

    name: str = "abstract"
    description: str = ""
    capabilities: BackendCapabilities = BackendCapabilities()
    #: Name of the backend whose outputs this one must agree with in the
    #: differential fuzzer, or None when this backend *is* the reference.
    differential_reference: str | None = None
    #: All reference backends the fuzzer cross-checks this one against;
    #: empty means "just :attr:`differential_reference`".  The C backend
    #: sets both python and numpy so a shared bug in either pairing is
    #: caught.
    differential_references: tuple[str, ...] = ()
    #: Whether this backend's source runs as interpreted scalar Python,
    #: which reads its array inputs as lists copied once at its entry
    #: (:meth:`SynthesizedConversion.run_native`).
    interprets: bool = False

    # ------------------------------------------------------------------
    def require(self) -> None:
        """Raise if the backend's soft dependencies are unavailable."""

    def lower(
        self,
        comp: "Computation",
        params: Sequence[str],
        returns: Sequence[str],
        symtab: "SymbolTable",
        *,
        scalar_source: str | None = None,
    ) -> Lowering:
        """Lower an optimized computation to executable source.

        ``scalar_source`` is the already-generated scalar lowering, passed
        as a hint so the scalar backend does not lower twice.
        """
        raise NotImplementedError

    def namespace(self) -> dict:
        """The globals available to inspectors compiled for this backend."""
        raise NotImplementedError

    def materialize(self, outputs):
        """Copy native inspector outputs into the containers' typed arrays.

        Every tier returns the same types: ``Adst`` as ``array('d')``,
        every other array as ``array('q')``, scalars as Python scalars.
        A numpy or C output is copied with one memcpy.
        """
        from repro.runtime.storage import INDEX, VALUE, typed

        materialized = {}
        for name, value in outputs.items():
            if isinstance(value, (int, float)):
                materialized[name] = value
            elif getattr(value, "ndim", 1) == 0:  # a numpy scalar
                materialized[name] = value.item()
            else:
                materialized[name] = typed(
                    value, VALUE if name == "Adst" else INDEX, name
                )
        return materialized

    def native_inputs(self, inputs: Mapping) -> dict:
        """Stage inspector inputs as numpy arrays, by the field's role.

        A container's typed array becomes a read-only view of its own
        buffer, without a copy; a list becomes float64 for the data
        column ``Asrc`` and int64 otherwise.  Scalars pass through.
        """
        from repro.runtime.storage import INDEX, VALUE, as_ndarray

        return {
            name: as_ndarray(value, VALUE if name == "Asrc" else INDEX)
            if isinstance(value, (array, list)) else value
            for name, value in inputs.items()
        }

    def estimate_cost(self, conversion, stats=None) -> float:
        """Machine-independent cost of one synthesized conversion.

        Used by :mod:`repro.planner` as the edge weight in the conversion
        graph; the absolute scale is arbitrary but shared across backends
        so chains can mix lowerings.

        ``stats`` — an optional :class:`repro.planner.stats.MatrixStats`
        profile of the concrete input — switches the model from
        structural per-pass constants to element-count estimates scaled
        by the matrix (see :func:`workload_units`).  Omitting it must
        reproduce the historical matrix-independent estimate.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Registry/CLI view of the backend."""
        return {
            "name": self.name,
            "description": self.description,
            "differential_reference": self.differential_reference,
            "capabilities": self.capabilities.to_dict(),
        }

    def __repr__(self):
        return f"<Backend {self.name!r}>"
