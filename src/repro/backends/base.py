"""The :class:`Backend` contract: one pluggable lowering target.

A backend owns everything that differs between the scalar-Python and
vectorized lowerings of a synthesized inspector:

* **lowering** — printing the lowered program of an optimized SPF
  computation as executable source (:meth:`Backend.lower`), and its
  deep-trace timed variant (:meth:`Backend.timed_source`),
* **execution namespace** — the runtime helpers generated code may
  reference (:meth:`Backend.namespace`),
* **result materialization** — copying native outputs into the typed
  arrays containers store, at the public ``convert()`` boundary
  (:meth:`Backend.materialize`),
* **input staging** — the native representation benchmark harnesses feed
  the inspector (:meth:`Backend.native_inputs`), and whether the backend's
  source is interpreted Python that reads list inputs
  (:attr:`Backend.interprets`),
* **cost weights** — the constants the one cost model
  (:meth:`Backend.estimate_cost`) weights a program's features with,
  the planner's machine-independent edge weights,

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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.planner.stats import MatrixStats
    from repro.spf import Program, SymbolTable


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
    #: ``{"vectorized_nests": n}`` on the numpy backend, None elsewhere.
    vector_stats: dict | None = None


def program_features(program: "Program") -> dict:
    """Cost-relevant structure of a lowered program, the one input of
    every tier's cost model (:meth:`Backend.estimate_cost`).

    ``passes`` counts loops and ``nests`` the top-level loop nests (those
    under a symbol-only guard included: a nest is what one vectorized
    whole-array pass replaces); ``sort``, ``set`` and ``bucket_perm`` say
    whether a comparison-sort permutation, an ordered set or a bucket
    permutation (built by an object or inlined over ``P_count``) is
    constructed; ``bsearch`` and ``linear_search`` whether per-nonzero
    searches survive — a guard anywhere with a loop over ``d`` is a linear
    diagonal search.  Tiers weight these features differently but
    detect them identically.
    """
    from repro.spf import statements as st
    from repro.spf.ast_nodes import ForLoop, Guard, walk

    nodes = []
    for node in walk(program):
        nodes.append(node)
        while isinstance(node, st.BinarySearch):
            node = node.stmt
            nodes.append(node)
    kinds = {type(node) for node in nodes}
    loops = [node for node in nodes if isinstance(node, ForLoop)]

    def nests(body) -> int:
        return sum(
            1 if isinstance(node, ForLoop)
            else nests(node.body) if isinstance(node, Guard) else 0
            for node in body
        )

    return {
        "passes": len(loops),
        "nests": nests(program.body),
        "sort": st.NewOrderedList in kinds,
        "set": st.NewOrderedSet in kinds,
        "bucket_perm": st.NewBucketPermutation in kinds or any(
            isinstance(node, st.Statement) and "P_count" in node.names()
            for node in nodes
        ),
        "bsearch": st.BinarySearch in kinds,
        "linear_search": Guard in kinds and any(
            loop.var == "d" for loop in loops
        ),
    }


def storage_slots(fmt: str, stats: "MatrixStats") -> float:
    """Slots library format ``fmt`` stores for the profiled matrix, read
    off the level family of its composition: ``nrows * ndiags`` for an
    offset level, ``nrows * row_max`` for a padded one, ``nnz / fill(b)``
    for blocks of side ``b``, and nnz for coordinate and compressed
    levels."""
    from repro.formats.library import get_format

    n = max(stats.nnz, 1)
    composition = get_format(fmt).levels
    if composition.family == "offset":
        return float(stats.nrows * max(stats.ndiags, 1))
    if composition.family == "padded":
        return float(stats.nrows * max(stats.row_max, 1))
    if composition.family == "blocked":
        return n / max(stats.fill(composition.levels[0].block), 1e-3)
    return float(n)


def workload_units(conversion, stats: "MatrixStats") -> dict:
    """Per-feature element counts for one conversion on one matrix.

    The structural cost model charges each :func:`program_features`
    feature a constant; this counts the elements the feature actually
    touches on a concrete matrix, the per-element weights' multiplier:

    * a pass, a nest or a bucket permutation visits every *storage slot*
      of the larger endpoint (:func:`storage_slots`),
    * a comparison sort or an ordered set is ``nnz * log2(nnz)``,
    * a linear diagonal search is ``nnz * ndiags / 2``; its binary
      variant ``nnz * log2(ndiags)``.
    """
    n = max(stats.nnz, 1)
    slots = max(
        float(n),
        storage_slots(conversion.src_format, stats),
        storage_slots(conversion.dst_format, stats),
    )
    sort = n * math.log2(n + 1)
    nd = max(stats.ndiags, 1)
    return {
        "passes": slots,
        "nests": slots,
        "sort": sort,
        "set": sort,
        "bucket_perm": slots,
        "bsearch": n * math.log2(nd + 1),
        "linear_search": n * nd / 2.0,
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
    #: The backends whose outputs the differential fuzzer requires this
    #: one to match; empty for the reference itself.  The C backend names
    #: both python and numpy so a shared bug in either pairing is caught.
    differential_references: tuple[str, ...] = ()
    #: Whether this backend's source runs as interpreted scalar Python,
    #: which reads its array inputs as lists copied once at its entry
    #: (:meth:`SynthesizedConversion.run_native`).
    interprets: bool = False
    #: The tier's cost model (:meth:`estimate_cost`): per
    #: :func:`program_features` feature, ``(structural weight, weight per
    #: element touched)``, summed in this order.
    cost_weights: Mapping[str, tuple[float, float]] = {}
    #: ``(structural, per-element)`` cost every estimate starts from.
    cost_floor: tuple[float, float] = (0.0, 0.0)

    # ------------------------------------------------------------------
    def require(self) -> None:
        """Raise if the backend's soft dependencies are unavailable."""

    def lower(
        self,
        program: "Program",
        name: str,
        params: Sequence[str],
        returns: Sequence[str],
        symtab: "SymbolTable",
    ) -> Lowering:
        """Print a lowered program as the executable inspector ``name``."""
        raise NotImplementedError

    def timed_source(self, conversion) -> str | None:
        """The deep-trace variant of ``conversion``'s source, or None.

        Printed from ``conversion.program``, it reports each top-level
        node through ``__OBS_CLOCK`` / ``__OBS_STMT``
        (:func:`repro.spf.codegen.printers.timed`).  None runs the
        untimed inspector under deep tracing too.
        """
        return None

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
        graph; the absolute scale is arbitrary but shared across tiers so
        chains can mix lowerings.  The one model: the floor plus each
        :func:`program_features` feature (computed once per conversion,
        ``conversion.features``) times the tier's weight
        (:attr:`cost_weights`).

        Without ``stats`` the structural weights apply per feature; a
        :class:`repro.planner.stats.MatrixStats` profile of the concrete
        input switches to the per-element weights, each times the
        elements its feature touches on that matrix
        (:func:`workload_units`).
        """
        if not self.cost_weights:
            raise NotImplementedError(f"{self.name} declares no cost weights")
        feats = conversion.features
        column = 0 if stats is None else 1
        units = None if stats is None else workload_units(conversion, stats)
        cost = self.cost_floor[column]
        for feature, weights in self.cost_weights.items():
            weight = weights[column] * feats[feature]
            cost += weight if units is None else weight * units[feature]
        return cost

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Registry/CLI view of the backend."""
        return {
            "name": self.name,
            "description": self.description,
            "differential_references": self.differential_references,
            "capabilities": self.capabilities.to_dict(),
        }

    def __repr__(self):
        return f"<Backend {self.name!r}>"
