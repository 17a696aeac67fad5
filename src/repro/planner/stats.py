"""One-pass matrix statistics for matrix-aware planning.

The planner's structural edge costs rank conversions by the *shape of the
generated code* — passes, sorts, searches — which makes a power-law matrix
and a banded matrix get the identical plan.  :func:`matrix_stats` profiles
a concrete container in one pass over its nonzeros and returns the
:class:`MatrixStats` the backends' ``estimate_cost(conversion, stats)``
hook scales edge costs with: nnz, shape, density, the row-length
distribution, the distinct-diagonal count (DIA padding), and block-fill
ratios for the tuner's candidate block sizes (BCSR padding).

``MatrixStats.bucket()`` quantizes the profile into a short string key so
the learned-cost store (:mod:`repro.planner.coststore`) can transfer
measured costs between *similar* matrices, not just identical ones.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Mapping

import repro.obs as obs

_STATS_SECONDS = obs.histogram(
    "repro_plan_stats_seconds", "matrix_stats() profiling time"
)

#: Block sizes the profiler computes fill ratios for; the auto-tuner's
#: BCSR candidate space is drawn from this set (block 1 is excluded:
#: Case 6 needs a non-trivial affine decomposition to resolve positions).
BLOCK_CANDIDATES = (2, 3, 4, 5, 6, 7, 8)


@dataclass(frozen=True)
class MatrixStats:
    """A cheap structural profile of one concrete sparse matrix."""

    nrows: int
    ncols: int
    nnz: int
    #: nnz / (nrows * ncols); 0.0 for degenerate shapes.
    density: float
    #: Longest row (the ELL width an ELL staging would need).
    row_max: int
    #: Mean nonzeros per *populated* row.
    row_mean: float
    #: Coefficient of variation of row lengths — near 0 for stencils and
    #: uniform matrices, large for power-law degree distributions.
    row_cv: float
    #: Distinct ``j - i`` values: the ND a DIA destination would store.
    ndiags: int
    #: max |j - i| over the nonzeros.
    bandwidth: int
    #: block size -> nnz / (populated_blocks * b*b), in (0, 1].
    block_fill: Mapping[int, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def fill(self, block: int) -> float:
        """Block-fill ratio for ``block``, estimated when unprofiled."""
        got = self.block_fill.get(block)
        if got is not None:
            return got
        # Fall back to the nearest profiled size, then to fully dense.
        for b in sorted(self.block_fill, key=lambda b: abs(b - block)):
            return self.block_fill[b]
        return 1.0

    # ------------------------------------------------------------------
    def bucket(self) -> str:
        """A coarse, stable key quantizing this profile.

        Two matrices in the same bucket are assumed to have similar
        per-edge conversion costs, so the learned-cost store indexes
        measured timings by ``(conversion, bucket)``.  Quantization is
        logarithmic in the counts and coarse in the shape descriptors —
        the same generator family at the same scale lands in one bucket
        across seeds.
        """

        def lg(x: int) -> int:
            return int(math.log2(x)) if x > 0 else -1

        cv = round(min(self.row_cv, 8.0) * 2) / 2
        fill2 = round(self.fill(2) * 4) / 4
        return (
            f"r{lg(self.nrows)}c{lg(self.ncols)}n{lg(self.nnz)}"
            f"d{lg(self.ndiags)}v{cv}f{fill2}"
        )

    def to_dict(self) -> dict:
        return {
            "nrows": self.nrows,
            "ncols": self.ncols,
            "nnz": self.nnz,
            "density": self.density,
            "row_max": self.row_max,
            "row_mean": self.row_mean,
            "row_cv": self.row_cv,
            "ndiags": self.ndiags,
            "bandwidth": self.bandwidth,
            "block_fill": {str(b): f for b, f in self.block_fill.items()},
            "bucket": self.bucket(),
        }


def _shape(container) -> tuple[int, int]:
    if hasattr(container, "nrows"):
        return container.nrows, container.ncols
    dims = getattr(container, "dims", None)
    if dims is not None:  # 3-D containers: profile the leading two modes
        return dims[0], dims[1]
    raise TypeError(f"container {container!r} has no shape")


def matrix_stats(
    container, *, blocks: tuple[int, ...] = BLOCK_CANDIDATES
) -> MatrixStats:
    """Profile a container in one pass over its stored entries.

    Accepts any runtime container (3-D ones profile their leading two
    modes); the entries come from its format's stored-entry reader
    (``nonzeros()``), so no container is densified.
    Cost: O(nnz * len(blocks)) time, O(rows + diags + blocks) space.
    """
    nrows, ncols = _shape(container)
    start = time.perf_counter()
    with obs.span("plan.stats", category="plan"):
        row_counts: dict[int, int] = {}
        diags: set[int] = set()
        block_sets: dict[int, set] = {b: set() for b in blocks}
        bandwidth = 0
        nnz = 0
        for i, j, *_ in container.nonzeros():
            nnz += 1
            row_counts[i] = row_counts.get(i, 0) + 1
            d = j - i
            diags.add(d)
            if abs(d) > bandwidth:
                bandwidth = abs(d)
            for b, seen in block_sets.items():
                seen.add((i // b) * ncols + j // b)

        if nnz:
            counts = row_counts.values()
            row_mean = nnz / len(row_counts)
            var = sum((c - row_mean) ** 2 for c in counts) / len(row_counts)
            row_cv = math.sqrt(var) / row_mean if row_mean else 0.0
            row_max = max(counts)
        else:
            row_mean = row_cv = 0.0
            row_max = 0
        cells = nrows * ncols
        stats = MatrixStats(
            nrows=nrows,
            ncols=ncols,
            nnz=nnz,
            density=(nnz / cells) if cells else 0.0,
            row_max=row_max,
            row_mean=row_mean,
            row_cv=row_cv,
            ndiags=len(diags),
            bandwidth=bandwidth,
            block_fill={
                b: (nnz / (len(seen) * b * b)) if seen else 1.0
                for b, seen in block_sets.items()
            },
        )
    _STATS_SECONDS.observe(time.perf_counter() - start)
    return stats
