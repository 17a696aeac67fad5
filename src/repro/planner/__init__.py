"""Multi-step conversion planning over the format library.

The paper's conclusion positions the synthesis machinery as "a foundation
for a complete automatic layout transformation for workloads".  This
package takes that step: it builds the graph of directly synthesizable
conversions, assigns each edge a cost estimated *from the lowered program
itself* (passes over the nonzeros, permutation structures, searches), and
plans cheapest conversion chains — including pairs with no direct
synthesis (DIA→DIA goes through sorted COO).

Planning is **matrix-aware** when a :class:`~repro.planner.stats.MatrixStats`
profile is supplied: edge costs then scale with the actual input (nnz,
diagonal count, block fill — see ``Backend.estimate_cost``), and measured
timings from the learned-cost store (:mod:`repro.planner.coststore`)
override predictions for stats buckets the process — or any previous
process — has already measured.  Without a profile the planner falls back
to the historical structural costs.

Submodules:

* :mod:`repro.planner.stats` — the one-pass matrix profiler,
* :mod:`repro.planner.tune` — parameterized-format auto-tuning
  (BCSR block size, DIA search strategy) with measured confirmation,
* :mod:`repro.planner.coststore` — the persistent learned-cost store.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import repro.obs as obs
from repro.backends import DEFAULT_BACKEND, available_backend, get_backend
from repro.formats import container_to_env, get_format
from repro.formats.bindings import run_conversion
from repro.synthesis import SynthesisError, SynthesizedConversion, synthesize_cached

from .coststore import CostStore, conversion_cost_key, default_cost_store
from .stats import MatrixStats, matrix_stats

_PREDICTION_RATIO = obs.histogram(
    "repro_cost_prediction_ratio",
    "calibrated predicted cost / measured seconds per conversion",
)

#: Formats participating in planning.  Source-only formats (BCSR, CSF,
#: ELL) are included: they simply have no incoming edges, so the planner
#: can route *out of* them but never into them.
PLANNABLE_2D = ("COO", "SCOO", "MCOO", "CSR", "CSC", "DIA", "ELL", "BCSR")
PLANNABLE_3D = ("COO3D", "SCOO3D", "MCOO3", "CSF")


def estimate_cost(
    conversion: SynthesizedConversion, stats: MatrixStats | None = None
) -> float:
    """A machine-independent cost estimate for one synthesized conversion.

    The one cost model (:meth:`repro.backends.Backend.estimate_cost`):
    the features of the lowered program
    (:func:`repro.backends.base.program_features` — loops and nests,
    sorts, ordered sets, bucket permutations, searches) weighted by the
    conversion's tier.  The absolute scale is arbitrary — only relative
    comparisons matter, but the tiers share one scale so a planner can
    weigh an interpreted scalar pass (1.0) against a vectorized nest
    (0.05: numpy's per-element work is a couple of orders of magnitude
    cheaper).

    With ``stats``, each feature is instead weighted per element it
    touches on that concrete matrix, with slot counts read off each
    endpoint's level composition
    (:func:`repro.backends.base.workload_units`).
    """
    return get_backend(conversion.backend).estimate_cost(conversion, stats)


@dataclass(frozen=True)
class PlanStep:
    src: str
    dst: str
    cost: float


@dataclass(frozen=True)
class StepTiming:
    """One executed plan step: predicted cost vs measured wall time."""

    src: str
    dst: str
    predicted: float
    seconds: float


@dataclass
class ConversionPlan:
    """An ordered chain of conversions realizing ``formats[0] → formats[-1]``."""

    formats: tuple[str, ...]
    steps: tuple[PlanStep, ...]
    #: The profile the steps were costed with; None for structural plans.
    stats: Optional[MatrixStats] = field(default=None, compare=False)

    @property
    def total_cost(self) -> float:
        return sum(s.cost for s in self.steps)

    @property
    def matrix_aware(self) -> bool:
        return self.stats is not None

    def __str__(self):
        return " -> ".join(self.formats)


class ConversionPlanner:
    """Builds and queries the direct-conversion graph."""

    def __init__(
        self,
        formats: Sequence[str] | None = None,
        *,
        backend: str = DEFAULT_BACKEND,
        disabled_passes: Sequence[str] = (),
        cost_store: CostStore | None = None,
    ):
        if isinstance(formats, str):
            raise TypeError(f"formats takes a sequence of format names, "
                            f"not the string {formats!r}")
        self.format_names = tuple(formats or PLANNABLE_2D)
        # Normalizing through the registry validates the name up front and
        # lets callers pass a Backend instance directly; an unavailable
        # tier (no cffi / no C toolchain) degrades to the best available
        # one so plans built for "c" still execute everywhere.
        self.backend = available_backend(backend).name
        self.disabled_passes = tuple(disabled_passes)
        self._edges: dict[tuple[str, str], Optional[float]] = {}
        self._conversions: dict[tuple[str, str], SynthesizedConversion] = {}
        self._cost_store = cost_store

    @property
    def cost_store(self) -> CostStore:
        if self._cost_store is None:
            self._cost_store = default_cost_store()
        return self._cost_store

    # ------------------------------------------------------------------
    def edge_cost(self, src: str, dst: str) -> Optional[float]:
        """Structural cost of the direct conversion, or None when
        unsynthesizable."""
        key = (src, dst)
        if key in self._edges:
            return self._edges[key]
        try:
            # The cached entry point guarantees each (src, dst, backend)
            # pair is synthesized at most once per process, however many
            # planners are built or plans are queried.
            conversion = synthesize_cached(
                get_format(src),
                get_format(dst),
                backend=self.backend,
                disabled_passes=self.disabled_passes,
            )
        except SynthesisError:
            self._edges[key] = None
            return None
        self._conversions[key] = conversion
        cost = estimate_cost(conversion)
        self._edges[key] = cost
        return cost

    def matrix_edge_cost(
        self, src: str, dst: str, stats: MatrixStats
    ) -> Optional[float]:
        """Per-matrix cost of the direct conversion.

        The structural prediction is re-scaled by ``stats``; a learned
        measured cost from the store overrides it when one exists for
        this (conversion, stats bucket).  To keep Dijkstra's scale
        consistent when learned edges (seconds) and predicted edges
        (abstract units) mix in one search, predictions are multiplied by
        the store's calibration factor once any measurement exists.
        Deliberately not memoized: a measurement recorded between two
        plans must influence the second one.
        """
        if self.edge_cost(src, dst) is None:
            return None
        conversion = self._conversions[(src, dst)]
        predicted = estimate_cost(conversion, stats)
        store = self.cost_store
        learned = store.lookup(conversion_cost_key(conversion), stats.bucket())
        if learned is not None:
            return learned["seconds"]
        calibration = store.calibration()
        if calibration is not None:
            return predicted * calibration
        return predicted

    def conversion(self, src: str, dst: str) -> SynthesizedConversion:
        cost = self.edge_cost(src, dst)
        if cost is None:
            raise SynthesisError(f"no direct conversion {src} -> {dst}")
        return self._conversions[(src, dst)]

    # ------------------------------------------------------------------
    def plan(
        self, src: str, dst: str, *, stats: MatrixStats | None = None
    ) -> ConversionPlan:
        """Cheapest conversion chain from ``src`` to ``dst`` (Dijkstra).

        When the direct edge exists it competes with multi-step chains on
        cost; when it does not (DIA→DIA), an intermediary is found
        automatically.  With ``stats``, edges are re-costed for that
        matrix (and overridden by learned measurements), so the chosen
        route can differ from the structural one.
        """
        src, dst = src.upper(), dst.upper()
        if stats is None:
            cost_fn: Callable[[str, str], Optional[float]] = self.edge_cost
        else:
            def cost_fn(a, b, _stats=stats):
                return self.matrix_edge_cost(a, b, _stats)

        if src == dst and self.edge_cost(src, dst) is None:
            # Route through the cheapest intermediary.
            best: Optional[ConversionPlan] = None
            for mid in self.format_names:
                if mid == src:
                    continue
                there = cost_fn(src, mid)
                back = cost_fn(mid, dst)
                if there is None or back is None:
                    continue
                candidate = ConversionPlan(
                    (src, mid, dst),
                    (PlanStep(src, mid, there), PlanStep(mid, dst, back)),
                    stats=stats,
                )
                if best is None or candidate.total_cost < best.total_cost:
                    best = candidate
            if best is None:
                raise SynthesisError(f"no conversion path {src} -> {dst}")
            return best

        distances: dict[str, float] = {src: 0.0}
        parents: dict[str, str] = {}
        heap: list[tuple[float, str]] = [(0.0, src)]
        visited: set[str] = set()
        # Parameterized endpoints ("BCSR3") are not graph nodes; graft
        # them on so tuned formats can be planned to and from.
        nodes = self.format_names
        if src not in nodes:
            nodes = nodes + (src,)
        if dst not in nodes:
            nodes = nodes + (dst,)
        while heap:
            dist, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            if node == dst:
                break
            for neighbor in nodes:
                if neighbor == node:
                    continue
                cost = cost_fn(node, neighbor)
                if cost is None:
                    continue
                candidate = dist + cost
                if candidate < distances.get(neighbor, float("inf")):
                    distances[neighbor] = candidate
                    parents[neighbor] = node
                    heapq.heappush(heap, (candidate, neighbor))
        if dst not in distances:
            raise SynthesisError(f"no conversion path {src} -> {dst}")

        chain = [dst]
        while chain[-1] != src:
            chain.append(parents[chain[-1]])
        chain.reverse()
        steps = tuple(
            PlanStep(a, b, cost_fn(a, b) or 0.0)
            for a, b in zip(chain, chain[1:])
        )
        return ConversionPlan(tuple(chain), steps, stats=stats)

    # ------------------------------------------------------------------
    def execute_plan(
        self,
        plan: ConversionPlan,
        container,
        *,
        validate: str = "off",
        original=None,
        record: bool | None = None,
    ) -> tuple[object, list[StepTiming]]:
        """Run an already-computed plan, timing (and learning from) each step.

        Returns the final container plus per-step timings.  When ``record``
        is enabled (defaults to on for matrix-aware plans) each measured
        step feeds the learned-cost store under the plan's stats bucket,
        and the calibrated prediction-vs-actual ratio lands in the
        ``repro_cost_prediction_ratio`` obs histogram.
        """
        return self._run_plan(plan, container, container_to_env(container),
                              validate, original, record)

    def _run_plan(self, plan, container, env, validate="off", original=None,
                  record=None):
        """:meth:`execute_plan` with ``container`` bound as ``env``, the
        first step's input; each later step binds its predecessor's."""
        from repro.verify import gate

        level = gate.normalize_level(validate)
        stats = plan.stats
        if record is None:
            record = stats is not None
        store = self.cost_store
        reference = original if original is not None else container
        current = container
        timings: list[StepTiming] = []
        for step in plan.steps:
            with obs.span(
                "plan.step",
                category="plan",
                src=step.src,
                dst=step.dst,
                cost=round(step.cost, 3),
            ):
                conversion = self.conversion(step.src, step.dst)
                if current is not container:
                    env = container_to_env(current)
                current, elapsed = run_conversion(conversion, step.dst, env)
                gate.check_output(current, reference, level=level,
                                  format_name=step.dst)
            predicted = (
                estimate_cost(conversion, stats)
                if stats is not None
                else step.cost
            )
            timings.append(StepTiming(step.src, step.dst, predicted, elapsed))
            if record and stats is not None:
                record_measurement(
                    store,
                    conversion,
                    stats,
                    elapsed,
                    predicted=predicted,
                    label=f"{step.src}->{step.dst}",
                )
        return current, timings

    def execute(self, container, dst: str, *,
                assume_sorted: bool | None = True,
                validate: str = "inputs", trace: bool | None = None,
                matrix_aware: bool = False):
        """Plan and run the conversion chain on a concrete container.

        ``validate`` gates the chain like :func:`repro.convert`: the
        source container is checked before the first step, and at
        ``"full"`` every intermediate and the final result are checked
        against the source's shape and stored entries.  ``trace`` forces the
        :mod:`repro.obs` span tree on/off for this call (``None`` follows
        ``REPRO_TRACE``).  ``matrix_aware=True`` profiles the container
        first and plans with per-matrix edge costs, feeding measured step
        timings back into the learned-cost store.
        """
        from repro.verify import gate

        level = gate.normalize_level(validate)
        with obs.TRACER.forced(trace), obs.span(
            "plan.execute", category="plan", dst=dst, backend=self.backend
        ) as root:
            src, env = gate.check_input(
                container, level=level, assume_sorted=assume_sorted
            )
            root.set(src=src)
            if not self._plannable_source(src):
                rank = type(container).layout.rank
                raise SynthesisError(
                    f"{src} is not in this planner's format set "
                    f"{self.format_names}; use ConversionPlanner("
                    f"PLANNABLE_{rank}D, ...), default_planner"
                    f"{'_3d' if rank == 3 else ''}() or convert_via_plan"
                )
            stats = matrix_stats(container) if matrix_aware else None
            plan = self.plan(src, dst, stats=stats)
            root.set(
                chain="->".join(plan.formats),
                steps=len(plan.steps),
                matrix_aware=matrix_aware,
            )
            result, _ = self._run_plan(plan, container, env, level)
            return result

    def _plannable_source(self, src: str) -> bool:
        """Whether a detected container format can start a plan here.

        Parameterized names (``BCSR4``) are accepted when their family is
        plannable: they act as an extra source node with outgoing edges
        into the planner's format set.
        """
        if src in self.format_names:
            return True
        family = src.rstrip("0123456789")
        return bool(src[len(family):]) and family in self.format_names


def record_measurement(
    store: CostStore,
    conversion: SynthesizedConversion,
    stats: MatrixStats,
    seconds: float,
    *,
    predicted: float | None = None,
    label: str = "",
) -> None:
    """Fold one measured conversion into the store and the obs metrics."""
    if predicted is None:
        predicted = estimate_cost(conversion, stats)
    calibration = store.calibration()
    store.record(
        conversion_cost_key(conversion),
        stats.bucket(),
        seconds,
        predicted=predicted,
        label=label,
    )
    if calibration is not None and seconds > 0:
        _PREDICTION_RATIO.observe(
            (predicted * calibration) / seconds, backend=conversion.backend
        )


#: Guards the default-planner singletons: concurrent first calls used to
#: race and build (and discard) duplicate planners, losing the memoized
#: edge costs one of them had already computed.
_PLANNER_LOCK = threading.Lock()
_DEFAULT_PLANNERS: dict[str, ConversionPlanner] = {}
_DEFAULT_3D: dict[str, ConversionPlanner] = {}


def default_planner(backend: str = DEFAULT_BACKEND) -> ConversionPlanner:
    backend = available_backend(backend).name
    planner = _DEFAULT_PLANNERS.get(backend)
    if planner is None:
        with _PLANNER_LOCK:
            planner = _DEFAULT_PLANNERS.get(backend)
            if planner is None:
                planner = _DEFAULT_PLANNERS[backend] = ConversionPlanner(
                    backend=backend
                )
    return planner


def default_planner_3d(backend: str = DEFAULT_BACKEND) -> ConversionPlanner:
    backend = available_backend(backend).name
    planner = _DEFAULT_3D.get(backend)
    if planner is None:
        with _PLANNER_LOCK:
            planner = _DEFAULT_3D.get(backend)
            if planner is None:
                planner = _DEFAULT_3D[backend] = ConversionPlanner(
                    PLANNABLE_3D, backend=backend
                )
    return planner


def convert_via_plan(
    container,
    dst: str,
    *,
    backend: str = DEFAULT_BACKEND,
    assume_sorted: bool | None = True,
    validate: str = "inputs",
    trace: bool | None = None,
    matrix_aware: bool = False,
):
    """Convert through the cheapest available chain (module-level helper).

    The container's declared rank picks the 2-D or 3-D default planner,
    which admits the source (:meth:`ConversionPlanner.execute`).
    """
    layout = getattr(container, "layout", None)
    planner = default_planner_3d if layout and layout.rank == 3 \
        else default_planner
    return planner(backend).execute(
        container,
        dst,
        assume_sorted=assume_sorted,
        validate=validate,
        trace=trace,
        matrix_aware=matrix_aware,
    )


__all__ = [
    "ConversionPlan",
    "ConversionPlanner",
    "CostStore",
    "MatrixStats",
    "PLANNABLE_2D",
    "PLANNABLE_3D",
    "PlanStep",
    "StepTiming",
    "conversion_cost_key",
    "convert_via_plan",
    "default_cost_store",
    "default_planner",
    "default_planner_3d",
    "estimate_cost",
    "matrix_stats",
    "record_measurement",
]
