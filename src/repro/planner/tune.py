"""Auto-tuning of parameterized destination formats.

Choosing "BCSR" or "DIA" as a destination still leaves parameters open —
the block size of a blocked family, whether an offset family's diagonal
lookup is a linear scan or a binary search — and the best choice depends
on the matrix: a 7×7-blocked FEM matrix stored as 2×2 blocks pads every
block boundary, a 33-diagonal banded matrix pays for every linear probe.
Which families are tunable, and over what, is read off each family's
level composition (:func:`tuning_rule`), and every candidate's padding
is its composition's storage slots per nonzero
(:func:`repro.backends.base.storage_slots`).

:func:`tune` searches that space the AutoSparse way: the matrix-aware
cost model (:func:`repro.planner.estimate_cost` with
:class:`MatrixStats`) ranks all candidates, only the predicted-cheapest
``top_k`` are confirmed with short measured runs, and measurements land
in the learned-cost store so the next similar matrix (same stats bucket)
tunes without measuring at all.

The search is deterministic: candidate enumeration is ordered, the final
ranking breaks ties on (seconds, predicted, label), and the seed only
shuffles the measurement *order* (guarding against systematic warm-up
bias), never the outcome set.  Measured seconds within
:data:`MEASURED_TIE` of the fastest do not separate candidates: the
prediction ranks those.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.backends import DEFAULT_BACKEND
from repro.backends.base import storage_slots
from repro.formats import get_format
from repro.formats.bindings import bind_source
from repro.formats.library import format_names, parameterized_families
from repro.synthesis import SynthesisError, synthesize_cached

from .coststore import CostStore, conversion_cost_key, default_cost_store
from .stats import BLOCK_CANDIDATES, MatrixStats, matrix_stats

#: A parameterization storing more than this many slots per nonzero is
#: rejected before synthesis.
PADDING_BUDGET = 64.0

#: Measured (or learned) seconds within this fraction of the fastest are
#: a tie, ranked by prediction.  One candidate's tune-style measurement
#: (best of 2 calls, COO->BCSR7 on ``fem_blocks(84, block=7, seed=1)``,
#: 2-core VM; interquartile range over median of 20 samples per process)
#: spread 1.2-12.2% on python (8 processes), 1.4-11.2% on C (8) and
#: 2.6-11.3% on numpy in 15 of 16 processes (33.5% in one).  Wider gaps
#: still rank by seconds, so a pick outside this band can flip.
MEASURED_TIE = 0.15


def tuning_rule(family: str) -> str | None:
    """How ``family`` is tuned, read off its level composition.

    ``"block"`` — a blocked family registered as parameterized sweeps
    :data:`BLOCK_CANDIDATES`; ``"search"`` — an offset family tries the
    linear and the binary-search diagonal lookup; None — the family
    cannot be a destination, or has no parameter to tune.
    """
    try:
        composition = get_format(family).levels
    except KeyError:
        return None
    if not composition.dest_capable:
        return None
    if composition.family == "blocked" and \
            family.upper() in parameterized_families():
        return "block"
    if composition.family == "offset":
        return "search"
    return None


#: The library's families with tunable parameterizations.
TUNABLE = tuple(name for name in format_names() if tuning_rule(name))


class TuneError(SynthesisError):
    """No viable parameterization for this family on this matrix."""


@dataclass(frozen=True)
class Candidate:
    """One point in a family's parameter space."""

    family: str
    #: Concrete destination format name ("BCSR4", "DIA", ...).
    dst: str
    label: str
    #: Synthesize the DIA diagonal lookup as a binary search.
    binary_search: bool = False
    block: Optional[int] = None


@dataclass
class TunedCandidate:
    """A candidate with its predicted — and possibly measured — cost."""

    candidate: Candidate
    predicted: float
    #: Best measured (or learned) seconds; None when never measured.
    seconds: Optional[float] = None
    #: True when ``seconds`` came from the learned-cost store.
    learned: bool = False
    measured_runs: int = 0

    @property
    def cost(self) -> float:
        """The comparable cost: measured seconds when known, else the
        prediction (only compared against other unmeasured predictions)."""
        return self.seconds if self.seconds is not None else self.predicted

    def to_dict(self) -> dict:
        return {
            "family": self.candidate.family,
            "dst": self.candidate.dst,
            "label": self.candidate.label,
            "binary_search": self.candidate.binary_search,
            "block": self.candidate.block,
            "predicted": self.predicted,
            "seconds": self.seconds,
            "learned": self.learned,
            "measured_runs": self.measured_runs,
        }


@dataclass
class TuneResult:
    """Outcome of one :func:`tune` call: ranked candidates, best first."""

    family: str
    src: str
    bucket: str
    candidates: list[TunedCandidate] = field(default_factory=list)
    #: Candidates rejected before ranking, label -> reason.
    rejected: dict[str, str] = field(default_factory=dict)

    @property
    def best(self) -> TunedCandidate:
        return self.candidates[0]

    @property
    def measured_runs(self) -> int:
        return sum(c.measured_runs for c in self.candidates)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "src": self.src,
            "bucket": self.bucket,
            "best": self.best.to_dict(),
            "candidates": [c.to_dict() for c in self.candidates],
            "rejected": dict(self.rejected),
            "measured_runs": self.measured_runs,
        }


# ----------------------------------------------------------------------
def candidates_for(
    family: str, stats: MatrixStats
) -> tuple[list[Candidate], dict[str, str]]:
    """Enumerate (viable, rejected) parameterizations of ``family``.

    Viability is cheap and matrix-driven: blocks larger than the matrix
    are out, and layouts storing more than :data:`PADDING_BUDGET` slots
    per nonzero are rejected *before* any synthesis or measurement —
    storing a power-law matrix as DIA is wrong at enumeration time.
    """
    family = family.upper()
    rule = tuning_rule(family)
    if rule is None:
        raise TuneError(
            f"family {family!r} has no tunable parameterizations; "
            f"tunable: {TUNABLE}"
        )
    if rule == "block":
        default = get_format(family).levels.levels[0].block
        points = [
            Candidate(family, family if b == default else f"{family}{b}",
                      f"{family} block={b}", block=b)
            for b in BLOCK_CANDIDATES
        ]
    else:
        points = [
            Candidate(family, family, f"{family} linear-search"),
            Candidate(family, family, f"{family} binary-search",
                      binary_search=True),
        ]
    viable: list[Candidate] = []
    rejected: dict[str, str] = {}
    for cand in points:
        if cand.block is not None and \
                cand.block > max(min(stats.nrows, stats.ncols), 1):
            rejected[cand.label] = "block exceeds matrix dimensions"
            continue
        padding = (
            storage_slots(cand.dst, stats) / stats.nnz if stats.nnz else 1.0
        )
        if padding > PADDING_BUDGET:
            rejected[cand.label] = (
                f"padding {padding:.1f} slots/nnz exceeds budget "
                f"{PADDING_BUDGET:g}"
            )
        else:
            viable.append(cand)
    return viable, rejected


# ----------------------------------------------------------------------
def tune(
    container,
    family: str,
    *,
    backend: str = DEFAULT_BACKEND,
    top_k: int = 3,
    repeats: int = 2,
    seed: int = 0,
    measure: bool = True,
    store: CostStore | None = None,
    stats: MatrixStats | None = None,
) -> TuneResult:
    """Pick the best parameterization of ``family`` for ``container``.

    Predicted cost (matrix-aware) ranks every viable candidate; the
    cheapest ``top_k`` are confirmed — from the learned-cost store when a
    measurement for this stats bucket already exists, otherwise by
    ``repeats`` short measured runs (best-of, recorded back into the
    store).  ``measure=False`` ranks purely on predictions (and learned
    entries), spawning no measured runs.
    """
    import repro.obs as obs
    from repro.planner import estimate_cost, record_measurement

    if store is None:
        store = default_cost_store()
    if stats is None:
        stats = matrix_stats(container)
    src, env = bind_source(container)
    with obs.span(
        "plan.tune", category="plan", family=family, src=src, backend=backend
    ) as span:
        viable, rejected = candidates_for(family, stats)
        result = TuneResult(
            family=family.upper(), src=src, bucket=stats.bucket(),
            rejected=rejected,
        )

        # Predict: synthesize each candidate's inspector (memoized across
        # calls) and scale its structural cost by the profile.
        scored: list[tuple[TunedCandidate, object]] = []
        for cand in viable:
            try:
                conversion = synthesize_cached(
                    get_format(src),
                    get_format(cand.dst),
                    backend=backend,
                    binary_search=cand.binary_search,
                )
            except SynthesisError as err:
                result.rejected[cand.label] = f"synthesis failed: {err}"
                continue
            predicted = estimate_cost(conversion, stats)
            scored.append((TunedCandidate(cand, predicted), conversion))
        if not scored:
            raise TuneError(
                f"no viable {family} parameterization for {src}: "
                f"{result.rejected}"
            )
        scored.sort(key=lambda sc: (sc[0].predicted, sc[0].candidate.label))

        # Prune: only the predicted-cheapest top_k get confirmed.
        for tuned, _ in scored[top_k:]:
            result.candidates.append(tuned)
        confirm = scored[:top_k]

        # Confirm: learned entries first, measured runs for the rest.
        to_measure: list[tuple[TunedCandidate, object]] = []
        for tuned, conversion in confirm:
            learned = store.lookup(
                conversion_cost_key(conversion), stats.bucket()
            )
            if learned is not None:
                tuned.seconds = learned["seconds"]
                tuned.learned = True
                result.candidates.append(tuned)
            elif measure:
                to_measure.append((tuned, conversion))
            else:
                result.candidates.append(tuned)

        if to_measure:
            # The seed shuffles only the measurement order, so warm-up
            # effects don't systematically favor late candidates; the
            # result ranking below is order-independent.  Repeats are
            # round-robined across candidates (not run back to back) so
            # a transient load spike costs each candidate at most one
            # run — the per-candidate minimum discards it — instead of
            # poisoning one candidate's entire measurement window.
            order = list(range(len(to_measure)))
            random.Random(seed).shuffle(order)
            runs = [
                (idx, {p: env[p] for p in to_measure[idx][1].params})
                for idx in order
            ]
            best: dict[int, float] = {}
            for _ in range(max(repeats, 1)):
                for idx, inputs in runs:
                    conversion = to_measure[idx][1]
                    start = time.perf_counter()
                    conversion(**inputs)
                    elapsed = time.perf_counter() - start
                    if idx not in best or elapsed < best[idx]:
                        best[idx] = elapsed
            for idx, tuned_conversion in enumerate(to_measure):
                tuned, conversion = tuned_conversion
                tuned.seconds = best[idx]
                tuned.measured_runs = max(repeats, 1)
                record_measurement(
                    store,
                    conversion,
                    stats,
                    best[idx],
                    predicted=tuned.predicted,
                    label=f"tune:{tuned.candidate.label}",
                )
                result.candidates.append(tuned)

        # Rank: measured/learned candidates by seconds ahead of
        # prediction-only ones, those within the noise of the fastest by
        # prediction, deterministic tie-breaks throughout.
        tie = (1 + MEASURED_TIE) * min(
            (t.seconds for t in result.candidates if t.seconds is not None),
            default=0.0,
        )
        result.candidates.sort(
            key=lambda t: (
                t.seconds is None,
                tie if t.seconds is not None and t.seconds <= tie else t.cost,
                t.predicted,
                t.candidate.label,
            )
        )
        span.set(
            best=result.best.candidate.label,
            candidates=len(result.candidates),
            measured_runs=result.measured_runs,
        )
    return result


__all__ = [
    "Candidate",
    "MEASURED_TIE",
    "PADDING_BUDGET",
    "TUNABLE",
    "TuneError",
    "TuneResult",
    "TunedCandidate",
    "candidates_for",
    "tune",
    "tuning_rule",
]
