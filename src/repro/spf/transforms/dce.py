"""Dead code elimination over the SPF dataflow graph.

The SPF-IR is, at its most basic, a dataflow graph (Section 3.3).  Starting
from the live-out data spaces we walk the graph backward; any statement whose
writes are never (transitively) read into a live-out space is removed.  This
is the pass that deletes the permutation ``P`` when the destination ordering
already matches the source (e.g. lexicographic COO → CSR).
"""

from __future__ import annotations

from typing import Iterable

from ..computation import Computation, Stmt


def dead_code_elimination(
    comp: Computation, live_out: Iterable[str]
) -> list[Stmt]:
    """Remove statements not contributing to ``live_out``; returns removals.

    A statement is live when it writes a live data space; the spaces it
    *reads* then become live for the statements before it.  The backward walk
    respects program order so later writers do not keep earlier readers
    alive spuriously.  Both sets are derived from each statement's body and
    iteration space (:attr:`~repro.spf.Stmt.reads`), so no read can be
    left off a list.
    """
    live: set[str] = set(live_out)
    keep: list[bool] = [False] * len(comp.stmts)
    for index in range(len(comp.stmts) - 1, -1, -1):
        stmt = comp.stmts[index]
        if any(w in live for w in stmt.writes):
            keep[index] = True
            live |= set(stmt.reads)
    removed = [s for s, k in zip(comp.stmts, keep) if not k]
    comp.replace_stmts([s for s, k in zip(comp.stmts, keep) if k])
    return removed
