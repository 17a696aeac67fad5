"""The standard optimization pipeline (the paper's Section 3.3).

Registers the four built-in passes on the global :data:`~.passes.PASSES`
manager:

========  =====  =======  =================================================
name      order  opt-in   transformation
========  =====  =======  =================================================
dedup        10  no       drop statements identical to an earlier one
dce          20  no       drop statements no live-out value depends on
fusion       30  no       merge statements sharing an iteration space
binary-      40  yes      Figure 3: replace a linear search over a
search                    monotonic UF with ``BSEARCH``
========  =====  =======  =================================================

The pass bodies delegate to :mod:`repro.spf.transforms` and
:mod:`repro.synthesis.optimize`; the latter is imported lazily inside the
pass so importing :mod:`repro.pipeline` never pulls in the synthesis
layer (which itself imports this package).
"""

from __future__ import annotations

from repro.spf.transforms import (
    apply_all_fusion,
    dead_code_elimination,
    eliminate_redundant_statements,
)

from .passes import BINARY_SEARCH, PASSES, Pass, PassContext


def _run_dedup(ctx: PassContext) -> int:
    removed = eliminate_redundant_statements(ctx.comp)
    if removed:
        ctx.notes.append(f"removed {len(removed)} duplicate statement(s)")
    return len(removed)


def _run_dce(ctx: PassContext) -> int:
    dead = dead_code_elimination(ctx.comp, live_out=ctx.returns)
    if any(ctx.permutation_name in s.writes for s in dead):
        ctx.notes.append(
            f"permutation {ctx.permutation_name} eliminated as dead code"
        )
    if dead:
        ctx.notes.append(
            f"dead code elimination removed {len(dead)} statement(s)"
        )
    return len(dead)


def _run_fusion(ctx: PassContext) -> int:
    fused = apply_all_fusion(ctx.comp)
    if fused:
        ctx.notes.append(f"fused {fused} statement(s) into shared loops")
    return fused


def _run_binary_search(ctx: PassContext) -> int:
    # Lazy: repro.synthesis imports repro.pipeline at module level, so the
    # reverse edge must only exist at call time.
    from repro.synthesis.optimize import rewrite_linear_search

    rewritten = rewrite_linear_search(ctx.comp)
    if rewritten:
        ctx.notes.append(
            "linear search over monotonic UF replaced by binary search"
        )
    return rewritten


DEDUP = PASSES.register(
    Pass(
        name="dedup",
        description="eliminate duplicate statements over identical spaces",
        run=_run_dedup,
        order=10,
    )
)

DCE = PASSES.register(
    Pass(
        name="dce",
        description="remove statements that no live-out value depends on",
        run=_run_dce,
        order=20,
    )
)

FUSION = PASSES.register(
    Pass(
        name="fusion",
        description="fuse statements sharing an iteration space into one loop",
        run=_run_fusion,
        order=30,
    )
)

BINARY_SEARCH_PASS = PASSES.register(
    Pass(
        name=BINARY_SEARCH,
        description=(
            "replace linear search over a monotonic UF with binary search"
        ),
        run=_run_binary_search,
        order=40,
        opt_in=True,
    )
)
