"""Redundant statement elimination.

Synthesis can derive the same population statement from multiple constraints
(Section 3.3: "If multiple statements cover the same data space we remove all
but one of them").  Two statements are redundant when they have the same
body over the same iteration space, modulo tuple variable names; what a
statement writes follows from its body.
"""

from __future__ import annotations

from ..computation import Computation, Stmt


def _signature(stmt: Stmt) -> tuple:
    """A canonical identity for a statement, modulo tuple variable names."""
    canon = {v: f"__t{i}" for i, v in enumerate(stmt.space.tuple_vars)}
    renamed = stmt.rename_tuple_vars(canon)
    constraint_key = tuple(
        sorted(str(c) for c in renamed.space.single_conjunction)
    )
    return (renamed.body, renamed.space.tuple_vars, constraint_key)


def eliminate_redundant_statements(comp: Computation) -> list[Stmt]:
    """Drop duplicate statements in place; returns the removed statements."""
    seen: set[tuple] = set()
    kept: list[Stmt] = []
    removed: list[Stmt] = []
    for stmt in comp.stmts:
        sig = _signature(stmt)
        if sig in seen:
            removed.append(stmt)
        else:
            seen.add(sig)
            kept.append(stmt)
    comp.replace_stmts(kept)
    return removed
