"""Post-synthesis optimizations beyond the standard SPF passes.

The headline rewrite here is the Figure 3 optimization: the naive COO→DIA
copy loop scans every diagonal ``d`` looking for ``off(d) + i == j`` — a
linear search implied by the composed relation's constraints.  Because
``off`` carries a strictly monotonic universal quantifier, the search can be
replaced by a binary search, which the paper shows recovers most of the gap
to TACO.
"""

from __future__ import annotations

from repro.ir import Conjunction, Eq, IntSet, UFCall, Var, bounds_on_var
from repro.spf import Computation, Schedule, Stmt
from repro.spf import statements as st


def _find_search_pattern(stmt: Stmt, increasing: set[str]):
    """Detect a loop variable that linearly searches a strictly increasing UF.

    Looks for a tuple variable ``v`` whose only non-bound constraint is an
    equality ``uf(v) = expr`` with ``v`` absent from ``expr`` and ``uf`` in
    ``increasing``.  A position loop over a UF that merely rises within
    segments (``jj = col(k)`` under ``rowptr(ii) <= k < rowptr(ii+1)``)
    is not a search.  Returns ``(v, uf_name, expr)`` or None.
    """
    conj = stmt.space.single_conjunction
    for v in stmt.space.tuple_vars:
        if conj.defining_equality(v) is not None:
            continue
        candidates = []
        ok = True
        for c in conj.constraints_on(v):
            if not isinstance(c, Eq):
                # bounds (Geq) are fine; anything else disqualifies
                kind, _ = bounds_on_var(c, v)
                if kind not in ("lower", "upper"):
                    ok = False
                continue
            calls = [
                (atom, coef)
                for atom, coef in c.expr.terms
                if isinstance(atom, UFCall)
                and any(v in a.var_names() for a in atom.args)
            ]
            if len(calls) != 1:
                ok = False
                continue
            call, coef = calls[0]
            if (
                coef not in (1, -1)
                or call.args != (Var(v).as_expr(),)
                or call.name not in increasing
            ):
                ok = False
                continue
            rest = c.expr.without(call)
            if rest.mentions_var(v):
                ok = False
                continue
            target = -rest if coef == 1 else rest
            candidates.append((call.name, target))
        if ok and len(candidates) == 1:
            return v, candidates[0][0], candidates[0][1]
    return None


def rewrite_linear_search(comp: Computation) -> int:
    """Replace linear-search loops over monotonic UFs with binary search.

    The searchable UFs are the set-populated ones (an ordered set holds
    sorted unique values, so it is strictly increasing).  Returns the
    number of statements rewritten.  The rewritten statement drops the
    searched variable from its iteration space and computes it with a
    guarded :class:`~repro.spf.statements.BinarySearch`.
    """
    increasing = {
        s.body.name for s in comp.stmts if isinstance(s.body, st.NewOrderedSet)
    }
    rewritten = 0
    new_stmts = []
    for stmt in comp.stmts:
        pattern = _find_search_pattern(stmt, increasing)
        if pattern is None:
            new_stmts.append(stmt)
            continue
        var, uf, target = pattern
        conj = stmt.space.single_conjunction
        keep = Conjunction(
            c for c in conj.constraints if not c.mentions_var(var)
        )
        new_space = IntSet(
            tuple(v for v in stmt.space.tuple_vars if v != var), [keep]
        )
        assert stmt.schedule is not None
        schedule = Schedule.default(
            stmt.schedule.static_at(0), new_space.tuple_vars
        )
        new_stmts.append(
            Stmt(
                st.BinarySearch(var, uf, target, stmt.body),
                new_space,
                schedule,
                stmt.name,
                stmt.phase,
            )
        )
        rewritten += 1
    if rewritten:
        comp.replace_stmts(new_stmts)
    return rewritten
