"""Constraint classification: the five synthesis cases of Section 3.2.

Given the composed relation :math:`R_{A_{src} \\to A_{dest}}`, each
constraint mentioning an *unknown* uninterpreted function is normalized to
``UF(args) OP rhs`` and classified:

===== ============================== ===========================================
Case  Constraint shape               Synthesized statement
===== ============================== ===========================================
1     ``UF(u) = f(u)``               ``UF[u] = f(u)`` (assignment / scatter)
2     ``UF(f'(u)) <= f(u)``          ``UF[u'] = min(UF[u'], f(u))``
3     ``UF(u) >= f(u)``              ``UF[u'] = max(UF[u'], f(u))``
4     ``UF(u) = f(v)``               ``UF.insert(f(v))`` (v from the output tuple)
5     ``UF(v) = f(u)``               ``UF.insert(f(u))``
===== ============================== ===========================================

Cases 4/5 arise when one side involves output-tuple variables that cannot be
expressed over the input tuple; the insert abstraction (an ordered list or
set) defers the position to the ordering constraints.  When the resolution
map *can* rewrite every variable into input-tuple terms (the permutation or
identity position is known), cases 4/5 degrade to case-1 scatters — the
"exact mapping" situation the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.ir import Constraint, Eq, Expr, UFCall, Var


@dataclass(frozen=True)
class NormalizedConstraint:
    """``call OP rhs`` with OP in {'=', '<=', '>='} for one UF occurrence."""

    call: UFCall
    op: str
    rhs: Expr
    source: Constraint

    def __str__(self):
        return f"{self.call} {self.op} {self.rhs}"


def normalize_for_uf(constraint: Constraint, uf: str) -> Optional[NormalizedConstraint]:
    """Rewrite a constraint as ``uf(args) OP rhs`` when possible.

    Requires exactly one top-level occurrence of the UF with a ±1
    coefficient; the paper's format constraints all have this shape.
    """
    calls = [
        (atom, coef)
        for atom, coef in constraint.expr.terms
        if isinstance(atom, UFCall) and atom.name == uf
    ]
    if len(calls) != 1:
        return None
    call, coef = calls[0]
    if coef not in (1, -1):
        return None
    if any(c.name == uf for arg in call.args for c in arg.uf_calls()):
        return None  # self-referential, e.g. uf(uf(x))
    rest = constraint.expr.without(call)
    if any(c.name == uf for c in rest.uf_calls()):
        return None  # the UF also appears on the other side
    if isinstance(constraint, Eq):
        rhs = -rest if coef == 1 else rest
        return NormalizedConstraint(call, "=", rhs, constraint)
    # Geq: coef * call + rest >= 0
    if coef == 1:
        return NormalizedConstraint(call, ">=", -rest, constraint)
    return NormalizedConstraint(call, "<=", rest, constraint)


@dataclass
class UFStatementPlan:
    """A planned population statement for one unknown UF.

    ``kind`` is one of:

    * ``"scatter"`` — cases 1/4/5 with an exact mapping: direct store,
    * ``"min"`` / ``"max"`` — cases 2/3: reduction into the array,
    * ``"insert"`` — cases 4/5 without an exact mapping: insert into the
      ordered structure; ordering constraints fix positions later.

    ``args`` / ``value`` are fully resolved over the *source* iteration
    tuple (plus the bound position variable), ready for statement text.
    """

    uf: str
    kind: str
    args: tuple[Expr, ...]
    value: Expr
    case: int
    note: str = ""

    def preference(self) -> int:
        """Redundancy-elimination priority (lower wins, Section 3.3)."""
        order = {"insert": 0, "scatter": 1, "max": 2, "min": 3}
        return order[self.kind]


class Resolver:
    """Rewrites expressions over the composed tuple into source-tuple terms.

    ``values`` maps a tuple-variable name to its resolved expression (source
    variables, source UFs, the position variable, or symbolic constants).
    Variables mapped to ``None`` are *unresolved* — they survive only inside
    insert plans or as search loops in the copy.
    """

    def __init__(self, values: Mapping[str, Optional[Expr]]):
        self.values = dict(values)

    def resolve(self, expr: Expr) -> Optional[Expr]:
        """Resolved expression, or None if it touches an unresolved var."""
        for _ in range(16):  # chains are short; cap guards against cycles
            mapped = {n for n in expr.var_names() if n in self.values}
            if any(self.values[n] is None for n in mapped):
                return None
            substitution = {
                Var(n): self.values[n]
                for n in mapped
                if self.values[n] != Var(n).as_expr()
            }
            if not substitution:
                return expr
            rewritten = expr.substitute(substitution)
            if rewritten == expr:
                return expr
            expr = rewritten
        return expr


def classify(
    normalized: NormalizedConstraint, resolver: Resolver
) -> Optional[UFStatementPlan]:
    """Turn a normalized constraint into a statement plan (cases 1–5)."""
    uf = normalized.call.name
    resolved_args = [resolver.resolve(a) for a in normalized.call.args]
    resolved_rhs = resolver.resolve(normalized.rhs)

    if resolved_rhs is None:
        # The value cannot be computed from source information (yet); this
        # constraint is not usable for population in this direction.
        return None

    if all(a is not None for a in resolved_args):
        args = tuple(a for a in resolved_args if a is not None)
        if normalized.op == "=":
            return UFStatementPlan(
                uf, "scatter", args, resolved_rhs, case=1,
                note=f"case 1/4 exact mapping: {normalized}",
            )
        if normalized.op == "<=":
            return UFStatementPlan(
                uf, "min", args, resolved_rhs, case=2,
                note=f"case 2 upper bound: {normalized}",
            )
        return UFStatementPlan(
            uf, "max", args, resolved_rhs, case=3,
            note=f"case 3 lower bound: {normalized}",
        )

    if normalized.op == "=":
        # Argument depends on an unresolved output variable: the insert
        # abstraction records values and lets the ordering constraint place
        # them (case 4/5; DIA's ``off(d) = j - i`` is the canonical example).
        return UFStatementPlan(
            uf, "insert", (), resolved_rhs, case=5,
            note=f"case 4/5 insert: {normalized}",
        )
    return None


def select_plans(plans: list[UFStatementPlan]) -> list[UFStatementPlan]:
    """Redundant-statement elimination at the plan level.

    Multiple constraints can yield statements covering the same data space
    (e.g. CSR's ``rowptr`` produces both a case-2 min and a case-3 max).
    Keep the single most specific plan per UF, preferring
    insert > scatter > max > min; equally-preferred duplicates collapse.
    """
    by_uf: dict[str, UFStatementPlan] = {}
    for plan in sorted(plans, key=lambda p: p.preference()):
        if plan.uf not in by_uf:
            by_uf[plan.uf] = plan
    return list(by_uf.values())
