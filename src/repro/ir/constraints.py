"""Constraints over integer expressions.

The sparse polyhedral framework uses two constraint kinds:

* :class:`Eq` — ``expr == 0``
* :class:`Geq` — ``expr >= 0``

Strict inequalities and upper/lower bound forms are normalized into these two
by the constructors in :mod:`repro.ir.parser` and the helpers below.
"""

from __future__ import annotations

from typing import Mapping

from . import memo as _memo
from .terms import Atom, Expr, ExprLike, UFCall, Var, as_expr

_BOUNDS_MEMO = _memo.table("constraint.bounds_on_var")


class Constraint:
    """Base class for normalized constraints.  ``expr`` relates to zero."""

    __slots__ = ("expr", "_hash")

    op = "?"

    def __init__(self, expr: ExprLike):
        object.__setattr__(self, "expr", as_expr(expr))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("Constraint is immutable")

    def __reduce__(self):  # rebuilt through the constructor, not setattr
        return (type(self), (self.expr,))

    def __eq__(self, other):
        return other is self or (
            type(other) is type(self) and other.expr == self.expr
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((type(self).__name__, self.expr))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self):
        return f"{self.expr} {self.op} 0"

    def __repr__(self):
        return f"{type(self).__name__}({self.expr!r})"

    # ------------------------------------------------------------------
    def substitute(self, mapping: Mapping[Atom, ExprLike]) -> "Constraint":
        return type(self)(self.expr.substitute(mapping))

    def substitute_vars(self, mapping: Mapping[str, ExprLike]) -> "Constraint":
        return type(self)(self.expr.substitute_vars(mapping))

    def rename_vars(self, mapping: Mapping[str, str]) -> "Constraint":
        return type(self)(self.expr.rename_vars(mapping))

    def rename_ufs(self, mapping: Mapping[str, str]) -> "Constraint":
        return type(self)(self.expr.rename_ufs(mapping))

    def var_names(self) -> set[str]:
        return self.expr.var_names()

    def sym_names(self) -> set[str]:
        return self.expr.sym_names()

    def uf_calls(self) -> list[UFCall]:
        return self.expr.uf_calls()

    def uf_names(self) -> set[str]:
        return self.expr.uf_names()

    def mentions_var(self, name: str) -> bool:
        return self.expr.mentions_var(name)

    def is_trivial(self) -> bool:
        """True when the constraint is a constant true statement."""
        raise NotImplementedError

    def is_unsatisfiable(self) -> bool:
        """True when the constraint is a constant false statement."""
        raise NotImplementedError


class Eq(Constraint):
    """``expr == 0``."""

    __slots__ = ("_norm_expr",)
    op = "="

    def __init__(self, expr: ExprLike):
        super().__init__(expr)
        object.__setattr__(self, "_norm_expr", None)

    def is_trivial(self) -> bool:
        return self.expr.is_zero()

    def is_unsatisfiable(self) -> bool:
        return self.expr.is_constant() and self.expr.const != 0

    def _normalized_expr(self) -> Expr:
        """Sign-canonical expression, computed once per constraint."""
        e = self._norm_expr
        if e is None:
            e = self.expr
            if e.terms:
                if e.terms[0][1] < 0:
                    e = -e
            elif e.const < 0:
                e = -e
            object.__setattr__(self, "_norm_expr", e)
        return e

    def normalized(self) -> "Eq":
        """Canonicalize sign so ``Eq(e)`` and ``Eq(-e)`` compare equal.

        The leading term (first in sorted order) gets a positive coefficient;
        a constant-only expression gets a non-negative constant.
        """
        return Eq(self._normalized_expr())

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, Eq):
            return NotImplemented
        return self._normalized_expr() == other._normalized_expr()

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(("Eq", self._normalized_expr()))
            object.__setattr__(self, "_hash", h)
        return h


class Geq(Constraint):
    """``expr >= 0``."""

    __slots__ = ()
    op = ">="

    def is_trivial(self) -> bool:
        return self.expr.is_constant() and self.expr.const >= 0

    def is_unsatisfiable(self) -> bool:
        return self.expr.is_constant() and self.expr.const < 0


# ----------------------------------------------------------------------
# Convenience constructors mirroring textual comparison operators.
# ----------------------------------------------------------------------
def equals(lhs: ExprLike, rhs: ExprLike) -> Eq:
    """``lhs = rhs``."""
    return Eq(as_expr(lhs) - as_expr(rhs))


def greater_equal(lhs: ExprLike, rhs: ExprLike) -> Geq:
    """``lhs >= rhs``."""
    return Geq(as_expr(lhs) - as_expr(rhs))


def less_equal(lhs: ExprLike, rhs: ExprLike) -> Geq:
    """``lhs <= rhs``."""
    return Geq(as_expr(rhs) - as_expr(lhs))


def greater(lhs: ExprLike, rhs: ExprLike) -> Geq:
    """``lhs > rhs``  ⇒  ``lhs - rhs - 1 >= 0``."""
    return Geq(as_expr(lhs) - as_expr(rhs) - 1)


def less(lhs: ExprLike, rhs: ExprLike) -> Geq:
    """``lhs < rhs``  ⇒  ``rhs - lhs - 1 >= 0``."""
    return Geq(as_expr(rhs) - as_expr(lhs) - 1)


def bounds_on_var(constraint: Constraint, name: str):
    """Classify a constraint's relationship to tuple variable ``name``.

    Returns one of:

    * ``("eq", expr)`` — the constraint is an equality defining
      ``name = expr`` (coefficient of the variable was ±1),
    * ``("lower", expr)`` — ``name >= expr``,
    * ``("upper", expr)`` — ``name <= expr``,
    * ``("none", None)`` — the variable does not occur at the top level with
      unit coefficient (it may still occur inside a UF argument).

    Only unit coefficients are handled; the sparse formats in the paper never
    need scaled tuple variables, and refusing keeps the solver honest.
    """
    return _memo.memo(
        _BOUNDS_MEMO, "bounds_on_var", (constraint, name),
        _bounds_on_var, constraint, name,
    )


def _bounds_on_var(constraint: Constraint, name: str):
    var = Var(name)
    coef = constraint.expr.coeff(var)
    if coef == 0:
        return ("none", None)
    rest = constraint.expr.without(var)
    if isinstance(constraint, Eq):
        if coef == 1:
            return ("eq", -rest)
        if coef == -1:
            return ("eq", rest)
        return ("none", None)
    # Geq: coef*var + rest >= 0
    if coef == 1:
        return ("lower", -rest)  # var >= -rest
    if coef == -1:
        return ("upper", rest)  # var <= rest
    return ("none", None)
