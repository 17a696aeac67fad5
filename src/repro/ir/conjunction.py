"""Conjunctions of constraints — the body of a set or relation.

A :class:`Conjunction` owns a list of normalized constraints and provides the
algebraic operations the synthesis algorithm relies on: simplification,
substitution of tuple variables, equality-driven variable elimination, and a
Fourier–Motzkin style projection that treats uninterpreted function calls as
opaque atoms (the approach IEGenLib takes).
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping, Optional, Sequence

import repro.obs as obs

from . import memo as _memo
from .constraints import Constraint, Eq, Geq, bounds_on_var
from .terms import Atom, Expr, ExprLike, FloorDiv, Mod, Mul, Sym, UFCall, Var

_PROJECT_MEMO = _memo.table("conjunction.project_out")
_SUBST_VARS_MEMO = _memo.table("conjunction.substitute_vars")

#: Time spent in projections that missed the memo.
_PROJECT_SECONDS = obs.histogram(
    "repro_ir_project_out_seconds", "uncached Conjunction.project_out time"
)


class ProjectionError(Exception):
    """Raised when a tuple variable cannot be eliminated exactly.

    This mirrors IEGenLib's behavior: projection in the presence of
    uninterpreted functions is not always possible, and callers (like the
    synthesis engine) must decide how to proceed.
    """


class Conjunction:
    """An immutable conjunction of :class:`Constraint` objects."""

    __slots__ = ("constraints", "_hash", "_vnames")

    def __init__(self, constraints: Iterable[Constraint] = ()):
        # Dict-keyed dedup: hashes are cached on constraints, so this is
        # O(n) instead of the O(n^2) membership scans it replaces.
        seen: dict[Constraint, None] = {}
        for c in constraints:
            if not isinstance(c, Constraint):
                raise TypeError(f"expected Constraint, got {c!r}")
            if c.is_trivial():
                continue
            seen.setdefault(c)
        object.__setattr__(self, "constraints", tuple(seen))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_vnames", None)

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("Conjunction is immutable")

    def __iter__(self):
        return iter(self.constraints)

    def __len__(self):
        return len(self.constraints)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Conjunction)
            and set(other.constraints) == set(self.constraints)
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(frozenset(self.constraints))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self):
        return " && ".join(str(c) for c in self.constraints) or "true"

    def __repr__(self):
        return f"Conjunction([{', '.join(repr(c) for c in self.constraints)}])"

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def conjoin(self, other: "Conjunction | Iterable[Constraint]") -> "Conjunction":
        extra = other.constraints if isinstance(other, Conjunction) else tuple(other)
        return Conjunction(self.constraints + tuple(extra))

    def add(self, *constraints: Constraint) -> "Conjunction":
        return Conjunction(self.constraints + constraints)

    def substitute(self, mapping: Mapping[Atom, ExprLike]) -> "Conjunction":
        return Conjunction(c.substitute(mapping) for c in self.constraints)

    def substitute_vars(self, mapping: Mapping[str, ExprLike]) -> "Conjunction":
        if not self.constraints:
            return self
        # Keyed on the ordered constraint tuple, not the (set-equal)
        # conjunction: downstream solving is sensitive to constraint order,
        # so set-equal-but-reordered conjunctions must not share entries.
        key = (self.constraints, _memo.freeze_mapping(mapping))
        return _memo.memo(
            _SUBST_VARS_MEMO, "conj_substitute_vars", key,
            self._substitute_vars, mapping,
        )

    def _substitute_vars(self, mapping: Mapping[str, ExprLike]) -> "Conjunction":
        return Conjunction(c.substitute_vars(mapping) for c in self.constraints)

    def rename_vars(self, mapping: Mapping[str, str]) -> "Conjunction":
        return Conjunction(c.rename_vars(mapping) for c in self.constraints)

    def rename_ufs(self, mapping: Mapping[str, str]) -> "Conjunction":
        return Conjunction(c.rename_ufs(mapping) for c in self.constraints)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def var_names(self) -> set[str]:
        vn = self._vnames
        if vn is None:
            vn = frozenset().union(
                *(c.expr._var_name_set() for c in self.constraints)
            ) if self.constraints else frozenset()
            object.__setattr__(self, "_vnames", vn)
        return set(vn)

    def sym_names(self) -> set[str]:
        names: set[str] = set()
        for c in self.constraints:
            names |= c.sym_names()
        return names

    def uf_calls(self) -> list[UFCall]:
        # Dict-keyed dedup preserving first-seen order (calls hash cheaply).
        calls: dict[UFCall, None] = {}
        for c in self.constraints:
            for call in c.uf_calls():
                calls.setdefault(call)
        return list(calls)

    def uf_names(self) -> set[str]:
        return {call.name for call in self.uf_calls()}

    def equalities(self) -> list[Eq]:
        return [c for c in self.constraints if isinstance(c, Eq)]

    def inequalities(self) -> list[Geq]:
        return [c for c in self.constraints if isinstance(c, Geq)]

    def constraints_on(self, name: str) -> list[Constraint]:
        """Constraints mentioning tuple variable ``name`` anywhere."""
        return [c for c in self.constraints if c.mentions_var(name)]

    def is_obviously_unsatisfiable(self) -> bool:
        """Detect constant contradictions (not a full satisfiability check)."""
        return any(c.is_unsatisfiable() for c in self.constraints)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def defining_equality(self, name: str) -> Optional[Expr]:
        """An expression ``e`` with ``name = e`` and ``name`` not in ``e``.

        Looks for an equality with a ±1 coefficient on the variable whose
        remainder does not mention the variable (including inside UF args).
        Returns None when no such definition exists.
        """
        for c in self.equalities():
            kind, rhs = bounds_on_var(c, name)
            if kind == "eq" and rhs is not None and not rhs.mentions_var(name):
                return rhs
        return None

    def lower_bounds(self, name: str) -> list[Expr]:
        out = []
        for c in self.inequalities():
            kind, e = bounds_on_var(c, name)
            if kind == "lower" and e is not None and not e.mentions_var(name):
                out.append(e)
        return out

    def upper_bounds(self, name: str) -> list[Expr]:
        out = []
        for c in self.inequalities():
            kind, e = bounds_on_var(c, name)
            if kind == "upper" and e is not None and not e.mentions_var(name):
                out.append(e)
        return out

    # ------------------------------------------------------------------
    # Projection
    # ------------------------------------------------------------------
    def project_out(self, name: str, *, strict: bool = True) -> "Conjunction":
        """Existentially eliminate tuple variable ``name``.

        Strategy (matching IEGenLib's approach for UF-laden constraints):

        1. If a defining equality exists, substitute it everywhere.
        2. Otherwise run one step of Fourier–Motzkin on the unit-coefficient
           lower/upper bounds.
        3. If the variable still occurs inside a UF argument that cannot be
           rewritten, raise :class:`ProjectionError` when ``strict``,
           otherwise drop every constraint still mentioning the variable
           (a sound over-approximation of the projection).

        Projections (including the failing ones) are memoized on the ordered
        constraint tuple — the result shape depends on which defining
        equality is found first, so set-equal conjunctions with different
        constraint order must not share memo entries.
        """
        result = _memo.memo(
            _PROJECT_MEMO, "project_out", (self.constraints, name, strict),
            self._timed_project_out, name, strict,
        )
        if isinstance(result, ProjectionError):
            raise result
        return result

    def _timed_project_out(self, name: str, strict: bool):
        """The uncached projection, timed; a failure is returned (and so
        memoized) rather than raised."""
        start = time.perf_counter()
        try:
            result = self._project_out(name, strict=strict)
        except ProjectionError as err:
            result = err
        _PROJECT_SECONDS.observe(time.perf_counter() - start)
        return result

    def _project_out(self, name: str, *, strict: bool = True) -> "Conjunction":
        definition = self.defining_equality(name)
        if definition is not None:
            result = self.substitute_vars({name: definition})
            if not result.mentions_var_anywhere(name):
                return result
            # Definition contained the variable indirectly — fall through.

        keep: list[Constraint] = []
        lowers: list[Expr] = []
        uppers: list[Expr] = []
        stuck: list[Constraint] = []
        for c in self.constraints:
            if not c.mentions_var(name):
                keep.append(c)
                continue
            kind, e = bounds_on_var(c, name)
            if kind == "lower" and e is not None and not e.mentions_var(name):
                lowers.append(e)
            elif kind == "upper" and e is not None and not e.mentions_var(name):
                uppers.append(e)
            elif kind == "eq" and e is not None and not e.mentions_var(name):
                # Equality usable as both bounds even if substitution failed.
                lowers.append(e)
                uppers.append(e)
            else:
                stuck.append(c)

        if stuck:
            if strict:
                raise ProjectionError(
                    f"cannot eliminate {name!r}: it occurs inside "
                    f"{[str(c) for c in stuck]}"
                )
            # Over-approximate: drop the stuck constraints entirely.
        for lo in lowers:
            for hi in uppers:
                keep.append(Geq(hi - lo))
        return Conjunction(keep)

    def project_out_all(
        self, names: Sequence[str], *, strict: bool = True
    ) -> "Conjunction":
        result = self
        for name in names:
            result = result.project_out(name, strict=strict)
        return result

    def mentions_var_anywhere(self, name: str) -> bool:
        return any(c.mentions_var(name) for c in self.constraints)

    # ------------------------------------------------------------------
    # Evaluation (used heavily by tests and the executor)
    # ------------------------------------------------------------------
    def evaluate(self, env: Mapping[str, object]) -> bool:
        """Evaluate the conjunction under a concrete assignment.

        ``env`` maps tuple variable and symbolic constant names to ints, and
        UF names to callables or indexable arrays.
        """
        return all(_eval_constraint(c, env) for c in self.constraints)


def _eval_expr(expr: Expr, env: Mapping[str, object]) -> int:
    total = expr.const
    for atom, coef in expr.terms:
        total += coef * _eval_atom(atom, env)
    return total


def _eval_atom(atom: Atom, env: Mapping[str, object]) -> int:
    if isinstance(atom, (Var, Sym)):
        try:
            value = env[atom.name]
        except KeyError:
            raise KeyError(f"no binding for {atom.name!r} while evaluating") from None
        return int(value)  # type: ignore[arg-type]
    if isinstance(atom, Mul):
        return _eval_atom(atom.sym, env) * _eval_expr(atom.factor, env)
    if isinstance(atom, FloorDiv):
        return _eval_expr(atom.numer, env) // atom.denom
    if isinstance(atom, Mod):
        return _eval_expr(atom.numer, env) % atom.denom
    assert isinstance(atom, UFCall)
    fn = env.get(atom.name)
    if fn is None:
        raise KeyError(f"no binding for uninterpreted function {atom.name!r}")
    args = [_eval_expr(a, env) for a in atom.args]
    if callable(fn):
        return int(fn(*args))
    if len(args) != 1:
        raise TypeError(
            f"{atom.name!r} is bound to an array but called with {len(args)} args"
        )
    return int(fn[args[0]])  # type: ignore[index]


def _eval_constraint(c: Constraint, env: Mapping[str, object]) -> bool:
    value = _eval_expr(c.expr, env)
    if isinstance(c, Eq):
        return value == 0
    return value >= 0
