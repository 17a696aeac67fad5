"""Integer tuple sets with uninterpreted-function constraints.

An :class:`IntSet` is the SPF notion of an iteration space:
``{[i, k, j] : 0 <= i < N && rowptr(i) <= k < rowptr(i+1) && j = col(k)}``.

Sets are unions of conjunctions; the formats in the paper only ever need a
single conjunction, but union support keeps set algebra closed.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from . import memo as _memo
from .conjunction import Conjunction, _eval_expr
from .constraints import Constraint
from .terms import Expr

_RENAME_MEMO = _memo.table("set.with_tuple_vars")
_PROJECT_MEMO = _memo.table("set.project_out")


class IntSet:
    """A union of conjunctions over a named integer tuple."""

    __slots__ = ("tuple_vars", "conjunctions", "_hash", "_skey")

    def __init__(
        self,
        tuple_vars: Sequence[str],
        conjunctions: Iterable[Conjunction | Iterable[Constraint]] = (),
    ):
        tv = tuple(tuple_vars)
        if len(set(tv)) != len(tv):
            raise ValueError(f"duplicate tuple variable in {tv}")
        for name in tv:
            if not name.isidentifier():
                raise ValueError(f"invalid tuple variable name: {name!r}")
        conjs = tuple(
            c if isinstance(c, Conjunction) else Conjunction(c) for c in conjunctions
        )
        if not conjs:
            conjs = (Conjunction(),)
        object.__setattr__(self, "tuple_vars", tv)
        object.__setattr__(self, "conjunctions", conjs)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_skey", None)

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("IntSet is immutable")

    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        return len(self.tuple_vars)

    @property
    def single_conjunction(self) -> Conjunction:
        """The conjunction of a non-union set (raises on a true union)."""
        if len(self.conjunctions) != 1:
            raise ValueError("set is a union of multiple conjunctions")
        return self.conjunctions[0]

    def __eq__(self, other):
        return other is self or (
            isinstance(other, IntSet)
            and other.tuple_vars == self.tuple_vars
            and set(other.conjunctions) == set(self.conjunctions)
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.tuple_vars, frozenset(self.conjunctions)))
            object.__setattr__(self, "_hash", h)
        return h

    def structural_key(self):
        """Order-sensitive identity for memo keys.

        ``__eq__`` treats conjunctions (and their constraints) as sets, but
        memoized operations like projection are sensitive to constraint
        order, so memo keys must distinguish set-equal reorderings.
        """
        k = self._skey
        if k is None:
            k = (
                self.tuple_vars,
                tuple(c.constraints for c in self.conjunctions),
            )
            object.__setattr__(self, "_skey", k)
        return k

    def __str__(self):
        head = f"[{', '.join(self.tuple_vars)}]"
        parts = []
        for conj in self.conjunctions:
            if len(conj) == 0:
                parts.append(f"{{{head}}}")
            else:
                parts.append(f"{{{head} : {conj}}}")
        return " union ".join(parts)

    def __repr__(self):
        return f"IntSet({self})"

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def with_tuple_vars(self, new_vars: Sequence[str]) -> "IntSet":
        """Rename the tuple to ``new_vars`` (same arity, memoized)."""
        new_vars = tuple(new_vars)
        if new_vars == self.tuple_vars:
            return self
        if len(new_vars) != self.arity:
            raise ValueError(
                f"arity mismatch: {self.arity} tuple vars, got {len(new_vars)}"
            )
        key = (self.structural_key(), new_vars)
        return _memo.memo(
            _RENAME_MEMO, "set_with_tuple_vars", key,
            self._with_tuple_vars, new_vars,
        )

    def _with_tuple_vars(self, new_vars: tuple) -> "IntSet":
        mapping = dict(zip(self.tuple_vars, new_vars))
        return IntSet(new_vars, (c.rename_vars(mapping) for c in self.conjunctions))

    def constrain(self, *constraints: Constraint) -> "IntSet":
        return IntSet(
            self.tuple_vars, (c.add(*constraints) for c in self.conjunctions)
        )

    def intersect(self, other: "IntSet") -> "IntSet":
        if other.tuple_vars != self.tuple_vars:
            other = other.with_tuple_vars(self.tuple_vars)
        return IntSet(
            self.tuple_vars,
            (
                a.conjoin(b)
                for a in self.conjunctions
                for b in other.conjunctions
            ),
        )

    def union(self, other: "IntSet") -> "IntSet":
        if other.tuple_vars != self.tuple_vars:
            other = other.with_tuple_vars(self.tuple_vars)
        return IntSet(self.tuple_vars, self.conjunctions + other.conjunctions)

    def project_out(self, name: str, *, strict: bool = True) -> "IntSet":
        """Remove a tuple variable, existentially quantifying it (memoized)."""
        if name not in self.tuple_vars:
            raise ValueError(f"{name!r} is not a tuple variable of {self}")
        key = (self.structural_key(), name, strict)
        return _memo.memo(
            _PROJECT_MEMO, "set_project_out", key,
            self._project_out, name, strict,
        )

    def _project_out(self, name: str, strict: bool) -> "IntSet":
        new_vars = tuple(v for v in self.tuple_vars if v != name)
        return IntSet(
            new_vars,
            (c.project_out(name, strict=strict) for c in self.conjunctions),
        )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def var_names(self) -> set[str]:
        names = set(self.tuple_vars)
        for c in self.conjunctions:
            names |= c.var_names()
        return names

    def sym_names(self) -> set[str]:
        names: set[str] = set()
        for c in self.conjunctions:
            names |= c.sym_names()
        return names

    def uf_names(self) -> set[str]:
        names: set[str] = set()
        for c in self.conjunctions:
            names |= c.uf_names()
        return names

    # ------------------------------------------------------------------
    # Concrete evaluation
    # ------------------------------------------------------------------
    def contains(self, point: Sequence[int], env: Mapping[str, object]) -> bool:
        """Is ``point`` a member, under concrete symbol / UF bindings?"""
        if len(point) != self.arity:
            raise ValueError(f"point arity {len(point)} != set arity {self.arity}")
        local = dict(env)
        local.update(zip(self.tuple_vars, point))
        return any(c.evaluate(local) for c in self.conjunctions)

    def enumerate_points(
        self,
        env: Mapping[str, object],
        *,
        default_range: tuple[int, int] = (0, 64),
        limit: int = 1_000_000,
    ) -> Iterator[tuple[int, ...]]:
        """Brute-force enumerate members under concrete bindings.

        For each tuple variable we derive concrete lower/upper bounds from the
        constraints that only reference earlier variables, falling back to
        ``default_range``; then every candidate tuple is membership-checked.
        This is the reference executor used to validate generated code.
        """
        count = 0
        seen: set[tuple[int, ...]] = set()
        for conj in self.conjunctions:
            for point in self._enumerate_conjunction(conj, env, default_range):
                if point in seen:
                    continue
                seen.add(point)
                count += 1
                if count > limit:
                    raise RuntimeError(f"enumeration exceeded {limit} points")
                yield point

    def _enumerate_conjunction(
        self,
        conj: Conjunction,
        env: Mapping[str, object],
        default_range: tuple[int, int],
    ) -> Iterator[tuple[int, ...]]:
        def recurse(index: int, local: dict) -> Iterator[tuple[int, ...]]:
            if index == self.arity:
                if conj.evaluate(local):
                    yield tuple(local[v] for v in self.tuple_vars)
                return
            name = self.tuple_vars[index]
            lo, hi = self._concrete_bounds(conj, name, local, default_range)
            for value in range(lo, hi + 1):
                local[name] = value
                if self._partial_ok(conj, local):
                    yield from recurse(index + 1, local)
            local.pop(name, None)

        yield from recurse(0, dict(env))

    def _concrete_bounds(
        self,
        conj: Conjunction,
        name: str,
        local: Mapping[str, object],
        default_range: tuple[int, int],
    ) -> tuple[int, int]:
        lo, hi = default_range
        definition = conj.defining_equality(name)
        candidates: list[tuple[str, Expr]] = []
        if definition is not None:
            candidates.append(("eq", definition))
        candidates.extend(("lower", e) for e in conj.lower_bounds(name))
        candidates.extend(("upper", e) for e in conj.upper_bounds(name))
        for kind, expr in candidates:
            try:
                value = _eval_expr(expr, local)
            except KeyError:
                continue  # depends on a later tuple variable
            if kind == "eq":
                return (value, value)
            if kind == "lower":
                lo = max(lo, value) if kind == "lower" else lo
            if kind == "upper":
                hi = min(hi, value)
        return (lo, hi)

    def _partial_ok(self, conj: Conjunction, local: Mapping[str, object]) -> bool:
        """Check every constraint whose variables are all bound so far."""
        for c in conj.constraints:
            if c.var_names() <= {k for k in local}:
                try:
                    ok = Conjunction([c]).evaluate(local)
                except KeyError:
                    continue
                if not ok:
                    return False
        return True


def universe(tuple_vars: Sequence[str]) -> IntSet:
    """The unconstrained set over the given tuple."""
    return IntSet(tuple_vars)
