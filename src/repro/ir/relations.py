"""Integer tuple relations: inverse, apply, and compose with UF constraints.

A :class:`Relation` is the SPF mapping
``{[n, ii, jj] -> [i, j] : row1(n) = i && col1(n) = j && ...}``.
Relations drive everything in the reproduced paper: sparse-to-dense maps,
data access functions, and execution schedule transformations.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from . import memo as _memo
from .conjunction import Conjunction, ProjectionError
from .constraints import Constraint, equals
from .terms import Var
from .sets import IntSet

_COMPOSE_MEMO = _memo.table("relation.compose")
_APPLY_MEMO = _memo.table("relation.apply_to_set")
_DOMAIN_MEMO = _memo.table("relation.domain_range")
_RENAME_MEMO = _memo.table("relation.with_tuple_vars")


class Relation:
    """A union of conjunctions over an input tuple and an output tuple."""

    __slots__ = ("in_vars", "out_vars", "conjunctions", "_hash", "_skey")

    def __init__(
        self,
        in_vars: Sequence[str],
        out_vars: Sequence[str],
        conjunctions: Iterable[Conjunction | Iterable[Constraint]] = (),
    ):
        iv, ov = tuple(in_vars), tuple(out_vars)
        all_vars = iv + ov
        if len(set(all_vars)) != len(all_vars):
            raise ValueError(f"duplicate tuple variable across {iv} -> {ov}")
        for name in all_vars:
            if not name.isidentifier():
                raise ValueError(f"invalid tuple variable name: {name!r}")
        conjs = tuple(
            c if isinstance(c, Conjunction) else Conjunction(c) for c in conjunctions
        )
        if not conjs:
            conjs = (Conjunction(),)
        object.__setattr__(self, "in_vars", iv)
        object.__setattr__(self, "out_vars", ov)
        object.__setattr__(self, "conjunctions", conjs)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_skey", None)

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("Relation is immutable")

    # ------------------------------------------------------------------
    @property
    def in_arity(self) -> int:
        return len(self.in_vars)

    @property
    def out_arity(self) -> int:
        return len(self.out_vars)

    @property
    def single_conjunction(self) -> Conjunction:
        if len(self.conjunctions) != 1:
            raise ValueError("relation is a union of multiple conjunctions")
        return self.conjunctions[0]

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Relation)
            and other.in_vars == self.in_vars
            and other.out_vars == self.out_vars
            and set(other.conjunctions) == set(self.conjunctions)
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(
                (self.in_vars, self.out_vars, frozenset(self.conjunctions))
            )
            object.__setattr__(self, "_hash", h)
        return h

    def structural_key(self):
        """Order-sensitive identity for memo keys (see IntSet.structural_key)."""
        k = self._skey
        if k is None:
            k = (
                self.in_vars,
                self.out_vars,
                tuple(c.constraints for c in self.conjunctions),
            )
            object.__setattr__(self, "_skey", k)
        return k

    def __str__(self):
        head = f"[{', '.join(self.in_vars)}] -> [{', '.join(self.out_vars)}]"
        parts = []
        for conj in self.conjunctions:
            if len(conj) == 0:
                parts.append(f"{{{head}}}")
            else:
                parts.append(f"{{{head} : {conj}}}")
        return " union ".join(parts)

    def __repr__(self):
        return f"Relation({self})"

    # ------------------------------------------------------------------
    # Renaming
    # ------------------------------------------------------------------
    def with_tuple_vars(
        self, new_in: Sequence[str], new_out: Sequence[str]
    ) -> "Relation":
        new_in, new_out = tuple(new_in), tuple(new_out)
        if (new_in, new_out) == (self.in_vars, self.out_vars):
            return self
        if len(new_in) != self.in_arity or len(new_out) != self.out_arity:
            raise ValueError("arity mismatch in tuple renaming")
        key = (self.structural_key(), new_in, new_out)
        return _memo.memo(
            _RENAME_MEMO, "rel_with_tuple_vars", key,
            self._with_tuple_vars, new_in, new_out,
        )

    def _with_tuple_vars(self, new_in: tuple, new_out: tuple) -> "Relation":
        mapping = dict(zip(self.in_vars + self.out_vars, new_in + new_out))
        return Relation(
            new_in, new_out, (c.rename_vars(mapping) for c in self.conjunctions)
        )

    def rename_ufs(self, mapping: Mapping[str, str]) -> "Relation":
        return Relation(
            self.in_vars,
            self.out_vars,
            (c.rename_ufs(mapping) for c in self.conjunctions),
        )

    def freshened(self, taken: set[str]) -> "Relation":
        """Rename tuple variables that collide with names in ``taken``."""
        mapping: dict[str, str] = {}
        used = set(taken) | set(self.in_vars) | set(self.out_vars)
        for name in self.in_vars + self.out_vars:
            if name in taken:
                for i in itertools.count():
                    candidate = f"{name}_{i}"
                    if candidate not in used:
                        mapping[name] = candidate
                        used.add(candidate)
                        break
        if not mapping:
            return self
        new_in = tuple(mapping.get(v, v) for v in self.in_vars)
        new_out = tuple(mapping.get(v, v) for v in self.out_vars)
        return self.with_tuple_vars(new_in, new_out)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def inverse(self) -> "Relation":
        """Swap the input and output tuples; constraints are unchanged."""
        return Relation(self.out_vars, self.in_vars, self.conjunctions)

    def constrain(self, *constraints: Constraint) -> "Relation":
        return Relation(
            self.in_vars,
            self.out_vars,
            (c.add(*constraints) for c in self.conjunctions),
        )

    def intersect(self, other: "Relation") -> "Relation":
        if (other.in_vars, other.out_vars) != (self.in_vars, self.out_vars):
            other = other.with_tuple_vars(self.in_vars, self.out_vars)
        return Relation(
            self.in_vars,
            self.out_vars,
            (a.conjoin(b) for a in self.conjunctions for b in other.conjunctions),
        )

    def union(self, other: "Relation") -> "Relation":
        if (other.in_vars, other.out_vars) != (self.in_vars, self.out_vars):
            other = other.with_tuple_vars(self.in_vars, self.out_vars)
        return Relation(
            self.in_vars, self.out_vars, self.conjunctions + other.conjunctions
        )

    def compose(self, inner: "Relation", *, strict: bool = False) -> "Relation":
        """``self ∘ inner``: apply ``inner`` first, then ``self``.

        ``inner : A -> B`` and ``self : B -> C`` gives ``A -> C``.  The shared
        B tuple is equated pointwise and then existentially eliminated.  When
        a B variable cannot be eliminated exactly (it is trapped inside an
        uninterpreted function call) it is kept as an existential variable —
        sound, and what the synthesis engine expects — unless ``strict``.

        Compositions are memoized on the interned operand pair.
        """
        key = (self.structural_key(), inner.structural_key(), strict)
        return _memo.memo(
            _COMPOSE_MEMO, "compose", key, self._compose, inner, strict
        )

    def _compose(self, inner: "Relation", strict: bool) -> "Relation":
        if inner.out_arity != self.in_arity:
            raise ValueError(
                f"compose arity mismatch: inner out {inner.out_arity} != "
                f"self in {self.in_arity}"
            )
        outer = self.freshened(set(inner.in_vars) | set(inner.out_vars))
        mids = outer.in_vars  # equated with inner.out_vars below

        conjs: list[Conjunction] = []
        for a in inner.conjunctions:
            for b in outer.conjunctions:
                glue = [
                    equals(Var(x), Var(y)) for x, y in zip(inner.out_vars, mids)
                ]
                conjs.append(a.conjoin(b).conjoin(glue))

        eliminated: list[Conjunction] = []
        for conj in conjs:
            # Substitute mid variables by the inner.out names first (cheap),
            # then project both sets of mid names out.
            for mid, inner_out in zip(mids, inner.out_vars):
                conj = conj.substitute_vars({mid: Var(inner_out)})
            for name in inner.out_vars:
                try:
                    conj = conj.project_out(name, strict=True)
                except ProjectionError:
                    if strict:
                        raise
                    conj = conj.project_out(name, strict=False)
            eliminated.append(conj)

        return Relation(inner.in_vars, outer.out_vars, eliminated)

    def apply_to_set(self, domain: IntSet, *, strict: bool = False) -> IntSet:
        """Image of ``domain`` under this relation (used for transformations).

        Memoized on the interned (relation, set) pair.
        """
        key = (self.structural_key(), domain.structural_key(), strict)
        return _memo.memo(
            _APPLY_MEMO, "apply_to_set", key, self._apply_to_set, domain, strict
        )

    def _apply_to_set(self, domain: IntSet, strict: bool) -> IntSet:
        if domain.arity != self.in_arity:
            raise ValueError(
                f"apply arity mismatch: set {domain.arity} != in {self.in_arity}"
            )
        rel = self.freshened(set(domain.tuple_vars))
        conjs: list[Conjunction] = []
        for a in domain.conjunctions:
            for b in rel.conjunctions:
                glue = [
                    equals(Var(x), Var(y))
                    for x, y in zip(domain.tuple_vars, rel.in_vars)
                ]
                merged = a.conjoin(b).conjoin(glue)
                for name in domain.tuple_vars + rel.in_vars:
                    try:
                        merged = merged.project_out(name, strict=True)
                    except ProjectionError:
                        if strict:
                            raise
                        merged = merged.project_out(name, strict=False)
                conjs.append(merged)
        return IntSet(rel.out_vars, conjs)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def as_set(self) -> IntSet:
        """Flatten the relation into a set over ``in_vars + out_vars``.

        This is the "composed relation as a set" the synthesis algorithm uses
        as the domain of the copy statement.
        """
        return IntSet(self.in_vars + self.out_vars, self.conjunctions)

    def domain(self, *, strict: bool = False) -> IntSet:
        key = (self.structural_key(), "domain", strict)
        return _memo.memo(
            _DOMAIN_MEMO, "domain", key, self._domain_or_range, "domain", strict
        )

    def range(self, *, strict: bool = False) -> IntSet:
        key = (self.structural_key(), "range", strict)
        return _memo.memo(
            _DOMAIN_MEMO, "range", key, self._domain_or_range, "range", strict
        )

    def _domain_or_range(self, which: str, strict: bool) -> IntSet:
        drop = self.out_vars if which == "domain" else self.in_vars
        result = self.as_set()
        for name in drop:
            result = result.project_out(name, strict=strict)
        return result

    # ------------------------------------------------------------------
    # Inspection / evaluation
    # ------------------------------------------------------------------
    def var_names(self) -> set[str]:
        names = set(self.in_vars) | set(self.out_vars)
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

    def uf_calls(self):
        calls = []
        for c in self.conjunctions:
            for call in c.uf_calls():
                if call not in calls:
                    calls.append(call)
        return calls

    def contains(
        self,
        in_point: Sequence[int],
        out_point: Sequence[int],
        env: Mapping[str, object],
    ) -> bool:
        if len(in_point) != self.in_arity or len(out_point) != self.out_arity:
            raise ValueError("point arity mismatch")
        local = dict(env)
        local.update(zip(self.in_vars, in_point))
        local.update(zip(self.out_vars, out_point))
        return any(c.evaluate(local) for c in self.conjunctions)

    def is_function_syntactically(self) -> bool:
        """Heuristic functionality check used to order UF resolution.

        A relation is treated as a function when every output tuple variable
        has a defining equality in terms of input variables (directly or via
        known UFs of input variables), in every conjunction.
        """
        for conj in self.conjunctions:
            defined = set(self.in_vars)
            changed = True
            remaining = set(self.out_vars)
            while changed and remaining:
                changed = False
                for name in list(remaining):
                    definition = conj.defining_equality(name)
                    if definition is None:
                        continue
                    if definition.var_names() <= defined:
                        defined.add(name)
                        remaining.discard(name)
                        changed = True
            if remaining:
                return False
        return True
