"""Symbolic integer expressions for the sparse polyhedral IR.

An :class:`Expr` is a normalized affine combination of *atoms* plus an
integer constant.  Atoms are the non-constant building blocks of the sparse
polyhedral framework:

* :class:`Var` — a tuple variable of a set or relation (``i``, ``jj`` ...),
* :class:`Sym` — a symbolic constant (``NR``, ``NNZ`` ...),
* :class:`UFCall` — an uninterpreted function applied to expressions
  (``rowptr(i + 1)``, ``col(k)`` ...).

Expressions are immutable and hashable, which lets constraint-level code use
them as dictionary keys and set members.  Arithmetic keeps expressions in a
canonical sorted-term form so structural equality coincides with algebraic
equality for the affine fragment.

Atoms and expressions are additionally *hash-consed*: constructing a
structurally equal term returns the already-interned instance, so equality
usually short-circuits on identity, hashes and sort keys are computed once
per distinct term, and the algebraic operations (substitution, UF renaming)
can be memoized on object identity (see :mod:`repro.ir.memo`).  Interning is
an optimization, never a semantic requirement: structural equality remains
the fallback, so externally constructed duplicates (unpickling, cleared
tables) still compare equal.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence, Union

from . import memo as _memo

ExprLike = Union["Expr", "Atom", int]


class Atom:
    """Base class for the non-constant building blocks of an expression."""

    __slots__ = ()

    def sort_key(self) -> tuple:
        raise NotImplementedError

    def as_expr(self) -> "Expr":
        return Expr(terms=((self, 1),))

    # Arithmetic on atoms promotes to Expr so `Var("i") + 1` works.
    def __add__(self, other: ExprLike) -> "Expr":
        return self.as_expr() + other

    def __radd__(self, other: ExprLike) -> "Expr":
        return self.as_expr() + other

    def __sub__(self, other: ExprLike) -> "Expr":
        return self.as_expr() - other

    def __rsub__(self, other: ExprLike) -> "Expr":
        return (-self.as_expr()) + other

    def __mul__(self, other: int) -> "Expr":
        return self.as_expr() * other

    def __rmul__(self, other: int) -> "Expr":
        return self.as_expr() * other

    def __neg__(self) -> "Expr":
        return -self.as_expr()


class Var(Atom):
    """A tuple variable reference, identified by name (interned)."""

    __slots__ = ("name", "_hash", "_skey")

    _interned: dict = {}

    def __new__(cls, name: str):
        self = cls._interned.get(name)
        if self is not None:
            return self
        if not name or not name.isidentifier():
            raise ValueError(f"invalid tuple variable name: {name!r}")
        self = object.__new__(cls)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("Var", name)))
        object.__setattr__(self, "_skey", (0, name))
        # setdefault is atomic: a racing thread's duplicate loses and the
        # single winner is returned to both.
        return cls._interned.setdefault(name, self)

    def __init__(self, name: str):  # construction happens in __new__
        pass

    def __reduce__(self):  # unpickles to the interned instance
        return (Var, (self.name,))

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("Var is immutable")

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Var) and other.name == self.name
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Var({self.name!r})"

    def __str__(self):
        return self.name

    def sort_key(self) -> tuple:
        return self._skey


class Sym(Atom):
    """A symbolic constant such as ``NR`` or ``NNZ`` (interned)."""

    __slots__ = ("name", "_hash", "_skey")

    _interned: dict = {}

    def __new__(cls, name: str):
        self = cls._interned.get(name)
        if self is not None:
            return self
        if not name or not name.isidentifier():
            raise ValueError(f"invalid symbolic constant name: {name!r}")
        self = object.__new__(cls)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("Sym", name)))
        object.__setattr__(self, "_skey", (1, name))
        return cls._interned.setdefault(name, self)

    def __init__(self, name: str):  # construction happens in __new__
        pass

    def __reduce__(self):  # unpickles to the interned instance
        return (Sym, (self.name,))

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("Sym is immutable")

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Sym) and other.name == self.name
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Sym({self.name!r})"

    def __str__(self):
        return self.name

    def sort_key(self) -> tuple:
        return self._skey


class UFCall(Atom):
    """An uninterpreted function call, e.g. ``rowptr(i + 1)``.

    The function itself has no interpretation at the IR level; synthesis and
    code generation give it one (an index array or a user-defined function).
    """

    __slots__ = ("name", "args", "_hash", "_skey")

    _interned: dict = {}

    def __new__(cls, name: str, args: Sequence[ExprLike]):
        if not name or not name.isidentifier():
            raise ValueError(f"invalid uninterpreted function name: {name!r}")
        if len(args) == 0:
            raise ValueError(
                f"uninterpreted function {name!r} needs at least one argument; "
                "use Sym for zero-arity symbolic constants"
            )
        args = tuple(as_expr(a) for a in args)
        key = (name, args)
        self = cls._interned.get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash(("UFCall",) + key))
        object.__setattr__(
            self, "_skey", (2, name, tuple(a.sort_key() for a in args))
        )
        return cls._interned.setdefault(key, self)

    def __init__(self, name, args):  # construction happens in __new__
        pass

    def __reduce__(self):  # unpickles to the interned instance
        return (UFCall, (self.name, self.args))

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("UFCall is immutable")

    def __eq__(self, other):
        return other is self or (
            isinstance(other, UFCall)
            and other.name == self.name
            and other.args == self.args
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"UFCall({self.name!r}, {list(self.args)!r})"

    def __str__(self):
        return f"{self.name}({', '.join(str(a) for a in self.args)})"

    def sort_key(self) -> tuple:
        return self._skey

    @property
    def arity(self) -> int:
        return len(self.args)


class Mul(Atom):
    """A non-affine product of a symbolic constant and an expression.

    The polyhedral fragment only allows integer coefficients, but sparse
    format descriptors need terms like ``ND * ii`` (the DIA data access
    relation) and ``ii * NR + col(k)`` (CSR's ordering quantifier).  ``Mul``
    keeps those as opaque atoms: the solver treats them like UF calls and
    code generation multiplies them out.
    """

    __slots__ = ("sym", "factor", "_hash", "_skey")

    _interned: dict = {}

    def __new__(cls, sym: "Sym", factor: ExprLike):
        if not isinstance(sym, Sym):
            raise TypeError(f"Mul needs a Sym as first factor, got {sym!r}")
        factor = as_expr(factor)
        key = (sym, factor)
        self = cls._interned.get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        object.__setattr__(self, "sym", sym)
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "_hash", hash(("Mul",) + key))
        object.__setattr__(self, "_skey", (3, sym.name, factor.sort_key()))
        return cls._interned.setdefault(key, self)

    def __init__(self, sym, factor):  # construction happens in __new__
        pass

    def __reduce__(self):  # unpickles to the interned instance
        return (Mul, (self.sym, self.factor))

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("Mul is immutable")

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Mul)
            and other.sym == self.sym
            and other.factor == self.factor
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Mul({self.sym!r}, {self.factor!r})"

    def __str__(self):
        return f"{self.sym} * ({self.factor})"

    def sort_key(self) -> tuple:
        return self._skey


class FloorDiv(Atom):
    """Integer floor division by a positive literal: ``numer // denom``.

    Used by loop tiling to express tile-loop upper bounds
    (``(N - 1) // T``).  Like :class:`Mul`, it is opaque to the constraint
    solver; evaluation and code generation interpret it.
    """

    __slots__ = ("numer", "denom", "_hash", "_skey")

    _interned: dict = {}

    def __new__(cls, numer: ExprLike, denom: int):
        if not isinstance(denom, int) or denom <= 0:
            raise ValueError(f"FloorDiv denominator must be a positive int, "
                             f"got {denom!r}")
        numer = as_expr(numer)
        key = (numer, denom)
        self = cls._interned.get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        object.__setattr__(self, "numer", numer)
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "_hash", hash(("FloorDiv",) + key))
        object.__setattr__(self, "_skey", (4, denom, numer.sort_key()))
        return cls._interned.setdefault(key, self)

    def __init__(self, numer, denom):  # construction happens in __new__
        pass

    def __reduce__(self):  # unpickles to the interned instance
        return (FloorDiv, (self.numer, self.denom))

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("FloorDiv is immutable")

    def __eq__(self, other):
        return other is self or (
            isinstance(other, FloorDiv)
            and other.numer == self.numer
            and other.denom == self.denom
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FloorDiv({self.numer!r}, {self.denom})"

    def __str__(self):
        return f"({self.numer}) // {self.denom}"

    def sort_key(self) -> tuple:
        return self._skey


class Mod(Atom):
    """Remainder by a positive literal: ``numer % denom``.

    The companion of :class:`FloorDiv` in affine decompositions
    ``x = denom * (x // denom) + (x % denom)`` — how blocked formats
    (BCSR) recover within-block coordinates.  Opaque to the solver.
    """

    __slots__ = ("numer", "denom", "_hash", "_skey")

    _interned: dict = {}

    def __new__(cls, numer: ExprLike, denom: int):
        if not isinstance(denom, int) or denom <= 0:
            raise ValueError(f"Mod denominator must be a positive int, "
                             f"got {denom!r}")
        numer = as_expr(numer)
        key = (numer, denom)
        self = cls._interned.get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        object.__setattr__(self, "numer", numer)
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "_hash", hash(("Mod",) + key))
        object.__setattr__(self, "_skey", (5, denom, numer.sort_key()))
        return cls._interned.setdefault(key, self)

    def __init__(self, numer, denom):  # construction happens in __new__
        pass

    def __reduce__(self):  # unpickles to the interned instance
        return (Mod, (self.numer, self.denom))

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("Mod is immutable")

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Mod)
            and other.numer == self.numer
            and other.denom == self.denom
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Mod({self.numer!r}, {self.denom})"

    def __str__(self):
        return f"({self.numer}) % {self.denom}"

    def sort_key(self) -> tuple:
        return self._skey


def as_expr(value: ExprLike) -> "Expr":
    """Coerce an int, Atom, or Expr into an :class:`Expr`."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, Atom):
        return value.as_expr()
    if isinstance(value, bool):
        raise TypeError("booleans are not integer expressions")
    if isinstance(value, int):
        return Expr(const=value)
    raise TypeError(f"cannot convert {value!r} to Expr")


def _term_sort_key(term: tuple) -> tuple:
    return term[0].sort_key()


class Expr:
    """A normalized affine combination ``const + sum(coef * atom)``.

    Terms with coefficient zero are dropped and terms are kept sorted by the
    atoms' sort keys, so two algebraically equal affine expressions compare
    equal structurally.  Normalized expressions are interned: constructing
    an algebraically equal expression returns the canonical instance.
    """

    __slots__ = (
        "const",
        "terms",
        "_hash",
        "_skey",
        "_vnames",
        "_ufcalls",
        "_str",
    )

    _interned: dict = {}

    def __new__(cls, const: int = 0, terms: Iterable[tuple[Atom, int]] = ()):
        merged: dict[Atom, int] = {}
        for atom, coef in terms:
            if not isinstance(atom, Atom):
                raise TypeError(f"expected Atom, got {atom!r}")
            if coef == 0:
                continue
            merged[atom] = merged.get(atom, 0) + coef
        if merged:
            normalized = tuple(
                sorted(
                    ((a, c) for a, c in merged.items() if c != 0),
                    key=_term_sort_key,
                )
            )
        else:
            normalized = ()
        key = (int(const), normalized)
        self = cls._interned.get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        object.__setattr__(self, "const", key[0])
        object.__setattr__(self, "terms", normalized)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_skey", None)
        object.__setattr__(self, "_vnames", None)
        object.__setattr__(self, "_ufcalls", None)
        object.__setattr__(self, "_str", None)
        return cls._interned.setdefault(key, self)

    def __init__(self, const=0, terms=()):  # construction happens in __new__
        pass

    def __reduce__(self):  # unpickles to the interned instance
        return (Expr, (self.const, self.terms))

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("Expr is immutable")

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ExprLike) -> "Expr":
        other = as_expr(other)
        if not other.terms and not other.const:
            return self
        if not self.terms and not self.const:
            return other
        return Expr(self.const + other.const, self.terms + other.terms)

    __radd__ = __add__

    def __sub__(self, other: ExprLike) -> "Expr":
        return self + (-as_expr(other))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return (-self) + other

    def __neg__(self) -> "Expr":
        return Expr(-self.const, tuple((a, -c) for a, c in self.terms))

    def __mul__(self, k: int) -> "Expr":
        if isinstance(k, Expr):
            if k.is_constant():
                k = k.const
            else:
                raise TypeError("Expr multiplication only supports integer scalars")
        if not isinstance(k, int):
            raise TypeError("Expr multiplication only supports integer scalars")
        if k == 1:
            return self
        return Expr(self.const * k, tuple((a, c * k) for a, c in self.terms))

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    # Equality / hashing
    # ------------------------------------------------------------------
    def __eq__(self, other):
        if other is self:
            return True
        if isinstance(other, int):
            other = Expr(const=other)
        if isinstance(other, Atom):
            other = other.as_expr()
        return (
            isinstance(other, Expr)
            and other.const == self.const
            and other.terms == self.terms
        )

    def __hash__(self):
        return self._hash

    def sort_key(self) -> tuple:
        """Deterministic ordering key (used when nested in UF arguments)."""
        sk = self._skey
        if sk is None:
            sk = (self.const, tuple((a.sort_key(), c) for a, c in self.terms))
            object.__setattr__(self, "_skey", sk)
        return sk

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def is_constant(self) -> bool:
        return not self.terms

    def is_zero(self) -> bool:
        return self.const == 0 and not self.terms

    def atoms(self) -> Iterator[Atom]:
        """All atoms appearing at the top level of this expression."""
        for atom, _ in self.terms:
            yield atom

    def all_atoms(self) -> Iterator[Atom]:
        """All atoms, descending into UF call arguments."""
        for atom, _ in self.terms:
            yield atom
            if isinstance(atom, UFCall):
                for arg in atom.args:
                    yield from arg.all_atoms()
            elif isinstance(atom, Mul):
                yield atom.sym
                yield from atom.factor.all_atoms()
            elif isinstance(atom, FloorDiv):
                yield from atom.numer.all_atoms()
            elif isinstance(atom, Mod):
                yield from atom.numer.all_atoms()

    def _var_name_set(self) -> frozenset[str]:
        """Cached variable-name set (expressions are immutable)."""
        vn = self._vnames
        if vn is None:
            vn = frozenset(
                a.name for a in self.all_atoms() if isinstance(a, Var)
            )
            object.__setattr__(self, "_vnames", vn)
        return vn

    def var_names(self) -> set[str]:
        """Names of tuple variables anywhere in the expression."""
        return set(self._var_name_set())

    def sym_names(self) -> set[str]:
        return {a.name for a in self.all_atoms() if isinstance(a, Sym)}

    def uf_calls(self) -> list[UFCall]:
        """UF calls anywhere in the expression, outermost first."""
        calls = self._ufcalls
        if calls is None:
            calls = tuple(
                a for a in self.all_atoms() if isinstance(a, UFCall)
            )
            object.__setattr__(self, "_ufcalls", calls)
        return list(calls)

    def uf_names(self) -> set[str]:
        return {c.name for c in self.uf_calls()}

    def coeff(self, atom: Atom) -> int:
        """Coefficient of a top-level atom (0 if absent)."""
        for a, c in self.terms:
            if a == atom:
                return c
        return 0

    def without(self, atom: Atom) -> "Expr":
        """This expression with every top-level occurrence of ``atom`` removed."""
        return Expr(self.const, tuple((a, c) for a, c in self.terms if a != atom))

    def mentions_var(self, name: str) -> bool:
        return name in self._var_name_set()

    # ------------------------------------------------------------------
    # Substitution
    # ------------------------------------------------------------------
    def substitute(self, mapping: Mapping[Atom, ExprLike]) -> "Expr":
        """Replace atoms by expressions, recursing into UF arguments.

        The mapping keys are atoms (Var / Sym / UFCall); values are anything
        convertible by :func:`as_expr`.  Substitution applies the mapping to
        UF call arguments first, then checks whether the (rewritten) call
        itself is mapped.  Results are memoized on the interned operands.
        """
        if not self.terms:
            return self
        key = (self, _memo.freeze_mapping(mapping))
        return _memo.memo(
            _SUBST_MEMO, "substitute", key, self._substitute, mapping
        )

    def _substitute(self, mapping: Mapping[Atom, ExprLike]) -> "Expr":
        # Accumulate coefficients in a dict and build one Expr at the end
        # (a `result + term` chain constructs a fresh interned Expr per
        # term, which dominated synthesis profiles).
        const = self.const
        acc: dict[Atom, int] = {}

        def _accumulate(expr: "Expr", coef: int) -> None:
            nonlocal const
            const += expr.const * coef
            for a, c in expr.terms:
                acc[a] = acc.get(a, 0) + c * coef

        for atom, coef in self.terms:
            if isinstance(atom, UFCall):
                new_args = [a.substitute(mapping) for a in atom.args]
                rewritten: Atom = UFCall(atom.name, new_args)
            elif isinstance(atom, Mul):
                new_factor = atom.factor.substitute(mapping)
                new_sym = mapping.get(atom.sym)
                if new_sym is not None:
                    new_sym_expr = as_expr(new_sym)
                    if new_sym_expr.is_constant():
                        _accumulate(new_factor, new_sym_expr.const * coef)
                        continue
                    if (
                        not new_sym_expr.const
                        and len(new_sym_expr.terms) == 1
                        and isinstance(new_sym_expr.terms[0][0], Sym)
                        and new_sym_expr.terms[0][1] == 1
                    ):
                        rewritten = Mul(new_sym_expr.terms[0][0], new_factor)
                    else:
                        raise ValueError(
                            f"cannot substitute {atom.sym} inside product {atom}"
                        )
                else:
                    rewritten = Mul(atom.sym, new_factor)
            elif isinstance(atom, FloorDiv):
                rewritten = FloorDiv(atom.numer.substitute(mapping), atom.denom)
            elif isinstance(atom, Mod):
                rewritten = Mod(atom.numer.substitute(mapping), atom.denom)
            else:
                rewritten = atom
            replacement = mapping.get(rewritten)
            if replacement is not None:
                _accumulate(as_expr(replacement), coef)
            else:
                acc[rewritten] = acc.get(rewritten, 0) + coef
        return Expr(const, tuple(acc.items()))

    def substitute_vars(self, mapping: Mapping[str, ExprLike]) -> "Expr":
        """Convenience wrapper: substitute tuple variables by name."""
        return self.substitute({Var(n): v for n, v in mapping.items()})

    def rename_vars(self, mapping: Mapping[str, str]) -> "Expr":
        return self.substitute({Var(n): Var(m) for n, m in mapping.items()})

    def rename_ufs(self, mapping: Mapping[str, str]) -> "Expr":
        """Rename uninterpreted functions everywhere in the expression."""
        if not self.terms:
            return self
        key = (self, _memo.freeze_mapping(mapping))
        return _memo.memo(
            _RENAME_UFS_MEMO, "rename_ufs", key, self._rename_ufs, mapping
        )

    def _rename_ufs(self, mapping: Mapping[str, str]) -> "Expr":
        acc: dict[Atom, int] = {}
        for atom, coef in self.terms:
            if isinstance(atom, UFCall):
                new_args = [a.rename_ufs(mapping) for a in atom.args]
                atom = UFCall(mapping.get(atom.name, atom.name), new_args)
            elif isinstance(atom, Mul):
                atom = Mul(atom.sym, atom.factor.rename_ufs(mapping))
            elif isinstance(atom, FloorDiv):
                atom = FloorDiv(atom.numer.rename_ufs(mapping), atom.denom)
            elif isinstance(atom, Mod):
                atom = Mod(atom.numer.rename_ufs(mapping), atom.denom)
            acc[atom] = acc.get(atom, 0) + coef
        return Expr(self.const, tuple(acc.items()))

    # ------------------------------------------------------------------
    # Printing
    # ------------------------------------------------------------------
    def __str__(self):
        cached = self._str
        if cached is not None:
            return cached
        if self.is_constant():
            return str(self.const)
        parts: list[str] = []
        for atom, coef in self.terms:
            text = str(atom)
            if coef == 1:
                piece = text
            elif coef == -1:
                piece = f"-{text}"
            else:
                piece = f"{coef} * {text}"
            if parts and not piece.startswith("-"):
                parts.append(f"+ {piece}")
            elif parts:
                parts.append(f"- {piece[1:]}")
            else:
                parts.append(piece)
        if self.const > 0:
            parts.append(f"+ {self.const}")
        elif self.const < 0:
            parts.append(f"- {-self.const}")
        text = " ".join(parts)
        object.__setattr__(self, "_str", text)
        return text

    def __repr__(self):
        return f"Expr({self})"


_SUBST_MEMO = _memo.table("expr.substitute")
_RENAME_UFS_MEMO = _memo.table("expr.rename_ufs")

ZERO = Expr(0)
ONE = Expr(1)
