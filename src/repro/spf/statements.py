"""The closed set of statement kinds synthesis emits.

Every statement body the build stage produces is one of the frozen nodes
below.  Operands are IR expressions (:class:`~repro.ir.Expr`), so renaming
and substitution go through :meth:`Expr.rename_vars` /
:meth:`Expr.substitute_vars`, never through text, and each lowering — the
scalar Python printer, the display C printer, the numpy vectorizer and the
native C emitter — is a printer over this set.  This is the
attribute-query / assembly vocabulary of Chou et al. (OOPSLA 2020):

* storage: :class:`Alloc`, :class:`ArrayCopy`;
* assembly: :class:`Histogram`, :class:`Scatter`, :class:`Reduce`,
  :class:`PrefixFix`, :class:`BucketFill`;
* permutation / set construction: :class:`NewOrderedList`,
  :class:`NewBucketPermutation`, :class:`NewOrderedSet`, :class:`Insert`;
* queries: :class:`Length`, :class:`Materialize`, :class:`BinarySearch`.

Rank lookups (``k = P(i, j)``) are not statements: they stay
:class:`~repro.ir.UFCall` atoms on the permutation object inside a
``LetEq``.  Hand-built computations may still carry an opaque
:class:`~repro.spf.ast_nodes.Raw` body, which only the Python and display C
printers accept.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, Iterator, Mapping

from repro.ir import Expr, ExprLike, as_expr
from .ast_nodes import Node


#: The source value array: the one float64 input of every inspector.
SOURCE_VALUES = "Asrc"


class UnsupportedStatement(ValueError):
    """A printer was handed a statement it cannot print."""


@dataclass(frozen=True)
class Statement(Node):
    """Base class of the typed statement kinds."""

    #: Fields naming a variable the statement binds; renamed with the
    #: tuple variables, never substituted.
    _binds = ()

    def __post_init__(self):
        # Operands accept anything expression-like (ints, atoms).
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "Expr" and not isinstance(value, Expr):
                object.__setattr__(self, f.name, as_expr(value))
            elif f.type == "tuple[Expr, ...]":
                object.__setattr__(
                    self, f.name, tuple(as_expr(v) for v in value)
                )

    def exprs(self) -> Iterator[Expr]:
        """Every operand expression, nested statements included."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Expr):
                yield value
            elif isinstance(value, Statement):
                yield from value.exprs()
            elif isinstance(value, tuple):
                yield from (v for v in value if isinstance(v, Expr))

    def names(self) -> set[str]:
        """Every identifier the statement mentions (its Python form's names)."""
        out: set[str] = set()
        for e in self.exprs():
            out |= e.var_names() | e.sym_names() | e.uf_names()
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, str):
                out.add(value)
            elif isinstance(value, tuple):
                out.update(v for v in value if isinstance(v, str))
        return out

    @property
    def target(self) -> str:
        """The array, object or scalar the statement writes."""
        return self.name  # type: ignore[attr-defined]

    def _rebuild(
        self, on_expr: Callable[[Expr], Expr], on_var: Callable[[str], str]
    ) -> "Statement":
        changes = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in self._binds:
                new = on_var(value)
            elif isinstance(value, Expr):
                new = on_expr(value)
            elif isinstance(value, Statement):
                new = value._rebuild(on_expr, on_var)
            elif isinstance(value, tuple) and value and isinstance(value[0], Expr):
                new = tuple(on_expr(v) for v in value)
            else:
                continue
            if new != value:
                changes[f.name] = new
        return replace(self, **changes) if changes else self

    def rename_vars(self, mapping: Mapping[str, str]) -> "Statement":
        """Rename tuple variables simultaneously (bound variables too)."""
        return self._rebuild(
            lambda e: e.rename_vars(mapping), lambda v: mapping.get(v, v)
        )

    def substitute_vars(self, mapping: Mapping[str, ExprLike]) -> "Statement":
        """Replace tuple variables by expressions in every operand."""
        return self._rebuild(lambda e: e.substitute_vars(mapping), lambda v: v)


# -- storage -----------------------------------------------------------------
@dataclass(frozen=True)
class Alloc(Statement):
    """``name = [fill] * (size)``: a zero-based int64 or float64 array."""

    name: str
    size: Expr
    fill: Expr = Expr(0)
    floating: bool = False


@dataclass(frozen=True)
class ArrayCopy(Statement):
    """``name = list(source)``: an independent copy of an int64 array."""

    name: str
    source: str


# -- assembly ------------------------------------------------------------------
@dataclass(frozen=True)
class Histogram(Statement):
    """``array[bucket + 1] += 1``: count into an exclusive-prefix layout."""

    array: str
    bucket: Expr

    @property
    def target(self) -> str:
        return self.array


@dataclass(frozen=True)
class Scatter(Statement):
    """``array[index...] = value``."""

    array: str
    index: tuple[Expr, ...]
    value: Expr

    @property
    def target(self) -> str:
        return self.array


@dataclass(frozen=True)
class Reduce(Statement):
    """``array[index...] = op(array[index...], value)`` with op max or min."""

    array: str
    index: tuple[Expr, ...]
    value: Expr
    op: str = "max"

    @property
    def target(self) -> str:
        return self.array


@dataclass(frozen=True)
class PrefixFix(Statement):
    """``array[i] = array[i] op array[i - 1]`` with op ``+`` or ``max``.

    Over ``1 <= i <= n`` this is a prefix sum (``+``) or the monotonic
    fix-up of a pointer array with empty segments (``max``).
    """

    array: str
    index: Expr
    op: str = "max"

    @property
    def target(self) -> str:
        return self.array


@dataclass(frozen=True)
class BucketFill(Statement):
    """``var = fill[bucket]; fill[bucket] = var + 1``: a stateful position."""

    var: str
    fill: str
    bucket: Expr

    _binds = ("var",)

    @property
    def target(self) -> str:
        return self.fill


# -- permutations and sets -------------------------------------------------------
@dataclass(frozen=True)
class NewOrderedList(Statement):
    """``name = OrderedList(len(params), 1, key=lambda params: key)``.

    ``key`` is the sort key tuple over the lambda ``params``; empty means
    ``key=None`` — insertion order, the last duplicate winning.  With
    ``unique`` equal keys collapse onto one rank.
    """

    name: str
    params: tuple[str, ...]
    key: tuple[Expr, ...] = ()
    unique: bool = False

    def _rebuild(self, on_expr, on_var):
        return self  # the key is closed over its own parameters


@dataclass(frozen=True)
class NewBucketPermutation(Statement):
    """``name = LexBucketPermutation(nbuckets, which, arity)``."""

    name: str
    nbuckets: Expr
    which: int
    arity: int


@dataclass(frozen=True)
class NewOrderedSet(Statement):
    """``name = OrderedSet()``: sorted unique values, built by insertion."""

    name: str


@dataclass(frozen=True)
class Insert(Statement):
    """``obj.insert(args...)`` into a permutation or set object."""

    obj: str
    args: tuple[Expr, ...]

    @property
    def target(self) -> str:
        return self.obj


# -- queries -------------------------------------------------------------------
@dataclass(frozen=True)
class Length(Statement):
    """``name = len(obj)``: a size symbol from a populated object."""

    name: str
    obj: str


@dataclass(frozen=True)
class Materialize(Statement):
    """``name = name.to_list()``: a set becomes its sorted value array."""

    name: str


@dataclass(frozen=True)
class BinarySearch(Statement):
    """``var = BSEARCH(array, value); if var >= 0: stmt``.

    The Figure 3 rewrite of a linear search over a strictly increasing
    array; ``stmt`` runs only when ``value`` is present.
    """

    var: str
    array: str
    value: Expr
    stmt: Statement

    _binds = ("var",)

    @property
    def target(self) -> str:
        return self.stmt.target


#: Every statement kind, for printers' and tests' exhaustiveness checks.
KINDS = (
    Alloc,
    ArrayCopy,
    Histogram,
    Scatter,
    Reduce,
    PrefixFix,
    BucketFill,
    NewOrderedList,
    NewBucketPermutation,
    NewOrderedSet,
    Insert,
    Length,
    Materialize,
    BinarySearch,
)

__all__ = [k.__name__ for k in KINDS] + [
    "KINDS",
    "SOURCE_VALUES",
    "Statement",
    "UnsupportedStatement",
]
