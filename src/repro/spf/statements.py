"""The closed set of statement kinds every computation is built from.

Every statement body — the build stage's, the generated kernels' and
tandem's — is one of the frozen nodes below; there is no statement text.
Operands are IR expressions (:class:`~repro.ir.Expr`), so renaming and
substitution go through :meth:`Expr.rename_vars`,
:meth:`Expr.substitute_vars` and :meth:`Expr.rename_ufs`, never through
text, and each lowering — the scalar Python printer, the numpy
vectorizer and the C emitter — is a printer over this set.  This is the
attribute-query / assembly vocabulary of Chou et al. (PLDI 2020), plus
the executors' accumulation:

* storage: :class:`Alloc`, :class:`ArrayCopy`;
* assembly: :class:`Histogram`, :class:`Scatter`, :class:`Reduce`,
  :class:`Accumulate`, :class:`PrefixFix`, :class:`BucketFill`;
* permutation / set construction: :class:`NewOrderedList`,
  :class:`NewBucketPermutation`, :class:`NewOrderedSet`, :class:`Insert`;
* queries: :class:`Length`, :class:`Materialize`, :class:`BinarySearch`.

Rank lookups (``k = P(i, j)``) are not statements: they stay
:class:`~repro.ir.UFCall` atoms on the permutation object inside a
``LetEq``, which :func:`repro.spf.replay.mark_rank_lookups` turns into a
:class:`~repro.spf.ast_nodes.RankLookup` once it has proved the lookup
replays its insert.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, Iterator, Mapping

from repro.ir import Expr, ExprLike, UFCall, Var, as_expr
from .ast_nodes import Node, walk


class UnsupportedStatement(ValueError):
    """A printer was handed a statement it cannot print."""


@dataclass(frozen=True)
class Statement(Node):
    """Base class of the typed statement kinds."""

    #: Fields naming a variable the statement binds; renamed with the
    #: tuple variables, never substituted.  The statement writes them.
    _binds = ()
    #: Fields holding an operator, not a name.
    _operators = ()

    def __post_init__(self):
        # Operands accept anything expression-like (ints, atoms).
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "Expr" or (f.type == "Expr | None" and value is not None):
                object.__setattr__(self, f.name, as_expr(value))
            elif f.type == "tuple[Expr, ...]":
                object.__setattr__(
                    self, f.name, tuple(as_expr(v) for v in value)
                )
            elif f.type == "tuple[Expr | None, ...]":
                object.__setattr__(self, f.name, tuple(
                    None if v is None else as_expr(v) for v in value
                ))

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
        """Every name the statement mentions: its operands' variables,
        symbols and functions and the arrays and objects it names."""
        out: set[str] = set()
        for e in self.exprs():
            out |= e.var_names() | e.sym_names() | e.uf_names()
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in self._operators:
                continue
            if isinstance(value, str):
                out.add(value)
            elif isinstance(value, tuple):
                out.update(v for v in value if isinstance(v, str))
        return out

    @property
    def target(self) -> str:
        """The array, object or scalar the statement writes."""
        return self.name  # type: ignore[attr-defined]

    @property
    def bound(self) -> set[str]:
        """The variables the statement binds."""
        return {getattr(self, f) for f in self._binds}

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

    def rename_ufs(self, mapping: Mapping[str, str]) -> "Statement":
        """Rename the arrays and functions the operands read (UF calls)."""
        return self._rebuild(lambda e: e.rename_ufs(mapping), lambda v: v)


def morton_call(key: Expr) -> UFCall | None:
    """The ``MORTON(...)`` call ``key`` consists of, if it is one."""
    call = key.terms[0][0] if len(key.terms) == 1 else None
    if (
        isinstance(call, UFCall)
        and key == call.as_expr()
        and call.name.startswith("MORTON")
    ):
        return call
    return None


def _bare(expr: Expr) -> str | None:
    """The variable ``expr`` is, if it is a bare one."""
    atom = expr.terms[0][0] if len(expr.terms) == 1 else None
    if isinstance(atom, Var) and expr == atom.as_expr():
        return atom.name
    return None


# -- storage -----------------------------------------------------------------
@dataclass(frozen=True)
class Alloc(Statement):
    """``name = [fill] * (size)``: a zero-based int64 or float64 array.

    Without a ``size`` it is the scalar ``name = fill``, the start of an
    :class:`Accumulate` into a scalar.
    """

    name: str
    size: Expr | None
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

    _operators = ("op",)

    @property
    def target(self) -> str:
        return self.array


@dataclass(frozen=True)
class Accumulate(Statement):
    """``array[index...] += factors[0] * factors[1] * ...``, in loop order.

    An empty ``index`` adds into the scalar ``array`` (a scalar
    :class:`Alloc`).
    """

    array: str
    index: tuple[Expr, ...]
    factors: tuple[Expr, ...]

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

    _operators = ("op",)

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
    ``unique`` equal keys collapse onto one rank.  ``ranges`` holds one
    exclusive upper bound per key component (None where synthesis declares
    none), over symbolic constants; a lowering may sort a component by
    counting within its range, but must not trust it: an input that skips
    validation can hold keys outside it.  The Python form omits it.
    """

    name: str
    params: tuple[str, ...]
    key: tuple[Expr, ...] = ()
    unique: bool = False
    ranges: tuple[Expr | None, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        if self.ranges and len(self.ranges) != len(self.key):
            raise ValueError(f"{self!r}: one range per key component")

    def _rebuild(self, on_expr, on_var):
        return self  # the key is closed over its own parameters

    def names(self) -> set[str]:
        """Its names but the parameters its key binds."""
        return super().names() - set(self.params)

    @property
    def injective(self) -> bool:
        """Whether equal keys imply equal coordinate tuples: every
        parameter is a bare key component, or the key is one Morton
        interleave of all the parameters."""
        bare = {_bare(k) for k in self.key}
        if set(self.params) <= bare:
            return True
        call = morton_call(self.key[0]) if len(self.key) == 1 else None
        args = [_bare(a) for a in call.args] if call is not None else []
        return len(args) == len(self.params) and set(args) == set(self.params)


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


def targets(program: Node) -> set[str]:
    """Every name a statement of ``program`` writes."""
    return {n.target for n in walk(program) if isinstance(n, Statement)}


#: Every statement kind, for printers' and tests' exhaustiveness checks.
KINDS = (
    Alloc,
    ArrayCopy,
    Histogram,
    Scatter,
    Reduce,
    Accumulate,
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
    "Statement",
    "UnsupportedStatement",
    "targets",
]
