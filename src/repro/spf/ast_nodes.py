"""Lowered AST for generated code: inspectors, kernels, tandem pipelines.

The SPF code generator (polyhedra scanning) lowers a
:class:`~repro.spf.computation.Computation` into this small AST: loops,
guards and let bindings around statement bodies, which are the typed nodes
of :mod:`repro.spf.statements`.  Nodes carry IR expressions
(:class:`~repro.ir.Expr`), not strings, so each printer in
:mod:`repro.spf.codegen` decides how UF calls render (array subscript,
function call, C pointer access, numpy gather).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.ir import Constraint, ExprLike, UFCall, as_expr


class Node:
    """Base class for lowered AST nodes."""

    __slots__ = ()


class Program(Node):
    """A whole generated inspector: an ordered list of top-level nodes."""

    __slots__ = ("body",)

    def __init__(self, body: Iterable[Node] = ()):
        self.body: list[Node] = list(body)

    def __repr__(self):
        return f"Program({self.body!r})"


class ForLoop(Node):
    """``for var in [max(lowers), min(uppers)]`` — bounds are inclusive."""

    __slots__ = ("var", "lowers", "uppers", "body")

    def __init__(
        self,
        var: str,
        lowers: Sequence[ExprLike],
        uppers: Sequence[ExprLike],
        body: Iterable[Node] = (),
    ):
        if not lowers or not uppers:
            raise ValueError(f"loop over {var!r} needs at least one bound each way")
        self.var = var
        self.lowers = [as_expr(e) for e in lowers]
        self.uppers = [as_expr(e) for e in uppers]
        self.body: list[Node] = list(body)

    def header_key(self) -> tuple:
        """Structural identity of the loop header (used for fusion checks)."""
        return (
            self.var,
            tuple(sorted(map(str, self.lowers))),
            tuple(sorted(map(str, self.uppers))),
        )

    def __repr__(self):
        return f"ForLoop({self.var!r}, {self.lowers}, {self.uppers}, {self.body!r})"


class LetEq(Node):
    """``var = expr`` binding a tuple variable defined by an equality."""

    __slots__ = ("var", "expr")

    def __init__(self, var: str, expr: ExprLike):
        self.var = var
        self.expr = as_expr(expr)

    def header_key(self) -> tuple:
        return (self.var, str(self.expr))

    def __repr__(self):
        return f"LetEq({self.var!r}, {self.expr})"


class RankLookup(LetEq):
    """``var = obj(args...)``: a rank lookup that replays ``obj``'s insert.

    Only :func:`repro.spf.replay.mark_rank_lookups` builds one, after
    checking that the lookup runs under the one insert's loops and guards
    with its arguments, in a later nest.  Each pass of lookups then asks
    for the ranks of the inserted tuples in insertion order, so a lowering
    may serve the n-th lookup of a pass from position n.  Prints like the
    ``LetEq`` it replaces.
    """

    __slots__ = ()

    @property
    def call(self) -> UFCall:
        return self.expr.terms[0][0]  # type: ignore[return-value]

    @property
    def obj(self) -> str:
        return self.call.name

    def __repr__(self):
        return f"RankLookup({self.var!r}, {self.expr})"


class Guard(Node):
    """``if all(constraints): body`` — residual constraints become guards."""

    __slots__ = ("constraints", "body")

    def __init__(self, constraints: Sequence[Constraint], body: Iterable[Node] = ()):
        if not constraints:
            raise ValueError("guard needs at least one constraint")
        self.constraints = list(constraints)
        self.body: list[Node] = list(body)

    def __repr__(self):
        return f"Guard({self.constraints!r}, {self.body!r})"


class Comment(Node):
    """A comment line, used to annotate synthesis phases in generated code."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __repr__(self):
        return f"Comment({self.text!r})"


def walk(node: Node):
    """Yield every node in the subtree rooted at ``node`` (pre-order)."""
    yield node
    body = getattr(node, "body", None)
    if body:
        for child in body:
            yield from walk(child)
