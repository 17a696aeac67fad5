"""Lowered AST for generated inspector code.

The SPF code generator (polyhedra scanning) lowers a
:class:`~repro.spf.computation.Computation` into this small AST: loops,
guards and let bindings around statement bodies, which are the typed nodes
of :mod:`repro.spf.statements` (or an opaque :class:`Raw` in hand-built
computations).  Nodes carry IR expressions (:class:`~repro.ir.Expr`), not
strings, so each printer in :mod:`repro.spf.codegen` decides how UF calls
render (array subscript, function call, C pointer access, numpy gather).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.ir import Constraint, Expr, ExprLike, as_expr

_WORD = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


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


@dataclass(frozen=True)
class Raw(Node):
    """An opaque statement body in Python source form.

    Only hand-built computations (tests, kernel executors, the tandem
    combination) use it; synthesis emits the typed kinds of
    :mod:`repro.spf.statements`.  The Python printer splices the text in
    verbatim and the display C printer appends a ``;``; the numpy and
    native C lowerings reject it.
    """

    text: str

    def names(self) -> set[str]:
        return set(_WORD.findall(self.text))

    def rename_vars(self, mapping: Mapping[str, str]) -> "Raw":
        """Rename identifiers in one simultaneous word-boundary pass."""
        return self._replace_words({k: v for k, v in mapping.items() if k != v})

    def substitute_vars(self, mapping: Mapping[str, ExprLike]) -> "Raw":
        """Replace identifiers by parenthesized expressions, simultaneously."""
        return self._replace_words(
            {k: f"({as_expr(v)})" for k, v in mapping.items()}
        )

    def _replace_words(self, mapping: Mapping[str, str]) -> "Raw":
        if not mapping:
            return self
        pattern = re.compile(
            r"\b(?:" + "|".join(re.escape(k) for k in mapping) + r")\b"
        )
        return Raw(pattern.sub(lambda m: mapping[m.group(0)], self.text))


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
