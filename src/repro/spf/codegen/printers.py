"""The Python printer of lowered programs, and the expression printer every
target shares.

The Python printer produces the executable code of the python tier — the
inspectors, the generated kernels and tandem's pipelines alike (run by
:mod:`repro.runtime.executor`).  Every target — this one, the numpy
vectorizer and the C emitter (:mod:`.c_emit`, whose unit is also what
``--c`` prints) — renders IR expressions through one
:class:`ExprPrinter`; a target only overrides :meth:`ExprPrinter.atom`,
the way a variable, a floor division or a UF call prints.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.ir import Constraint, Eq, Expr, FloorDiv, Mod, Mul, Sym, UFCall, Var
from .. import statements as st
from ..ast_nodes import Comment, ForLoop, Guard, LetEq, Node, Program, walk


class SymbolTable:
    """Classification of names appearing in generated code.

    Uninterpreted functions lower either to index arrays (subscripting) or to
    user-defined functions (calls).  Everything else — tuple variables and
    symbolic constants — prints as a plain name.  ``floats`` names the
    float64 inputs, arrays and scalars alike; every other input is int64.
    """

    def __init__(
        self,
        arrays: Iterable[str] = (),
        functions: Iterable[str] = (),
        objects: Iterable[str] = (),
        floats: Iterable[str] = (),
    ):
        self.arrays = set(arrays)
        self.functions = set(functions)
        self.objects = set(objects)
        self.floats = set(floats)
        overlap = self.arrays & self.functions
        if overlap:
            raise ValueError(f"names registered as both array and function: {overlap}")

    def kind_of(self, name: str) -> str:
        if name in self.arrays:
            return "array"
        if name in self.functions:
            return "func"
        if name in self.objects:
            return "object"
        return "array"  # default: index array, the common case in SPF


#: The runtime helpers generated code calls by name.
RUNTIME_FUNCTIONS = frozenset({"MORTON", "MORTON2", "MORTON3", "BSEARCH"})


class ExprPrinter:
    """Renders IR expressions, constraints and loop bounds as Python.

    Subclasses retarget the output by overriding :meth:`atom` (and, for a
    language without variadic ``max``/``min``, :attr:`nest_bounds`).
    """

    #: Combine several loop bounds as nested binary calls (C) instead of
    #: one variadic call (Python).
    nest_bounds = False

    def __init__(self, symtab: SymbolTable):
        self.symtab = symtab

    def expr(self, expr: Expr) -> str:
        parts: list[str] = []
        for atom, coef in expr.terms:
            text = self.atom(atom)
            if coef == 1:
                piece = text
            elif coef == -1:
                piece = f"-{text}"
            else:
                piece = f"{coef} * {text}"
            if parts:
                if piece.startswith("-"):
                    parts.append(f"- {piece[1:]}")
                else:
                    parts.append(f"+ {piece}")
            else:
                parts.append(piece)
        if expr.const or not parts:
            if parts:
                sign = "+" if expr.const >= 0 else "-"
                parts.append(f"{sign} {abs(expr.const)}")
            else:
                parts.append(str(expr.const))
        return " ".join(parts)

    def atom(self, atom) -> str:
        if isinstance(atom, (Var, Sym)):
            return atom.name
        if isinstance(atom, Mul):
            return f"{self.atom(atom.sym)} * ({self.expr(atom.factor)})"
        if isinstance(atom, FloorDiv):
            return f"(({self.expr(atom.numer)}) // {atom.denom})"
        if isinstance(atom, Mod):
            return f"(({self.expr(atom.numer)}) % {atom.denom})"
        if isinstance(atom, UFCall):
            args = ", ".join(self.expr(a) for a in atom.args)
            if self.symtab.kind_of(atom.name) in ("func", "object"):
                return f"{atom.name}({args})"
            return f"{atom.name}[{args}]"
        raise TypeError(f"cannot print atom {atom!r}")

    def factor(self, expr: Expr) -> str:
        """``expr`` as an operand of a product: bare when it is one atom."""
        text = self.expr(expr)
        if expr.const == 0 and len(expr.terms) == 1 and expr.terms[0][1] == 1:
            return text
        return f"({text})"

    def constraint(self, c: Constraint) -> str:
        """Render a constraint readably as ``lhs OP rhs``.

        Positive terms stay on the left; negative terms (and a negative
        constant) move to the right, so ``k - rowptr(i) >= 0`` prints as
        ``k >= rowptr[i]``.
        """
        pos = Expr()
        neg = Expr()
        for atom, coef in c.expr.terms:
            if coef > 0:
                pos = pos + Expr(terms=((atom, coef),))
            else:
                neg = neg + Expr(terms=((atom, -coef),))
        if c.expr.const > 0:
            pos = pos + c.expr.const
        elif c.expr.const < 0:
            neg = neg + (-c.expr.const)
        op = "==" if isinstance(c, Eq) else ">="
        return f"{self.expr(pos)} {op} {self.expr(neg)}"

    def bound(self, exprs: Sequence[Expr], combiner: str) -> str:
        rendered = [self.expr(e) for e in exprs]
        if len(rendered) == 1:
            return rendered[0]
        if not self.nest_bounds:
            return f"{combiner}({', '.join(rendered)})"
        out = rendered[0]
        for piece in rendered[1:]:
            out = f"{combiner}({out}, {piece})"
        return out


class PythonPrinter(ExprPrinter):
    """Prints a lowered AST as executable Python."""

    def print(self, node: Node, indent: int = 0) -> str:
        return "\n".join(self._lines(node, indent))

    def statement(self, node: Node) -> str:
        """The Python form of one statement body."""
        e = self.expr
        if isinstance(node, st.Alloc):
            fill = repr(float(node.fill.const)) if node.floating else e(node.fill)
            if node.size is None:
                return f"{node.name} = {fill}"
            return f"{node.name} = [{fill}] * ({e(node.size)})"
        if isinstance(node, st.ArrayCopy):
            return f"{node.name} = list({node.source})"
        if isinstance(node, st.Histogram):
            return f"{node.array}[{e(node.bucket)} + 1] += 1"
        if isinstance(node, st.Scatter):
            index = ", ".join(e(i) for i in node.index)
            return f"{node.array}[{index}] = {e(node.value)}"
        if isinstance(node, st.Reduce):
            slot = f"{node.array}[{', '.join(e(i) for i in node.index)}]"
            return f"{slot} = {node.op}({slot}, {e(node.value)})"
        if isinstance(node, st.Accumulate):
            slot = node.array
            if node.index:
                slot += f"[{', '.join(e(i) for i in node.index)}]"
            return f"{slot} += {' * '.join(map(self.factor, node.factors))}"
        if isinstance(node, st.PrefixFix):
            cur = f"{node.array}[{e(node.index)}]"
            prev = f"{node.array}[{e(node.index - 1)}]"
            if node.op == "+":
                return f"{cur} = {cur} + {prev}"
            return f"{cur} = {node.op}({cur}, {prev})"
        if isinstance(node, st.BucketFill):
            slot = f"{node.fill}[{e(node.bucket)}]"
            return f"{node.var} = {slot}\n{slot} = {node.var} + 1"
        if isinstance(node, st.NewOrderedList):
            key = "None"
            if node.key:
                body = ", ".join(e(k) for k in node.key)
                key = f"lambda {', '.join(node.params)}: ({body},)"
            unique = ", unique=True" if node.unique else ""
            return (
                f"{node.name} = OrderedList({len(node.params)}, 1, "
                f'key={key}, op="<"{unique})'
            )
        if isinstance(node, st.NewBucketPermutation):
            return (
                f"{node.name} = LexBucketPermutation({e(node.nbuckets)}, "
                f"{node.which}, {node.arity})"
            )
        if isinstance(node, st.NewOrderedSet):
            return f"{node.name} = OrderedSet()"
        if isinstance(node, st.Insert):
            return f"{node.obj}.insert({', '.join(e(a) for a in node.args)})"
        if isinstance(node, st.Length):
            return f"{node.name} = len({node.obj})"
        if isinstance(node, st.Materialize):
            return f"{node.name} = {node.name}.to_list()"
        if isinstance(node, st.BinarySearch):
            inner = self.statement(node.stmt).replace("\n", "\n    ")
            return (
                f"{node.var} = BSEARCH({node.array}, {e(node.value)})\n"
                f"if {node.var} >= 0:\n    {inner}"
            )
        raise st.UnsupportedStatement(f"cannot print statement {node!r}")

    def _lines(self, node: Node, indent: int) -> list[str]:
        pad = "    " * indent
        if isinstance(node, Program):
            out: list[str] = []
            for child in node.body:
                out.extend(self._lines(child, indent))
            return out or [f"{pad}pass"]
        if isinstance(node, ForLoop):
            lb = self.bound(node.lowers, "max")
            ub = self.bound([u + 1 for u in node.uppers], "min")
            lines = [f"{pad}for {node.var} in range({lb}, {ub}):"]
            lines.extend(self._body(node.body, indent + 1))
            return lines
        if isinstance(node, LetEq):
            return [f"{pad}{node.var} = {self.expr(node.expr)}"]
        if isinstance(node, Guard):
            conds = " and ".join(f"({self.constraint(c)})" for c in node.constraints)
            lines = [f"{pad}if {conds}:"]
            lines.extend(self._body(node.body, indent + 1))
            return lines
        if isinstance(node, Comment):
            return [f"{pad}# {node.text}"]
        return [f"{pad}{line}" for line in self.statement(node).splitlines()]

    def _body(self, body: list[Node], indent: int) -> list[str]:
        if not body:
            return ["    " * indent + "pass"]
        lines: list[str] = []
        for child in body:
            lines.extend(self._lines(child, indent))
        return lines


def span_label(node: Node) -> str:
    """What a top-level node does, from its statement kinds and targets.

    A statement reads ``Alloc rowptr``; a loop nest lists its kinds in
    first-use order, e.g. ``for n: Histogram rowptr; Scatter col2, Adst``.
    """
    if isinstance(node, st.Statement):
        return f"{type(node).__name__} {node.target}"
    kinds: dict[str, dict] = {}  # kind -> its targets, both in first-use order
    for inner in walk(node):
        if isinstance(inner, st.Statement):
            kinds.setdefault(type(inner).__name__, {})[inner.target] = None
    body = "; ".join(f"{kind} {', '.join(t)}" for kind, t in kinds.items())
    if isinstance(node, ForLoop):
        return f"for {node.var}: {body}"
    if isinstance(node, Guard):
        return f"if: {body}"
    return body or type(node).__name__


def timed(index: int, node: Node, lines: list[str], pad: str) -> list[str]:
    """Bracket one top-level node's lines with the deep-trace clock hooks.

    The timed variant of an inspector calls ``__OBS_CLOCK()`` before and
    after each top-level node and reports the pair through
    ``__OBS_STMT(index, label, start, end)``; both come from its globals.
    """
    return [
        f"{pad}__obs_t = __OBS_CLOCK()",
        *lines,
        f"{pad}__OBS_STMT({index}, {span_label(node)!r}, __obs_t, "
        "__OBS_CLOCK())",
    ]


def emit_python_function(
    name: str,
    params: Sequence[str],
    program: Program,
    returns: Sequence[str],
    symtab: SymbolTable,
    *,
    timing: bool = False,
) -> str:
    """Wrap a lowered program into a Python function definition.

    ``params`` are the inputs (source UF arrays, symbolic constants, helper
    functions); ``returns`` are the destination names returned as a dict.
    ``timing`` prints the deep-trace variant (:func:`timed`).
    """
    printer = PythonPrinter(symtab)
    lines = [f"def {name}({', '.join(params)}):"]
    if timing:
        for index, node in enumerate(program.body):
            lines.extend(timed(index, node, printer._lines(node, 1), "    "))
    else:
        lines.append(printer.print(program, indent=1))
    ret_items = ", ".join(f"{n!r}: {n}" for n in returns)
    lines.append(f"    return {{{ret_items}}}")
    return "\n".join(lines) + "\n"
