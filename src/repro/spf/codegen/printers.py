"""Printers turning the lowered AST into Python or display C source.

The Python printer produces executable inspector code (run by
:mod:`repro.runtime.executor`); the C printer produces the kind of output the
paper shows (CodeGen+ style) for inspection and documentation: C loop
headers, guards and bindings around each statement's Python form plus
``;``.

Every target — these two, the numpy vectorizer and the native C emitter —
renders IR expressions through one :class:`ExprPrinter`; a target only
overrides :meth:`ExprPrinter.atom`, the way a variable, a floor division or
a UF call prints.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.ir import Constraint, Eq, Expr, FloorDiv, Mod, Mul, Sym, UFCall, Var
from .. import statements as st
from ..ast_nodes import Comment, ForLoop, Guard, LetEq, Node, Program, Raw


class SymbolTable:
    """Classification of names appearing in generated code.

    Uninterpreted functions lower either to index arrays (subscripting) or to
    user-defined functions (calls).  Everything else — tuple variables and
    symbolic constants — prints as a plain name.
    """

    def __init__(
        self,
        arrays: Iterable[str] = (),
        functions: Iterable[str] = (),
        objects: Iterable[str] = (),
    ):
        self.arrays = set(arrays)
        self.functions = set(functions)
        self.objects = set(objects)
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

    def copy(self) -> "SymbolTable":
        return SymbolTable(self.arrays, self.functions, self.objects)


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


class _DisplayCExprs(ExprPrinter):
    """Display C: ``/`` for floor division, ``a[i][j]`` multi-indexing."""

    nest_bounds = True

    def atom(self, atom) -> str:
        if isinstance(atom, FloorDiv):
            return f"(({self.expr(atom.numer)}) / {atom.denom})"
        if (
            isinstance(atom, UFCall)
            and len(atom.args) > 1
            and self.symtab.kind_of(atom.name) == "array"
        ):
            return atom.name + "".join(f"[{self.expr(a)}]" for a in atom.args)
        return super().atom(atom)


def print_expr(expr: Expr, symtab: SymbolTable, lang: str = "py") -> str:
    """Render an IR expression as source text."""
    printer = ExprPrinter if lang == "py" else _DisplayCExprs
    return printer(symtab).expr(expr)


def print_constraint(c: Constraint, symtab: SymbolTable, lang: str = "py") -> str:
    """Render a constraint as ``lhs OP rhs`` (see :meth:`ExprPrinter.constraint`)."""
    printer = ExprPrinter if lang == "py" else _DisplayCExprs
    return printer(symtab).constraint(c)


class PythonPrinter(ExprPrinter):
    """Prints a lowered AST as executable Python."""

    def print(self, node: Node, indent: int = 0) -> str:
        return "\n".join(self._lines(node, indent))

    def statement(self, node: Node) -> str:
        """The Python form of one statement body."""
        if isinstance(node, Raw):
            return node.text
        e = self.expr
        if isinstance(node, st.Alloc):
            fill = repr(float(node.fill.const)) if node.floating else e(node.fill)
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


class CPrinter(_DisplayCExprs):
    """Prints a lowered AST as display C (CodeGen+ style)."""

    def print(self, node: Node, indent: int = 0) -> str:
        return "\n".join(self._lines(node, indent))

    def _lines(self, node: Node, indent: int) -> list[str]:
        pad = "  " * indent
        if isinstance(node, Program):
            out: list[str] = []
            for child in node.body:
                out.extend(self._lines(child, indent))
            return out
        if isinstance(node, ForLoop):
            lb = self.bound(node.lowers, "max")
            ub = self.bound(node.uppers, "min")
            lines = [
                f"{pad}for (int {node.var} = {lb}; {node.var} <= {ub}; "
                f"{node.var}++) {{"
            ]
            for child in node.body:
                lines.extend(self._lines(child, indent + 1))
            lines.append(f"{pad}}}")
            return lines
        if isinstance(node, LetEq):
            return [f"{pad}int {node.var} = {self.expr(node.expr)};"]
        if isinstance(node, Guard):
            conds = " && ".join(f"({self.constraint(c)})" for c in node.constraints)
            lines = [f"{pad}if ({conds}) {{"]
            for child in node.body:
                lines.extend(self._lines(child, indent + 1))
            lines.append(f"{pad}}}")
            return lines
        if isinstance(node, Comment):
            return [f"{pad}// {node.text}"]
        text = PythonPrinter(self.symtab).statement(node).rstrip()
        if text and not text.endswith((";", "}", "{")):
            text += ";"
        return [f"{pad}{line}" for line in text.splitlines()]


def emit_python_function(
    name: str,
    params: Sequence[str],
    program: Program,
    returns: Sequence[str],
    symtab: SymbolTable,
    preamble: Sequence[str] = (),
) -> str:
    """Wrap a lowered program into a Python function definition.

    ``params`` are the inputs (source UF arrays, symbolic constants, helper
    functions); ``returns`` are the destination names returned as a dict.
    """
    printer = PythonPrinter(symtab)
    lines = [f"def {name}({', '.join(params)}):"]
    for line in preamble:
        lines.append(f"    {line}")
    body = printer.print(program, indent=1)
    lines.append(body)
    ret_items = ", ".join(f"{n!r}: {n}" for n in returns)
    lines.append(f"    return {{{ret_items}}}")
    return "\n".join(lines) + "\n"
