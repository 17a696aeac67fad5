"""Vectorized NumPy lowering backend for synthesized inspectors.

The scalar printer in :mod:`.printers` interprets one loop iteration at a
time; this printer lowers each loop nest of a lowered program to a handful
of NumPy array operations instead, one rule per statement kind of
:mod:`repro.spf.statements`:

* flat and CSR-style nested iteration spaces -> ``np.arange`` columns plus
  segmented flattening (``SEGMENTS``), guards -> boolean masks, a guarded
  binary search -> ``BSEARCH_V`` plus a mask;
* :class:`~repro.spf.statements.Histogram` -> ``np.bincount``;
  :class:`~repro.spf.statements.PrefixFix` loops -> ``np.cumsum`` /
  ``np.maximum.accumulate``;
* :class:`~repro.spf.statements.BucketFill` -> occurrence-ranked positions
  (``FILL_POS``);
* :class:`~repro.spf.statements.Scatter` -> fancy indexing,
  :class:`~repro.spf.statements.Reduce` -> ``np.maximum.at`` /
  ``np.minimum.at``, :class:`~repro.spf.statements.Accumulate` ->
  ``np.add.at``, which adds in index order as the loop does (a scalar
  accumulation has no whole-array form that keeps that order, so it is
  refused);
* ordered list / bucket permutation / ordered set populations -> key-column
  sorts (``np.lexsort`` with a vectorized Morton interleave, ``np.unique``);
  each :class:`~repro.spf.ast_nodes.RankLookup` (a lookup the replay pass
  proved replays its insert) reads the precomputed position vector.

Every nest prints whole-array or the lowering refuses the program with
:class:`~repro.spf.statements.UnsupportedStatement`, as the C printer
does: a nest the read/write hazard check rejects (an array written by one
statement and read elsewhere in the nest, or written twice) has no
whole-array form that keeps the scalar order, so it is refused with the
check's reason.

Correctness ground rules (the differential tests in
``tests/integration/test_backend_equivalence.py`` enforce all of these):

* NumPy fancy assignment resolves duplicate indices last-wins, matching
  the scalar loop's overwrite order;
* rank lookups reproduce ``OrderedList``'s dict semantics exactly,
  including the last-duplicate-wins collapse for repeated coordinates
  (``STABLE_POS``) and dense key ranks for ``unique=True`` (``DENSE_POS``);
* the generated function returns its native representation (numpy
  arrays); ``SynthesizedConversion.__call__`` copies them into the typed
  arrays every tier materializes (:meth:`repro.backends.Backend.materialize`),
  so observed outputs are bit-identical to the scalar backend's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import repro.obs as obs
from repro.backends.base import Lowering
from repro.ir import Expr, Sym, UFCall, Var
from .. import statements as st
from ..ast_nodes import Comment, ForLoop, Guard, LetEq, Node, Program, RankLookup
from .printers import ExprPrinter, PythonPrinter, SymbolTable, timed

#: Scalar runtime helper -> its column-wise counterpart.
_VECTOR_FUNCS = {"MORTON": "MORTON_V", "MORTON2": "MORTON2_V", "MORTON3": "MORTON3_V"}

_ACCUMULATE = {"+": "np.cumsum", "max": "np.maximum.accumulate",
               "min": "np.minimum.accumulate"}
_UFUNC = {"max": "np.maximum", "min": "np.minimum"}

_VECTORIZED_NESTS = obs.counter(
    "repro_vectorize_nests_vectorized_total", "loop nests lowered to numpy"
)


@dataclass
class _Perm:
    """One vectorized permutation or set object."""

    decl: st.Statement
    coords: tuple[str, ...] = ()
    pos: str = ""  # position vector lookups read
    length: str = ""  # what ``len(obj)`` evaluates to

    @property
    def name(self) -> str:
        return self.decl.name


@dataclass
class _Line:
    text: str
    uses: frozenset
    #: Set on iteration bookkeeping (arange / repeat / mask filter), which
    #: is dropped when nothing later in the nest reads the name.
    defines: str | None = None


#: Object constructors the vectorizer replaces by column sorts.
_PERM_KINDS = {
    st.NewOrderedList: "OrderedList",
    st.NewBucketPermutation: "LexBucketPermutation",
    st.NewOrderedSet: "OrderedSet",
}


def _tuple(items: Sequence[str]) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def _stmt_reads(node: st.Statement) -> set[str]:
    """Names a nest statement reads besides its own update idiom's slot."""
    names = {n for e in node.exprs() for n in e.uf_names()}
    if isinstance(node, st.PrefixFix):
        names.add(node.array)  # reads another slot of its own target
    return names


def _hazard(loop: ForLoop) -> str | None:
    """Why a nest cannot run as whole-array operations, or None.

    Every statement runs over the whole flattened iteration space before
    the next one starts, which preserves the scalar order only when no
    array one statement writes is read anywhere else in the nest, and no
    array is written by two statements.
    """
    structure: set[str] = set()
    reads: list[set[str]] = []
    writers: dict[str, int] = {}

    def visit(nodes: Sequence[Node]) -> None:
        nodes = [n for n in nodes if not isinstance(n, Comment)]
        for index, node in enumerate(nodes):
            nested = isinstance(node, (ForLoop, Guard, st.BinarySearch))
            if nested and index != len(nodes) - 1:
                raise _Reject("statements after a nested level")
            if isinstance(node, ForLoop):
                for e in node.lowers + node.uppers:
                    structure.update(e.uf_names())
                visit(node.body)
            elif isinstance(node, Guard):
                for c in node.constraints:
                    structure.update(c.expr.uf_names())
                visit(node.body)
            elif isinstance(node, LetEq):
                structure.update(node.expr.uf_names())
            elif isinstance(node, st.BinarySearch):
                structure.add(node.array)
                structure.update(node.value.uf_names())
                visit([node.stmt])
            elif isinstance(node, st.Statement):
                writers[node.target] = writers.get(node.target, 0) + 1
                reads.append(_stmt_reads(node))

    try:
        visit([loop])
    except _Reject as why:
        return str(why)
    for name, count in writers.items():
        if count > 1:
            return f"{name} written by multiple statements"
        if name in structure:
            return f"{name} read by loop structure"
        if any(name in r for r in reads):
            return f"{name} both read and written in one nest"
    return None


class _Reject(Exception):
    """A nest shape the whole-array form cannot preserve."""


def _recurrence(loop: ForLoop) -> list[st.PrefixFix] | None:
    """The prefix fix-ups of a ``for i in [c, n]`` loop (``c >= 1``), if
    that is all the loop does and each touches its own array."""
    body = [n for n in loop.body if not isinstance(n, Comment)]
    if not body or not all(
        isinstance(n, st.PrefixFix) and n.index == Var(loop.var) for n in body
    ):
        return None
    if len({n.array for n in body}) != len(body):
        return None
    if len(loop.lowers) != 1 or len(loop.uppers) != 1:
        return None
    lower, upper = loop.lowers[0], loop.uppers[0]
    if not lower.is_constant() or lower.const < 1 or upper.mentions_var(loop.var):
        return None
    return body


class _VectorExprs(ExprPrinter):
    """Column-wise rendering of IR expressions inside one nest.

    Records every name it prints in :attr:`uses`; while the nest's root
    loop variable is still its untouched ``np.arange``, ``A[root + c]``
    gathers print as slice views (no copy, no per-element bounds check).
    """

    def __init__(self, nest: "_Nest"):
        super().__init__(nest.em.symtab)
        self.nest = nest
        self.uses: set[str] = set()

    def atom(self, atom) -> str:
        if isinstance(atom, (Var, Sym)):
            self.uses.add(atom.name)
            return atom.name
        if isinstance(atom, UFCall):
            if atom.name in _VECTOR_FUNCS:
                args = ", ".join(self.expr(a) for a in atom.args)
                return f"{_VECTOR_FUNCS[atom.name]}({args})"
            if self.symtab.kind_of(atom.name) != "array":
                raise st.UnsupportedStatement(
                    f"numpy lowering cannot inline {atom} in an expression"
                )
            self.uses.add(atom.name)
            if len(atom.args) == 1 and atom.name in self.nest.em.arrays:
                window = self.nest.window(atom.args[0], self.uses)
                if window is not None:
                    return f"{atom.name}[{window}]"
            return f"{atom.name}[{', '.join(self.expr(a) for a in atom.args)}]"
        return super().atom(atom)


class _Nest:
    """Vectorize one top-level loop nest into flat array operations."""

    def __init__(self, em: "_Emitter", root: ForLoop):
        self.em = em
        self.root = root
        self.lines: list[_Line] = []
        self.vec: list[str] = []  # per-iteration columns, in binding order
        self.flat: str | None = None  # a column spanning the flat space
        self.pending: list[_Perm] = []
        #: Root loop bounds while its column is an untouched arange.
        self.root_lb: int | None = None
        self.root_ub: Expr | None = None

    # -- small utilities -------------------------------------------------
    def add(self, text: str, uses=(), defines: str | None = None) -> None:
        self.lines.append(_Line(text, frozenset(uses), defines))

    def vexpr(self, expr: Expr, uses: set[str]) -> str:
        printer = _VectorExprs(self)
        text = printer.expr(expr)
        uses |= printer.uses
        return text

    def window(self, index: Expr, uses: set[str]) -> str | None:
        """Slice text for ``root + c`` while the root column is intact."""
        if self.root_ub is None or self.root_lb is None:
            return None
        offset = index - Var(self.root.var)
        if not offset.is_constant() or self.root_lb + offset.const < 0:
            return None
        c = offset.const
        printer = ExprPrinter(self.em.symtab)
        end = self.root_ub + (c + 1)
        uses |= end.sym_names() | end.var_names() | end.uf_names()
        return f"{self.root_lb + c}:{printer.expr(end)}"

    def flat_len(self, uses: set[str]) -> str:
        """Element count of the current flat iteration space."""
        if self.root_ub is not None and self.root_lb is not None:
            count = self.root_ub + (1 - self.root_lb)
            uses |= count.sym_names() | count.var_names() | count.uf_names()
            return ExprPrinter(self.em.symtab).expr(count)
        uses.add(self.flat)
        return f"{self.flat}.shape[0]"

    def filter(self, cond: str, uses: set[str]) -> None:
        """Keep only the flat positions where ``cond`` holds."""
        t = self.em.tmp()
        size = self.flat_len(uses)
        self.add(f"__m{t} = BOOLMASK({size}, {cond})", uses)
        for name in self.vec:
            self.add(f"{name} = {name}[__m{t}]", {name, f"__m{t}"}, name)
        self.root_ub = None  # positions no longer equal root values

    # -- structure ---------------------------------------------------------
    def run(self) -> list[str]:
        self.level([self.root])
        for perm in self.pending:
            self.finalize(perm)
        return self.live_lines()

    def live_lines(self) -> list[str]:
        """Drop bookkeeping columns nothing later in the nest reads."""
        used: set[str] = set()
        kept: list[str] = []
        for line in reversed(self.lines):
            if line.defines is not None and line.defines not in used:
                continue
            used |= line.uses
            kept.append(line.text)
        kept.reverse()
        return kept

    def level(self, nodes: Sequence[Node]) -> None:
        for node in nodes:
            if isinstance(node, Comment):
                continue
            if isinstance(node, LetEq):
                self.let(node)
            elif isinstance(node, ForLoop):
                self.enter_loop(node)
                self.level(node.body)
            elif isinstance(node, Guard):
                self.enter_guard(node)
                self.level(node.body)
            elif isinstance(node, st.BinarySearch):
                self.search(node)
                self.level([node.stmt])
            else:
                self.statement(node)

    def enter_loop(self, loop: ForLoop) -> None:
        uses: set[str] = set()
        if self.flat is None:
            scalar = ExprPrinter(self.em.symtab)
            lb = scalar.bound(loop.lowers, "max")
            ub = scalar.bound([u + 1 for u in loop.uppers], "min")
            for e in loop.lowers + loop.uppers:
                uses |= e.sym_names() | e.uf_names()
            self.add(
                f"{loop.var} = np.arange({lb}, {ub}, dtype=np.int64)",
                uses, loop.var,
            )
            if len(loop.lowers) == 1 and loop.lowers[0].is_constant():
                if len(loop.uppers) == 1:
                    self.root_lb = loop.lowers[0].const
                    self.root_ub = loop.uppers[0]
        else:
            lo = self.combine(loop.lowers, "np.maximum", uses)
            hi = self.combine(loop.uppers, "np.minimum", uses)
            call = f"SEGMENTS({lo}, {hi}, {self.flat_len(uses)})"
            cacheable = (
                self.em.seg_cache_ok
                and uses <= self.em.params
                and uses.isdisjoint(self.em.mutated)
            )
            cached = self.em.seg_cache.get(call) if cacheable else None
            if cached is None:
                t = self.em.tmp()
                cached = (f"__len{t}", f"__in{t}")
                self.add(f"{cached[0]}, {cached[1]} = {call}", uses)
                if cacheable:
                    self.em.seg_cache[call] = cached
            length, inner = cached
            for name in self.vec:
                self.add(
                    f"{name} = np.repeat({name}, {length})",
                    {name, length}, name,
                )
            self.add(f"{loop.var} = {inner}", {inner})
            self.root_ub = None
        self.vec.append(loop.var)
        self.flat = loop.var

    def combine(self, exprs: Sequence[Expr], ufunc: str, uses: set[str]) -> str:
        out = self.vexpr(exprs[0], uses)
        for e in exprs[1:]:
            out = f"{ufunc}({out}, {self.vexpr(e, uses)})"
        return out

    def enter_guard(self, guard: Guard) -> None:
        printer = _VectorExprs(self)
        cond = " & ".join(f"({printer.constraint(c)})" for c in guard.constraints)
        self.filter(cond, printer.uses)

    def let(self, node: LetEq) -> None:
        if isinstance(node, RankLookup):
            pos = self.em.perms[node.obj].pos
            self.add(f"{node.var} = {pos}", {pos})
        else:
            uses: set[str] = set()
            self.add(f"{node.var} = {self.vexpr(node.expr, uses)}", uses)
        self.vec.append(node.var)

    def search(self, node: st.BinarySearch) -> None:
        uses: set[str] = {node.array}
        value = self.vexpr(node.value, uses)
        self.add(f"{node.var} = BSEARCH_V({node.array}, {value})", uses)
        self.vec.append(node.var)
        self.filter(f"{node.var} >= 0", {node.var})

    # -- statements ----------------------------------------------------------
    def statement(self, node: Node) -> None:
        uses: set[str] = set()
        if isinstance(node, st.Scatter):
            window = (
                self.window(node.index[0], uses) if len(node.index) == 1
                else None
            )
            if window is None:
                window = ", ".join(self.vexpr(i, uses) for i in node.index)
            value = self.vexpr(node.value, uses)
            self.add(f"{node.array}[{window}] = {value}", uses)
        elif isinstance(node, st.Reduce):
            fn = _UFUNC[node.op]
            value = self.vexpr(node.value, uses)
            window = (
                self.window(node.index[0], uses) if len(node.index) == 1
                else None
            )
            if window is not None:
                slot = f"{node.array}[{window}]"
                self.add(f"{slot} = {fn}({slot}, {value})", uses)
            else:
                self.ufunc_at(fn, node, value, uses)
        elif isinstance(node, st.Accumulate):
            if not node.index:
                raise st.UnsupportedStatement(
                    f"numpy lowering cannot accumulate into the scalar "
                    f"{node.array} in loop order: {node!r}"
                )
            printer = _VectorExprs(self)
            value = " * ".join(map(printer.factor, node.factors))
            uses |= printer.uses
            self.ufunc_at("np.add", node, value, uses)
        elif isinstance(node, st.Histogram):
            window = self.window(node.bucket + 1, uses)
            if window is not None:
                self.add(f"{node.array}[{window}] += 1", uses)
            else:
                bucket = self.vexpr(node.bucket, uses)
                self.add(
                    f"{node.array}[1:] += np.bincount({bucket}, "
                    f"minlength={node.array}.shape[0] - 1)",
                    uses,
                )
        elif isinstance(node, st.BucketFill):
            bucket = self.vexpr(node.bucket, uses)
            self.add(f"{node.var} = FILL_POS({node.fill}, {bucket})", uses)
            self.vec.append(node.var)
        elif isinstance(node, st.Insert):
            self.insert(node)
            return
        else:
            raise st.UnsupportedStatement(
                f"numpy lowering cannot print {node!r} inside a loop"
            )
        self.em.mutated.add(node.target)

    def ufunc_at(self, fn: str, node, value: str, uses: set[str]) -> None:
        """``fn.at(array, index, value)``: unbuffered, one element at a
        time in index order, as the loop updates its slots."""
        index = ", ".join(self.vexpr(i, uses) for i in node.index)
        if len(node.index) > 1:
            index = f"({index})"
        self.add(f"{fn}.at({node.array}, {index}, {value})", uses)

    def insert(self, node: st.Insert) -> None:
        perm = self.em.perms.get(node.obj)
        if perm is None or perm.coords:
            raise st.UnsupportedStatement(
                f"numpy lowering: {node!r} is not the one insert of a "
                "vectorized object"
            )
        coords = []
        for k, arg in enumerate(node.args):
            column = f"__{perm.name}_c{k}"
            uses: set[str] = set()
            self.add(f"{column} = {self.vexpr(arg, uses)}", uses)
            coords.append(column)
        perm.coords = tuple(coords)
        self.pending.append(perm)

    def finalize(self, perm: _Perm) -> None:
        name, decl, coords = perm.name, perm.decl, perm.coords
        if isinstance(decl, st.NewOrderedSet):
            self.add(f"{name} = np.unique({coords[0]})")
            self.em.arrays.add(name)
            perm.length = f"{name}.shape[0]"
            return
        perm.pos = f"__{name}_pos"
        if isinstance(decl, st.NewBucketPermutation):
            bucket = coords[decl.which]
            self.add(f"{perm.pos} = COUNT_POS({bucket})")
            perm.length = f"{bucket}.shape[0]"
            return
        keys = []
        columns = dict(zip(decl.params, coords))
        for k, key in enumerate(decl.key):
            uses: set[str] = set()
            text = self.vexpr(key.rename_vars(columns), uses)
            if text not in coords:
                self.add(f"__{name}_k{k} = {text}", uses)
                text = f"__{name}_k{k}"
            keys.append(text)
        key_tuple, coord_tuple = _tuple(keys), _tuple(coords)
        if decl.unique:
            if not keys:
                raise st.UnsupportedStatement(
                    f"numpy lowering: {decl!r} collapses ties without a key"
                )
            self.add(f"{perm.pos}, __{name}_n = DENSE_POS({key_tuple})")
            perm.length = f"__{name}_n"
        else:
            self.add(f"{perm.pos} = STABLE_POS({key_tuple}, {coord_tuple})")
            perm.length = f"{coords[0]}.shape[0]"


class _Emitter:
    """One numpy function: top-level statements plus one :class:`_Nest`
    per loop nest."""

    def __init__(self, symtab: SymbolTable, params: Sequence[str]):
        self.symtab = symtab
        self.scalar = PythonPrinter(symtab)
        self.params = set(params)
        self.arrays: set[str] = set()
        self.perms: dict[str, _Perm] = {}
        self.lines: list[str] = []
        self.vectorized = 0
        self._tmp = 0
        #: Cross-nest reuse of identical SEGMENTS calls (CSR-style bounds
        #: are recomputed per nest in the scalar program).  Keyed on the
        #: emitted call text; only stored/served while every name it reads
        #: is an unwritten function parameter, so a hit sees the values the
        #: first call saw.
        self.mutated: set[str] = set()
        self.seg_cache: dict[str, tuple[str, str]] = {}
        self.seg_cache_ok = True

    def tmp(self) -> int:
        self._tmp += 1
        return self._tmp

    def add(self, text: str, indent: int) -> None:
        pad = "    " * indent
        self.lines.extend(f"{pad}{line}" for line in text.splitlines())

    def emit(self, nodes: Sequence[Node], indent: int) -> None:
        for node in nodes:
            if isinstance(node, Comment):
                self.add(f"# {node.text}", indent)
            elif isinstance(node, LetEq):
                self.add(self.scalar.print(node), indent)
            elif isinstance(node, Guard):
                # A symbol-only preguard: keep it scalar, nests inside may
                # not run, so they neither store nor serve cached SEGMENTS.
                conds = " and ".join(
                    f"({self.scalar.constraint(c)})" for c in node.constraints
                )
                self.add(f"if {conds}:", indent)
                self.emit(node.body, indent + 1)
                if not node.body:
                    self.add("pass", indent + 1)
            elif isinstance(node, ForLoop):
                self.nest(node, indent)
            else:
                self.top_statement(node, indent)

    def nest(self, loop: ForLoop, indent: int) -> None:
        self.seg_cache_ok = indent == 1
        fixes = _recurrence(loop)
        if fixes is not None:
            self.add(f"# vectorized recurrence: loop over {loop.var}", indent)
            lb = loop.lowers[0].const
            end = self.scalar.expr(loop.uppers[0] + 1)
            for fix in fixes:
                t = self.tmp()
                self.add(
                    f"__acc{t} = {_ACCUMULATE[fix.op]}"
                    f"({fix.array}[{lb - 1}:{end}])\n"
                    f"{fix.array}[{lb}:{end}] = __acc{t}[1:]",
                    indent,
                )
                self.mutated.add(fix.array)
        else:
            reason = _hazard(loop)
            if reason is not None:
                raise st.UnsupportedStatement(
                    f"numpy lowering cannot vectorize the loop nest over "
                    f"{loop.var}: {reason}"
                )
            self.add(f"# vectorized: loop nest over {loop.var}", indent)
            for line in _Nest(self, loop).run():
                self.add(line, indent)
        self.vectorized += 1

    def top_statement(self, node: Node, indent: int) -> None:
        """A statement outside every loop."""
        if not isinstance(node, st.Statement):
            raise st.UnsupportedStatement(f"numpy lowering cannot print {node!r}")
        touched = node.names() & self.perms.keys()
        if isinstance(node, st.Alloc) and node.size is not None:
            dtype = "np.float64" if node.floating else "np.int64"
            size = self.scalar.expr(node.size)
            # max(0, n): a negative scalar repeat count yields an empty list.
            if node.fill.is_zero():
                text = f"np.zeros(max({size}, 0), dtype={dtype})"
            else:
                text = (
                    f"np.full(max({size}, 0), {self.scalar.expr(node.fill)}, "
                    f"dtype={dtype})"
                )
            self.add(f"{node.name} = {text}", indent)
            self.arrays.add(node.name)
        elif isinstance(node, st.ArrayCopy):
            self.add(f"{node.name} = {node.source}.copy()", indent)
            self.arrays.add(node.name)
        elif type(node) in _PERM_KINDS:
            self.perms[node.name] = _Perm(node)
            self.add(
                f"# {node.name}: vectorized {_PERM_KINDS[type(node)]}", indent
            )
        elif isinstance(node, st.Length) and touched:
            length = self.perms[node.obj].length
            if not length:
                raise st.UnsupportedStatement(
                    f"numpy lowering: {node!r} before the object's insert"
                )
            self.add(f"{node.name} = {length}", indent)
        elif isinstance(node, st.Materialize) and touched:
            self.add(f"# {node.name} already materialized as a sorted array",
                     indent)
        elif not touched:
            # No loop to vectorize: the scalar form runs on the arrays.
            self.add(self.scalar.statement(node), indent)
        else:
            raise st.UnsupportedStatement(
                f"numpy lowering cannot print {node!r} outside a loop"
            )
        self.mutated.add(node.target)


def emit_numpy_function(
    name: str,
    params: Sequence[str],
    program: Program,
    returns: Sequence[str],
    symtab: SymbolTable,
    *,
    timing: bool = False,
) -> Lowering:
    """Numpy-backend counterpart of :func:`.printers.emit_python_function`.

    Returns the function source plus the count of vectorized nests.  The
    emitted function expects the numpy execution namespace
    (``base_namespace("numpy")``) and returns numpy arrays (its native
    representation); materializing the containers' typed arrays is the
    caller's job (:meth:`repro.backends.Backend.materialize`).
    ``timing`` prints the deep-trace variant (:func:`.printers.timed`),
    which the nest counters do not count again.
    """
    emitter = _Emitter(symtab, params)
    lines = [f"def {name}({', '.join(params)}):"]
    for p in params:
        if p in symtab.arrays:
            conv = "ASARRAY_FLOAT" if p in symtab.floats else "ASARRAY_INT"
            lines.append(f"    {p} = {conv}({p})")
            emitter.arrays.add(p)
    for index, node in enumerate(program.body):
        start = len(emitter.lines)
        emitter.emit([node], 1)
        if timing:
            emitter.lines[start:] = timed(
                index, node, emitter.lines[start:], "    "
            )
    lines.extend(emitter.lines)
    # Return the backend's native representation (numpy arrays); callers
    # materialize typed arrays at the call boundary
    # (``SynthesizedConversion.__call__`` via ``Backend.materialize``).
    ret_items = ", ".join(f"{n!r}: {n}" for n in returns)
    lines.append(f"    return {{{ret_items}}}")
    if not timing:
        _VECTORIZED_NESTS.inc(emitter.vectorized)
    return Lowering(
        source="\n".join(lines) + "\n",
        vector_stats={"vectorized_nests": emitter.vectorized},
    )
