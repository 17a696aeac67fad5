"""The SPF internal representation: statements, schedules, computations.

This module reproduces the SPF-IR of Popoola et al. (COMPSAC 2021) that the
paper's synthesis algorithm targets: a :class:`Computation` owns a list of
:class:`Stmt` objects, each with an iteration space (an
:class:`~repro.ir.IntSet` with uninterpreted functions), a ``2d+1`` execution
schedule, a typed statement body (:mod:`repro.spf.statements`), and
read/write data accesses.  :meth:`Computation.lower` scans the iteration
spaces Fourier–Motzkin style into one :class:`~repro.spf.Program`, which
every printer — each backend's ``lower`` hook — prints.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from repro.ir import Constraint, Expr, Geq, IntSet, bounds_on_var, parse_set
from .ast_nodes import ForLoop, Guard, LetEq, Node, Program
from .codegen.printers import RUNTIME_FUNCTIONS, PythonPrinter, SymbolTable
from .statements import Statement


class Schedule:
    """A ``2d+1`` execution schedule: ``[s0, v1, s1, ..., vd, sd]``.

    Static positions (ints) order statements relative to each other; dynamic
    positions name the statement's loop variables in nesting order.  Two
    statements share a loop level exactly when their schedules agree on every
    earlier position and the loop descriptors match.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[int | str]):
        entries = tuple(entries)
        if len(entries) % 2 == 0:
            raise ValueError(f"schedule must have odd length (2d+1): {entries}")
        for index, entry in enumerate(entries):
            if index % 2 == 0 and not isinstance(entry, int):
                raise ValueError(f"position {index} must be a static int: {entries}")
            if index % 2 == 1 and not isinstance(entry, str):
                raise ValueError(f"position {index} must be a loop var: {entries}")
        self.entries = entries

    @classmethod
    def default(cls, statement_index: int, loop_vars: Sequence[str]) -> "Schedule":
        entries: list[int | str] = [statement_index]
        for var in loop_vars:
            entries.extend([var, 0])
        return cls(entries)

    @property
    def depth(self) -> int:
        return len(self.entries) // 2

    def static_at(self, level: int) -> int:
        """The static coordinate before loop level ``level`` (0-based)."""
        return self.entries[2 * level]  # type: ignore[return-value]

    def loop_var_at(self, level: int) -> str:
        return self.entries[2 * level + 1]  # type: ignore[return-value]

    def with_static(self, level: int, value: int) -> "Schedule":
        entries = list(self.entries)
        entries[2 * level] = value
        return Schedule(entries)

    def rename_loop_vars(self, mapping: Mapping[str, str]) -> "Schedule":
        entries = [
            mapping.get(e, e) if isinstance(e, str) else e for e in self.entries
        ]
        return Schedule(entries)

    def __eq__(self, other):
        return isinstance(other, Schedule) and other.entries == self.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Schedule({list(self.entries)!r})"

    def __str__(self):
        return "[" + ", ".join(str(e) for e in self.entries) + "]"


class Stmt:
    """One statement: body + iteration space + schedule + accesses.

    ``body`` is a typed statement (:mod:`repro.spf.statements`); anything
    else, statement text included, raises :class:`TypeError`.  ``reads``
    and ``writes`` name the data spaces the statement touches; the
    transformations (dead code elimination, fusion legality) work on
    these.
    """

    def __init__(
        self,
        body: Statement,
        iteration_space: IntSet | str,
        schedule: Schedule | Sequence[int | str] | None = None,
        reads: Iterable[str] = (),
        writes: Iterable[str] = (),
        name: str = "",
        phase: int = 0,
    ):
        if not isinstance(body, Statement):
            raise TypeError(
                f"a statement body is a typed statement, not {body!r}"
            )
        if isinstance(iteration_space, str):
            iteration_space = parse_set(iteration_space)
        if schedule is not None and not isinstance(schedule, Schedule):
            schedule = Schedule(schedule)
        if schedule is not None and schedule.depth != iteration_space.arity:
            raise ValueError(
                f"schedule depth {schedule.depth} != iteration space arity "
                f"{iteration_space.arity}"
            )
        if schedule is not None:
            for level in range(schedule.depth):
                if schedule.loop_var_at(level) != iteration_space.tuple_vars[level]:
                    raise ValueError(
                        "schedule loop vars must match iteration space tuple: "
                        f"{schedule} vs {iteration_space.tuple_vars}"
                    )
        self.body = body
        self.space = iteration_space
        self.schedule = schedule
        self.reads = tuple(reads)
        self.writes = tuple(writes)
        self.name = name
        self.phase = phase

    @property
    def text(self) -> str:
        """The body's Python form."""
        return PythonPrinter(_DISPLAY_SYMTAB).statement(self.body)

    def with_schedule(self, schedule: Schedule | Sequence[int | str]) -> "Stmt":
        return Stmt(self.body, self.space, schedule, self.reads, self.writes,
                    self.name, self.phase)

    def rename_tuple_vars(self, mapping: Mapping[str, str]) -> "Stmt":
        """Rename tuple variables simultaneously in space, schedule and body."""
        new_space = self.space.with_tuple_vars(
            [mapping.get(v, v) for v in self.space.tuple_vars]
        )
        new_schedule = (
            self.schedule.rename_loop_vars(mapping) if self.schedule else None
        )
        return Stmt(
            self.body.rename_vars(mapping),
            new_space,
            new_schedule,
            self.reads,
            self.writes,
            self.name,
            self.phase,
        )

    def __repr__(self):
        return f"Stmt({self.name or self.text!r}, {self.space})"


#: Renders :attr:`Stmt.text` outside any conversion's symbol table.
_DISPLAY_SYMTAB = SymbolTable(functions=RUNTIME_FUNCTIONS)


class LoweringError(ValueError):
    """Raised when an iteration space cannot be scanned into loops."""


class _Level:
    """One binding level of a lowered statement: a loop or a let + guards."""

    __slots__ = ("kind", "var", "lowers", "uppers", "expr", "guards")

    def __init__(self, kind, var, lowers=(), uppers=(), expr=None, guards=()):
        self.kind = kind  # "loop" | "let"
        self.var = var
        self.lowers = list(lowers)
        self.uppers = list(uppers)
        self.expr = expr
        self.guards = list(guards)

    def key(self) -> tuple:
        guard_key = tuple(sorted(str(g) for g in self.guards))
        if self.kind == "loop":
            return (
                "loop",
                self.var,
                tuple(sorted(map(str, self.lowers))),
                tuple(sorted(map(str, self.uppers))),
                guard_key,
            )
        return ("let", self.var, str(self.expr), guard_key)


def _lower_levels(stmt: Stmt) -> tuple[list[Constraint], list[_Level]]:
    """Scan a statement's iteration space into binding levels.

    Returns ``(preguards, levels)`` where preguards are constraints over
    symbolic constants only (checkable before any loop).
    """
    conj = stmt.space.single_conjunction
    tuple_vars = stmt.space.tuple_vars
    remaining = list(conj.constraints)
    bound: set[str] = set()
    levels: list[_Level] = []

    def usable(expr_vars: set[str], extra: set[str] = frozenset()) -> bool:
        return expr_vars <= (bound | extra)

    preguards = [c for c in remaining if usable(c.var_names())]
    remaining = [c for c in remaining if c not in preguards]

    for var in tuple_vars:
        definition = None
        def_constraint = None
        lowers: list[Expr] = []
        uppers: list[Expr] = []
        consumed: list[Constraint] = []
        for c in remaining:
            if not c.mentions_var(var):
                continue
            kind, expr = bounds_on_var(c, var)
            if expr is None or not usable(expr.var_names()):
                continue
            if kind == "eq" and definition is None:
                definition = expr
                consumed.append(c)
            elif kind == "lower":
                lowers.append(expr)
                consumed.append(c)
            elif kind == "upper":
                uppers.append(expr)
                consumed.append(c)
        remaining = [c for c in remaining if c not in consumed]
        bound.add(var)
        guards = [c for c in remaining if usable(c.var_names())]
        remaining = [c for c in remaining if c not in guards]
        if definition is not None:
            # Surviving bounds on a let-defined var become guards too.
            extra_guards = []
            for lo in lowers:
                extra_guards.append(Geq(definition - lo))
            for hi in uppers:
                extra_guards.append(Geq(hi - definition))
            levels.append(
                _Level("let", var, expr=definition, guards=extra_guards + guards)
            )
        else:
            if not lowers or not uppers:
                raise LoweringError(
                    f"cannot scan {var!r} in {stmt.space}: missing "
                    f"{'lower' if not lowers else 'upper'} bound"
                )
            levels.append(
                _Level("loop", var, lowers=lowers, uppers=uppers, guards=guards)
            )

    if remaining:
        raise LoweringError(
            f"constraints left unplaced while lowering {stmt.space}: "
            f"{[str(c) for c in remaining]}"
        )
    return preguards, levels


class _Item:
    __slots__ = ("stmt", "levels", "preguards")

    def __init__(self, stmt: Stmt, preguards, levels):
        self.stmt = stmt
        self.levels = levels
        self.preguards = preguards


def _emit(items: list[_Item], depth: int) -> list[Node]:
    """Recursively emit fused loop nests for statements grouped by schedule."""
    nodes: list[Node] = []

    def static_of(item: _Item) -> int:
        sched = item.stmt.schedule
        assert sched is not None and depth <= sched.depth
        return sched.static_at(depth)

    ordered = sorted(items, key=static_of)
    for _, group_iter in itertools.groupby(ordered, key=static_of):
        group = list(group_iter)
        enders = [it for it in group if len(it.levels) == depth]
        conts = [it for it in group if len(it.levels) > depth]
        for item in enders:
            nodes.append(item.stmt.body)
        if not conts:
            continue
        keys = {it.levels[depth].key() for it in conts}
        if len(keys) != 1:
            raise LoweringError(
                "statements scheduled into the same loop level have "
                f"incompatible descriptors: {sorted(keys)}"
            )
        level = conts[0].levels[depth]
        inner = _emit(conts, depth + 1)
        if level.guards:
            inner = [Guard(level.guards, inner)]
        if level.kind == "loop":
            nodes.append(ForLoop(level.var, level.lowers, level.uppers, inner))
        else:
            nodes.append(LetEq(level.var, level.expr))
            nodes.extend(inner)
    return nodes


def _names_used(node: Node) -> set[str]:
    """Identifier names a lowered node (and its subtree) references."""
    names: set[str] = set()
    if isinstance(node, ForLoop):
        for bound in node.lowers + node.uppers:
            names |= bound.var_names() | bound.sym_names()
        for child in node.body:
            names |= _names_used(child)
    elif isinstance(node, LetEq):
        names |= node.expr.var_names() | node.expr.sym_names()
    elif isinstance(node, Guard):
        for c in node.constraints:
            names |= c.var_names() | c.sym_names()
        for child in node.body:
            names |= _names_used(child)
    elif isinstance(node, Statement):
        names |= node.names()
    elif isinstance(node, Program):
        for child in node.body:
            names |= _names_used(child)
    return names


def _prune_dead_lets(node: Node) -> None:
    """Remove ``LetEq`` bindings whose variable is never used downstream.

    Statement iteration spaces routinely carry tuple variables (like the
    redundant dense coordinates ``ii = row1[n]``) that the statement body
    does not reference; dropping the bindings keeps generated inner loops
    lean without changing semantics.
    """
    body = getattr(node, "body", None)
    if body is None:
        return
    kept: list[Node] = []
    for index, child in enumerate(body):
        _prune_dead_lets(child)
        if isinstance(child, LetEq):
            rest_names: set[str] = set()
            for later in body[index + 1 :]:
                rest_names |= _names_used(later)
            if child.var not in rest_names:
                continue
        kept.append(child)
    body[:] = kept


class Computation:
    """An ordered collection of statements plus code generation.

    Mirrors the SPF-IR ``Computation`` class: statements are added in
    program order, transformations rewrite schedules/spaces, and
    :meth:`lower` builds the program every printer prints
    (:meth:`codegen` prints its Python statements).
    """

    def __init__(self, name: str = "computation"):
        self.name = name
        self.stmts: list[Stmt] = []
        self._counter = 0

    def add_stmt(self, stmt: Stmt) -> Stmt:
        if stmt.schedule is None:
            stmt = stmt.with_schedule(
                Schedule.default(len(self.stmts), stmt.space.tuple_vars)
            )
        if not stmt.name:
            stmt.name = f"S{self._counter}"
        self._counter += 1
        self.stmts.append(stmt)
        return stmt

    def new_stmt(
        self,
        body: Statement,
        iteration_space: IntSet | str,
        reads: Iterable[str] = (),
        writes: Iterable[str] = (),
        phase: int = 0,
    ) -> Stmt:
        """Create, register, and return a statement with a default schedule."""
        return self.add_stmt(
            Stmt(body, iteration_space, None, reads, writes, phase=phase)
        )

    def replace_stmts(self, stmts: Sequence[Stmt]) -> None:
        self.stmts = list(stmts)

    # ------------------------------------------------------------------
    def data_spaces(self) -> dict[str, dict[str, list[str]]]:
        """Map data space name -> {'readers': [...], 'writers': [...]}."""
        spaces: dict[str, dict[str, list[str]]] = {}
        for stmt in self.stmts:
            for name in stmt.reads:
                spaces.setdefault(name, {"readers": [], "writers": []})[
                    "readers"
                ].append(stmt.name)
            for name in stmt.writes:
                spaces.setdefault(name, {"readers": [], "writers": []})[
                    "writers"
                ].append(stmt.name)
        return spaces

    # ------------------------------------------------------------------
    def lower(self) -> Program:
        """Lower all statements to the fused AST."""
        items = []
        preguard_all: list[Constraint] = []
        for stmt in self.stmts:
            if stmt.schedule is None:
                raise LoweringError(f"statement {stmt.name} has no schedule")
            preguards, levels = _lower_levels(stmt)
            items.append(_Item(stmt, preguards, levels))
        body = _emit(items, 0)
        program_body: list[Node] = []
        # Pre-loop guards wrap the statement's whole nest; with the flat
        # emission above we conservatively emit them as a top-level guard
        # only when every statement shares them.
        shared = None
        for item in items:
            sig = tuple(sorted(str(c) for c in item.preguards))
            shared = sig if shared is None else shared
            if sig != shared:
                raise LoweringError(
                    "differing symbol-only guards between statements are "
                    "not supported"
                )
        if items and items[0].preguards:
            program_body.append(Guard(items[0].preguards, body))
        else:
            program_body.extend(body)
        program = Program(program_body)
        _prune_dead_lets(program)
        return program

    # ------------------------------------------------------------------
    def codegen(self, symtab: SymbolTable | None = None) -> str:
        """The lowered computation as Python statements (no function)."""
        return PythonPrinter(symtab or SymbolTable()).print(self.lower())

    def __repr__(self):
        return f"Computation({self.name!r}, {len(self.stmts)} stmts)"
