"""The replay pass: mark the rank lookups a lowering may serve by position.

A synthesized inspector fills a permutation object in one loop nest
(``P.insert(ii, jj)``) and reads ranks in later nests (``k = P(ii, jj)``).
When a lookup runs under the insert's loops and guards with the insert's
arguments, and nothing from the insert to the end of the lookup's nest
writes what that iteration reads, every pass of lookups visits the
inserted tuples in insertion order: the n-th lookup of a pass asks for the
rank of the n-th insert.  The numpy lowering then reads ranks from a
position vector (``k = __P_pos``) and the native C lowering from a rank
array (``rank[cursor++]``); neither hashes coordinates.

:func:`mark_rank_lookups` checks that fact once, between
:meth:`~repro.spf.Computation.lower` and the numpy and C printers, and
rewrites each lookup into a :class:`~repro.spf.ast_nodes.RankLookup`.  A
lookup that does not replay its insert raises
:class:`~repro.spf.statements.UnsupportedStatement` naming it.  The Python
printer does without: its ``OrderedList`` maps coordinates to ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.ir import Expr, UFCall
from . import statements as st
from .ast_nodes import ForLoop, Guard, LetEq, Node, Program, RankLookup, walk

#: Objects whose lookups are ranks (ordered sets are read as arrays).
_RANKED = (st.NewOrderedList, st.NewBucketPermutation)


@dataclass(frozen=True)
class _Site:
    """Where an insert or a lookup runs."""

    nest: int  # index of its top-level nest
    path: tuple  # canonical enclosing loops and guards
    args: tuple  # canonical arguments
    reads: frozenset  # every name the iteration and arguments read


def _names(exprs) -> set[str]:
    out: set[str] = set()
    for e in exprs:
        out |= e.var_names() | e.sym_names() | e.uf_names()
    return out


def _lookup_call(node: Node, objects) -> UFCall | None:
    """The permutation call of a whole-expression lookup ``k = P(...)``."""
    if not isinstance(node, LetEq):
        return None
    expr = node.expr
    if expr.const or len(expr.terms) != 1 or expr.terms[0][1] != 1:
        return None
    atom = expr.terms[0][0]
    return atom if isinstance(atom, UFCall) and atom.name in objects else None


class _Scan:
    """One program-order walk recording inserts, lookups and writes."""

    def __init__(self, objects: set[str]):
        self.objects = objects
        self.inserts: dict[str, list[_Site]] = {}
        self.lookups: list[tuple[list, int, UFCall, _Site]] = []
        self.writes: list[tuple[int, str]] = []  # (nest, target)
        self.nest = -1

    def top(self, nodes: Sequence[Node]) -> None:
        for node in nodes:
            if isinstance(node, Guard):  # a symbol-only preguard
                self.top(node.body)
            else:
                self.nest += 1
                self.visit([node], (), {}, frozenset())

    def site(self, args, path, lets: Mapping[str, Expr], reads) -> _Site:
        canon = tuple(a.substitute_vars(lets) for a in args)
        return _Site(self.nest, path, canon, reads | _names(canon))

    def visit(self, body: list, path: tuple, lets: dict, reads) -> None:
        lets = dict(lets)
        for index, node in enumerate(body):
            if isinstance(node, ForLoop):
                lowers = [e.substitute_vars(lets) for e in node.lowers]
                uppers = [e.substitute_vars(lets) for e in node.uppers]
                entry = ("loop", node.var, tuple(sorted(map(str, lowers))),
                         tuple(sorted(map(str, uppers))))
                self.visit(node.body, path + (entry,), lets,
                           reads | _names(lowers + uppers))
            elif isinstance(node, Guard):
                conds = [c.substitute_vars(lets) for c in node.constraints]
                entry = ("guard", tuple(sorted(map(str, conds))))
                self.visit(node.body, path + (entry,), lets,
                           reads | _names(c.expr for c in conds))
            elif isinstance(node, LetEq):
                call = _lookup_call(node, self.objects)
                if call is not None:
                    site = self.site(call.args, path, lets, reads)
                    self.lookups.append((body, index, call, site))
                else:
                    lets[node.var] = node.expr.substitute_vars(lets)
            elif isinstance(node, st.Statement):
                self.writes.append((self.nest, node.target))
                if isinstance(node, st.Insert) and node.obj in self.objects:
                    self.inserts.setdefault(node.obj, []).append(
                        self.site(node.args, path, lets, reads)
                    )


def mark_rank_lookups(program: Program) -> Program:
    """Rewrite every rank lookup of ``program`` into a :class:`RankLookup`.

    Mutates and returns ``program``, a fresh
    :meth:`~repro.spf.Computation.lower` result.  Raises
    :class:`~repro.spf.statements.UnsupportedStatement` for a lookup that
    does not replay the one insert into its object.
    """
    objects = {n.name for n in walk(program) if isinstance(n, _RANKED)}
    scan = _Scan(objects)
    scan.top(program.body)
    for body, index, call, site in scan.lookups:
        node = body[index]
        inserts = scan.inserts.get(call.name, [])
        why = None
        if len(inserts) != 1:
            why = f"{len(inserts)} inserts into {call.name}"
        elif inserts[0].nest >= site.nest:
            why = "it does not follow the insert's nest"
        elif (site.path, site.args) != (inserts[0].path, inserts[0].args):
            why = "it does not replay the insert's loops, guards and arguments"
        else:
            written = {
                target for nest, target in scan.writes
                if inserts[0].nest <= nest <= site.nest
            } & inserts[0].reads
            if written:
                why = f"{', '.join(sorted(written))} changes between them"
        if why is not None:
            raise st.UnsupportedStatement(
                f"rank lookup {node.var} = {node.expr}: {why}"
            )
        body[index] = RankLookup(node.var, node.expr)
    return program
