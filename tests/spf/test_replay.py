"""The replay pass: which rank lookups a lowering may serve by position.

A lookup ``k = P(args)`` is marked a :class:`RankLookup` only when it runs
in a later nest under the one insert's loops and guards, with the
insert's arguments, and nothing from the insert to the end of the
lookup's nest writes what that iteration reads.  Anything else raises
``UnsupportedStatement`` naming the lookup, on the numpy and C tiers;
the python tier never runs the pass.
"""

import pytest

from repro.backends import get_backend
from repro.ir import Geq, IntSet, Sym, UFCall, Var
from repro.spf import Computation, SymbolTable, walk
from repro.spf import statements as st
from repro.spf.ast_nodes import ForLoop, Guard, LetEq, Program, RankLookup
from repro.spf.codegen.c_emit import emit_c
from repro.spf.replay import mark_rank_lookups

from tests.sweep import synthesized

NNZ = Sym("NNZ")
n, k = Var("n"), Var("k")


def at(array, index):
    return UFCall(array, [index])


def _decl():
    return st.NewOrderedList("P", ("i", "j"), (Var("j"), Var("i")))


def _insert_nest(*body_before):
    return ForLoop("n", [0], [NNZ - 1], [
        *body_before,
        LetEq("ii", at("r", n)),
        st.Insert("P", (Var("ii"), at("c", n))),
    ])


def _lookup_nest(args=None, guard=None):
    args = args or [at("r", n), at("c", n)]
    body = [LetEq("k", UFCall("P", args)), st.Scatter("out", (k,), n)]
    if guard is not None:
        body = [Guard([guard], body)]
    return ForLoop("n", [0], [NNZ - 1], body)


def _marks(program):
    return [node for node in walk(program) if isinstance(node, RankLookup)]


def test_replayed_lookup_is_marked():
    # The insert binds `ii = r(n)` first; canonical arguments see through
    # the let, so the lookup's `P(r(n), c(n))` replays `P.insert(ii, c(n))`.
    program = mark_rank_lookups(
        Program([_decl(), _insert_nest(), _lookup_nest()])
    )
    (mark,) = _marks(program)
    assert (mark.var, mark.obj) == ("k", "P")
    assert isinstance(mark, LetEq)  # prints like the binding it replaces


@pytest.mark.parametrize("program,why", [
    (Program([_decl(), _insert_nest(),
              _lookup_nest(guard=Geq(at("r", n) - 1))]),
     "does not replay the insert's loops, guards and arguments"),
    (Program([_decl(), _insert_nest(),
              _lookup_nest(args=[at("c", n), at("r", n)])]),
     "does not replay the insert's loops, guards and arguments"),
    (Program([_decl(), _lookup_nest(), _insert_nest()]),
     "does not follow the insert's nest"),
    (Program([_decl(), _insert_nest(), _insert_nest(), _lookup_nest()]),
     "2 inserts into P"),
    (Program([_decl(), _insert_nest(),
              st.Alloc("r", NNZ), _lookup_nest()]),
     "r changes between them"),
    (Program([_decl(), _insert_nest(st.Scatter("c", (n,), 0)),
              _lookup_nest()]),
     "c changes between them"),
], ids=["guard", "arguments", "before-insert", "two-inserts",
        "realloc-between", "written-in-insert-nest"])
def test_lookup_that_does_not_replay_is_rejected_by_name(program, why):
    with pytest.raises(st.UnsupportedStatement) as err:
        mark_rank_lookups(program)
    assert str(err.value).startswith("rank lookup k = P(")
    assert why in str(err.value)


def test_numpy_and_c_reject_what_python_runs():
    comp = Computation("skewed")
    comp.new_stmt(_decl(), IntSet(()))
    comp.new_stmt(st.Insert("P", (at("r", n), at("c", n))),
                  "{[n] : 0 <= n < NNZ}")
    comp.new_stmt(st.Alloc("out", NNZ), IntSet(()))
    comp.new_stmt(st.Scatter("out", (k,), n),
                  "{[n, k] : 0 <= n < NNZ && k = P(c(n), r(n))}")
    symtab = SymbolTable(arrays={"r", "c", "out"}, objects={"P"})
    params = ["r", "c", "NNZ"]
    python = get_backend("python").lower(
        comp.lower(), comp.name, params, ["out"], symtab
    ).source
    assert "k = P(c[n], r[n])" in python
    with pytest.raises(st.UnsupportedStatement, match=r"rank lookup k = P"):
        get_backend("numpy").lower(
            comp.lower(), comp.name, params, ["out"], symtab
        )
    with pytest.raises(st.UnsupportedStatement, match=r"rank lookup k = P"):
        emit_c(comp.lower(), comp.name, params, ["out"], symtab)


def test_sweep_marks_every_lookup():
    # Every rank lookup synthesis emits replays its insert, and the plain
    # lowering the python tier prints carries no marks.
    lookups = 0
    for label, conversion in synthesized("python"):
        comp = conversion.computation
        assert not _marks(comp.lower()), label
        lookups += len(_marks(mark_rank_lookups(comp.lower())))
    assert lookups > 0


@pytest.mark.parametrize("backend", ["numpy", "c"])
def test_stored_program_survives_marking(backend):
    # The numpy and C lowerings mark the conversion's stored program in
    # place: it still prints what an unmarked lowering prints, and marking
    # it again changes nothing a printer emits.
    from repro.spf import emit_python_function
    from repro.spf.codegen.c_emit import emit_c

    for label, conv in synthesized(backend):
        fresh, symtab = conv.computation.lower(), conv.symtab
        assert emit_python_function(
            conv.name, conv.params, conv.program, conv.returns, symtab
        ) == emit_python_function(
            conv.name, conv.params, fresh, conv.returns, symtab
        ), label
        assert conv.c_source == emit_c(
            fresh, conv.name, conv.params, conv.returns, symtab
        ).listing, label
        relowered = get_backend(backend).lower(
            conv.program, conv.name, conv.params, conv.returns, conv.symtab
        )
        assert relowered.source == conv.source, label
