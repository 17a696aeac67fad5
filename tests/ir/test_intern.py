"""Invariants of the hash-consed (interned) IR terms.

Interning is an optimization, never a semantic requirement: these tests
pin down the invariants the memo layers rely on — canonicalization makes
algebraically equal affine expressions *identical*, parsed and
programmatically built terms agree on hash/equality, and the intern
tables behave under concurrent construction.
"""

import pickle
import threading

import pytest

from repro.ir import Eq, Geq
from repro.ir.parser import parse_relation, parse_set
from repro.ir.terms import Expr, FloorDiv, Mod, Mul, Sym, UFCall, Var


class TestCanonicalization:
    def test_add_sub_roundtrip_is_identity(self):
        a = Var("i") + 2 * Var("j") + 3
        b = Var("k") - Sym("NR")
        assert (a + b) - b == a

    def test_roundtrip_is_same_object_when_interned(self):
        a = Var("i") + 2 * Var("j") + 3
        b = Var("k") - Sym("NR")
        assert ((a + b) - b) is a

    def test_term_order_does_not_matter(self):
        x, y = Var("x"), Var("y")
        assert x + y == y + x
        assert Expr(terms=((x, 1), (y, 2))) == Expr(terms=((y, 2), (x, 1)))

    def test_zero_coefficients_dropped(self):
        x = Var("x")
        assert (x - x) == Expr(0)
        assert Expr(terms=((x, 0),)) == Expr(0)

    def test_distribution_over_scalar(self):
        e = Var("i") + 2 * Var("j") + 3
        assert 2 * e == e + e

    def test_uf_args_normalized(self):
        i = Var("i")
        assert UFCall("rowptr", [i + 1 - 1]) == UFCall("rowptr", [i])


class TestInternedVsParsed:
    """Terms built via the parser and via the API must be interchangeable."""

    def test_parsed_set_equals_programmatic(self):
        s1 = parse_set("{[i] : 0 <= i < N}")
        s2 = parse_set("{[i] : 0 <= i < N}")
        assert s1 == s2
        assert hash(s1.conjunctions[0]) == hash(s2.conjunctions[0])

    def test_parsed_relation_constraints_interned(self):
        r1 = parse_relation("{[i] -> [j] : j = col(i)}")
        r2 = parse_relation("{[i] -> [j] : j = col(i)}")
        c1 = r1.conjunctions[0].constraints[0]
        c2 = r2.conjunctions[0].constraints[0]
        assert c1 == c2 and hash(c1) == hash(c2)
        assert c1.expr is c2.expr

    def test_parsed_expr_is_interned_instance(self):
        rel = parse_relation("{[i] -> [j] : j = col(i) + 1}")
        expr = rel.conjunctions[0].constraints[0].expr
        rebuilt = Expr(
            const=expr.const, terms=tuple(expr.terms)
        )
        assert rebuilt is expr

    def test_hash_equal_across_atom_kinds(self):
        # Var/Sym with the same name must stay distinct.
        assert Var("N") != Sym("N")
        assert hash(Var("N")) != hash(Sym("N"))

    def test_opaque_atoms_intern(self):
        assert Mul(Sym("NR"), Var("i")) is Mul(Sym("NR"), Var("i"))
        assert Mod(Var("i") + 1, 4) is Mod(Var("i") + 1, 4)


class TestThreadSafety:
    """Concurrent construction must yield consistent, equal terms.

    dict.setdefault makes the intern tables race-free; a loser thread gets
    the winner's instance.  Synthesis via threads exercises the memo
    tables too (results are interned, so racing stores write the same
    value).
    """

    def test_concurrent_interning_single_winner(self):
        results: list[Expr] = []
        barrier = threading.Barrier(8)

        def build():
            barrier.wait()
            e = Var("t0") + 3 * Var("t1") + UFCall("uf_ts", [Var("t0")])
            results.append(e)

        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8
        first = results[0]
        assert all(e == first for e in results)
        assert all(e is first for e in results)

    def test_concurrent_synthesis(self):
        from repro.formats import get_format
        from repro.synthesis import synthesize

        sources: dict[str, str] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(4)

        def work(tag):
            try:
                barrier.wait()
                conv = synthesize(get_format("COO"), get_format("CSR"))
                sources[tag] = conv.source
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(set(sources.values())) == 1


class TestPickling:
    """Disk-cache entries pickle lowered programs over interned terms."""

    @pytest.mark.parametrize("build", [
        lambda: Var("i").as_expr(),
        lambda: Sym("NR").as_expr(),
        lambda: UFCall("rowptr", [Var("i") + 1]).as_expr(),
        lambda: Mul(Sym("ND"), Var("ii")).as_expr(),
        lambda: FloorDiv(Var("i"), 2).as_expr(),
        lambda: Mod(Var("i"), 3).as_expr(),
    ], ids=["Var", "Sym", "UFCall", "Mul", "FloorDiv", "Mod"])
    def test_expressions_unpickle_to_the_interned_instance(self, build):
        expr = build()
        loaded = pickle.loads(pickle.dumps(expr))
        assert loaded is expr
        assert loaded.terms[0][0] is expr.terms[0][0]

    @pytest.mark.parametrize("kind", [Eq, Geq])
    def test_constraints_rebuild_over_the_interned_expression(self, kind):
        constraint = kind(UFCall("rowptr", [Var("i")]) - Var("k") + 1)
        loaded = pickle.loads(pickle.dumps(constraint))
        assert type(loaded) is kind
        assert loaded == constraint
        assert loaded.expr is constraint.expr
