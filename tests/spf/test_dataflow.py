"""Tests for the dataflow graph: its DOT export and the dead spaces
dead code elimination finds in it."""

from repro.ir import Sym, UFCall, Var
from repro.spf import Computation, dataflow_dot
from repro.spf import statements as st
from repro.spf.transforms import dead_code_elimination

i = Var("i")


def sample():
    comp = Computation("demo")
    comp.new_stmt(st.Scatter("t", (i,), i), "{[i] : 0 <= i < N}")
    comp.new_stmt(st.Scatter("out", (i,), UFCall("t", [i])),
                  "{[i] : 0 <= i < N}")
    comp.new_stmt(st.Scatter("junk", (i,), i), "{[i] : 0 <= i < N}")
    return comp


def dead_writes(comp, live_out) -> set[str]:
    """What the statements dead code elimination removes wrote."""
    removed = dead_code_elimination(comp, live_out)
    return {name for stmt in removed for name in stmt.writes}


class TestDot:
    def test_valid_digraph(self):
        dot = dataflow_dot(sample(), live_out=["out"])
        assert dot.startswith('digraph "demo" {')
        assert dot.rstrip().endswith("}")

    def test_statement_nodes_present(self):
        dot = dataflow_dot(sample())
        for name in ("S0", "S1", "S2"):
            assert f'"{name}"' in dot

    def test_read_write_edges(self):
        dot = dataflow_dot(sample())
        assert '"S0" -> "ds_t";' in dot
        assert '"ds_t" -> "S1";' in dot
        assert '"S1" -> "ds_out";' in dot

    def test_live_out_highlighted(self):
        dot = dataflow_dot(sample(), live_out=["out"])
        assert 'fillcolor=lightgray' in dot

    def test_long_labels_truncated(self):
        comp = Computation()
        size = sum((Sym(f"N{k}") for k in range(50)), 0)
        comp.new_stmt(st.Alloc("x", size), "{[]}")
        dot = dataflow_dot(comp, max_label=30)
        assert "..." in dot

    def test_quotes_escaped(self):
        comp = Computation('say "hi"')
        comp.new_stmt(st.Alloc("s", 1), "{[]}")
        dot = dataflow_dot(comp)
        assert '\\"hi\\"' in dot


class TestDeadSpaces:
    def test_junk_detected(self):
        assert dead_writes(sample(), ["out"]) == {"junk"}

    def test_everything_live(self):
        assert dead_writes(sample(), ["out", "junk"]) == set()

    def test_synthesized_conversion_has_no_dead_spaces(self):
        from repro import get_format
        from repro.synthesis import synthesize

        # An optimized computation already went through DCE; a second
        # pass over its derived dataflow finds nothing left to remove.
        # SCOO->CSC fills positions through a BucketFill, COO->DIA
        # searches with a BinarySearch.
        for src, dst, bsearch in [("SCOO", "CSR", False),
                                  ("SCOO", "CSC", False),
                                  ("COO", "DIA", True)]:
            conv = synthesize(get_format(src), get_format(dst),
                              binary_search=bsearch)
            comp = Computation(conv.computation.name)
            comp.replace_stmts(conv.computation.stmts)
            assert dead_code_elimination(comp, conv.returns) == [], src
