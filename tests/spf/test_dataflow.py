"""Tests for the dataflow-graph (DOT) export."""

from repro.ir import Sym, UFCall, Var
from repro.spf import Computation, dataflow_dot, dead_spaces
from repro.spf import statements as st

i = Var("i")


def sample():
    comp = Computation("demo")
    comp.new_stmt(st.Scatter("t", (i,), i), "{[i] : 0 <= i < N}",
                  writes=["t"])
    comp.new_stmt(st.Scatter("out", (i,), UFCall("t", [i])),
                  "{[i] : 0 <= i < N}", reads=["t"], writes=["out"])
    comp.new_stmt(st.Scatter("junk", (i,), i), "{[i] : 0 <= i < N}",
                  writes=["junk"])
    return comp


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
        comp.new_stmt(st.Alloc("x", size), "{[]}", writes=["x"])
        dot = dataflow_dot(comp, max_label=30)
        assert "..." in dot

    def test_quotes_escaped(self):
        comp = Computation('say "hi"')
        comp.new_stmt(st.Alloc("s", 1), "{[]}", writes=["s"])
        dot = dataflow_dot(comp)
        assert '\\"hi\\"' in dot


class TestDeadSpaces:
    def test_junk_detected(self):
        assert dead_spaces(sample(), ["out"]) == {"junk"}

    def test_everything_live(self):
        assert dead_spaces(sample(), ["out", "junk"]) == set()

    def test_synthesized_conversion_has_no_dead_spaces(self):
        from repro import get_format
        from repro.synthesis import synthesize

        conv = synthesize(get_format("SCOO"), get_format("CSR"))
        # After DCE the remaining graph must be fully live.
        dead = dead_spaces(conv.computation, conv.returns)
        # Source arrays are inputs, not produced, so exclude them.
        produced = {
            w for s in conv.computation.stmts for w in s.writes
        }
        assert not (dead & produced)
