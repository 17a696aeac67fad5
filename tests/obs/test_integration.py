"""End-to-end tracing through convert / planner / fuzzer, and metric pins."""

import pytest

import repro
import repro.obs as obs
from repro.obs import TRACER


@pytest.fixture(autouse=True)
def clean_tracer():
    TRACER.disable()
    TRACER.clear()
    yield
    TRACER.disable()
    TRACER.clear()


def _sample_coo():
    return repro.COOMatrix.from_dense(
        [
            [0.0, 1.0, 2.0],
            [3.0, 0.0, 0.0],
            [0.0, 4.0, 5.0],
        ]
    )


def _find(root, name):
    return [s for s in root.walk() if s.name == name]


@pytest.fixture()
def fresh_synthesis():
    """Force a real synthesis: no memo entry."""
    repro.synthesis.cache.clear_memo()
    yield
    repro.synthesis.cache.clear_memo()


class TestTracedConvert:
    def test_trace_knob_records_the_acceptance_span_tree(
        self, fresh_synthesis
    ):
        # The acceptance shape: the conversion trace covers synthesis
        # phases (case match, compose, optimize, lower) and runtime
        # execution with per-statement children.
        csr = repro.convert(_sample_coo(), "CSR", trace=True)
        assert csr.rowptr.tolist() == [0, 2, 3, 5]
        roots = TRACER.finished_roots()
        assert [r.name for r in roots] == ["convert"]
        root = roots[0]
        for phase in (
            "synthesize",
            "synthesis.compose",
            "synthesis.case_match",
            "synthesis.build",
            "synthesis.optimize",
            "synthesis.lower",
            "execute",
            "validate.input",
            "pack_outputs",
        ):
            assert _find(root, phase), f"missing span {phase}"
        execute = _find(root, "execute")[0]
        stmt_children = [
            c for c in execute.children if c.category == "execute.stmt"
        ]
        assert stmt_children, "execute span has no per-statement children"
        assert all("index" in c.attrs for c in stmt_children)
        assert execute.attrs["nnz"] == 5
        assert execute.attrs["conversion"] == "scoo_to_csr"

    def test_optimize_span_pins_statement_elimination(
        self, fresh_synthesis
    ):
        # SCOO→CSR is the paper's flagship example: the optimizer removes
        # the two self-copy statements (9 → 7).  COO→CSR (the sorting
        # descriptor) keeps all 9.  These counts are part of the repro's
        # contract; a synthesis change that shifts them must be deliberate.
        with TRACER.forced(True):
            repro.get_conversion("SCOO", "CSR", optimize=True)
        optimize = None
        for root in TRACER.finished_roots():
            found = _find(root, "synthesis.optimize")
            if found:
                optimize = found[0]
        assert optimize is not None
        assert optimize.attrs == {
            "stmts_before": 9,
            "stmts_after": 7,
            "eliminated": 2,
        }

    def test_coo_to_csr_optimize_eliminates_nothing(self, fresh_synthesis):
        with TRACER.forced(True):
            repro.get_conversion("COO", "CSR", optimize=True)
        optimize = None
        for root in TRACER.finished_roots():
            found = _find(root, "synthesis.optimize")
            if found:
                optimize = found[0]
        assert optimize is not None
        assert optimize.attrs["stmts_before"] == 9
        assert optimize.attrs["eliminated"] == 0

    def test_trace_false_suppresses_env_enabled_tracing(self):
        TRACER.enable()
        repro.convert(_sample_coo(), "CSR", trace=False)
        assert TRACER.finished_roots() == []

    def test_untraced_convert_records_nothing(self):
        repro.convert(_sample_coo(), "CSR")
        assert TRACER.finished_roots() == []

    def test_cached_conversion_trace_marks_cache_outcome(self):
        repro.convert(_sample_coo(), "CSR", trace=True)
        TRACER.clear()
        repro.convert(_sample_coo(), "CSR", trace=True)
        root = TRACER.finished_roots()[0]
        lookup = _find(root, "cache.lookup")[0]
        assert lookup.attrs["outcome"] == "memo_hit"
        # cached runs skip synthesis entirely but still trace execution
        assert not _find(root, "synthesize")
        assert _find(root, "execute")

    def test_parse_span_recorded_when_a_format_is_built(self):
        from repro.formats import library

        original = library._BUILT.pop("ELL", None)
        try:
            with TRACER.forced(True), obs.span("harness"):
                repro.get_format("ELL")
            root = TRACER.finished_roots()[0]
            parse = _find(root, "parse.format")
            assert parse and parse[0].attrs == {"format": "ELL"}
        finally:
            if original is not None:
                library._BUILT["ELL"] = original

    def test_numpy_backend_traces_with_statement_children(
        self, fresh_synthesis
    ):
        from repro.spf.codegen.printers import span_label

        repro.convert(_sample_coo(), "CSR", backend="numpy", trace=True)
        root = TRACER.finished_roots()[0]
        execute = _find(root, "execute")[0]
        assert execute.attrs["backend"] == "numpy"
        # One child per top-level node of the lowered program, in order.
        program = repro.get_conversion("SCOO", "CSR", backend="numpy").program
        assert [
            (c.name, c.category) for c in execute.children
        ] == [(span_label(node), "execute.stmt") for node in program.body]


class TestTracedPlanner:
    def test_plan_execute_records_step_spans(self):
        from repro.planner import convert_via_plan

        result = convert_via_plan(_sample_coo(), "DIA", trace=True)
        assert result.format_name == "DIA"
        roots = TRACER.finished_roots()
        assert [r.name for r in roots] == ["plan.execute"]
        root = roots[0]
        steps = _find(root, "plan.step")
        assert steps
        assert root.attrs["steps"] == len(steps)
        assert "->" in root.attrs["chain"]
        assert steps[-1].attrs["dst"] == "DIA"


class TestTracedFuzz:
    def test_fuzz_trace_attributes_combos(self):
        from repro.verify.fuzz import fuzz

        report = fuzz(
            cases=4,
            seed=3,
            backends=("python",),
            optimize_levels=(True,),
            ranks=(2,),
            trace=True,
        )
        assert report.ok
        assert report.combo_timings
        for slot in report.combo_timings.values():
            assert slot["cases"] >= 1
            assert slot["seconds"] > 0
        case_spans = [
            r for r in TRACER.finished_roots() if r.name == "fuzz.case"
        ]
        assert len(case_spans) == 4
        assert all(s.attrs["outcome"] == "ok" for s in case_spans)

    def test_untraced_fuzz_report_has_no_timings(self):
        from repro.verify.fuzz import fuzz

        report = fuzz(
            cases=2,
            seed=3,
            backends=("python",),
            optimize_levels=(True,),
            ranks=(2,),
        )
        assert report.combo_timings == {}


class TestStatsCli:
    def test_stats_and_cache_stats_agree(self, capsys):
        import json

        from repro.__main__ import main

        from repro.synthesis import cache_stats

        repro.convert(_sample_coo(), "CSR")
        assert main(["stats", "--format", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        cache = cache_stats()
        assert stats["cache"]["counters"] == cache["counters"]
        assert stats["cache"]["memo_entries"] == cache["memo_entries"]

    def test_stats_prom_output_parses(self, capsys):
        from repro.__main__ import main

        assert main(["stats", "--format", "prom"]) == 0
        text = capsys.readouterr().out
        obs.parse_prometheus_text(text)

    def test_trace_command_emits_valid_artifacts(self, tmp_path, capsys):
        import json

        from repro.__main__ import main

        status = main(
            [
                "trace",
                "COO",
                "CSR",
                "--nnz",
                "32",
                "--rows",
                "16",
                "--cols",
                "16",
                "--out",
                str(tmp_path),
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "convert" in out and "execute" in out
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert obs.validate_chrome_trace(trace) == []
        names = {e["name"] for e in trace["traceEvents"]}
        assert {"convert", "execute"} <= names
