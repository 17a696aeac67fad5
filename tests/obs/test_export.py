"""Exporters: Chrome trace schema, Prometheus round-trip, JSONL, atomicity."""

import json

import pytest

import repro.obs as obs
from repro.obs import (
    METRICS,
    TRACER,
    chrome_trace,
    jsonl_events,
    parse_prometheus_text,
    prometheus_text,
    validate_chrome_trace,
    write_all,
)


@pytest.fixture(autouse=True)
def clean_telemetry():
    obs.reset_all()
    TRACER.disable()
    yield
    obs.reset_all()
    TRACER.disable()


def _record_tree():
    import time

    TRACER.enable()
    with obs.span("convert", category="convert", dst="CSR"):
        with obs.span("synthesize", category="synthesis"):
            mark = time.perf_counter()
            obs.add_span(
                "synthesis.optimize", mark, mark + 0.001, eliminated=2
            )
        with obs.span("execute", category="runtime", nnz=5):
            pass
    TRACER.disable()


class TestChromeTrace:
    def test_trace_passes_its_own_schema_check(self):
        _record_tree()
        trace = chrome_trace()
        assert validate_chrome_trace(trace) == []
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 4

    def test_events_are_complete_events_with_relative_timestamps(self):
        _record_tree()
        for event in chrome_trace()["traceEvents"]:
            if event["ph"] == "M":
                continue
            assert event["ph"] == "X"
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert isinstance(event["args"], dict)

    def test_thread_name_metadata_precedes_span_events(self):
        _record_tree()
        events = chrome_trace()["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert metadata, "expected thread_name metadata events"
        assert all(e["name"] == "thread_name" for e in metadata)
        assert all(isinstance(e["args"]["name"], str) for e in metadata)
        # All metadata events come before the first complete event.
        first_span = next(i for i, e in enumerate(events) if e["ph"] == "X")
        assert all(e["ph"] == "M" for e in events[:first_span])

    def test_round_trips_through_json(self):
        _record_tree()
        text = json.dumps(chrome_trace())
        assert validate_chrome_trace(json.loads(text)) == []

    def test_validator_reports_problems(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []
        bad_event = {"name": "", "ph": "B", "ts": -1, "dur": "x", "pid": "p"}
        problems = validate_chrome_trace({"traceEvents": [bad_event]})
        assert len(problems) >= 4


class TestJsonl:
    def test_events_reference_their_parents(self):
        _record_tree()
        events = list(jsonl_events())
        by_name = {e["name"]: e for e in events}
        root_id = by_name["convert"]["id"]
        assert by_name["convert"]["parent"] == 0
        assert by_name["synthesize"]["parent"] == root_id
        assert by_name["execute"]["parent"] == root_id
        assert (
            by_name["synthesis.optimize"]["parent"]
            == by_name["synthesize"]["id"]
        )
        assert by_name["synthesis.optimize"]["attrs"] == {"eliminated": 2}

    def test_every_event_is_json_serializable(self):
        _record_tree()
        for event in jsonl_events():
            json.dumps(event)


class TestPrometheus:
    def test_text_parses_under_the_strict_parser(self):
        METRICS.counter("repro_cache_memo_hit_total").inc(3)
        METRICS.histogram("repro_synthesis_seconds").observe(
            0.02, phase="total"
        )
        METRICS.counter("repro_conversions", "done").inc(src="COO", dst="CSR")
        METRICS.histogram("repro_conversion_seconds").observe(0.002)
        _record_tree()
        text = prometheus_text()
        samples = parse_prometheus_text(text)
        assert samples[("repro_cache_memo_hit_total", ())] == 3
        assert (
            samples[
                (
                    "repro_conversions",
                    (("dst", "CSR"), ("src", "COO")),
                )
            ]
            == 1
        )
        phase = (("phase", "total"),)
        assert samples[("repro_synthesis_seconds_count", phase)] == 1
        assert samples[("repro_synthesis_seconds_sum", phase)] == 0.02
        # histogram series: +Inf bucket, sum, count
        assert (
            samples[("repro_conversion_seconds_bucket", (("le", "+Inf"),))]
            == 1
        )
        assert ("repro_conversion_seconds_count", ()) in samples
        # span aggregates
        assert samples[("repro_span_count_total", (("span", "convert"),))] == 1

    def test_label_values_are_escaped(self):
        METRICS.counter("repro_escape_probe").inc(
            label='quote " backslash \\ newline \n end'
        )
        samples = parse_prometheus_text(prometheus_text())
        keys = [k for k in samples if k[0] == "repro_escape_probe"]
        assert len(keys) == 1

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_prometheus_text("this is not prometheus\n")

    def test_exemplars_round_trip(self):
        from repro.obs import parse_prometheus_exemplars

        hist = METRICS.histogram(
            "repro_exemplar_probe_seconds", "latency", buckets=(0.01, 1.0)
        )
        hist.observe(0.005, exemplar="aaaa1111", endpoint="/convert")
        hist.observe(5.0, exemplar="bbbb2222", endpoint="/convert")
        text = prometheus_text()
        # The strict parser still accepts the exemplar-suffixed lines.
        parse_prometheus_text(text)
        exemplars = parse_prometheus_exemplars(text)
        by_le = {
            dict(labels)["le"]: ex
            for (name, labels), ex in exemplars.items()
            if name == "repro_exemplar_probe_seconds_bucket"
        }
        assert by_le["0.01"]["labels"]["trace_id"] == "aaaa1111"
        assert by_le["0.01"]["value"] == 0.005
        assert by_le["+Inf"]["labels"]["trace_id"] == "bbbb2222"
        assert by_le["+Inf"]["ts"] is not None


class TestWriteAll:
    def test_writes_all_four_artifacts(self, tmp_path):
        METRICS.counter("repro_cache_miss_total").inc()
        _record_tree()
        paths = write_all(tmp_path)
        assert sorted(paths) == [
            "chrome_trace",
            "events",
            "prometheus",
            "stats",
        ]
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert validate_chrome_trace(trace) == []
        lines = (tmp_path / "events.jsonl").read_text().splitlines()
        assert len(lines) == 4
        for line in lines:
            json.loads(line)
        parse_prometheus_text((tmp_path / "metrics.prom").read_text())
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["cache"]["counters"]["repro_cache_miss_total"] == 1

    def test_no_tmp_droppings_left_behind(self, tmp_path):
        _record_tree()
        write_all(tmp_path)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
