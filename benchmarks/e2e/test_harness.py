"""The harness itself: metric names, failure detection, refusal to run."""

import gc
import http.server
import itertools
import json
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

import run
import serve_load
import speed
import worker

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _steady_clock():
    """A host-speed clock that never scales."""
    return speed.Clock(probe_fn=lambda: speed.NOMINAL_S)


def _names(section):
    return [m["name"] for m in SPEC[section]]


def test_spec_names_the_workloads_and_metric_units():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == (
        run.LAYER_UNITS
    )
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    )


def _inprocess_result():
    return {
        "samples": {"a": [0.010, 0.012, 0.011], "b": [0.002, 0.003]},
        "cells": {"a": {"nnz": 100, "first_s": 0.5},
                  "b": {"nnz": 10, "first_s": 0.1}},
        "peak_rss_mb": 50.0,
        "attempted": 5,
    }


def test_printed_metric_names_are_those_in_the_spec():
    e2e = run.inprocess_metrics(_inprocess_result(), [1.0, 1.2, 1.1])
    line = run.result_line(True, 5, 0, e2e, run.E2E_UNITS)
    assert list(line["metrics"]) == _names("end_to_end")

    serve = {
        "records": [(0, 0.01, 200, "t0", 10, True),
                    (1, 0.05, 200, "t1", 99, True)],
        "kinds": {"0": {"id": "s", "nnz": 10, "bytes_in": 5},
                  "1": {"id": "l", "nnz": 100, "bytes_in": 50}},
        "wall_s": 1.0,
        "peak_rss_mb": 40.0,
        "attempted": 2,
    }
    line = run.result_line(True, 2, 0, run.serve_metrics(serve, [2.0]),
                           run.E2E_UNITS)
    assert list(line["metrics"]) == _names("end_to_end")

    spans = {"convert": {"a": [0.01, 0.011]}, "mirror": {"a": [0.01, 0.01]},
             "marshal_in": {"a": [0.001, 0.001]}}
    spans.update({span: {"a": [0.001, 0.001]} for span, _ in run.layers.LAYERS})
    traced = {
        "durations": spans, "sweeps": 2, "cold_s": {"a": 0.2},
        "cells": {"a": {"nnz": 100, "first_s": 0.3}}, "gate_checks": 1,
        "c_scalar_pairs": 0, "numpy_scalar_nests": 0,
        "recorder_s": 1e-5,
    }
    line = run.result_line(True, 2, 0, run.layer_metrics(traced),
                           run.LAYER_UNITS)
    assert set(line["metrics"]) == set(_names("per_layer"))


def test_the_results_record_adds_run_settings_and_daemon_layers():
    line = run.result_line(True, 2, 0, {"convert_ms": (1.0, 2)},
                           {"convert_ms": "ms"})
    record = run.run_record("serve-mixed", 3, 10.0, 1, line,
                            {"serve.cache_hit_ratio": (0.9, 5)})
    assert (record["seed"], record["seconds"], record["trace"]) == (3, 10.0, 1)
    assert record["metrics"]["serve.cache_hit_ratio"] == {
        "value": 0.9, "unit": "ratio", "better": "higher"
    }
    assert list(line["metrics"]) == ["convert_ms"]


def test_inprocess_metrics_values():
    m = run.inprocess_metrics(_inprocess_result(), [1.0, 1.2, 1.1])
    assert m["convert_ms"][0] == pytest.approx((11.0 * 2.5) ** 0.5)
    assert m["throughput_rps"][0] == pytest.approx(5 / 0.038)
    assert m["nnz_per_s"][0] == pytest.approx((300 + 20) / 0.038)
    assert m["setup_s"] == (1.1, 3)
    assert m["success_ratio"] == (1.0, 5)


def test_an_injected_wrong_output_fails_the_run(small_cells):
    outs, _firsts = worker.first_conversions(small_cells)
    oracle, problems = worker.oracles(small_cells, outs)
    assert problems == []

    def corrupt(cell):
        out = worker.convert_cell(cell)
        if cell.backend == "numpy":
            out.val[0] += 1.0
        return out

    try:
        res = worker.timed_phase(small_cells, oracle, 0.0, _steady_clock(),
                                 convert_fn=corrupt)
    finally:
        gc.unfreeze()
    assert set(res["wrong"]) == {"CSR->COO:numpy"}
    assert res["attempted"] >= worker.MIN_TIMED_SAMPLES
    problems = run.problems_of(res)
    assert problems == [f"wrong output: CSR->COO:numpy ({len(res['wrong'])}x)"]
    res.update(cells={c.id: {"nnz": c.nnz, "first_s": 0.0}
                      for c in small_cells})
    line = run.result_line(not problems, res["attempted"], len(res["wrong"]),
                           run.inprocess_metrics(res, [1.0]), run.E2E_UNITS)
    assert line["correct"] is False


def test_an_injected_exception_fails_the_run(small_cells):
    outs, _firsts = worker.first_conversions(small_cells)
    oracle, _problems = worker.oracles(small_cells, outs)

    def broken(cell):
        if cell.backend == "numpy":
            raise RuntimeError("injected")
        return worker.convert_cell(cell)

    try:
        res = worker.timed_phase(small_cells, oracle, 0.0, _steady_clock(),
                                 convert_fn=broken)
    finally:
        gc.unfreeze()
    assert res["wrong"] == []
    assert run.problems_of(res) == [
        f"CSR->COO:numpy: RuntimeError: injected ({len(res['errors'])}x)"
    ]
    res["cells"] = {c.id: {"nnz": c.nnz, "first_s": 0.0} for c in small_cells}
    metrics = run.inprocess_metrics(res, [1.0])
    assert metrics["success_ratio"][0] == pytest.approx(0.5)
    assert run.failures(res) == len(res["errors"])


class _HalfRefused(http.server.BaseHTTPRequestHandler):
    """Answers every other POST with 503, the others with one result."""

    protocol_version = "HTTP/1.1"
    answered = itertools.count()

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        if next(self.answered) % 2:
            status, doc = 503, {"ok": False, "error": {"type": "busy"}}
        else:
            status, doc = 200, {"ok": True, "result": RESULT, "meta": {}}
        body = json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


RESULT = {"arrays": {"x": [1, 2]}, "shape": {"NR": 2}}


def _half_refused_loop(seconds, clock):
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _HalfRefused)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    kinds = [types.SimpleNamespace(id="k", body=b"{}")]
    try:
        loop = serve_load.closed_loop(
            server.server_address, kinds, [[0], [0]], seconds,
            serve_load.ResponseChecker({0: RESULT}), clock,
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    return kinds, loop


def test_the_closed_loop_scales_every_segment(monkeypatch):
    monkeypatch.setattr(serve_load, "SEGMENT_S", 0.1)
    clock = speed.Clock(probe_fn=lambda: 2 * speed.NOMINAL_S)
    _kinds, loop = _half_refused_loop(0.35, clock)
    assert loop["records"]
    assert {r[6] for r in loop["records"]} == {0.5}
    # The clock's first probe, one before each segment (3 or 4 of them,
    # the last drains in-flight requests), one at the end.
    assert len(loop["probe_s"]) >= 5
    assert 0.3 * 0.5 <= loop["wall_s"] < 0.35


def test_a_refused_request_fails_the_run():
    kinds, loop = _half_refused_loop(0.3, _steady_clock())
    records = loop["records"]
    wrong, refused = worker.response_failures(kinds, records)
    assert wrong == [] and refused
    res = {
        "records": records, "errors": loop["errors"], "wrong": wrong,
        "refused": refused, "attempted": len(records) + len(loop["errors"]),
        "kinds": {"0": {"id": "k", "nnz": 2, "bytes_in": 2}},
        "wall_s": loop["wall_s"], "peak_rss_mb": 1.0,
    }
    assert f"k: HTTP 503 ({len(refused)}x)" in run.problems_of(res)
    ratio, attempted = run.serve_metrics(res, [1.0])["success_ratio"]
    assert ratio == pytest.approx(1 - len(refused) / attempted)
    assert ratio < 1


def test_a_wrong_first_output_is_caught_against_the_oracle(small_cells):
    outs, _firsts = worker.first_conversions(small_cells)
    outs["CSR->COO:numpy"].col[0] += 1
    _oracle, problems = worker.oracles(small_cells, outs)
    assert problems == ["CSR->COO:numpy: first output != oracle"]


def test_response_checker_rejects_a_wrong_result_after_a_good_one():
    expected = {0: {"arrays": {"x": [1, 2]}, "shape": {"NR": 2}}}
    checker = serve_load.ResponseChecker(expected)

    def body(xs, seconds):
        return json.dumps({
            "ok": True, "format": "CSR",
            "result": {"arrays": {"x": xs}, "shape": {"NR": 2}},
            "meta": {"seconds": seconds}, "trace_id": "t",
        }).encode()

    assert checker.ok(0, body([1, 2], 0.1))
    assert checker.ok(0, body([1, 2], 0.2))  # served by the digest
    assert not checker.ok(0, body([1, 3], 0.3))


def test_refuses_to_run_without_the_program(tmp_path):
    here = Path(run.__file__).parent
    copy = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(here, copy, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "fig2-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
