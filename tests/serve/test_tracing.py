"""Request-scoped tracing through the daemon: ids, recorder, debug API."""

import http.client
import json
import threading

import pytest

import repro.obs as obs
from repro.runtime import COOMatrix
from repro.serve import (
    ConversionServer,
    ServeClient,
    ServeError,
    coo_payload,
    parse_address,
)


@pytest.fixture
def server():
    # slow_ms high enough that nothing classifies as "slow" — retention
    # behavior under test is the error path, not timing noise.
    srv = ConversionServer(
        port=0, workers=4, slow_ms=60_000.0
    ).start_in_background()
    yield srv
    srv.shutdown()


@pytest.fixture
def client(server):
    return ServeClient(server.address)


def _coo(seed=0, n=8):
    import random

    rng = random.Random(seed)
    cells = sorted(rng.sample([(i, j) for i in range(n) for j in range(n)],
                              n * 2))
    return COOMatrix(
        n, n,
        [i for i, _ in cells],
        [j for _, j in cells],
        [float(rng.randint(1, 9)) for _ in cells],
    )


def _raw_convert(server, doc, headers=None):
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request(
            "POST", "/convert", body=json.dumps(doc).encode(),
            headers={"Connection": "close", **(headers or {})},
        )
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), json.loads(resp.read())
    finally:
        conn.close()


def _walk(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


class TestTraceIds:
    def test_every_response_carries_the_id_in_body_and_header(self, server):
        status, headers, body = _raw_convert(
            server, {"dst": "CSR", "matrix": coo_payload(_coo())}
        )
        assert status == 200
        trace_id = headers["X-Repro-Trace-Id"]
        assert obs.valid_trace_id(trace_id)
        assert body["trace_id"] == trace_id
        assert body["meta"]["trace_id"] == trace_id

    def test_client_supplied_json_field_round_trips(self, client):
        resp = client.convert(_coo(1), "CSR", trace_id="my.custom-id_1")
        assert resp["trace_id"] == "my.custom-id_1"

    def test_header_supplied_id_is_adopted(self, server):
        status, headers, body = _raw_convert(
            server,
            {"dst": "CSR", "matrix": coo_payload(_coo(2))},
            headers={"X-Repro-Trace-Id": "hdr-id-42"},
        )
        assert status == 200
        assert headers["X-Repro-Trace-Id"] == "hdr-id-42"
        assert body["trace_id"] == "hdr-id-42"

    def test_json_field_wins_over_the_header(self, server):
        _status, headers, _body = _raw_convert(
            server,
            {"dst": "CSR", "matrix": coo_payload(_coo(3)),
             "trace_id": "from-doc"},
            headers={"X-Repro-Trace-Id": "from-header"},
        )
        assert headers["X-Repro-Trace-Id"] == "from-doc"

    def test_invalid_header_id_is_silently_replaced(self, server):
        status, headers, _body = _raw_convert(
            server,
            {"dst": "CSR", "matrix": coo_payload(_coo(4))},
            headers={"X-Repro-Trace-Id": "bad id !!"},
        )
        assert status == 200
        fresh = headers["X-Repro-Trace-Id"]
        assert fresh != "bad id !!" and obs.valid_trace_id(fresh)

    def test_invalid_json_field_is_a_400(self, client):
        with pytest.raises(ServeError) as err:
            client.convert(_coo(), "CSR", trace_id="bad id !!")
        assert err.value.status == 400
        assert "trace_id" in err.value.body["error"]["message"]

    def test_error_responses_carry_a_trace_id_too(self, client):
        with pytest.raises(ServeError) as err:
            client.convert(_coo(), "NOPE")
        assert err.value.status == 400
        assert obs.valid_trace_id(err.value.body["trace_id"])


class TestDebugEndpoints:
    def test_trace_tree_has_pipeline_spans_under_serve_request(self, client):
        trace_id = client.convert(_coo(5), "CSC")["trace_id"]
        doc = client.debug_trace(trace_id)
        root = doc["root"]
        assert root["name"] == "serve.request"
        assert root["trace_id"] == trace_id
        names = [n["name"] for n in _walk(root)]
        for expected in ("serve.queue_wait", "convert", "cache.lookup",
                         "execute"):
            assert expected in names, names
        # Every span in the tree belongs to this trace, attributed to a
        # named thread.
        for node in _walk(root):
            assert node["trace_id"] == trace_id
        workers = {n["thread"] for n in _walk(root["children"][0])}
        assert any(t.startswith("repro-serve-") for t in workers)

    def test_wire_layers_bracket_the_conversion(self, client):
        from repro.serve import jsontext

        # Loaded or not, the spans and the counters name the path that
        # ran (an ASCII body decodes natively whenever encodes do).
        path = "stdlib" if jsontext.load() is None else "native"
        decodes = obs.METRICS.counter("repro_serve_decode_total")
        encodes = obs.METRICS.counter("repro_serve_encode_total")
        before = decodes.value(path=path), encodes.value(path=path)
        trace_id = client.convert(_coo(7), "CSR")["trace_id"]
        root = client.debug_trace(trace_id)["root"]
        children = root["children"]
        names = [c["name"] for c in children]
        assert names[:2] == ["serve.decode", "serve.queue_wait"], names
        assert names[-1] == "serve.encode", names
        assert children[0]["attrs"] == {"path": path}
        assert children[-1]["attrs"] == {"path": path}
        after = decodes.value(path=path), encodes.value(path=path)
        assert after == (before[0] + 1, before[1] + 1)
        # The root covers decode through encode.
        first, last = children[0], children[-1]
        assert root["start_us"] <= first["start_us"]
        assert (last["start_us"] + last["dur_us"]
                <= root["start_us"] + root["dur_us"])

    def test_trace_tree_as_chrome_trace_validates(self, client):
        trace_id = client.convert(_coo(6), "CSR")["trace_id"]
        chrome = client.debug_trace(trace_id, format="chrome")
        assert obs.validate_chrome_trace(chrome) == []
        metadata = [e for e in chrome["traceEvents"] if e["ph"] == "M"]
        assert any(
            e["args"]["name"].startswith("repro-serve-") for e in metadata
        )

    def test_requests_table_rows(self, client):
        trace_id = client.convert(_coo(7), "DIA")["trace_id"]
        table = client.debug_requests()
        rows = {row["trace_id"]: row for row in table["requests"]}
        row = rows[trace_id]
        assert row["status"] == 200
        assert row["dst"] == "DIA" and "->" in row["pair"]
        assert row["backend"] == "python"
        assert row["cache"]  # hit / miss / memo_hit / coalesced / ...
        assert row["seconds"] > 0
        assert row["traced"] is True
        assert table["recorder"]["capacity"] > 0

    def test_limit_parameter(self, client):
        for seed in range(3):
            client.convert(_coo(seed), "CSR")
        assert len(client.debug_requests(limit=2)["requests"]) == 2

    def test_slowlog_retains_errors(self, client):
        with pytest.raises(ServeError) as err:
            client.convert(_coo(), "NOPE")
        trace_id = err.value.body["trace_id"]
        slowlog = client.slowlog()
        rows = {row["trace_id"]: row for row in slowlog["requests"]}
        assert rows[trace_id]["reason"] == "error"
        assert rows[trace_id]["status"] == 400

    def test_unknown_trace_id_is_404(self, client):
        with pytest.raises(ServeError) as err:
            client.debug_trace("never-seen")
        assert err.value.status == 404

    def test_no_record_disables_the_debug_endpoints(self):
        server = ConversionServer(
            port=0, workers=2, record=False
        ).start_in_background()
        try:
            client = ServeClient(server.address)
            # Conversions still work and still carry trace ids.
            resp = client.convert(_coo(), "CSR")
            assert obs.valid_trace_id(resp["trace_id"])
            for call in (client.debug_requests, client.slowlog):
                with pytest.raises(ServeError) as err:
                    call()
                assert err.value.status == 404
            assert client.health()["record"] is False
        finally:
            server.shutdown()


class TestConcurrentTracing:
    def test_sixteen_mixed_pair_threads_get_private_complete_trees(
        self, client
    ):
        pairs = ["CSR", "CSC", "DIA", "MCOO"] * 4
        matrices = [_coo(seed) for seed in range(len(pairs))]
        results = [None] * len(pairs)
        errors = []

        def worker(slot):
            try:
                results[slot] = client.convert(matrices[slot], pairs[slot])
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(len(pairs))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for dst, resp in zip(pairs, results):
            trace_id = resp["trace_id"]
            assert obs.valid_trace_id(trace_id)
            root = client.debug_trace(trace_id)["root"]
            nodes = list(_walk(root))
            names = [n["name"] for n in nodes]
            # A complete, private tree: the request's own pipeline spans,
            # every one of them tagged with this request's trace id.
            assert root["name"] == "serve.request"
            assert root["attrs"]["dst"] == dst
            assert names.count("convert") == 1
            assert "cache.lookup" in names
            assert "execute" in names
            assert {n["trace_id"] for n in nodes} == {trace_id}


class TestExemplars:
    def test_latency_buckets_link_to_recorded_trace_ids(self, client):
        trace_id = client.convert(_coo(8), "CSR")["trace_id"]
        exemplars = client.metrics_exemplars()
        convert_buckets = {
            key: ex
            for key, ex in exemplars.items()
            if key[0] == "repro_serve_request_seconds_bucket"
            and ("endpoint", "/convert") in key[1]
        }
        assert convert_buckets
        linked = {ex["labels"]["trace_id"] for ex in convert_buckets.values()}
        assert trace_id in linked
        # The exemplar's trace id resolves through the flight recorder.
        assert client.debug_trace(trace_id)["trace_id"] == trace_id


class TestAccessLog:
    def test_one_enriched_json_line_per_request(self, tmp_path):
        log_path = tmp_path / "access.jsonl"
        server = ConversionServer(
            port=0, workers=2, access_log=str(log_path)
        ).start_in_background()
        try:
            client = ServeClient(server.address)
            trace_id = client.convert(_coo(), "CSR")["trace_id"]
            client.health()
        finally:
            server.shutdown()
        lines = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        assert len(lines) == 2
        convert_line, health_line = lines
        assert convert_line["path"] == "/convert"
        assert convert_line["status"] == 200
        assert convert_line["trace_id"] == trace_id
        assert convert_line["seconds"] > 0
        assert "->" in convert_line["pair"]
        assert convert_line["backend"] == "python"
        assert health_line["path"] == "/healthz"
        assert health_line["trace_id"] == ""


class TestProcessHygiene:
    def test_served_requests_do_not_pollute_process_roots(self, client):
        before = len(obs.TRACER.finished_roots())
        client.convert(_coo(9), "CSR")
        roots = obs.TRACER.finished_roots()
        assert len(roots) == before or all(
            r.name != "serve.request" for r in roots[before:]
        )


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("127.0.0.1:8757") == ("127.0.0.1", 8757)
        assert parse_address("[::1]:80") == ("[::1]", 80)

    def test_unix_paths(self):
        assert parse_address("/tmp/repro.sock") == "/tmp/repro.sock"
        assert parse_address("./repro.sock") == "./repro.sock"

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_address("no-port-here")
        with pytest.raises(ValueError):
            parse_address("host:notaport")
