"""The daemon end to end: conversions, errors, metrics, sockets."""

import json
import threading
from pathlib import Path

import pytest

import repro
from repro import convert, dense_equal
from repro.runtime import COOMatrix
from repro.serve import ConversionServer, ServeClient, ServeError, coo_payload
from tests.tiers import needs_c

SRC_DIR = str(Path(repro.__file__).parents[1])


@pytest.fixture
def server():
    srv = ConversionServer(port=0, workers=4).start_in_background()
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


class TestConvertEndpoint:
    def test_matches_direct_convert(self, client):
        coo = _coo()
        resp = client.convert(coo, "CSR")
        assert resp["ok"] and resp["schema"] == "repro-serve/1"
        direct = convert(coo, "CSR")
        assert resp["result"]["arrays"]["rowptr"] == direct.rowptr.tolist()
        assert resp["result"]["arrays"]["col2"] == direct.col.tolist()
        assert resp["result"]["arrays"]["Asrc"] == direct.val.tolist()
        assert resp["meta"]["seconds"] >= 0

    def test_planned_route(self, client):
        coo = _coo(3)
        resp = client.convert(coo, "DIA", plan=True)
        dia_arrays = resp["result"]["arrays"]
        direct = convert(coo, "DIA")
        assert dia_arrays["off"] == list(direct.off)

    def test_planned_route_refuses_options_it_would_drop(self, client):
        with pytest.raises(ServeError) as err:
            client.convert(_coo(3), "DIA", plan=True, binary_search=True)
        assert err.value.status == 400
        assert err.value.body["error"]["type"] == "ProtocolError"
        assert "binary_search: true" in err.value.body["error"]["message"]

    def test_concurrent_mixed_pairs(self, client):
        # Sustained mixed-format traffic: every response must equal its
        # own direct conversion, under real thread concurrency.
        pairs = ["CSR", "CSC", "DIA", "MCOO"] * 3
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
        from repro.serve import serialize_container

        for matrix, dst, resp in zip(matrices, pairs, results):
            assert resp["ok"], resp
            expected = serialize_container(convert(matrix, dst), dst)
            assert resp["result"]["arrays"] == expected["arrays"]

    def test_validation_rejection_is_400(self, client):
        bad = {"rows": 2, "cols": 2, "row": [0, 0], "col": [0, 0],
               "val": [1.0, 2.0]}  # duplicate coordinate
        with pytest.raises(ServeError) as err:
            client.convert(bad, "CSR")
        assert err.value.status == 400
        assert "Duplicate" in err.value.body["error"]["type"]

    @pytest.mark.parametrize("row, error", [
        ([0.5, 1], "StructureError"),
        ([0, 9223372036854775808], "BoundsError"),
    ])
    def test_unrepresentable_index_is_400_naming_the_field(
        self, client, row, error
    ):
        bad = {"rows": 2, "cols": 2, "row": row, "col": [0, 1],
               "val": [1.0, 2.0]}
        for backend in ("python", "c"):
            with pytest.raises(ServeError) as err:
                client.convert(bad, "CSR", backend=backend)
            assert err.value.status == 400
            assert err.value.body["error"]["type"] == error
            assert "row[" in err.value.body["error"]["message"]
        # The daemon keeps serving.
        good = {**bad, "row": [0, 1]}
        assert client.convert(good, "CSR")["ok"]

    @pytest.mark.parametrize("rows, error", [
        (-5, "ShapeError"),
        (True, "ProtocolError"),
    ])
    def test_bad_shape_is_400_naming_the_error(self, client, rows, error):
        bad = {"rows": rows, "cols": 3, "row": [], "col": [], "val": []}
        with pytest.raises(ServeError) as err:
            client.convert(bad, "CSR")
        assert err.value.status == 400
        assert err.value.body["error"]["type"] == error
        # The daemon keeps serving.
        assert client.convert({**bad, "rows": 2}, "CSR")["ok"]

    def test_unsynthesizable_pair_is_422(self, client):
        with pytest.raises(ServeError) as err:
            client.convert(_coo(), "ELL")  # no direct COO->ELL synthesis
        assert err.value.status == 422
        assert err.value.body["error"]["type"] == "SynthesisError"

    def test_unknown_format_is_400(self, client):
        with pytest.raises(ServeError) as err:
            client.convert(_coo(), "NOPE")
        assert err.value.status == 400

    def test_malformed_json_is_400(self, server):
        import http.client

        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        conn.request("POST", "/convert", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        assert resp.status == 400
        conn.close()

    @pytest.mark.parametrize("value", [b"abc", b"-5", b"", b"\xb2"])
    def test_malformed_content_length_is_400_naming_the_header(
        self, server, caplog, value
    ):
        import socket

        with socket.create_connection(server.address, timeout=30) as sock:
            sock.sendall(
                b"POST /convert HTTP/1.1\r\nContent-Length: " + value
                + b"\r\n\r\n{}"
            )
            data = b""
            while chunk := sock.recv(65536):  # the daemon hangs up
                data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        error = json.loads(body)["error"]
        assert error["type"] == "ProtocolError"
        assert "Content-Length" in error["message"]
        # No traceback in the log, and the daemon keeps serving.
        assert not [r for r in caplog.records if r.exc_info]
        assert ServeClient(server.address).convert(_coo(), "CSR")["ok"]

    def test_response_bytes_are_the_stdlib_encoding(self, server):
        from repro.serve import jsontext, serialize_container

        jsontext.load()  # the native path when the C tier is present
        coo = _coo(4)
        doc = {"dst": "CSC", "matrix": coo_payload(coo),
               "trace_id": "pinned-1"}
        status, _ctype, data = ServeClient(server.address)._request(
            "POST", "/convert", doc
        )
        assert status == 200
        seconds = json.loads(data)["meta"]["seconds"]
        expected = {
            "ok": True,
            "schema": "repro-serve/1",
            "format": "CSC",
            "result": serialize_container(convert(coo, "CSC"), "CSC"),
            "meta": {"backend": "python", "validate": "inputs",
                     "seconds": seconds, "trace_id": "pinned-1"},
            "trace_id": "pinned-1",
        }
        assert data == json.dumps(expected).encode()

    def test_unknown_route_404_and_bad_method_405(self, server):
        import http.client

        host, port = server.address
        for method, path, expected in (
            ("GET", "/nope", 404),
            ("GET", "/convert", 405),
        ):
            conn = http.client.HTTPConnection(host, port, timeout=30)
            conn.request(method, path)
            assert conn.getresponse().status == expected
            conn.close()


class TestDeepNesting:
    BODIES = (
        b"[" * 100000,
        b'{"dst": "CSR", "matrix": ' + b'{"m": ' * 5000 + b"0"
        + b"}" * 5001,
    )

    @pytest.mark.parametrize("library", ["native", "stdlib_only"])
    def test_deeply_nested_bodies_get_a_400(self, library, request,
                                            caplog):
        import http.client

        path = "stdlib" if request.getfixturevalue(library) is None else (
            "native"
        )
        srv = ConversionServer(port=0, workers=2).start_in_background()
        try:
            trace_ids = []
            for body in self.BODIES:
                conn = http.client.HTTPConnection(*srv.address, timeout=30)
                conn.request("POST", "/convert", body=body,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                doc = json.loads(resp.read())
                conn.close()
                assert resp.status == 400
                assert doc["error"] == {
                    "type": "ProtocolError",
                    "message": "bad JSON: nested too deeply",
                }
                trace_ids.append(doc["trace_id"])
            client = ServeClient(srv.address)
            assert client.convert(_coo(), "CSR")["ok"]
            rows = {row["trace_id"]: row
                    for row in client.debug_requests()["requests"]}
            for trace_id in trace_ids:
                assert rows[trace_id]["status"] == 400
                assert "nested too deeply" in rows[trace_id]["error"]
            decodes = {
                labels: value
                for (name, labels), value in client.metrics().items()
                if name == "repro_serve_decode_total"
            }
            assert decodes[(("path", path),)] >= 3
        finally:
            srv.shutdown()
        assert not [r for r in caplog.records if r.exc_info]


class TestValidateFloor:
    """A request may ask for the daemon's input gate or a stricter one."""

    # Row 4000000 lies outside the 4x4 shape: only the gate stands
    # between it and the native tier's unchecked stores.
    OUT_OF_DIMS = {"rows": 4, "cols": 4, "row": [0, 1, 4000000],
                   "col": [0, 1, 2], "val": [1.0, 2.0, 3.0]}

    @needs_c
    def test_weaker_request_is_400_and_the_daemon_keeps_serving(
        self, tmp_path
    ):
        import os
        import re
        import subprocess
        import sys

        env = dict(os.environ, REPRO_CBACKEND_DIR=str(tmp_path / "cc"))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
        )
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--backend", "c"],
            stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            line = daemon.stderr.readline()
            host, port = re.search(r"http://([^:]+):(\d+)", line).groups()
            client = ServeClient((host, int(port)))
            with pytest.raises(ServeError) as err:
                client.convert(self.OUT_OF_DIMS, "CSR", validate="off")
            assert err.value.status == 400
            assert err.value.body["error"]["type"] == "ProtocolError"
            message = err.value.body["error"]["message"]
            assert "validate" in message and "'inputs'" in message
            good = {**self.OUT_OF_DIMS, "row": [0, 1, 3]}
            assert client.convert(good, "CSR")["ok"]
            assert daemon.poll() is None
        finally:
            daemon.terminate()
            daemon.wait(timeout=30)
            daemon.stderr.close()

    def test_stricter_request_is_served(self, client):
        assert client.convert(_coo(), "CSR", validate="full")["ok"]

    def test_full_validation_of_a_huge_declared_shape(self, client,
                                                      monkeypatch):
        # The output check compares stored entries: a 10^6 x 10^6 shape
        # with two entries must never be materialized as a dense image.
        from repro.formats import levels

        def refuse(shape):
            raise AssertionError(f"dense image of shape {shape}")

        monkeypatch.setattr(levels, "_zeros", refuse)
        n = 10**6
        doc = {"rows": n, "cols": n, "row": [0, 5], "col": [1, n - 1],
               "val": [1.0, 2.0]}
        resp = client.convert(doc, "MCOO", validate="full")
        assert resp["ok"] and resp["meta"]["validate"] == "full"
        assert resp["result"]["shape"] == {"NR": n, "NC": n, "NNZ": 2}

    def test_off_daemon_accepts_off_requests(self):
        server = ConversionServer(port=0, validate="off").start_in_background()
        try:
            client = ServeClient(server.address)
            assert client.convert(_coo(), "CSR", validate="off")["ok"]
        finally:
            server.shutdown()


class TestOpsEndpoints:
    def test_health(self, client, server):
        health = client.health()
        assert health["ok"] and health["workers"] == server.workers

    def test_metrics_scrape_parses_and_has_latency(self, client):
        client.convert(_coo(), "CSR")
        samples = client.metrics()  # raises if not valid exposition text
        names = {name for name, _ in samples}
        assert "repro_serve_request_seconds_count" in names
        assert "repro_serve_requests" in names

    def test_stats_snapshot(self, client):
        snapshot = client.stats()
        assert "cache" in snapshot and "metrics" in snapshot


class TestLoadShedding:
    def test_zero_capacity_sheds_with_503(self):
        server = ConversionServer(
            port=0, workers=1, backlog=-1
        ).start_in_background()
        try:
            client = ServeClient(server.address)
            with pytest.raises(ServeError) as err:
                client.convert(_coo(), "CSR")
            assert err.value.status == 503
        finally:
            server.shutdown()


class TestUnixSocket:
    def test_round_trip_over_unix_socket(self, tmp_path):
        path = str(tmp_path / "repro.sock")
        server = ConversionServer(
            unix_path=path, workers=2
        ).start_in_background()
        try:
            client = ServeClient(path)
            assert client.health()["ok"]
            resp = client.convert(_coo(), "CSR")
            assert resp["ok"]
        finally:
            server.shutdown()
        import os

        assert not os.path.exists(path)  # socket cleaned up on stop
