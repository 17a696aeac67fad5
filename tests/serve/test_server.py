"""The daemon end to end: conversions, errors, metrics, sockets."""

import threading

import pytest

from repro import convert, dense_equal
from repro.runtime import COOMatrix
from repro.serve import ConversionServer, ServeClient, ServeError


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
        assert "cache" in snapshot and "prof" in snapshot


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
