"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import C_LABEL, main
from repro.io import read_matrix, write_matrix
from repro.runtime import COOMatrix, dense_equal


DENSE = [
    [1.0, 0.0, 2.0],
    [0.0, 0.0, 3.0],
    [4.0, 5.0, 0.0],
]


class TestFormats:
    def test_lists_all(self, capsys):
        assert main(["formats"]) == 0
        out = capsys.readouterr().out
        for name in ("COO", "SCOO", "MCOO", "CSR", "CSC", "DIA", "DCSR",
                     "BCSC"):
            assert name in out

    def test_list_subcommand_matches_bare_formats(self, capsys):
        assert main(["formats"]) == 0
        bare = capsys.readouterr().out
        assert main(["formats", "list"]) == 0
        assert capsys.readouterr().out == bare

    def test_list_levels_shows_specs(self, capsys):
        assert main(["formats", "list", "--levels"]) == 0
        out = capsys.readouterr().out
        assert "dense(i), compressed(j)" in out
        assert "singleton(i), singleton(j) @ morton" in out

    def test_compose_prints_descriptor(self, capsys):
        assert main([
            "formats", "compose", "dense(j), compressed(i)",
            "--name", "MYCSC",
        ]) == 0
        out = capsys.readouterr().out
        assert "MYCSC" in out
        assert "colptr" in out

    def test_compose_json(self, capsys):
        import json

        # --json emits the full descriptor document including the levels.
        assert main([
            "formats", "compose", "singleton(i), singleton(j) @ lex",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["levels"]["levels"][0]["kind"] == "singleton"

    def test_compose_save_then_synthesize(self, tmp_path, capsys):
        path = tmp_path / "fmt.json"
        assert main([
            "formats", "compose", "dense(i), compressed(j)",
            "--name", "MYCSR", "--save", str(path),
        ]) == 0
        capsys.readouterr()
        assert main(["synthesize", str(path), "MCOO"]) == 0
        assert "def mycsr_to_mcoo" in capsys.readouterr().out

    def test_compose_bad_spec_is_a_friendly_error(self, capsys):
        assert main(["formats", "compose", "mystery(i), dense(j)"]) == 1
        err = capsys.readouterr().err
        assert "unknown level kind" in err


class TestShow:
    def test_descriptor_printed(self, capsys):
        assert main(["show", "CSR"]) == 0
        out = capsys.readouterr().out
        assert "rowptr" in out
        assert "domain(" in out

    def test_unknown_format(self):
        with pytest.raises(KeyError):
            main(["show", "ESB"])


class TestSynthesize:
    def test_basic(self, capsys):
        assert main(["synthesize", "SCOO", "CSR"]) == 0
        out = capsys.readouterr().out
        assert "def scoo_to_csr" in out

    def test_flags(self, capsys):
        assert main(
            ["synthesize", "SCOO", "DIA", "--binary-search", "--c", "--notes"]
        ) == 0
        out = capsys.readouterr().out
        assert "BSEARCH" in out
        assert C_LABEL in out and "int repro_run(" in out
        assert "synthesis decisions" in out

    def test_no_optimize(self, capsys):
        assert main(["synthesize", "SCOO", "CSR", "--no-optimize"]) == 0
        assert "OrderedList" in capsys.readouterr().out


class TestKernel:
    def test_spmv(self, capsys):
        assert main(["kernel", "CSR", "spmv"]) == 0
        out = capsys.readouterr().out
        assert "def csr_spmv" in out

    def test_c_is_the_compiled_unit(self, capsys):
        assert main(["kernel", "CSR", "value_sum", "--c"]) == 0
        out = capsys.readouterr().out
        assert C_LABEL in out
        assert "    double v_total = 0;" in out
        assert "#include" not in out  # the runtime header is left out

    def test_invalid_kind_rejected(self):
        with pytest.raises(SystemExit):
            main(["kernel", "CSR", "lu"])


class TestConvert:
    def make_input(self, tmp_path):
        path = tmp_path / "in.mtx"
        write_matrix(COOMatrix.from_dense(DENSE), path)
        return path

    def test_convert_roundtrip(self, tmp_path, capsys):
        src = self.make_input(tmp_path)
        dst = tmp_path / "out.mtx"
        assert main(
            ["convert", str(src), str(dst), "--to", "CSR", "--verify"]
        ) == 0
        again = read_matrix(dst)
        assert dense_equal(again.to_dense(), DENSE)
        assert "verified" in capsys.readouterr().err

    def test_convert_with_planner(self, tmp_path):
        src = self.make_input(tmp_path)
        dst = tmp_path / "out.mtx"
        assert main(
            ["convert", str(src), str(dst), "--to", "DIA", "--plan",
             "--verify"]
        ) == 0
        assert dense_equal(read_matrix(dst).to_dense(), DENSE)

    def test_large_sparse_input_is_never_densified(self, tmp_path, capsys):
        """A 20,000 x 20,000 input with 3 entries converts and verifies
        from its entries: its dense image would hold 4e8 cells."""
        src = tmp_path / "big.mtx"
        src.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "20000 20000 3\n1 20000 1.5\n7 3 -2.0\n20000 1 4.0\n"
        )
        dst = tmp_path / "out.mtx"
        assert main(
            ["convert", str(src), str(dst), "--to", "CSR", "--verify"]
        ) == 0
        assert "verified" in capsys.readouterr().err
        out = read_matrix(dst)
        assert (out.nrows, out.ncols) == (20000, 20000)
        assert sorted(out.nonzeros()) == [
            (0, 19999, 1.5), (6, 2, -2.0), (19999, 0, 4.0)
        ]

    def test_verify_catches_a_wrong_result(self, tmp_path, monkeypatch,
                                           capsys):
        import repro

        src = self.make_input(tmp_path)
        real = repro.convert

        def corrupt(*args, **kwargs):
            out = real(*args, **kwargs)
            out.val[0] += 1.0
            return out

        monkeypatch.setattr(repro, "convert", corrupt)
        assert main(["convert", str(src), str(tmp_path / "out.mtx"),
                     "--to", "CSR", "--verify"]) == 1
        assert "VERIFICATION FAILED" in capsys.readouterr().err

    def test_binary_search_flag(self, tmp_path):
        src = self.make_input(tmp_path)
        dst = tmp_path / "out.mtx"
        assert main(
            ["convert", str(src), str(dst), "--to", "DIA",
             "--binary-search", "--verify"]
        ) == 0


class TestArgparse:
    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestPasses:
    def test_lists_passes_and_backends(self, capsys):
        assert main(["passes"]) == 0
        out = capsys.readouterr().out
        for name in ("dedup", "dce", "fusion", "binary-search"):
            assert name in out
        assert "python" in out and "numpy" in out
        assert "opt-in" in out
        assert "vectorized=true" in out

    def test_json_dump(self, capsys):
        import json

        assert main(["passes", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["name"] for p in payload["passes"]] == [
            "dedup", "dce", "fusion", "binary-search"
        ]
        assert payload["passes"][-1]["opt_in"] is True
        backends = {b["name"]: b for b in payload["backends"]}
        assert backends["numpy"]["capabilities"]["vectorized"] is True


class TestDisablePass:
    def make_input(self, tmp_path):
        path = tmp_path / "in.mtx"
        write_matrix(COOMatrix.from_dense(DENSE), path)
        return path

    def test_convert_with_disabled_pass(self, tmp_path):
        src = self.make_input(tmp_path)
        dst = tmp_path / "out.mtx"
        assert main(
            ["convert", str(src), str(dst), "--to", "CSR",
             "--disable-pass", "fusion", "--verify"]
        ) == 0
        assert dense_equal(read_matrix(dst).to_dense(), DENSE)

    def test_unknown_pass_is_a_friendly_error(self, tmp_path, capsys):
        src = self.make_input(tmp_path)
        dst = tmp_path / "out.mtx"
        assert main(
            ["convert", str(src), str(dst), "--to", "CSR",
             "--disable-pass", "fusoin"]
        ) == 2
        err = capsys.readouterr().err
        assert "unknown optimization pass" in err
        assert "registered passes" in err

    def test_trace_with_disabled_pass(self, capsys):
        assert main(
            ["trace", "COO", "CSR", "--nnz", "16", "--rows", "8",
             "--cols", "8", "--disable-pass", "fusion"]
        ) == 0
        out = capsys.readouterr().out
        assert "pass.dce" in out
        assert "pass.fusion" not in out


class TestTraceSpans:
    def test_per_pass_spans_present(self, capsys):
        assert main(
            ["trace", "COO", "CSR", "--nnz", "16", "--rows", "8",
             "--cols", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "synthesis.optimize" in out
        for name in ("pass.dedup", "pass.dce", "pass.fusion"):
            assert name in out

    def test_trace_without_src_dst_or_id_is_an_error(self, capsys):
        assert main(["trace"]) == 2
        assert "SRC DST" in capsys.readouterr().err

    def test_id_without_address_is_an_error(self, capsys):
        assert main(["trace", "--id", "abc123"]) == 2
        assert "--addr" in capsys.readouterr().err


@pytest.fixture(scope="class")
def live_server():
    from repro.serve import ConversionServer

    server = ConversionServer(port=0, workers=2).start_in_background()
    yield server
    server.shutdown()


class TestLiveDaemonCommands:
    """`repro tail / trace --id / stats --addr` against a live daemon."""

    def _addr(self, server):
        return "{}:{}".format(*server.address)

    def _convert_one(self, server, trace_id=None):
        from repro.serve import ServeClient

        matrix = COOMatrix.from_dense(DENSE)
        options = {"trace_id": trace_id} if trace_id else {}
        return ServeClient(server.address).convert(matrix, "CSR", **options)

    def test_tail_once_prints_request_rows(self, live_server, capsys):
        resp = self._convert_one(live_server, trace_id="tail-probe-1")
        assert resp["ok"]
        assert main(["tail", self._addr(live_server), "--once"]) == 0
        out = capsys.readouterr().out
        assert "tail-probe-1" in out
        assert "200" in out

    def test_trace_id_renders_the_remote_tree(self, live_server, capsys):
        trace_id = self._convert_one(live_server)["trace_id"]
        assert main(
            ["trace", "--id", trace_id, "--addr", self._addr(live_server)]
        ) == 0
        out = capsys.readouterr().out
        assert "serve.request" in out
        assert "execute" in out

    def test_trace_id_chrome_output_validates(self, live_server, capsys):
        import json

        from repro.obs import validate_chrome_trace

        trace_id = self._convert_one(live_server)["trace_id"]
        assert main(
            ["trace", "--id", trace_id, "--addr", self._addr(live_server),
             "--format", "chrome"]
        ) == 0
        assert validate_chrome_trace(
            json.loads(capsys.readouterr().out)
        ) == []

    def test_trace_unknown_id_fails_politely(self, live_server, capsys):
        assert main(
            ["trace", "--id", "never-recorded",
             "--addr", self._addr(live_server)]
        ) == 1
        assert "404" in capsys.readouterr().err

    def test_stats_scrapes_a_live_daemon(self, live_server, capsys):
        import json

        self._convert_one(live_server)
        assert main(
            ["stats", "--addr", self._addr(live_server),
             "--format", "json"]
        ) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert "metrics" in snapshot and "cache" in snapshot

    def test_stats_unreachable_daemon_is_an_error(self, capsys):
        assert main(
            ["stats", "--addr", "127.0.0.1:1", "--format", "json"]
        ) == 1
        assert "error" in capsys.readouterr().err


class TestTelemetryReports:
    def test_profile_then_stats_table_from_a_saved_snapshot(
        self, tmp_path, capsys
    ):
        from repro.obs import METRICS
        from repro.synthesis import clear_memo

        # A cold synthesis: an empty synthesis memo.  The registry is not
        # reset, so phase counts are compared to before.
        clear_memo()
        before = {
            s["labels"]["phase"]: s["value"]["count"]
            for s in METRICS.histogram("repro_synthesis_seconds")
            .snapshot()["samples"]
        }
        src = tmp_path / "in.mtx"
        write_matrix(COOMatrix.from_dense(DENSE), src)
        assert main(
            ["--profile", "convert", str(src), str(tmp_path / "out.mtx"),
             "--to", "CSR"]
        ) == 0
        err = capsys.readouterr().err
        series = dict(
            line.split(": ", 1) for line in err.splitlines() if ": " in line
        )
        for phase in ("compose", "solve", "build", "optimize", "codegen"):
            line = series[f'repro_synthesis_seconds{{phase="{phase}"}}']
            assert line.startswith(f"count={before.get(phase, 0) + 1} sum=")
        memo_outcomes = {
            name.rsplit("outcome=", 1)[1].strip('"}')
            for name in series
            if name.startswith("repro_ir_memo_lookups_total{")
        }
        assert memo_outcomes == {"hit", "miss"}
        assert "-- inspector cache --" in err
        assert int(series["repro_cache_miss_total"]) >= 1
        assert int(series["repro_cache_memo_hit_total"]) >= 0

        assert main(["stats", "--format", "json"]) == 0
        saved = tmp_path / "stats.json"
        saved.write_text(capsys.readouterr().out)
        assert main(["stats", "--input", str(saved)]) == 0
        table = capsys.readouterr().out
        assert table.startswith("== telemetry ==")
        assert 'repro_synthesis_seconds{phase="compose"}: count=' in table
