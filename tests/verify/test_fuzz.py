"""The differential fuzzer: determinism, coverage, and bug-detection power."""

import json

import pytest

from repro.runtime import COOMatrix, COOTensor3D
from repro.verify import FuzzReport, fuzz
from repro.verify.fuzz import (
    CASE_KINDS_2D,
    _run_case_2d,
    _shrink_dense,
    _shrink_tensor,
    fuzz as fuzz_fn,
)

import random


class TestGenerators:
    @pytest.mark.parametrize("kind,gen", CASE_KINDS_2D)
    def test_generators_produce_valid_dense(self, kind, gen):
        rng = random.Random(42)
        for _ in range(5):
            dense = gen(rng)
            assert dense and dense[0] is not None
            width = len(dense[0])
            assert all(len(row) == width for row in dense)


class TestGateProbes:
    def test_every_registered_container_has_a_malformed_probe(self):
        from repro.runtime import CONTAINERS
        from repro.verify.fuzz import _gate_probes

        probed = {type(c) for _, c, _ in _gate_probes(random.Random(0))}
        assert set(CONTAINERS.values()) <= probed

    @pytest.mark.parametrize("backend", ("python", "numpy"))
    def test_probes_raise_the_expected_errors(self, backend):
        from repro.errors import BoundsError
        from repro.verify.fuzz import _gate_probes, _run_gate_probe

        probes = _gate_probes(random.Random(0))
        assert any(kw.get("error") is BoundsError for _, _, kw in probes)
        for label, container, kwargs in probes:
            assert _run_gate_probe(label, container, kwargs, backend) is None


class TestFuzzRuns:
    def test_clean_smoke_run(self):
        report = fuzz(cases=12, seed=3, backends=("python",),
                      optimize_levels=(True,), ranks=(2,))
        assert report.ok, report.summary()
        assert report.cases_run == 12
        assert report.gate_probes > 0

    def test_3d_smoke_run(self):
        report = fuzz(cases=8, seed=5, backends=("python",),
                      optimize_levels=(True,), ranks=(3,))
        assert report.ok, report.summary()

    def test_deterministic_across_runs(self):
        a = fuzz(cases=10, seed=9, backends=("python",),
                 optimize_levels=(True,), ranks=(2,))
        b = fuzz(cases=10, seed=9, backends=("python",),
                 optimize_levels=(True,), ranks=(2,))
        assert a.to_dict() == b.to_dict()

    def test_report_is_json_serializable(self):
        report = fuzz(cases=4, seed=0, backends=("python",),
                      optimize_levels=(True,), ranks=(2,))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is True
        assert payload["cases_run"] == 4
        assert "combos_total" in payload

    def test_combo_coverage_accounting(self):
        report = fuzz(cases=300, seed=0, backends=("python",),
                      optimize_levels=(True,), ranks=(2,))
        assert report.combos_covered == report.combos_total
        assert "OK" in report.summary()


class TestCoverage:
    def test_every_container_kind_is_a_source(self):
        from repro.runtime import CONTAINERS, container_class
        from repro.verify.fuzz import SOURCES_2D, SOURCES_3D

        sourced = {container_class(s) for s in SOURCES_2D + SOURCES_3D}
        assert set(CONTAINERS.values()) <= sourced

    def test_doubly_compressed_and_blocked_column_pairs(self):
        report = fuzz(cases=40, seed=2, backends=("python",),
                      optimize_levels=(True,), ranks=(2,),
                      sources_2d=("DCSR", "BCSC", "CSR"),
                      dests_2d=("CSR", "BCSC", "BCSC3", "SCOO", "DIA"))
        assert report.ok, report.summary()
        assert report.combos_covered == report.combos_total == 16

    def test_every_declared_field_is_compared(self):
        from repro.runtime import BCSCMatrix
        from repro.verify.fuzz import _fields_differ

        dense = [[1.0, 0.0, 2.0], [0.0, 0.0, 3.0]]
        a = BCSCMatrix.from_dense(dense, 2)
        b = BCSCMatrix.from_dense(dense, 2)
        assert _fields_differ(a, b) is None
        b.brow[0] += 1
        assert _fields_differ(a, b) == "brow"
        b = BCSCMatrix.from_dense(dense, 2)
        b.data[-1] = 9.0
        assert _fields_differ(a, b) == "data"


class TestBugDetectionPower:
    """Injected faults must be caught — the fuzzer is not vacuous."""

    def test_detects_sabotaged_baseline(self, monkeypatch):
        from repro.baselines import taco_style

        real = taco_style.coo_to_csr

        def sabotaged(coo):
            out = real(coo)
            if out.val:
                out.val[0] += 1.0
            return out

        monkeypatch.setattr(taco_style, "coo_to_csr", sabotaged)
        report = fuzz_fn(cases=60, seed=1, backends=("python",),
                         optimize_levels=(True,), ranks=(2,),
                         sources_2d=("SCOO",), dests_2d=("CSR",),
                         shrink=False)
        assert not report.ok
        assert any(f.stage == "baseline" for f in report.failures)

    def test_detects_broken_gate(self, monkeypatch):
        # If the gate stops raising on malformed input, probes must fail.
        from repro.verify import gate

        monkeypatch.setattr(gate, "check_input",
                            lambda *a, **k: None)
        report = fuzz_fn(cases=0, seed=0, backends=("python",),
                         optimize_levels=(True,), ranks=(2,),
                         sources_2d=("SCOO",), dests_2d=("CSR",))
        assert any(f.stage == "gate" for f in report.failures)

    def test_run_case_flags_dense_corruption(self, monkeypatch):
        import repro

        real = repro.convert

        def corrupting(container, dst, **kw):
            kw["validate"] = "off"  # escape the gate, like the old bug
            out = real(container, dst, **kw)
            if getattr(out, "val", None):
                out.val[0] += 5.0
            return out

        monkeypatch.setattr(repro, "convert", corrupting)
        dense = [[1.0, 0.0], [0.0, 2.0]]
        outcome = _run_case_2d(dense, "SCOO", "CSR", "python", True,
                               random.Random(0))
        assert outcome is not None
        stage, _ = outcome
        assert stage == "dense"


class TestShrinking:
    def test_shrinks_to_single_cell(self):
        dense = [[1.0, 2.0, 0.0], [0.0, 3.0, 4.0], [5.0, 0.0, 6.0]]

        def predicate(candidate):
            # "Fails" whenever the poison value survives anywhere.
            return any(v == 3.0 for row in candidate for v in row)

        small = _shrink_dense(dense, predicate)
        nnz = sum(1 for row in small for v in row if v != 0.0)
        assert nnz == 1
        assert any(v == 3.0 for row in small for v in row)

    def test_shrink_trims_dimensions(self):
        dense = [[7.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]

        def predicate(candidate):
            return any(v == 7.0 for row in candidate for v in row)

        small = _shrink_dense(dense, predicate)
        assert len(small) == 1
        assert len(small[0]) == 1

    def test_shrink_tensor_drops_entries(self):
        tensor = COOTensor3D(
            (3, 3, 3), [0, 1, 2], [0, 1, 2], [0, 1, 2], [1.0, 9.0, 2.0]
        )

        def predicate(candidate):
            return 9.0 in candidate.val

        small = _shrink_tensor(tensor, predicate)
        assert small.nnz == 1
        assert small.val.tolist() == [9.0]

    def test_shrink_keeps_failure_when_nothing_smaller_fails(self):
        dense = [[1.0]]
        small = _shrink_dense(dense, lambda c: c == [[1.0]])
        assert small == [[1.0]]


class TestReportRendering:
    def test_summary_mentions_skipped_pairs(self):
        report = FuzzReport(seed=0, cases_requested=0)
        report.skipped_pairs.append("DIA->BCSR")
        report.combos_total = 4
        assert "DIA->BCSR" in report.summary()

    def test_cli_entry(self, capsys):
        from repro.__main__ import main

        status = main([
            "fuzz", "--cases", "6", "--seed", "2", "--backend", "python",
            "--optimize", "on", "--rank", "2",
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "OK" in out

    def test_cli_report_file(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "report.json"
        status = main([
            "fuzz", "--cases", "4", "--seed", "2", "--backend", "python",
            "--optimize", "on", "--rank", "2", "--report", str(path),
        ])
        assert status == 0
        payload = json.loads(path.read_text())
        assert payload["ok"] is True


class TestRandomFormats:
    """Differential fuzzing of randomly generated level compositions."""

    def test_clean_smoke_run(self):
        from repro.verify import fuzz_random_formats

        report = fuzz_random_formats(
            6, seed=1, backends=("python",), optimize_levels=(True,)
        )
        assert report.ok, report.summary()
        assert report.cases_run == 6
        assert report.conversions_checked >= 6

    def test_deterministic_across_runs(self):
        from repro.verify import fuzz_random_formats

        first = fuzz_random_formats(
            4, seed=9, backends=("python",), optimize_levels=(True,)
        )
        second = fuzz_random_formats(
            4, seed=9, backends=("python",), optimize_levels=(True,)
        )
        assert first.to_dict() == second.to_dict()

    def test_dest_capable_compositions_fuzz_both_directions(self):
        from repro.verify import fuzz_random_formats

        report = fuzz_random_formats(
            10, seed=1, backends=("python",), optimize_levels=(True,)
        )
        # With 10 compositions some must be dest-capable, so more
        # conversions than one per case are checked.
        assert report.conversions_checked > report.cases_run

    def test_detects_broken_interpretation(self, monkeypatch):
        """The oracle actually has teeth: corrupt outputs get flagged."""
        import importlib

        fuzz_mod = importlib.import_module("repro.verify.fuzz")

        original = fuzz_mod._env_from_outputs

        def corrupted(conversion, outputs, src_env):
            env = original(conversion, outputs, src_env)
            if env.get("Asrc"):
                env["Asrc"] = list(env["Asrc"])
                env["Asrc"][0] += 1.0
            return env

        monkeypatch.setattr(fuzz_mod, "_env_from_outputs", corrupted)
        report = fuzz_mod.fuzz_random_formats(
            6, seed=1, backends=("python",), optimize_levels=(True,)
        )
        assert not report.ok
        assert any(f.stage == "dense" for f in report.failures)

    def test_cli_random_formats(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "levels-report.json"
        status = main([
            "fuzz", "--random-formats", "--cases", "4", "--seed", "2",
            "--backend", "python", "--optimize", "on",
            "--report", str(path),
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "OK" in out
        payload = json.loads(path.read_text())
        assert payload["ok"] is True
        assert payload["cases_run"] == 4
