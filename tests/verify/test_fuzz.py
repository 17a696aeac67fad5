"""The differential fuzzer: determinism, coverage, and bug-detection power."""

import json

import numpy as np
import pytest

from repro.formats.levels import Cells
from repro.verify import FuzzReport, fuzz
from repro.verify.fuzz import (
    CASE_KINDS_2D,
    CASE_KINDS_3D,
    _run_case,
    _shrink,
    fuzz as fuzz_fn,
)

import random


def _same(a, b):
    """Whether two Cells hold the same shape and columns."""
    return a.shape == b.shape and all(
        x.tolist() == y.tolist()
        for x, y in zip(a.coords + (a.values,), b.coords + (b.values,))
    )


class TestGenerators:
    @pytest.mark.parametrize("kind,gen", CASE_KINDS_2D + CASE_KINDS_3D)
    def test_generators_produce_valid_dense(self, kind, gen):
        # Distinct in-bounds coordinates in row-major order, each with a
        # nonzero value: exactly the cells of a dense image.
        rng = random.Random(42)
        for _ in range(5):
            cells = gen(rng)
            rank = len(cells.shape)
            assert rank == (3 if (kind, gen) in CASE_KINDS_3D else 2)
            assert min(cells.shape) >= 1
            assert _same(cells, Cells.from_dense(cells.to_dense(), rank))


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

    def test_default_budget_runs_one_case_per_combo(self):
        report = fuzz(seed=0, backends=("python",),
                      optimize_levels=(True,), ranks=(3,))
        assert report.ok, report.summary()
        assert report.combos_total > 0
        assert report.cases_run == report.cases_requested \
            == report.combos_covered == report.combos_total


class TestCoverage:
    def test_every_container_kind_is_a_source(self):
        from repro.runtime import CONTAINERS, container_class
        from repro.verify.fuzz import SOURCES_2D, SOURCES_3D

        sourced = {container_class(s) for s in SOURCES_2D + SOURCES_3D}
        assert set(CONTAINERS.values()) <= sourced

    def test_every_planner_pair_is_a_combo(self):
        from repro.planner import PLANNABLE_2D, PLANNABLE_3D
        from repro.verify.fuzz import (
            DESTS_2D,
            DESTS_3D,
            SOURCES_2D,
            SOURCES_3D,
            _synthesizable_pairs,
        )

        def pairs(sources, dests):
            combos = _synthesizable_pairs(sources, dests, ("python",),
                                          (True,), [])
            return {(src, dst) for src, dst, *_ in combos}

        planner = pairs(PLANNABLE_2D, PLANNABLE_2D) | pairs(PLANNABLE_3D,
                                                           PLANNABLE_3D)
        fuzzed = pairs(SOURCES_2D, DESTS_2D) | pairs(SOURCES_3D, DESTS_3D)
        assert planner, "no planner pair synthesizes"
        assert not planner - fuzzed, sorted(planner - fuzzed)

    def test_doubly_compressed_and_blocked_column_pairs(self):
        report = fuzz(cases=40, seed=2, backends=("python",),
                      optimize_levels=(True,), ranks=(2,),
                      sources_2d=("DCSR", "BCSC", "CSR"),
                      dests_2d=("CSR", "BCSC", "BCSC3", "SCOO", "DIA"))
        assert report.ok, report.summary()
        assert report.combos_covered == report.combos_total == 16

    def test_every_declared_field_is_compared(self):
        from repro.runtime import BCSCMatrix
        from repro.verify.fuzz import _differing, _fields

        dense = [[1.0, 0.0, 2.0], [0.0, 0.0, 3.0]]
        a = BCSCMatrix.from_dense(dense, 2)
        b = BCSCMatrix.from_dense(dense, 2)
        assert _differing(_fields(a), _fields(b)) == []
        b.brow[0] += 1
        assert _differing(_fields(a), _fields(b)) == ["brow"]
        b = BCSCMatrix.from_dense(dense, 2)
        b.data[-1] = 9.0
        assert _differing(_fields(a), _fields(b)) == ["data"]

    def test_element_types_are_compared(self):
        from array import array

        from repro.verify.fuzz import _differing

        ints = {"idx": array("q", [1, 2]), "NNZ": 2}
        assert _differing(ints, {"idx": array("q", [1, 2]), "NNZ": 2}) == []
        assert _differing(ints, {"idx": array("d", [1.0, 2.0]),
                                 "NNZ": 2.0}) == ["idx", "NNZ"]
        assert _differing(ints, {"idx": array("q", [1, 2])}) == ["NNZ"]


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
        cells = Cells.from_dense([[1.0, 0.0], [0.0, 2.0]], 2)
        outcome = _run_case(cells, "SCOO", "CSR", "python", True,
                            random.Random(0))
        assert outcome is not None
        stage, _ = outcome
        assert stage == "dense"

    @pytest.mark.parametrize("rank", [2, 3])
    def test_wrong_output_is_judged_not_rejected(self, rank, monkeypatch):
        # The input gate passes a well-formed input; a tier that then
        # returns a wrong container must read as a structure or dense
        # finding, not as "well-formed input rejected".
        pytest.importorskip("numpy")
        from repro.backends import get_backend

        numpy_tier = get_backend("numpy")
        real = numpy_tier.materialize

        def corrupting(outputs):
            out = real(outputs)
            out["Adst"][0] += 5.0
            return out

        monkeypatch.setattr(numpy_tier, "materialize", corrupting)
        src, dst, dense = {
            2: ("SCOO", "CSR", [[1.0, 0.0], [0.0, 2.0]]),
            3: ("SCOO3D", "MCOO3", [[[0.0, 1.0], [0.0, 0.0]],
                                    [[0.0, 0.0], [2.0, 0.0]]]),
        }[rank]
        outcome = _run_case(Cells.from_dense(dense, rank), src, dst,
                            "numpy", True, random.Random(0))
        assert outcome is not None
        stage, message = outcome
        assert stage in ("structure", "dense"), message


    def test_unsorted_output_is_a_structure_finding(self, monkeypatch):
        # SCOO3D promises lexicographic order: a tier returning the right
        # entries out of order is caught by the output's own invariants,
        # not only by the cross-check against another tier.
        pytest.importorskip("numpy")
        from repro.backends import get_backend

        numpy_tier = get_backend("numpy")
        real = numpy_tier.materialize

        def reversing(outputs):
            return {
                name: v if isinstance(v, (int, float)) else v[::-1]
                for name, v in real(outputs).items()
            }

        monkeypatch.setattr(numpy_tier, "materialize", reversing)
        dense = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 3.0]]]
        outcome = _run_case(Cells.from_dense(dense, 3), "COO3D", "SCOO3D",
                            "numpy", True, random.Random(0))
        assert outcome is not None
        stage, message = outcome
        assert stage == "structure", message


class TestKindSchedule:
    """A combo's case kind depends on its position among its own rank's
    combos and on the seed, not on which other ranks run beside it."""

    @staticmethod
    def _kinds(monkeypatch, **options) -> dict:
        import importlib

        fuzz_mod = importlib.import_module("repro.verify.fuzz")
        # Each generator returns its kind's name as the case, and the
        # case runner records it per combo without converting anything.
        seen: dict = {}
        for rank, kinds in ((2, CASE_KINDS_2D), (3, CASE_KINDS_3D)):
            monkeypatch.setitem(fuzz_mod._CASE_KINDS, rank, tuple(
                (name, lambda rng, name=name: name) for name, _ in kinds
            ))

        def record(kind, src, dst, backend, optimize, rng, bsearch=False):
            seen.setdefault((src, dst, backend, optimize, bsearch),
                            []).append(kind)

        monkeypatch.setattr(fuzz_mod, "_run_case", record)
        report = fuzz_fn(backends=("python",), optimize_levels=(True,),
                         sources_2d=("SCOO",), dests_2d=("CSR",),
                         **options)
        assert report.combos_covered == report.combos_total
        return {combo: kinds[0] for combo, kinds in seen.items()
                if combo[0] in ("COO3D", "SCOO3D", "MCOO3", "CSF")}

    def test_other_ranks_leave_3d_kinds_alone(self, monkeypatch):
        alone = self._kinds(monkeypatch, ranks=(3,))
        assert alone
        assert self._kinds(monkeypatch, ranks=(2, 3)) == alone

    def test_seeds_rotate_every_3d_kind(self, monkeypatch):
        by_seed = [self._kinds(monkeypatch, ranks=(3,), seed=seed)
                   for seed in (0, 1, 2)]
        names = {name for name, _ in CASE_KINDS_3D}
        for combo in by_seed[0]:
            assert {kinds[combo] for kinds in by_seed} == names, combo


class TestShrinking:
    """One shrinker for every rank: it drops entries, then trims unused
    trailing indices off every axis."""

    def test_shrinks_to_single_cell(self):
        dense = [[1.0, 2.0, 0.0], [0.0, 3.0, 4.0], [5.0, 0.0, 6.0]]

        def predicate(candidate):
            # "Fails" whenever the poison value survives anywhere.
            return 3.0 in candidate.values

        small = _shrink(Cells.from_dense(dense, 2), predicate)
        assert small.values.tolist() == [3.0]
        assert [c.tolist() for c in small.coords] == [[1], [1]]

    def test_shrink_trims_dimensions(self):
        def predicate(candidate):
            return 7.0 in candidate.values

        for shape in ((3, 3), (3, 4, 2)):
            cells = Cells(shape, tuple(np.array([0]) for _ in shape),
                          np.array([7.0]))
            small = _shrink(cells, predicate)
            assert small.shape == (1,) * len(shape)
            assert small.values.tolist() == [7.0]

    def test_shrink_keeps_used_trailing_indices(self):
        # The entry at (2, 3, 1) pins every axis: nothing trims.
        cells = Cells((3, 4, 2), (np.array([2]), np.array([3]),
                                  np.array([1])), np.array([5.0]))
        small = _shrink(cells, lambda c: 5.0 in c.values)
        assert _same(small, cells)

    def test_shrink_tensor_drops_entries(self):
        tensor = Cells((3, 3, 3), tuple(np.arange(3) for _ in range(3)),
                       np.array([1.0, 9.0, 2.0]))

        def predicate(candidate):
            return 9.0 in candidate.values

        small = _shrink(tensor, predicate)
        assert small.values.tolist() == [9.0]
        assert small.shape == (2, 2, 2)

    def test_shrink_keeps_failure_when_nothing_smaller_fails(self):
        cells = Cells.from_dense([[1.0]], 2)
        small = _shrink(cells, lambda c: _same(c, cells))
        assert _same(small, cells)

    def test_failure_input_records_dims_and_entries(self, monkeypatch):
        # A failing 2-D case reports its shrunk input the way a 3-D one
        # does: dims and [coordinate, value] entries.
        import repro

        real = repro.convert

        def corrupting(container, dst, **kw):
            out = real(container, dst, **kw)
            if getattr(out, "val", None):
                out.val[0] += 5.0
            return out

        monkeypatch.setattr(repro, "convert", corrupting)
        # At seed 0 the one combo's case 0 draws the empty kind, case 1
        # (the next round) a single cell.
        report = fuzz_fn(cases=2, seed=0, backends=("python",),
                         optimize_levels=(True,), ranks=(2,),
                         sources_2d=("SCOO",), dests_2d=("CSR",))
        [failure] = report.failures
        assert failure.stage == "dense"
        # One entry left, and no axis extends past it.
        [[coord, value]] = failure.input_repr["entries"]
        assert failure.input_repr["dims"] == [c + 1 for c in coord]
        assert value != 0.0


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

    def test_cli_default_covers_every_combo(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "report.json"
        status = main([
            "fuzz", "--seed", "0", "--backend", "python", "--optimize",
            "on", "--rank", "3", "--report", str(path),
        ])
        assert status == 0
        assert "WARNING" not in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload["combos_covered"] == payload["combos_total"] > 0
        assert payload["cases_run"] == payload["combos_total"]

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
