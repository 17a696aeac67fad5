"""Unit tests for the synthesis engine: structure of generated inspectors."""

import pytest

from repro.formats import coo, coo3d, csc, csr, dia, get_format, mcoo, mcoo3, scoo
from repro.synthesis import SynthesisError, synthesize
from tests.tiers import needs_c


class TestScooToCsr:
    """The paper's fast path: sorted COO to CSR, permutation dead-coded."""

    def setup_method(self):
        self.conv = synthesize(scoo(), csr())

    def test_no_permutation_in_code(self):
        assert "OrderedList" not in self.conv.source
        assert any("dead code" in n for n in self.conv.notes)

    def test_single_population_loop(self):
        # Population and copy fuse into one loop; the monotonic fix-up over
        # rows is the only other loop.
        assert self.conv.source.count("for ") == 2

    def test_reduction_strengthened(self):
        assert "max(rowptr" not in self.conv.source.split("for x")[0]
        assert any("strengthened" in n for n in self.conv.notes)

    def test_monotonic_fixup_present(self):
        assert "rowptr[x] = max(rowptr[x], rowptr[x - 1])" in self.conv.source

    def test_params_and_returns(self):
        assert set(self.conv.params) == {"row1", "col1", "NR", "NC", "NNZ",
                                         "Asrc"}
        assert set(self.conv.returns) == {"rowptr", "col2", "Adst"}

    def test_c_source_generated(self):
        assert "for (v_n = 0; v_n <= v_NNZ - 1; v_n++) {" in self.conv.c_source

    def test_composed_relation_in_notes(self):
        assert any("composed relation" in n for n in self.conv.notes)


class TestScooToCsc:
    def setup_method(self):
        self.conv = synthesize(scoo(), csc())

    def test_bucket_sort_inlined(self):
        assert "P_count" in self.conv.source
        assert "P_fill" in self.conv.source
        assert any("bucket" in n for n in self.conv.notes)

    def test_colptr_aliased_to_prefix(self):
        assert "colptr = list(P_count)" in self.conv.source
        assert any("aliased" in n for n in self.conv.notes)

    def test_unoptimized_uses_permutation_object(self):
        conv = synthesize(scoo(), csc(), optimize=False)
        assert "LexBucketPermutation" in conv.source


class TestScooToMcoo:
    def setup_method(self):
        self.conv = synthesize(scoo(), mcoo())

    def test_ordered_list_with_morton_key(self):
        assert "OrderedList(2, 1, key=lambda i, j: (MORTON(i, j),)" in \
            self.conv.source

    def test_population_scatters_through_lookup(self):
        assert "P(" in self.conv.source

    def test_returns_morton_arrays(self):
        assert {"row_m", "col_m", "Adst"} <= set(self.conv.returns)


class TestScooToDia:
    def test_linear_search_shape(self):
        conv = synthesize(scoo(), dia())
        assert "off.insert(col1[n] - row1[n])" in conv.source
        assert "for d in range(0, ND):" in conv.source
        assert "ND = len(off)" in conv.source

    def test_copy_not_fused_with_population(self):
        conv = synthesize(scoo(), dia())
        assert any("blocks fusion" in n for n in conv.notes)

    def test_binary_search_rewrite(self):
        conv = synthesize(scoo(), dia(), binary_search=True)
        assert "BSEARCH(off, col1[n] - row1[n])" in conv.source
        assert "for d in range" not in conv.source
        assert any("binary search" in n for n in conv.notes)


class TestUnsortedCooSources:
    def test_coo_to_csr_needs_permutation(self):
        conv = synthesize(coo(), csr())
        assert "OrderedList" in conv.source or "P_count" in conv.source
        assert any("permutation required" in n for n in conv.notes)

    def test_coo_to_coo_identity_copy(self):
        conv = synthesize(coo(), coo())
        # Unordered destination reuses source traversal order; the renamed
        # UFs are scattered directly.
        assert any("unordered" in n for n in conv.notes)
        assert "row12" in conv.returns or "row12" in conv.source


class TestCsrSources:
    def test_csr_to_csc_walks_rows(self):
        conv = synthesize(csr(), csc())
        assert "for k in range(rowptr[ii], rowptr[ii + 1]):" in conv.source

    def test_csr_to_scoo_is_identity_order(self):
        conv = synthesize(csr(), scoo())
        assert any("orderings match" in n for n in conv.notes)
        assert "OrderedList" not in conv.source


class TestDiaSource:
    def test_dia_to_csr_derives_nnz(self):
        conv = synthesize(dia(), csr())
        assert "NNZ = len(P)" in conv.source
        assert "ND" in conv.params

    def test_dia_source_guards_column_range(self):
        conv = synthesize(dia(), csr())
        # Padding positions (j out of range) must be skipped.
        assert "if (" in conv.source


class Test3D:
    def test_coo3d_to_mcoo3(self):
        conv = synthesize(coo3d(sorted_lex=True), mcoo3())
        assert "MORTON(i, j, k)" in conv.source
        assert {"row_m", "col_m", "z_m", "Adst"} <= set(conv.returns)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(SynthesisError):
            synthesize(coo(), mcoo3())


class TestSameFormatRoundtrip:
    def test_scoo_to_scoo_renames_collisions(self):
        conv = synthesize(scoo(), scoo())
        # Destination UFs must not collide with source UFs.
        assert conv.uf_output_map["row1"] != "row1"

    def test_csr_to_csr(self):
        conv = synthesize(csr(), csr())
        assert conv.uf_output_map["rowptr"] == "rowptr2"


class TestNamesAndMetadata:
    def test_default_name(self):
        assert synthesize(scoo(), csr()).name == "scoo_to_csr"

    def test_custom_name(self):
        assert synthesize(scoo(), csr(), name="f").name == "f"

    def test_source_compiles(self):
        conv = synthesize(scoo(), csr())
        assert callable(conv.compile())

    def test_all_pairwise_2d_synthesize(self):
        names = ["COO", "SCOO", "MCOO", "CSR", "CSC", "DIA"]
        for src_name in names:
            for dst_name in names:
                conv = synthesize(get_format(src_name), get_format(dst_name))
                assert conv.source.startswith("def ")


def _library_sources():
    from repro.formats.library import all_formats

    dense_2d = [[0.0, 5.0, 0.0, 7.0], [0.0, 0.0, 0.0, 0.0],
                [1.0, 0.0, 2.0, 0.0], [0.0, 4.0, 0.0, 3.0]]
    dense_3d = [[[0.0, 1.0], [2.0, 0.0]], [[0.0, 0.0], [3.0, 4.0]]]
    for fmt in all_formats():
        yield fmt, fmt.levels.assemble(dense_3d if fmt.rank == 3 else dense_2d)


class TestBinarySearchEveryPair:
    """``binary_search=True`` only rewrites searches of increasing UFs."""

    @pytest.mark.parametrize("optimize", [True, False])
    def test_matches_linear_search_outputs(self, optimize):
        from repro.formats.library import all_formats

        checked = 0
        for src, env in _library_sources():
            for dst in all_formats():
                if dst.name == src.name:
                    continue
                try:
                    linear = synthesize(src, dst, optimize=optimize)
                except SynthesisError:
                    continue
                binary = synthesize(src, dst, optimize=optimize,
                                    binary_search=True)
                args = {p: env[p] for p in linear.params}
                assert binary(**args) == linear(**args), (src.name, dst.name)
                checked += 1
        assert checked == 81

    @pytest.mark.parametrize("src", ["CSR", "CSC", "DCSR"])
    def test_position_loops_are_not_searches(self, src):
        # The position loop k (rowptr(i) <= k < rowptr(i+1), j = col(k))
        # walks a UF that only rises within a row: the search is over off.
        for optimize in (True, False):
            conv = synthesize(get_format(src), dia(), optimize=optimize,
                              binary_search=True)
            assert "= BSEARCH(off, " in conv.source
            assert "for d in range" not in conv.source


@pytest.mark.parametrize(
    "backend", ["python", "numpy", pytest.param("c", marks=needs_c)]
)
def test_one_lowering_per_synthesis(backend, monkeypatch):
    """The computation is lowered once; every consumer prints that program."""
    from repro.planner import estimate_cost
    from repro.spf import Computation

    calls = []
    lower = Computation.lower

    def counting(self):
        calls.append(self.name)
        return lower(self)

    monkeypatch.setattr(Computation, "lower", counting)
    conv = synthesize(coo(), csc(), backend=backend)
    assert calls == [conv.name]
    assert "int repro_run(" in conv.c_source
    estimate_cost(conv)
    assert calls == [conv.name]
