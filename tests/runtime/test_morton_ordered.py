"""Unit tests for Morton codes, ordered structures, and the executor."""

import pytest

from repro.runtime import (
    COOTensor3D,
    LexBucketPermutation,
    MortonCOOTensor3D,
    OrderedList,
    OrderedSet,
    compile_inspector,
    demorton2,
    demorton3,
    morton,
    morton2,
    morton3,
    morton_nd,
)
from repro.runtime.executor import bsearch


class TestMorton:
    def test_known_values(self):
        assert morton2(0, 0) == 0
        assert morton2(1, 0) == 1
        assert morton2(0, 1) == 2
        assert morton2(1, 1) == 3
        assert morton2(2, 0) == 4

    def test_morton3_known_values(self):
        assert morton3(1, 0, 0) == 1
        assert morton3(0, 1, 0) == 2
        assert morton3(0, 0, 1) == 4
        assert morton3(1, 1, 1) == 7

    def test_roundtrip_2d(self):
        for i in range(17):
            for j in range(17):
                assert demorton2(morton2(i, j)) == (i, j)

    def test_roundtrip_3d(self):
        for i in range(0, 30, 3):
            for j in range(0, 30, 5):
                for k in range(0, 30, 7):
                    assert demorton3(morton3(i, j, k)) == (i, j, k)

    def test_morton_dispatch(self):
        assert morton(3, 5) == morton2(3, 5)
        assert morton(3, 5, 7) == morton3(3, 5, 7)

    def test_morton_nd_matches_specialized(self):
        assert morton_nd([3, 5]) == morton2(3, 5)
        assert morton_nd([3, 5, 7]) == morton3(3, 5, 7)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            morton2(-1, 0)
        with pytest.raises(ValueError):
            morton3(0, -1, 0)

    def test_large_coordinates(self):
        i, j = 2**40 + 123, 2**35 + 7
        assert demorton2(morton2(i, j)) == (i, j)


class TestOrderedList:
    def test_insertion_order_without_key(self):
        ol = OrderedList(2)
        ol.insert(5, 5)
        ol.insert(1, 1)
        assert ol.lookup(5, 5) == 0
        assert ol.lookup(1, 1) == 1

    def test_key_ordering(self):
        ol = OrderedList(2, key=lambda i, j: (j, i))
        ol.insert(0, 1)
        ol.insert(1, 0)
        assert ol.lookup(1, 0) == 0
        assert ol.lookup(0, 1) == 1

    def test_descending(self):
        ol = OrderedList(1, key=lambda x: x, op=">")
        for v in (1, 3, 2):
            ol.insert(v)
        assert ol.lookup(3) == 0
        assert ol.lookup(1) == 2

    def test_morton_key(self):
        ol = OrderedList(2, key=morton2)
        ol.insert(1, 1)   # morton 3
        ol.insert(0, 1)   # morton 2
        assert ol.lookup(0, 1) == 0

    def test_stable_for_equal_keys(self):
        ol = OrderedList(2, key=lambda i, j: j)
        ol.insert(7, 0)
        ol.insert(3, 0)
        assert ol.lookup(7, 0) == 0  # first inserted wins ties

    def test_arity_enforced(self):
        ol = OrderedList(2)
        with pytest.raises(ValueError):
            ol.insert(1)

    def test_missing_lookup_raises(self):
        ol = OrderedList(1)
        ol.insert(1)
        with pytest.raises(KeyError):
            ol.lookup(2)

    def test_len_and_ordered_items(self):
        ol = OrderedList(1, key=lambda x: x)
        for v in (3, 1, 2):
            ol.insert(v)
        assert len(ol) == 3
        assert ol.ordered_items() == [(1,), (2,), (3,)]

    def test_call_is_lookup(self):
        ol = OrderedList(1)
        ol.insert(9)
        assert ol(9) == 0

    def test_invalid_op(self):
        with pytest.raises(ValueError):
            OrderedList(1, op="<=")


class TestLexBucketPermutation:
    def test_matches_ordered_list(self):
        # (i, j) entries sorted row-major, destination order (j, i).
        entries = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 1)]
        reference = OrderedList(2, key=lambda i, j: (j, i))
        bucket = LexBucketPermutation(3, which=1, in_arity=2)
        for e in entries:
            reference.insert(*e)
            bucket.insert(*e)
        for e in entries:
            assert bucket.lookup(*e) == reference.lookup(*e)

    def test_fill_resets_after_full_pass(self):
        entries = [(0, 1), (1, 0)]
        bucket = LexBucketPermutation(2, which=1, in_arity=2)
        for e in entries:
            bucket.insert(*e)
        first_pass = [bucket.lookup(*e) for e in entries]
        second_pass = [bucket.lookup(*e) for e in entries]
        assert first_pass == second_pass

    def test_len(self):
        bucket = LexBucketPermutation(4, which=0, in_arity=1)
        bucket.insert(2)
        bucket.insert(0)
        assert len(bucket) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            LexBucketPermutation(0, which=0, in_arity=1)
        with pytest.raises(ValueError):
            LexBucketPermutation(4, which=2, in_arity=2)


class TestOrderedSet:
    def test_sorted_unique(self):
        s = OrderedSet()
        for v in (3, -1, 3, 0, -1):
            s.insert(v)
        assert s.to_list() == [-1, 0, 3]
        assert len(s) == 3

    def test_indexing_and_contains(self):
        s = OrderedSet()
        s.insert(5)
        s.insert(2)
        assert s[0] == 2
        assert 5 in s and 3 not in s

    def test_index_of(self):
        s = OrderedSet()
        for v in (4, 1, 9):
            s.insert(v)
        assert s.index_of(4) == 1
        with pytest.raises(KeyError):
            s.index_of(7)

    def test_iteration(self):
        s = OrderedSet()
        for v in (2, 1):
            s.insert(v)
        assert list(s) == [1, 2]


class TestBsearch:
    def test_found(self):
        assert bsearch([1, 3, 5, 7], 5) == 2
        assert bsearch([1, 3, 5, 7], 1) == 0
        assert bsearch([1, 3, 5, 7], 7) == 3

    def test_absent(self):
        assert bsearch([1, 3, 5, 7], 4) == -1
        assert bsearch([], 4) == -1

    def test_works_on_ordered_set(self):
        s = OrderedSet()
        for v in (-3, 0, 4):
            s.insert(v)
        assert bsearch(s, 0) == 1


class TestExecutor:
    def test_compile_and_run(self):
        src = "def f(a):\n    return {'b': [x * 2 for x in a]}\n"
        fn = compile_inspector("f", src)
        assert fn([1, 2])["b"] == [2, 4]

    def test_namespace_provides_helpers(self):
        src = (
            "def f():\n"
            "    return {'m': MORTON(1, 1), 'b': BSEARCH([1, 2, 3], 2)}\n"
        )
        fn = compile_inspector("f", src)
        out = fn()
        assert out == {"m": 3, "b": 1}

    def test_syntax_error_reported(self):
        with pytest.raises(ValueError):
            compile_inspector("f", "def f(:\n    pass")

    def test_missing_function_rejected(self):
        with pytest.raises(ValueError):
            compile_inspector("g", "def f():\n    pass")


class TestTensors3D:
    def test_check_and_dict(self):
        t = COOTensor3D((2, 2, 2), [0, 1], [1, 0], [0, 1], [1.0, 2.0])
        t.check()
        assert t.to_dict() == {(0, 1, 0): 1.0, (1, 0, 1): 2.0}

    def test_check_rejects_duplicates(self):
        t = COOTensor3D((2, 2, 2), [0, 0], [1, 1], [0, 0], [1.0, 2.0])
        with pytest.raises(ValueError):
            t.check()

    def test_sorted_lexicographic(self):
        t = COOTensor3D((2, 2, 2), [1, 0], [0, 1], [0, 1], [1.0, 2.0])
        s = t.sorted_lexicographic()
        assert s.row.tolist() == [0, 1]
        assert s.to_dict() == t.to_dict()

    def test_morton_from_coo(self):
        t = COOTensor3D((4, 4, 4), [3, 0], [3, 0], [3, 1], [1.0, 2.0])
        m = MortonCOOTensor3D.from_coo(t)
        m.check()
        assert m.to_dict() == t.to_dict()
        assert m.row[0] == 0  # (0,0,1) has the smaller Morton key
