"""The derived, vectorized ``check()`` against the scalar audits.

Every container's ``check()`` runs the invariants its level composition
derives (:meth:`repro.formats.levels.Composition.check`).  These tests
mutate valid containers of every registered kind — an index pushed out
of range (including past int64), a duplicated entry, an adjacent swap, a
corrupted pointer, an array grown or shrunk — and require the derived
check and the scalar oracle (:mod:`tests.runtime.scalar_checks`) to agree
on the error subclass and its ``coordinate`` / ``position`` /
``positions`` evidence, or to both accept the container.
"""

from __future__ import annotations

import random
from array import array

import pytest

from repro.errors import (
    BoundsError,
    DuplicateCoordinateError,
    UnsortedInputError,
    ValidationError,
)
from repro.formats import invariants
from repro.formats.levels import random_composition
from repro.runtime import (
    BCSCMatrix,
    BCSRMatrix,
    COOMatrix,
    COOTensor3D,
    CSCMatrix,
    CSFTensor,
    CSRMatrix,
    DCSRMatrix,
    DIAMatrix,
    ELLMatrix,
    MortonCOOMatrix,
    MortonCOOTensor3D,
)
from repro.verify import gate

from .scalar_checks import scalar_check, scalar_first_unsorted

#: Values a mutation may write into an index array: the usual off-by-one
#: suspects plus the int64 extremes.  Index arrays are ``array('q')``, so
#: a value past int64 is stored as the nearest extreme (:func:`_clamp`);
#: constructors reject such values outright (tests/runtime/test_storage.py).
EXTREMES = (-1, -2, 2**63, 2**63 - 1, -(2**63) - 1, 2**70)


def _clamp(value: int) -> int:
    return max(-(2**63), min(value, 2**63 - 1))


def _dense(rng: random.Random, nrows: int, ncols: int) -> list:
    dense = [[0.0] * ncols for _ in range(nrows)]
    for _ in range(rng.randint(0, nrows * ncols // 2 + 1)):
        dense[rng.randrange(nrows)][rng.randrange(ncols)] = float(
            rng.randint(1, 9)
        )
    return dense


def _tensor(rng: random.Random) -> COOTensor3D:
    dims = tuple(rng.randint(1, 5) for _ in range(3))
    cells = sorted({
        tuple(rng.randrange(d) for d in dims)
        for _ in range(rng.randint(0, 14))
    })
    axes = [list(a) for a in zip(*cells)] if cells else [[], [], []]
    return COOTensor3D(dims, *axes, [1.0 + n for n in range(len(cells))])


def _valid(kind: str, rng: random.Random):
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
    dense = _dense(rng, nrows, ncols)
    coo = COOMatrix.from_dense(dense)
    if kind == "COO":
        order = list(range(coo.nnz))
        rng.shuffle(order)
        return COOMatrix(nrows, ncols, [coo.row[n] for n in order],
                         [coo.col[n] for n in order],
                         [coo.val[n] for n in order])
    if kind == "SCOO":
        return coo
    if kind == "MCOO":
        return MortonCOOMatrix.from_coo(coo)
    if kind == "CSR":
        return CSRMatrix.from_dense(dense)
    if kind == "CSC":
        return CSCMatrix.from_dense(dense)
    if kind == "DIA":
        return DIAMatrix.from_dense(dense)
    if kind == "BCSR":
        return BCSRMatrix.from_dense(dense, rng.choice((1, 2, 3)))
    if kind == "BCSC":
        return BCSCMatrix.from_dense(dense, rng.choice((1, 2, 3)))
    if kind == "ELL":
        natural = max(sum(1 for v in r if v) for r in dense)
        return ELLMatrix.from_dense(dense, natural + rng.randint(0, 2))
    if kind == "DCSR":
        return DCSRMatrix.from_dense(dense)
    tensor = _tensor(rng)
    if kind == "COO3D":
        return tensor
    if kind == "MCOO3":
        return MortonCOOTensor3D.from_coo(tensor)
    return CSFTensor.from_coo(tensor)


KINDS = ("COO", "SCOO", "MCOO", "CSR", "CSC", "DIA", "BCSR", "BCSC", "ELL",
         "DCSR", "COO3D", "MCOO3", "CSF")

#: Coordinate containers: mutations may move whole coordinate tuples.
COORD_AXES = {
    COOMatrix: ("row", "col"),
    COOTensor3D: ("row", "col", "z"),
}


def _arrays(container) -> list[str]:
    return [
        name for name, value in vars(container).items()
        if isinstance(value, array)
    ]


def _mutate(container, rng: random.Random) -> str:
    """Apply one seeded mutation in place; returns its description."""
    names = _arrays(container)
    name = rng.choice(names)
    arr = getattr(container, name)
    is_index = name not in ("val", "data")
    axes = next(
        (a for cls, a in COORD_AXES.items() if isinstance(container, cls)),
        (),
    )
    ntuples = min((len(getattr(container, a)) for a in axes), default=0)
    op = rng.choice((
        "out_of_range", "duplicate", "swap", "pointer", "length",
        "tuple_duplicate", "tuple_swap",
    ))
    if op.startswith("tuple") and ntuples >= 2:
        q = rng.randrange(1, ntuples)
        p = rng.randrange(q) if op == "tuple_duplicate" else q - 1
        for axis in axes:
            column = getattr(container, axis)
            if op == "tuple_duplicate":
                column[q] = column[p]
            else:
                column[p], column[q] = column[q], column[p]
        return f"{op} at {q}"
    if op == "length" or not arr or not is_index:
        if arr and rng.random() < 0.5:
            arr.pop(rng.randrange(len(arr)))
            return f"pop from {name}"
        arr.insert(rng.randrange(len(arr) + 1),
                   rng.randint(-1, 6) if is_index else 1.0)
        return f"insert into {name}"
    q = rng.randrange(len(arr))
    if op == "out_of_range":
        arr[q] = _clamp(rng.choice(EXTREMES + (arr[q] + 7, arr[q] + 1)))
    elif op == "duplicate" and q > 0:
        arr[q] = arr[q - 1]
    elif op == "swap" and q > 0:
        arr[q - 1], arr[q] = arr[q], arr[q - 1]
    else:  # pointer corruption (any index array) or fallback nudge
        arr[q] = _clamp(arr[q] + rng.choice((-3, -1, 1, 2)))
    return f"{op} on {name}[{q}]"


def _outcome(fn):
    try:
        fn()
    except ValidationError as err:
        return (
            type(err).__name__,
            getattr(err, "coordinate", None),
            getattr(err, "position", None),
            getattr(err, "positions", None),
        )
    return None


@pytest.mark.parametrize("kind", KINDS)
def test_valid_containers_pass_both(kind):
    rng = random.Random(f"valid-{kind}")
    for _ in range(40):
        container = _valid(kind, rng)
        scalar_check(container)
        container.check()


@pytest.mark.parametrize("kind", KINDS)
def test_mutated_containers_agree_with_scalar_oracle(kind):
    rng = random.Random(f"mutate-{kind}")
    rejected = 0
    for case in range(250):
        container = _valid(kind, rng)
        steps = [_mutate(container, rng)
                 for _ in range(1 + (case % 3 == 0))]
        expected = _outcome(lambda: scalar_check(container))
        got = _outcome(container.check)
        assert got == expected, (kind, case, steps, container)
        rejected += expected is not None
    assert rejected > 100  # the mutations really exercise the error paths


@pytest.mark.parametrize("kind", ("COO", "SCOO", "MCOO", "COO3D", "MCOO3"))
def test_first_unsorted_position_and_sorted_gate_agree(kind):
    rng = random.Random(f"unsorted-{kind}")
    for case in range(200):
        container = _valid(kind, rng)
        if case % 2:
            _mutate(container, rng)
        assert container.first_unsorted_position() == \
            scalar_first_unsorted(container), (kind, case)

        def scalar_gate():
            scalar_check(container)
            if isinstance(container, (MortonCOOMatrix, MortonCOOTensor3D)):
                return
            position = scalar_first_unsorted(container)
            if position is not None:
                raise UnsortedInputError("unsorted", position=position)

        assert _outcome(
            lambda: gate.check_input(container, assume_sorted=True)
        ) == _outcome(scalar_gate), (kind, case)


class TestEdgeCases:
    def test_coordinate_beyond_int64_is_a_bounds_error(self):
        # Typed storage rejects it at construction, naming field and
        # position, before any check() could run.
        with pytest.raises(BoundsError) as exc:
            COOMatrix(4, 4, [0, 2**63], [1, 1], [1.0, 2.0])
        assert exc.value.position == 1
        assert "row[1] = 9223372036854775808" in str(exc.value)

    def test_wide_shapes_use_lexsort_not_an_overflowing_key(self):
        big = 2**40
        coo = COOMatrix(big, big, [5, big - 1, 5], [big - 1, 0, big - 1],
                        [1.0, 2.0, 3.0])
        with pytest.raises(DuplicateCoordinateError) as exc:
            coo.check()
        assert exc.value.positions == (0, 2)
        assert exc.value.coordinate == (5, big - 1)

    def test_csf_equal_adjacent_indices_are_duplicates(self):
        tensor = COOTensor3D((3, 3, 3), [0, 1], [0, 0], [0, 0], [1.0, 2.0])
        csf = CSFTensor.from_coo(tensor)
        csf.rootidx[1] = 0
        with pytest.raises(DuplicateCoordinateError) as exc:
            csf.check()
        assert exc.value.positions == (0, 1)

    @pytest.mark.parametrize("container, message", [
        # coord
        (COOMatrix(2, 2, [0, 1], [0], [1.0, 2.0]),
         "row/col/val lengths differ (2/1/2)"),
        (COOTensor3D((2, 2, 2), [0], [0], [0, 1], [1.0]),
         "row/col/z/val lengths differ"),
        # compressed
        (CSRMatrix(2, 2, [0, 1, 2], [0, 9], [1.0, 2.0]),
         "col index 9 out of bounds at (1, 9)"),
        (CSRMatrix(2, 2, [0, 1], [0], [1.0]), "rowptr must have 3 entries"),
        (CSCMatrix(2, 2, [0, 1, 2], [0, 9], [1.0, 2.0]),
         "row index 9 out of bounds at (9, 1)"),
        (DCSRMatrix(2, 2, [0, 1], [0, 1, 2], [0, 9], [1.0, 2.0]),
         "dcol index 9 out of bounds at (1, 9)"),
        # blocked
        (BCSRMatrix(2, 2, 1, [0, 1, 2], [0, 9], [1.0, 2.0]),
         "bcol index 9 out of bounds"),
        (BCSCMatrix(2, 2, 1, [0, 1, 2], [0, 0], [1.0]),
         "data must hold 1*1 entries per block"),
        # offset
        (DIAMatrix(2, 2, [0, 0], [1.0] * 4), "duplicate off value 0"),
        (DIAMatrix(2, 2, [0], [1.0]), "data must have 2 entries"),
        # padded
        (ELLMatrix(2, 2, 1, [0, 9], [1.0, 2.0]),
         "col index 9 out of bounds at (1, 9)"),
    ])
    def test_messages_name_the_container_attributes(self, container,
                                                    message):
        """Messages use the container's field names, not the UF names
        (``col2``, ``row1``, ``ellcol``, ``Asrc``) the format binds."""
        with pytest.raises(ValidationError) as exc:
            container.check()
        assert message in str(exc.value)

    @pytest.mark.parametrize("container, attribute", [
        (COOMatrix(-5, 3, [], [], []), "nrows"),
        (CSRMatrix(-1, 2, [], [], []), "nrows"),
        (CSCMatrix(2, -1, [], [], []), "ncols"),
        (DIAMatrix(-2, 2, [], []), "nrows"),
        (ELLMatrix(2, -2, 0, [], []), "ncols"),
        (COOTensor3D((2, -3, 2), [], [], [], []), "dims[1]"),
        (CSFTensor((-1, 2, 2), [], [0], [], [0], [], []), "dims[0]"),
    ])
    def test_negative_shape_is_a_shape_error(self, container, attribute):
        """A negative shape is rejected ahead of any array check, naming
        the attribute, for every container."""
        from repro.errors import ShapeError

        with pytest.raises(ShapeError) as exc:
            container.check()
        assert f"{attribute} must not be negative" in str(exc.value)

    def test_block_size_must_be_positive(self):
        from repro.errors import ShapeError

        for cls in (BCSRMatrix, BCSCMatrix):
            with pytest.raises(ShapeError, match="block size"):
                cls(2, 2, 0, [0, 0], [], []).check()


@pytest.mark.parametrize("seed", range(40))
def test_random_compositions_accept_their_own_assembly(seed):
    """The derived check holds on every composition's own arrays."""
    rng = random.Random(seed)
    comp = random_composition(rng, name=f"RC{seed}")
    dims = [rng.randint(1, 5) for _ in range(comp.rank)]

    def build(shape):
        if len(shape) == 1:
            return [
                float(rng.randint(1, 9)) if rng.random() < 0.4 else 0.0
                for _ in range(shape[0])
            ]
        return [build(shape[1:]) for _ in range(shape[0])]

    env = comp.assemble(build(dims))
    comp.check(env)
    if comp.family == "coord":
        assert invariants.first_unsorted_position(comp, env) is None or \
            comp._resolved_ordering() != "lex"
