"""3-D sparse tensor containers: COO3D and Morton-ordered COO3D (MCOO3).

These are the tensor-side counterparts of the matrix containers, used by the
Table 4 experiment (COO3D → MCOO3 reordering versus HiCOO's blocked
z-Morton sort).
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from repro.errors import DenseMismatchError

from .matrices import _bindings
from .morton import morton3
from .storage import index_array, value_array


class _ValidatedTensor:
    """Shared validation surface for the 3-D containers.

    The dense reference for a sparse tensor is its coordinate map
    (``to_dict()``), not a materialized rank-3 array.
    """

    def check(self) -> None:
        """Raise the first violation of the invariants derived from the
        container's level composition
        (:func:`repro.formats.bindings.check_container`)."""
        _bindings().check_container(self)

    def check_against_dense(
        self,
        reference: Mapping[tuple[int, int, int], float],
        *,
        tol: float = 0.0,
    ) -> None:
        """Validate invariants and compare ``to_dict()`` to ``reference``."""
        self.check()
        actual = self.to_dict()
        for coord in set(actual) | set(reference):
            x = actual.get(coord, 0.0)
            y = reference.get(coord, 0.0)
            if abs(x - y) > tol:
                raise DenseMismatchError(
                    f"coordinate map differs at {coord}: stored {x!r}, "
                    f"reference {y!r}",
                    coordinate=coord,
                    expected=y,
                    actual=x,
                    container=repr(self),
                )


class COOTensor3D(_ValidatedTensor):
    """3-D coordinate format with parallel ``row`` / ``col`` / ``z`` arrays.

    Mode names follow the paper's COO3D descriptor: ``row_1``, ``col_1`` and
    ``z_1`` give the dense coordinate of position ``n``.
    """

    format_name = "COO3D"

    def __init__(
        self,
        dims: tuple[int, int, int],
        row: Sequence[int],
        col: Sequence[int],
        z: Sequence[int],
        val: Sequence[float],
    ):
        self.dims = (int(dims[0]), int(dims[1]), int(dims[2]))
        self.row = index_array(row, "row")
        self.col = index_array(col, "col")
        self.z = index_array(z, "z")
        self.val = value_array(val, "val")

    @property
    def nnz(self) -> int:
        return len(self.val)

    def nonzeros(self) -> Iterator[tuple[int, int, int, float]]:
        return zip(self.row, self.col, self.z, self.val)

    def to_dict(self) -> dict[tuple[int, int, int], float]:
        """Coordinate -> value map (the dense reference for correctness)."""
        return {
            (i, j, k): v for i, j, k, v in self.nonzeros()
        }

    def first_unsorted_position(self) -> int | None:
        """Position of the first entry breaking lexicographic order."""
        return _bindings().first_unsorted_position(self)

    def is_sorted_lexicographic(self) -> bool:
        return self.first_unsorted_position() is None

    def sorted_lexicographic(self) -> "COOTensor3D":
        row, col, z = self.row.tolist(), self.col.tolist(), self.z.tolist()
        val = self.val.tolist()
        order = sorted(range(self.nnz), key=lambda n: (row[n], col[n], z[n]))
        return COOTensor3D(
            self.dims,
            [row[n] for n in order],
            [col[n] for n in order],
            [z[n] for n in order],
            [val[n] for n in order],
        )

    def __repr__(self):
        return f"COOTensor3D({self.dims}, nnz={self.nnz})"


class MortonCOOTensor3D(COOTensor3D):
    """COO3D sorted by the 3-D Morton key — the paper's MCOO3."""

    format_name = "MCOO3"

    @classmethod
    def from_coo(cls, coo: COOTensor3D) -> "MortonCOOTensor3D":
        row, col, z = coo.row.tolist(), coo.col.tolist(), coo.z.tolist()
        val = coo.val.tolist()
        order = sorted(
            range(coo.nnz), key=lambda n: morton3(row[n], col[n], z[n])
        )
        return cls(
            coo.dims,
            [row[n] for n in order],
            [col[n] for n in order],
            [z[n] for n in order],
            [val[n] for n in order],
        )
