"""3-D sparse tensor containers: COO3D and Morton-ordered COO3D (MCOO3).

These are the tensor-side counterparts of the matrix containers, used by the
Table 4 experiment (COO3D → MCOO3 reordering versus HiCOO's blocked
z-Morton sort).  The reference form of a sparse tensor is its coordinate
map (``to_dict()``), not a materialized rank-3 array.
"""

from __future__ import annotations

from .container import Layout, LevelContainer


class COOTensor3D(LevelContainer):
    """3-D coordinate format with parallel ``row`` / ``col`` / ``z`` arrays.

    Mode names follow the paper's COO3D descriptor: ``row_1``, ``col_1`` and
    ``z_1`` give the dense coordinate of position ``n``.
    """

    format_name = "COO3D"
    layout = Layout(
        shape="dims",
        levels=({"coord": "row"}, {"coord": "col"}, {"coord": "z"}),
        values="val",
        sorted_format="SCOO3D",
    )


class MortonCOOTensor3D(COOTensor3D):
    """COO3D sorted by the 3-D Morton key — the paper's MCOO3."""

    format_name = "MCOO3"
