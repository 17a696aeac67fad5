"""CSF: compressed sparse fiber storage for 3-D tensors (SPLATT-style).

The 3-D analogue of CSR: mode-0 *roots* compress distinct ``i`` values,
each root points to a run of mode-1 *fibers* (distinct ``(i, j)`` pairs),
and each fiber points to its nonzeros:

* ``rootidx[ip]``            — the dense ``i`` of root ``ip``,
* ``fptr[ip] .. fptr[ip+1]`` — the fiber range of root ``ip``,
* ``fibidx[jp]``             — the dense ``j`` of fiber ``jp``,
* ``kptr[jp] .. kptr[jp+1]`` — the nonzero range of fiber ``jp``,
* ``kidx[kp]``, ``val[kp]``  — the dense ``k`` and value of nonzero ``kp``.

Storage order is lexicographic ``(i, j, k)``, which is what makes CSF a
fast-path *source* for conversions to other lexicographically ordered
formats (the position is the identity, no permutation needed).
``CSFTensor.from_coo`` assembles from any-order COO.
"""

from __future__ import annotations

from .container import Layout, LevelContainer


class CSFTensor(LevelContainer):
    """Three-level compressed sparse fiber tensor."""

    format_name = "CSF"
    layout = Layout(
        shape="dims",
        levels=(
            {"idx": "rootidx"},
            {"ptr": "fptr", "idx": "fibidx"},
            {"ptr": "kptr", "idx": "kidx"},
        ),
        values="val",
        summary="nnz={c.nnz}, roots={c.nroots}, fibers={c.nfibers}",
    )

    @property
    def nroots(self) -> int:
        return len(self.rootidx)

    @property
    def nfibers(self) -> int:
        return len(self.fibidx)
