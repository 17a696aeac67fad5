"""The three workloads: what each converts, built from ``--seed``.

Every input is drawn from ``numpy.random.default_rng([seed, k])`` with a
fixed ``k`` per input, so one input does not depend on how many numbers
another one consumed.

* ``fig2-large`` — the paper's Figure 2 conversions at ROADMAP's
  baseline size (~199k nnz) on the C tier, in-process.  Boundary layers
  (gate, detect, bind, marshal, materialize, pack) do most of the work on
  sorted cells; the inspector matters on unsorted ones.
* ``all-pairs`` — every planner-graph pair on every tier at ~10k nnz.
  The inspector does most of the work; it covers the C tier's scalar
  fallbacks, numpy's residual loops, non-COO sources and the python tier.
* ``serve-mixed`` — COO payloads posted to ``repro serve --backend c``.
  The wire path and queueing do most of the work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

import gen

TIERS = ("python", "numpy", "c")

SOURCES_2D = ("COO", "SCOO", "MCOO", "CSR", "CSC", "DIA", "ELL", "BCSR")
DESTS_2D = ("COO", "SCOO", "MCOO", "CSR", "CSC", "DIA", "BCSR")
SOURCES_3D = ("COO3D", "SCOO3D", "MCOO3", "CSF")
DESTS_3D = ("COO3D", "SCOO3D", "MCOO3")


@dataclass
class Cell:
    """One (source, destination, tier) conversion of a workload."""

    id: str
    src: str  # the descriptor convert() binds the source to
    dst: str
    backend: str
    assume_sorted: bool
    source: object = field(repr=False)
    triplets: gen.Triplets = field(repr=False)

    @property
    def nnz(self) -> int:
        return self.triplets.nnz

    @property
    def pair(self) -> tuple[str, str]:
        return (self.src, self.dst)


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def fig2_inputs(seed: int) -> dict[str, gen.Triplets]:
    return {
        "uniform": gen.uniform(4000, 199_000, _rng(seed, 1)),
        "banded": gen.banded(40_000, 199_000 / 40_000, _rng(seed, 2)),
        "powerlaw": gen.powerlaw(40_000, 199_000, _rng(seed, 3)),
    }


def fig2_large(seed: int) -> list[Cell]:
    """10 cells: Fig 2a/2b/2c on three matrices, plus 2d on ``banded``."""
    cells = []
    for k, (name, t) in enumerate(fig2_inputs(seed).items()):
        shuffle = _rng(seed, 10 + k)
        unsorted = gen.shuffled_coo(t, shuffle)
        cells += [
            Cell(f"fig2a:{name}", "COO", "CSC", "c", False, unsorted, t),
            Cell(f"fig2b:{name}", "CSR", "CSC", "c", True, gen.csr(t), t),
            Cell(f"fig2c:{name}", "SCOO", "CSR", "c", True, gen.coo(t), t),
        ]
        if name == "banded":
            cells.append(
                Cell(f"fig2d:{name}", "COO", "DIA", "c", False,
                     gen.shuffled_coo(t, shuffle), t)
            )
    return cells


def all_pairs(seed: int) -> list[Cell]:
    """58 planner-graph pairs x 3 tiers = 174 cells at ~10k nnz."""
    t2 = gen.banded(2000, 9950 / 2000, _rng(seed, 1))
    t3 = gen.tensor3d((115_000, 115_000, 16), 10_000, _rng(seed, 2))
    builders = {
        "COO": (lambda t: gen.shuffled_coo(t, _rng(seed, 3)), False),
        "SCOO": (gen.coo, True),
        "MCOO": (gen.mcoo, True),
        "CSR": (gen.csr, True),
        "CSC": (gen.csc, True),
        "DIA": (gen.dia, True),
        "ELL": (gen.ell, True),
        "BCSR": (gen.bcsr, True),
        "COO3D": (lambda t: gen.shuffled_coo3d(t, _rng(seed, 4)), False),
        "SCOO3D": (gen.coo3d, True),
        "MCOO3": (gen.mcoo3, True),
        "CSF": (gen.csf, True),
    }
    plan = [(s, DESTS_2D, t2) for s in SOURCES_2D]
    plan += [(s, DESTS_3D, t3) for s in SOURCES_3D]
    cells = []
    for src, dests, t in plan:
        build, assume_sorted = builders[src]
        source = build(t)
        for dst in dests:
            if dst == src:
                continue
            for tier in TIERS:
                cells.append(
                    Cell(f"{src}->{dst}:{tier}", src, dst, tier,
                         assume_sorted, source, t)
                )
    return cells


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
@dataclass
class RequestKind:
    """One pre-encoded POST /convert body."""

    id: str
    dst: str
    large: bool
    triplets: gen.Triplets = field(repr=False)
    body: bytes = field(repr=False)

    @property
    def nnz(self) -> int:
        return self.triplets.nnz


def _body(matrix, dst: str) -> bytes:
    payload = {
        "rows": matrix.nrows,
        "cols": matrix.ncols,
        "row": matrix.row,
        "col": matrix.col,
        "val": matrix.val,
    }
    return json.dumps({"dst": dst, "matrix": payload}).encode()


def serve_kinds(seed: int) -> list[RequestKind]:
    """11 small (~2k nnz) and 4 large (~20k nnz) request kinds."""
    small = {
        "uniform": gen.uniform(400, 2000, _rng(seed, 1)),
        "banded": gen.banded(400, 4.975, _rng(seed, 2)),
        "powerlaw": gen.powerlaw(2000, 2000, _rng(seed, 3)),
    }
    large = {
        "uniform": gen.uniform(2000, 20_000, _rng(seed, 4)),
        "banded": gen.banded(4000, 4.975, _rng(seed, 5)),
    }
    kinds = []
    for name, t in small.items():
        dests = ("CSR", "CSC", "MCOO") + (("DIA",) if name == "banded" else ())
        kinds += [
            RequestKind(f"small:{name}->{d}", d, False, t, _body(gen.coo(t), d))
            for d in dests
        ]
    # Unsorted payload: the daemon's sortedness detection picks COO.
    t = small["uniform"]
    kinds.append(
        RequestKind("small:uniform-shuffled->CSR", "CSR", False, t,
                    _body(gen.shuffled_coo(t, _rng(seed, 6)), "CSR"))
    )
    for name, t in large.items():
        kinds += [
            RequestKind(f"large:{name}->{d}", d, True, t, _body(gen.coo(t), d))
            for d in ("CSR", "CSC")
        ]
    return kinds


def serve_schedule(
    seed: int, kinds: list[RequestKind], client: int, blocks: int = 2000
) -> list[int]:
    """One client's sequence of kind indices, in blocks of four requests.

    Each block holds three small kinds and one large kind, taken in
    rotation from a per-client offset and shuffled per client and block.
    The 3:1 split puts p50 inside the small class and p90 inside the
    large one.  The large request's place in a block is drawn from the
    seed alone, so every client has it in the same place: the clients
    run in lock step (:func:`serve_load.closed_loop`), and a small
    request always shares the daemon with a small one, a large with a
    large one.  Were a small request to overlap a large one in some
    rounds and not in others, p50 would sit between those two modes and
    swing from run to run.
    """
    small = [i for i, k in enumerate(kinds) if not k.large]
    large = [i for i, k in enumerate(kinds) if k.large]
    spots = _rng(seed, 100)
    rng = _rng(seed, 101 + client)
    out: list[int] = []
    for b in range(blocks):
        block = [small[(3 * b + j + 4 * client) % len(small)]
                 for j in range(3)]
        block = rng.permutation(block).tolist()
        block.insert(int(spots.integers(4)),
                     large[(b + 2 * client) % len(large)])
        out += block
    return out
