"""Property-based differential fuzzing of the synthesized conversions.

The one differential harness of the synthesis stack: generate
adversarial random inputs (empty, single row/column, fully dense, dense
rows, single diagonal, tall/wide rectangles, power-law and banded
structure, unsorted orders, plus deliberately *malformed*
duplicate/out-of-bounds/unsorted containers) and push them through every
synthesizable format pair — every planner pair among them — x lowering
backend x optimize flag, and once more through every DIA destination
with ``binary_search=True`` (the Figure 3 rewrite, its own ``:bsearch``
variant in the report), cross-checking:

* **contents** — the converted container's invariants, those of the
  format it was converted into (``structure``: an SCOO result must be
  sorted), and its shape and stored entries against the generator's
  cells (``dense``), through the one content oracle
  (:func:`repro.runtime.container.compare_contents`); ``convert`` runs
  with ``validate="inputs"``, so its gate judges only the input and a
  wrong output is never reported as a rejected one,
* **hand-written baselines** — exact output-array equality against the
  TACO/MKL/SPARSKIT-style reference converters where one exists,
* **backend agreement** — each tier's container must match those of its
  ``differential_references`` (numpy against python, C against both),
  array for array and typecode for typecode,
* **the validation gate** — malformed inputs must raise
  :class:`~repro.errors.ValidationError`, never return a container or
  escape as a raw ``IndexError``.

Every case, a matrix or a 3-D tensor, is carried as the
:class:`~repro.formats.levels.Cells` of its rank, so one source builder,
one case runner and one shrinker serve both ranks.  Runs are
deterministic per ``seed``; every failure is shrunk to a minimal
reproducing input (greedy entry removal + trimming unused trailing
indices) and reported machine-readably (:meth:`FuzzReport.to_dict`).  A
run left with no available backend checks nothing and fails.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

import repro.obs as obs
from repro.backends import backend_names, get_backend
from repro.errors import (
    BoundsError,
    DenseMismatchError,
    StructureError,
    ValidationError,
)
from repro.formats import get_format
from repro.formats.bindings import assemble_container
from repro.formats.levels import Cells
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
    container_class,
)
from repro.runtime.container import compare_contents
from repro.synthesis import SynthesisError, synthesize_cached

_FUZZ_CASES = obs.counter("repro_fuzz_cases", "fuzzer cases by outcome")

#: Conversion sources/destinations covered by the fuzzer.  Sources span
#: every container kind; destinations are every dest-capable format.
#: Parameterized blocked names ride along so the tuner's non-default block
#: sizes get the same differential coverage as the block-2 default.
SOURCES_2D = (
    "COO", "SCOO", "MCOO", "CSR", "CSC", "DIA", "BCSR", "BCSR3", "ELL",
    "DCSR", "BCSC",
)
DESTS_2D = (
    "COO", "SCOO", "MCOO", "CSR", "CSC", "DIA", "BCSR", "BCSR3", "BCSR4",
    "BCSC", "BCSC3",
)
SOURCES_3D = ("COO3D", "SCOO3D", "MCOO3", "CSF")
DESTS_3D = ("COO3D", "SCOO3D", "MCOO3")


# ----------------------------------------------------------------------
# Adversarial input generation


def _rand_val(rng: random.Random) -> float:
    return round(rng.uniform(-9, 9), 3) or 1.0


def _draw(shape, coords, rng) -> Cells:
    """The cells of ``shape`` at the distinct ``coords``, in row-major
    order, each holding a random nonzero value."""
    coords = sorted(set(coords))
    return Cells(
        tuple(shape),
        tuple(np.array([c[axis] for c in coords], dtype=np.int64)
              for axis in range(len(shape))),
        np.array([_rand_val(rng) for _ in coords], dtype=np.float64),
    )


def _gen_empty(rng):
    return _draw((rng.randint(1, 6), rng.randint(1, 6)), [], rng)


def _gen_single_cell(rng):
    nr, nc = rng.randint(1, 6), rng.randint(1, 6)
    return _draw((nr, nc), [(rng.randrange(nr), rng.randrange(nc))], rng)


def _gen_single_row(rng):
    nc = rng.randint(1, 10)
    cells = [(0, j) for j in range(nc) if rng.random() < 0.6]
    return _draw((1, nc), cells, rng)


def _gen_single_col(rng):
    nr = rng.randint(1, 10)
    cells = [(i, 0) for i in range(nr) if rng.random() < 0.6]
    return _draw((nr, 1), cells, rng)


def _gen_fully_dense(rng):
    nr, nc = rng.randint(1, 5), rng.randint(1, 5)
    return _draw(
        (nr, nc), [(i, j) for i in range(nr) for j in range(nc)], rng
    )


def _gen_dense_rows(rng):
    nr, nc = rng.randint(2, 6), rng.randint(2, 8)
    cells = []
    for i in range(nr):
        if rng.random() < 0.5:  # a fully dense row
            cells.extend((i, j) for j in range(nc))
        elif rng.random() < 0.5:
            cells.append((i, rng.randrange(nc)))
    return _draw((nr, nc), cells, rng)


def _gen_single_diagonal(rng):
    nr, nc = rng.randint(2, 8), rng.randint(2, 8)
    off = rng.randint(-(nr - 1), nc - 1)
    cells = [
        (i, i + off) for i in range(nr) if 0 <= i + off < nc
    ]
    return _draw((nr, nc), cells, rng)


def _gen_tall(rng):
    nr, nc = rng.randint(6, 12), rng.randint(1, 3)
    cells = [
        (rng.randrange(nr), rng.randrange(nc))
        for _ in range(rng.randint(0, nr))
    ]
    return _draw((nr, nc), cells, rng)


def _gen_wide(rng):
    nr, nc = rng.randint(1, 3), rng.randint(6, 12)
    cells = [
        (rng.randrange(nr), rng.randrange(nc))
        for _ in range(rng.randint(0, nc))
    ]
    return _draw((nr, nc), cells, rng)


def _gen_power_law(rng):
    from repro.datagen import power_law

    nr, nc = rng.randint(4, 10), rng.randint(4, 10)
    coo = power_law(nr, nc, rng.randint(1, nr * 2),
                    seed=rng.randrange(1 << 30))
    return _draw((nr, nc), zip(coo.row, coo.col), rng)


def _gen_banded(rng):
    from repro.datagen import banded

    nr, nc = rng.randint(3, 9), rng.randint(3, 9)
    offsets = sorted(
        {rng.randint(-(nr - 1), nc - 1) for _ in range(rng.randint(1, 3))}
    )
    coo = banded(nr, nc, offsets, density=rng.choice((1.0, 0.6)),
                 seed=rng.randrange(1 << 30))
    return _draw((nr, nc), zip(coo.row, coo.col), rng)


def _gen_uniform(rng):
    nr, nc = rng.randint(1, 16), rng.randint(1, 16)
    ncells = nr * nc
    nnz = rng.randint(0, min(ncells, 48))
    cells = rng.sample(
        [(c // nc, c % nc) for c in range(ncells)], nnz
    )
    return _draw((nr, nc), cells, rng)


def _gen_empty3(rng):
    return _draw(tuple(rng.randint(1, 4) for _ in range(3)), [], rng)


def _gen_fiber(rng):
    """Every entry on one (i, j) fiber."""
    dims = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(2, 8))
    i, j = rng.randrange(dims[0]), rng.randrange(dims[1])
    ks = rng.sample(range(dims[2]), rng.randint(1, dims[2]))
    return _draw(dims, [(i, j, k) for k in ks], rng)


def _gen_uniform3(rng):
    dims = tuple(rng.randint(1, 8) for _ in range(3))
    cells = [
        tuple(rng.randrange(n) for n in dims)
        for _ in range(rng.randint(0, 24))
    ]
    return _draw(dims, cells, rng)


#: ``(kind, generator)`` per rank; a generator takes a ``random.Random``
#: and returns the :class:`Cells` of one case.
CASE_KINDS_2D: tuple[tuple[str, Callable], ...] = (
    ("empty", _gen_empty),
    ("single_cell", _gen_single_cell),
    ("single_row", _gen_single_row),
    ("single_col", _gen_single_col),
    ("fully_dense", _gen_fully_dense),
    ("dense_rows", _gen_dense_rows),
    ("single_diagonal", _gen_single_diagonal),
    ("tall", _gen_tall),
    ("wide", _gen_wide),
    ("power_law", _gen_power_law),
    ("banded", _gen_banded),
    ("uniform", _gen_uniform),
)
CASE_KINDS_3D: tuple[tuple[str, Callable], ...] = (
    ("empty3", _gen_empty3),
    ("fiber", _gen_fiber),
    ("uniform3", _gen_uniform3),
)
_CASE_KINDS = {2: CASE_KINDS_2D, 3: CASE_KINDS_3D}


def _unordered(src: str) -> bool:
    """Whether ``src`` is an unordered coordinate format (COO, COO3D):
    its container declares a sorted form other than ``src``."""
    return container_class(src).layout.sorted_format not in (None, src)


def _make_source(src: str, cells: Cells, rng):
    """A ``src`` container holding ``cells``, built by the format's own
    composition — independently of the synthesized code under test.

    An unordered coordinate source holds the entries shuffled, and an
    ELL source sometimes gets a width above its longest row.
    """
    cls = container_class(src)
    if _unordered(src):
        order = list(range(len(cells.values)))
        rng.shuffle(order)
        cells = Cells(cells.shape, tuple(c[order] for c in cells.coords),
                      cells.values[order])
    container = assemble_container(cls, cells, format_name=src)
    # Inspectors must treat PAD columns as absent whether or not any row
    # fills the width.
    if cls is ELLMatrix and rng.random() < 0.5:
        return assemble_container(
            cls, cells, (container.width + rng.randint(1, 3),)
        )
    return container


# ----------------------------------------------------------------------
# Oracles


def _baseline_outputs(src: str, dst: str, container) -> list:
    """Hand-written reference conversions for (src, dst), when they exist."""
    from repro.baselines import mkl_style, sparskit_style, taco_style

    refs = []
    if src in ("COO", "SCOO"):
        coo = (
            container
            if container.is_sorted_lexicographic()
            else container.sorted_lexicographic()
        )
        if dst == "CSR":
            refs = [taco_style.coo_to_csr(coo), mkl_style.coo_to_csr(coo),
                    sparskit_style.coocsr(coo)]
        elif dst == "CSC":
            refs = [taco_style.coo_to_csc(coo), mkl_style.coo_to_csc(coo),
                    sparskit_style.coocsc(coo)]
        elif dst == "DIA":
            refs = [taco_style.coo_to_dia(coo), mkl_style.coo_to_dia(coo),
                    sparskit_style.coodia(coo)]
    elif src == "CSR":
        if dst == "CSC":
            refs = [taco_style.csr_to_csc(container),
                    mkl_style.csr_to_csc(container),
                    sparskit_style.csrcsc(container)]
        elif dst == "DIA":
            refs = [taco_style.csr_to_dia(container),
                    sparskit_style.csrdia(container)]
    return refs


def _fields(container) -> dict:
    """A container's declared fields, by name."""
    return {
        name: getattr(container, name)
        for name, _ in type(container).layout.fields
    }


def _typed(value):
    # array('q', [1]) == array('d', [1.0]), so the element type rides along.
    return getattr(value, "typecode", type(value).__name__), value


def _differing(a: dict, b: dict) -> list[str]:
    """The names whose values or element types differ between two
    name -> value mappings, in ``a``'s order; a name on one side only
    differs."""
    names = list(a) + [name for name in b if name not in a]
    return [
        name for name in names
        if name not in a or name not in b
        or _typed(a[name]) != _typed(b[name])
    ]


# ----------------------------------------------------------------------
# Reporting


@dataclass
class FuzzFailure:
    """One surviving discrepancy, shrunk to a minimal reproducing input."""

    case: int
    kind: str
    src: str
    dst: str
    backend: str
    optimize: bool
    #: convert | structure | dense | baseline | backend | gate, or
    #: availability when no requested backend could run.
    stage: str
    message: str
    input_repr: dict
    #: The Figure 3 variant: the copy's linear search became a binary one.
    binary_search: bool = False

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "kind": self.kind,
            "src": self.src,
            "dst": self.dst,
            "backend": self.backend,
            "optimize": self.optimize,
            "binary_search": self.binary_search,
            "stage": self.stage,
            "message": self.message,
            "input": self.input_repr,
        }


@dataclass
class FuzzReport:
    """Machine-readable outcome of a fuzzing run."""

    seed: int
    cases_requested: int
    cases_run: int = 0
    conversions_checked: int = 0
    gate_probes: int = 0
    combos_total: int = 0
    combos_covered: int = 0
    skipped_pairs: list = field(default_factory=list)
    #: Backends excluded from the matrix because ``require()`` failed:
    #: ``[{"backend": name, "reason": message}, ...]`` — a run on a box
    #: without a C toolchain records *why* the C tier was not fuzzed.
    skipped_backends: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    #: Per-combo span attribution: ``"SRC->DST:backend:opt"`` (plus
    #: ``":bsearch"`` for the binary-search variant) ->
    #: ``{"cases", "seconds", "failures"}`` aggregated over the run.
    combo_timings: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "cases_requested": self.cases_requested,
            "cases_run": self.cases_run,
            "conversions_checked": self.conversions_checked,
            "gate_probes": self.gate_probes,
            "combos_total": self.combos_total,
            "combos_covered": self.combos_covered,
            "skipped_pairs": list(self.skipped_pairs),
            "skipped_backends": [dict(s) for s in self.skipped_backends],
            "ok": self.ok,
            "failures": [f.to_dict() for f in self.failures],
            "combo_timings": {
                key: dict(value)
                for key, value in sorted(self.combo_timings.items())
            },
        }

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        lines = [
            f"fuzz: seed {self.seed}, {self.cases_run} cases, "
            f"{self.conversions_checked} conversions and "
            f"{self.gate_probes} gate probes checked, "
            f"{self.combos_covered}/{self.combos_total} "
            f"pair/backend/optimize combos covered — {status}"
        ]
        if self.skipped_pairs:
            lines.append(
                f"  ({len(self.skipped_pairs)} pairs have no direct "
                f"synthesis: {', '.join(self.skipped_pairs)})"
            )
        for skip in self.skipped_backends:
            lines.append(
                f"  (backend {skip['backend']!r} skipped: {skip['reason']})"
            )
        if self.combos_covered < self.combos_total:
            lines.append(
                "  WARNING: case budget below combo count — raise --cases "
                "for exhaustive pair coverage"
            )
        for failure in self.failures:
            variant = " binary_search=True" if failure.binary_search else ""
            lines.append(
                f"  FAIL case {failure.case} [{failure.stage}] "
                f"{failure.src}->{failure.dst} backend={failure.backend} "
                f"optimize={failure.optimize}{variant} ({failure.kind}): "
                f"{failure.message}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Case execution


def _input_repr(cells: Cells) -> dict:
    """A case's input as JSON: its dims and ``[coordinate, value]``
    entries."""
    return {
        "dims": list(cells.shape),
        "entries": [[list(c), v] for *c, v in cells.tuples()],
    }


def _available_backends(backends: Sequence[str] | None,
                        report: FuzzReport) -> tuple[str, ...]:
    """The requested backends (all registered ones for None) whose
    ``require()`` passes.

    The others land in ``report.skipped_backends`` with the reason, so
    fuzzing degrades the way conversion does.  A run left with none
    would check nothing, so that is recorded as a failure.
    """
    requested = backend_names() if backends is None else tuple(backends)
    available = []
    for candidate in requested:
        try:
            get_backend(candidate).require()
        except Exception as err:  # noqa: BLE001 - any require failure skips
            report.skipped_backends.append(
                {"backend": candidate, "reason": str(err)}
            )
            continue
        available.append(candidate)
    if not available:
        report.failures.append(
            FuzzFailure(
                case=-1, kind="-", src="-", dst="-",
                backend=",".join(requested) or "-", optimize=True,
                stage="availability",
                message="no requested backend is available, so nothing "
                        "was checked",
                input_repr={},
            )
        )
    return tuple(available)


def _check_references(out, container, dst: str, backend: str,
                      **kwargs) -> Optional[tuple[str, str]]:
    """Compare ``out`` with the same conversion on each of ``backend``'s
    ``differential_references``."""
    from repro import convert

    for reference_backend in get_backend(backend).differential_references:
        reference = convert(
            container, dst, backend=reference_backend, validate="off",
            **kwargs,
        )
        differing = _differing(_fields(out), _fields(reference))
        if differing:
            return (
                "backend",
                f"{backend} lowering's {', '.join(differing)} differs from "
                f"the {reference_backend} lowering",
            )
    return None


def _judge(out, cells: Cells, dst: str) -> Optional[tuple[str, str]]:
    """The ``structure`` finding against ``dst``'s invariants or the
    ``dense`` one against the generator's cells, or None."""
    try:
        out.check_against_dense(cells, format_name=dst)
    except DenseMismatchError as err:
        return "dense", str(err)
    except ValidationError as err:
        return "structure", str(err)
    return None


def _run_case(cells: Cells, src: str, dst: str, backend: str,
              optimize: bool, rng,
              binary_search: bool = False) -> Optional[tuple[str, str]]:
    """Run one conversion case; return (stage, message) on discrepancy."""
    from repro import convert

    container = _make_source(src, cells, rng)
    options = dict(optimize=optimize, binary_search=binary_search,
                   assume_sorted=not _unordered(src))
    try:
        out = convert(container, dst, backend=backend, validate="inputs",
                      **options)
    except ValidationError as err:
        return "convert", f"well-formed input rejected: {err}"
    except Exception as err:  # noqa: BLE001 - any escape is a finding
        return "convert", f"{type(err).__name__}: {err}"
    outcome = _judge(out, cells, dst)
    if outcome is not None:
        return outcome
    try:
        refs = _baseline_outputs(src, dst, container)
    except Exception as err:  # noqa: BLE001 - baseline crash is a finding
        return "baseline", f"baseline raised {type(err).__name__}: {err}"
    for ref in refs:
        differing = _differing(_fields(out), _fields(ref))
        if differing:
            return (
                "baseline",
                f"synthesized {', '.join(differing)} differs from "
                f"{type(ref).__name__} baseline",
            )
    return _check_references(out, container, dst, backend, **options)


# ----------------------------------------------------------------------
# Shrinking


def _shrink(cells: Cells, predicate, *, budget: int = 200) -> Cells:
    """Greedy minimization: drop entries, then trim unused trailing
    indices off every axis."""
    current = cells
    attempts = 0
    improved = True
    while improved and attempts < budget:
        improved = False
        n = 0
        while n < len(current.values) and attempts < budget:
            keep = np.arange(len(current.values)) != n
            candidate = Cells(current.shape,
                              tuple(c[keep] for c in current.coords),
                              current.values[keep])
            attempts += 1
            if predicate(candidate):
                current, improved = candidate, True
            else:
                n += 1
        for axis, coords in enumerate(current.coords):
            while attempts < budget and current.shape[axis] > 1 \
                    and not (coords == current.shape[axis] - 1).any():
                shape = list(current.shape)
                shape[axis] -= 1
                candidate = current._replace(shape=tuple(shape))
                attempts += 1
                if not predicate(candidate):
                    break
                current, improved = candidate, True
    return current


# ----------------------------------------------------------------------
# Gate probes: malformed inputs must raise ValidationError


def _gate_probes(rng) -> list[tuple[str, object, dict]]:
    """(label, malformed container, convert kwargs) triples for the gate.

    A probe whose input the container constructor itself must reject (an
    index beyond int64, a non-integral index) carries the constructor
    call, which :func:`_run_gate_probe` makes.
    """
    dup = COOMatrix(3, 3, [0, 0, 1], [1, 1, 2], [1.0, 2.0, 3.0])
    oob_row = COOMatrix(2, 2, [0, 5], [0, 1], [1.0, 2.0])
    oob_col = COOMatrix(2, 2, [0, 1], [0, -3], [1.0, 2.0])
    unsorted = COOMatrix(3, 3, [2, 0, 1], [0, 2, 1], [1.0, 2.0, 3.0])
    ragged = COOMatrix(2, 2, [0], [0, 1], [1.0])
    bad_csr_dup = CSRMatrix(2, 3, [0, 2, 3], [1, 1, 2], [1.0, 2.0, 3.0])
    bad_csr_unsorted = CSRMatrix(2, 3, [0, 2, 3], [2, 0, 1],
                                 [1.0, 2.0, 3.0])
    bad_csr_ptr = CSRMatrix(2, 3, [0, 3, 2], [0, 1, 2], [1.0, 2.0, 3.0])
    bad_csc = CSCMatrix(3, 2, [0, 2, 3], [1, 1, 2], [1.0, 2.0, 3.0])
    bad_dia = DIAMatrix(2, 2, [1, 0], [0.0] * 4)
    dup3 = COOTensor3D((2, 2, 2), [0, 0], [1, 1], [1, 1], [1.0, 2.0])
    oob3 = COOTensor3D((2, 2, 2), [0, 3], [0, 0], [0, 0], [1.0, 2.0])
    unsorted3 = COOTensor3D((2, 2, 2), [1, 0], [0, 0], [0, 0], [1.0, 2.0])
    huge = partial(COOMatrix, 2, 2, [0, 2**63], [0, 1], [1.0, 2.0])
    fractional = partial(COOMatrix, 2, 2, [0.5, 1], [0, 1], [1.0, 2.0])
    bad_mcoo = MortonCOOMatrix(2, 2, [1, 0], [1, 0], [1.0, 2.0])
    bad_bcsr = BCSRMatrix(4, 4, 2, [0, 1, 2], [0, 2], [1.0] * 8)
    bad_bcsc = BCSCMatrix(4, 4, 2, [0, 2, 2], [1, 1], [1.0] * 8)
    bad_ell = ELLMatrix(2, 3, 2, [1, 1, 0, -1], [1.0, 2.0, 3.0, 0.0])
    bad_dcsr = DCSRMatrix(3, 3, [2, 0], [0, 1, 2], [0, 1], [1.0, 2.0])
    bad_csf = CSFTensor((2, 2, 2), [0], [0, 1], [0], [0, 2], [1, 0],
                        [1.0, 2.0])
    bad_mcoo3 = MortonCOOTensor3D((2, 2, 2), [1, 0], [1, 0], [1, 0],
                                  [1.0, 2.0])
    return [
        ("coo-duplicate", dup, {"dst": "CSR"}),
        ("coo-out-of-bounds-row", oob_row, {"dst": "CSR"}),
        ("coo-out-of-bounds-col", oob_col, {"dst": "CSC"}),
        ("coo-unsorted-claimed-sorted", unsorted, {"dst": "CSR"}),
        ("coo-ragged-arrays", ragged, {"dst": "CSR"}),
        ("csr-duplicate-columns", bad_csr_dup, {"dst": "CSC"}),
        ("csr-unsorted-columns", bad_csr_unsorted, {"dst": "CSC"}),
        ("csr-nonmonotonic-rowptr", bad_csr_ptr, {"dst": "CSC"}),
        ("csc-duplicate-rows", bad_csc, {"dst": "CSR"}),
        ("dia-unsorted-offsets", bad_dia, {"dst": "CSR"}),
        ("coo3d-duplicate", dup3, {"dst": "MCOO3"}),
        ("coo3d-out-of-bounds", oob3, {"dst": "MCOO3"}),
        ("coo3d-unsorted-claimed-sorted", unsorted3, {"dst": "MCOO3"}),
        ("coo-coordinate-beyond-int64", huge,
         {"dst": "CSR", "error": BoundsError}),
        ("coo-non-integral-coordinate", fractional,
         {"dst": "CSR", "error": StructureError}),
        ("mcoo-not-morton-ordered", bad_mcoo, {"dst": "CSR"}),
        ("bcsr-block-column-out-of-bounds", bad_bcsr, {"dst": "CSR"}),
        ("bcsc-duplicate-block-rows", bad_bcsc, {"dst": "CSR"}),
        ("ell-duplicate-columns", bad_ell, {"dst": "CSR"}),
        ("dcsr-unsorted-rows", bad_dcsr, {"dst": "CSR"}),
        ("csf-unsorted-mode2", bad_csf, {"dst": "COO3D"}),
        ("mcoo3-not-morton-ordered", bad_mcoo3, {"dst": "COO3D"}),
    ]


def _run_gate_probe(label, container, kwargs, backend) -> Optional[str]:
    from repro import convert

    expected = kwargs.get("error", ValidationError)
    try:
        if callable(container):  # a constructor call the probe rejects
            container = container()
        convert(container, kwargs["dst"], backend=backend,
                validate="inputs")
    except expected:
        return None
    except Exception as err:  # noqa: BLE001 - wrong exception type
        return (
            f"gate probe {label}: expected ValidationError, got "
            f"{type(err).__name__}: {err}"
        )
    return (
        f"gate probe {label}: malformed input was converted without a "
        f"ValidationError"
    )


# ----------------------------------------------------------------------
# Random level-composition fuzzing

#: Pivot formats random compositions are fuzzed against, by rank: every
#: composition converts *to* the pivot, and dest-capable ones also
#: convert *from* it.
RANDOM_FORMAT_PIVOTS = {2: "SCOO", 3: "SCOO3D"}


def _env_from_outputs(conversion, outputs: dict, src_env: dict) -> dict:
    """Map inspector outputs back into a composition's environment.

    The destination composition's :meth:`entries` wants arrays under
    the descriptor's *canonical* UF names; ``uf_output_map`` translates
    those to the inspector's (possibly suffixed) output names.  Outputs
    that are neither mapped UFs nor ``Adst`` are derived size symbols
    (``NNZ``, ``NB``, ``ND``...) and pass through under their own names;
    shape symbols come from the source environment.
    """
    mapped = set(conversion.uf_output_map.values())
    env = {
        canonical: outputs[output]
        for canonical, output in conversion.uf_output_map.items()
        if output in outputs
    }
    for name, value in outputs.items():
        if name == "Adst":
            env["Asrc"] = value
        elif name not in mapped:
            env[name] = value
    for sym, value in src_env.items():
        if isinstance(value, int) and sym not in env:
            env[sym] = value
    return env


def fuzz_random_formats(
    count: int = 50,
    *,
    seed: int = 0,
    backends: Sequence[str] | None = None,
    optimize_levels: Sequence[bool] = (True, False),
    max_failures: int = 25,
) -> FuzzReport:
    """Differentially fuzz randomly generated level compositions.

    Each case draws a random valid composition from
    :func:`repro.formats.levels.random_composition` and an adversarial
    input from the generators of its rank, then checks — on every
    available backend and optimize level — that

    * the composed descriptor *synthesizes* (a crash is a finding),
    * converting the composition's arrays to the rank's pivot format
      (:data:`RANDOM_FORMAT_PIVOTS`) reproduces the input's entries, with
      the composition's own :meth:`~repro.formats.levels.Composition.
      assemble` as the independent oracle,
    * dest-capable compositions also convert *from* the pivot, their
      outputs read back through :meth:`~repro.formats.levels.
      Composition.entries`,
    * all backends produce identical output arrays.

    Contents are compared by :func:`~repro.runtime.container.
    compare_contents`.  Runs are deterministic per ``seed``.  Failures
    are not shrunk (each case is already a single composition + small
    input); the report reuses :class:`FuzzReport` with one conversion
    checked per (direction, backend, optimize) combination.
    """
    from repro.formats.levels import LevelError, random_composition

    rng = random.Random(seed)
    report = FuzzReport(seed=seed, cases_requested=count)
    backends = _available_backends(backends, report)
    if not backends:
        return report

    def fail(case, comp, cells, direction, backend, optimize, stage,
             message):
        report.failures.append(
            FuzzFailure(
                case=case, kind=comp.family, src=direction[0],
                dst=direction[1], backend=backend, optimize=optimize,
                stage=stage, message=message,
                input_repr={"spec": comp.spec(), **_input_repr(cells)},
            )
        )

    for case in range(count):
        if len(report.failures) >= max_failures:
            break
        case_rng = random.Random(rng.randrange(1 << 30))
        comp = random_composition(case_rng, name=f"RF{case}")
        kinds = _CASE_KINDS[comp.rank]
        cells = kinds[case_rng.randrange(len(kinds))][1](case_rng)
        report.cases_run += 1
        pivot_name = RANDOM_FORMAT_PIVOTS[comp.rank]
        pivot_fmt = get_format(pivot_name)
        pivot_comp = pivot_fmt.levels
        try:
            fmt = comp.build()
            env = comp.assemble(cells)
        except (LevelError, ValueError) as err:
            fail(case, comp, cells, (comp.name, pivot_name), "-", True,
                 "build", f"{type(err).__name__}: {err}")
            continue
        directions = [(fmt, pivot_fmt, comp, pivot_comp, env)]
        if comp.dest_capable:
            directions.append(
                (pivot_fmt, fmt, pivot_comp, comp,
                 pivot_comp.assemble(cells))
            )
        for src_fmt, dst_fmt, _, dst_comp, src_env in directions:
            direction = (src_fmt.name, dst_fmt.name)
            for optimize in optimize_levels:
                reference_outputs = None
                for backend in backends:
                    report.conversions_checked += 1
                    try:
                        conversion = synthesize_cached(
                            src_fmt, dst_fmt,
                            backend=backend, optimize=optimize,
                        )
                    except SynthesisError as err:
                        fail(case, comp, cells, direction, backend,
                             optimize, "synthesize", str(err))
                        continue
                    try:
                        outputs = conversion(
                            **{p: src_env[p] for p in conversion.params}
                        )
                    except Exception as err:  # noqa: BLE001 - a finding
                        fail(case, comp, cells, direction, backend,
                             optimize, "run",
                             f"{type(err).__name__}: {err}")
                        continue
                    try:
                        got = dst_comp.entries(
                            _env_from_outputs(conversion, outputs, src_env)
                        )
                    except Exception as err:  # noqa: BLE001 - a finding
                        fail(case, comp, cells, direction, backend,
                             optimize, "dense",
                             f"outputs unreadable: {type(err).__name__}: "
                             f"{err}")
                        continue
                    try:
                        compare_contents(got, cells)
                    except DenseMismatchError as err:
                        fail(case, comp, cells, direction, backend,
                             optimize, "dense", str(err))
                        continue
                    if reference_outputs is None:
                        reference_outputs = (backend, outputs)
                        continue
                    ref_backend, ref = reference_outputs
                    differing = _differing(ref, outputs)
                    if differing:
                        fail(case, comp, cells, direction, backend,
                             optimize, "backend",
                             f"{backend} lowering's "
                             f"{', '.join(differing)} differ from the "
                             f"{ref_backend} lowering")
    report.combos_total = report.conversions_checked
    report.combos_covered = report.conversions_checked
    return report


# ----------------------------------------------------------------------
# The driver


def _synthesizable_pairs(sources, dests, backends, optimize_levels,
                         skipped: list, binary_search: bool = False) -> list:
    combos = []
    seen_skipped = set()
    for optimize in optimize_levels:
        for src in sources:
            for dst in dests:
                if src == dst:
                    continue
                for backend in backends:
                    try:
                        synthesize_cached(
                            get_format(src), get_format(dst),
                            optimize=optimize, backend=backend,
                            binary_search=binary_search,
                        )
                    except SynthesisError:
                        pair = f"{src}->{dst}" + (
                            " (binary search)" if binary_search else ""
                        )
                        if pair not in seen_skipped:
                            seen_skipped.add(pair)
                            skipped.append(pair)
                        continue
                    combos.append(
                        (src, dst, backend, optimize, binary_search)
                    )
    return combos


def fuzz(
    cases: int | None = None,
    *,
    seed: int = 0,
    backends: Sequence[str] | None = None,
    optimize_levels: Sequence[bool] = (True, False),
    ranks: Sequence[int] = (2, 3),
    sources_2d: Sequence[str] = SOURCES_2D,
    dests_2d: Sequence[str] = DESTS_2D,
    shrink: bool = True,
    max_failures: int = 25,
    trace: bool | None = None,
) -> FuzzReport:
    """Run the differential fuzzer; see the module docstring for the oracles.

    ``cases`` bounds the number of (input, src, dst, backend, optimize)
    executions; combos are scheduled round-robin with pair x backend
    coverage completing first, so ``cases >= combos_total`` guarantees
    every synthesizable pair runs under every backend and optimize flag.
    ``None`` (the default) runs exactly one case per combo.
    The fixed malformed-input gate probes always run, for every backend.

    ``backends=None`` (the default) fuzzes every registered backend whose
    ``require()`` passes; unavailable ones land in
    ``report.skipped_backends`` with the reason, and a run left with none
    fails.  Each backend is
    cross-checked against all of its declared differential references —
    the C tier against both python and numpy.

    ``trace`` forces the :mod:`repro.obs` span tree on/off for the run
    (``None`` follows ``REPRO_TRACE``); while tracing, each case gets a
    ``fuzz.case`` span and per-combo wall time lands in
    ``report.combo_timings`` (left empty otherwise, so untraced reports
    stay deterministic).
    """
    rng = random.Random(seed)
    report = FuzzReport(seed=seed, cases_requested=cases)
    backends = _available_backends(backends, report)

    def _account(combo_key: str, start: float, failed: bool) -> None:
        _FUZZ_CASES.inc(outcome="fail" if failed else "ok")
        if not obs.tracing():
            # Wall times are attribution data, not fuzzing results: the
            # report stays byte-deterministic across runs unless traced.
            return
        slot = report.combo_timings.setdefault(
            combo_key, {"cases": 0, "seconds": 0.0, "failures": 0}
        )
        slot["cases"] += 1
        slot["seconds"] += time.perf_counter() - start
        slot["failures"] += bool(failed)

    combos = []
    if 2 in ranks:
        combos.extend(
            _synthesizable_pairs(sources_2d, dests_2d, backends,
                                 optimize_levels, report.skipped_pairs)
        )
        # The Figure 3 conversions: every DIA destination once more with
        # the copy's linear search rewritten into a binary search.
        combos.extend(
            _synthesizable_pairs(sources_2d, [d for d in dests_2d
                                              if d == "DIA"],
                                 backends, optimize_levels,
                                 report.skipped_pairs, binary_search=True)
        )
    if 3 in ranks:
        combos.extend(
            _synthesizable_pairs(SOURCES_3D, DESTS_3D, backends,
                                 optimize_levels, report.skipped_pairs)
        )
    report.combos_total = len(combos)
    if cases is None:
        cases = report.cases_requested = len(combos)
    if not combos:
        return report

    # Fixed gate probes: malformed inputs must raise, on every backend.
    for backend in backends:
        for label, container, kwargs in _gate_probes(rng):
            report.gate_probes += 1
            message = _run_gate_probe(label, container, kwargs, backend)
            if message is not None:
                report.failures.append(
                    FuzzFailure(
                        case=-1, kind="malformed", src="-",
                        dst=kwargs["dst"], backend=backend, optimize=True,
                        stage="gate", message=message,
                        input_repr={"container": repr(container)},
                    )
                )

    # Each combo's kind is indexed by its position among its own rank's
    # combos (plus the round, rotated by the seed), so which other ranks
    # run beside it never changes the case it gets.
    positions, per_rank = [], Counter()
    for src, *_ in combos:
        rank = container_class(src).layout.rank
        positions.append((rank, per_rank[rank]))
        per_rank[rank] += 1

    covered: set = set()
    with obs.TRACER.forced(trace):
        for case in range(cases):
            if len(report.failures) >= max_failures:
                break
            combo = combos[case % len(combos)]
            rank, position = positions[case % len(combos)]
            src, dst, backend, optimize, bsearch = combo
            covered.add(combo)
            report.cases_run += 1
            report.conversions_checked += 1
            case_seed = rng.randrange(1 << 30)
            combo_key = f"{src}->{dst}:{backend}:opt{int(optimize)}" + (
                ":bsearch" if bsearch else ""
            )
            case_start = time.perf_counter()
            with obs.span(
                "fuzz.case", category="fuzz", case=case, combo=combo_key
            ) as case_span:
                kinds = _CASE_KINDS[rank]
                kind, gen = kinds[
                    (position + case // len(combos) + seed) % len(kinds)
                ]
                cells = gen(random.Random(case_seed))

                def run(candidate):
                    return _run_case(candidate, src, dst, backend, optimize,
                                     random.Random(case_seed), bsearch)

                outcome = run(cells)
                if outcome is not None:
                    if shrink:
                        cells = _shrink(cells, lambda c: run(c) is not None)
                        outcome = run(cells) or outcome
                    stage, message = outcome
                    report.failures.append(
                        FuzzFailure(
                            case=case, kind=kind, src=src, dst=dst,
                            backend=backend, optimize=optimize,
                            stage=stage, message=message,
                            input_repr=_input_repr(cells),
                            binary_search=bsearch,
                        )
                    )
                failed = outcome is not None
                case_span.set(kind=kind, outcome="fail" if failed else "ok")
            _account(combo_key, case_start, failed)
    report.combos_covered = len(covered)
    return report


__all__ = [
    "CASE_KINDS_2D",
    "CASE_KINDS_3D",
    "DESTS_2D",
    "DESTS_3D",
    "FuzzFailure",
    "FuzzReport",
    "RANDOM_FORMAT_PIVOTS",
    "SOURCES_2D",
    "SOURCES_3D",
    "fuzz",
    "fuzz_random_formats",
]
