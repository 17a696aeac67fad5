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

* **dense semantics** — the converted container's invariants
  (``structure``) and its dense image against the generator's dense
  reference (``dense``); ``convert`` runs with ``validate="inputs"``, so
  its gate judges only the input and a wrong output is never reported
  as a rejected one,
* **hand-written baselines** — exact output-array equality against the
  TACO/MKL/SPARSKIT-style reference converters where one exists,
* **backend agreement** — each tier's container must match those of its
  ``differential_references`` (numpy against python, C against both),
  array for array and typecode for typecode,
* **the validation gate** — malformed inputs must raise
  :class:`~repro.errors.ValidationError`, never return a container or
  escape as a raw ``IndexError``.

Runs are deterministic per ``seed``; every failure is shrunk to a minimal
reproducing input (greedy nonzero removal + dimension trimming) and
reported machine-readably (:meth:`FuzzReport.to_dict`).  A run left with
no available backend checks nothing and fails.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

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
from repro.synthesis import SynthesisError, synthesize_cached

Dense = list

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


def _dense_from_cells(nrows, ncols, cells, rng) -> Dense:
    dense = [[0.0] * ncols for _ in range(nrows)]
    for i, j in cells:
        dense[i][j] = _rand_val(rng)
    return dense


def _gen_empty(rng):
    return _dense_from_cells(rng.randint(1, 6), rng.randint(1, 6), [], rng)


def _gen_single_cell(rng):
    nr, nc = rng.randint(1, 6), rng.randint(1, 6)
    return _dense_from_cells(
        nr, nc, [(rng.randrange(nr), rng.randrange(nc))], rng
    )


def _gen_single_row(rng):
    nc = rng.randint(1, 10)
    cells = [(0, j) for j in range(nc) if rng.random() < 0.6]
    return _dense_from_cells(1, nc, cells, rng)


def _gen_single_col(rng):
    nr = rng.randint(1, 10)
    cells = [(i, 0) for i in range(nr) if rng.random() < 0.6]
    return _dense_from_cells(nr, 1, cells, rng)


def _gen_fully_dense(rng):
    nr, nc = rng.randint(1, 5), rng.randint(1, 5)
    return _dense_from_cells(
        nr, nc, [(i, j) for i in range(nr) for j in range(nc)], rng
    )


def _gen_dense_rows(rng):
    nr, nc = rng.randint(2, 6), rng.randint(2, 8)
    cells = []
    for i in range(nr):
        if rng.random() < 0.5:  # a fully dense row
            cells.extend((i, j) for j in range(nc))
        elif rng.random() < 0.5:
            cells.append((i, rng.randrange(nc)))
    return _dense_from_cells(nr, nc, cells, rng)


def _gen_single_diagonal(rng):
    nr, nc = rng.randint(2, 8), rng.randint(2, 8)
    off = rng.randint(-(nr - 1), nc - 1)
    cells = [
        (i, i + off) for i in range(nr) if 0 <= i + off < nc
    ]
    return _dense_from_cells(nr, nc, cells, rng)


def _gen_tall(rng):
    nr, nc = rng.randint(6, 12), rng.randint(1, 3)
    cells = {
        (rng.randrange(nr), rng.randrange(nc))
        for _ in range(rng.randint(0, nr))
    }
    return _dense_from_cells(nr, nc, sorted(cells), rng)


def _gen_wide(rng):
    nr, nc = rng.randint(1, 3), rng.randint(6, 12)
    cells = {
        (rng.randrange(nr), rng.randrange(nc))
        for _ in range(rng.randint(0, nc))
    }
    return _dense_from_cells(nr, nc, sorted(cells), rng)


def _gen_power_law(rng):
    from repro.datagen import power_law

    nr, nc = rng.randint(4, 10), rng.randint(4, 10)
    coo = power_law(nr, nc, rng.randint(1, nr * 2),
                    seed=rng.randrange(1 << 30))
    return coo.to_dense()


def _gen_banded(rng):
    from repro.datagen import banded

    nr, nc = rng.randint(3, 9), rng.randint(3, 9)
    offsets = sorted(
        {rng.randint(-(nr - 1), nc - 1) for _ in range(rng.randint(1, 3))}
    )
    coo = banded(nr, nc, offsets, density=rng.choice((1.0, 0.6)),
                 seed=rng.randrange(1 << 30))
    return coo.to_dense()


def _gen_uniform(rng):
    nr, nc = rng.randint(1, 16), rng.randint(1, 16)
    ncells = nr * nc
    nnz = rng.randint(0, min(ncells, 48))
    cells = rng.sample(
        [(c // nc, c % nc) for c in range(ncells)], nnz
    )
    return _dense_from_cells(nr, nc, cells, rng)


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


def _gen_tensor(rng, kind: str) -> COOTensor3D:
    """A random 3-D tensor; ``kind`` selects a degenerate family."""
    if kind == "empty3":
        dims = tuple(rng.randint(1, 4) for _ in range(3))
        return COOTensor3D(dims, [], [], [], [])
    if kind == "fiber":  # all nonzeros share one (i, j) fiber
        dims = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(2, 8))
        i, j = rng.randrange(dims[0]), rng.randrange(dims[1])
        ks = sorted(
            rng.sample(range(dims[2]), rng.randint(1, dims[2]))
        )
        return COOTensor3D(
            dims, [i] * len(ks), [j] * len(ks), ks,
            [_rand_val(rng) for _ in ks],
        )
    dims = tuple(rng.randint(1, 8) for _ in range(3))
    seen = sorted(
        {
            (rng.randrange(dims[0]), rng.randrange(dims[1]),
             rng.randrange(dims[2]))
            for _ in range(rng.randint(0, 24))
        }
    )
    rows, cols, zs = (
        [list(axis) for axis in zip(*seen)] if seen else ([], [], [])
    )
    return COOTensor3D(dims, rows, cols, zs, [_rand_val(rng) for _ in rows])


CASE_KINDS_3D = ("empty3", "fiber", "uniform3")


def _shuffle_coo(coo: COOMatrix, rng) -> COOMatrix:
    order = list(range(coo.nnz))
    rng.shuffle(order)
    return COOMatrix(
        coo.nrows, coo.ncols,
        [coo.row[n] for n in order],
        [coo.col[n] for n in order],
        [coo.val[n] for n in order],
    )


def _assemble(src: str, source):
    """A ``src`` container holding ``source``'s entries (a dense image or
    a container), built by the format's own composition — independently
    of the synthesized code under test."""
    return assemble_container(container_class(src), source, format_name=src)


def _make_source_2d(src: str, dense: Dense, rng) -> object:
    if src == "COO":
        return _shuffle_coo(COOMatrix.from_dense(dense), rng)
    container = _assemble(src, dense)
    # Sometimes over-allocate an ELL width: inspectors must treat PAD
    # columns as absent whether or not any row fills the width.
    if isinstance(container, ELLMatrix) and rng.random() < 0.5:
        return ELLMatrix.from_dense(
            dense, container.width + rng.randint(1, 3)
        )
    return container


def _make_source_3d(src: str, tensor: COOTensor3D, rng) -> object:
    coo = tensor.sorted_lexicographic()
    if src == "COO3D":
        order = list(range(coo.nnz))
        rng.shuffle(order)
        return COOTensor3D(
            coo.dims,
            [coo.row[n] for n in order],
            [coo.col[n] for n in order],
            [coo.z[n] for n in order],
            [coo.val[n] for n in order],
        )
    return _assemble(src, coo)


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


def _input_repr(container) -> dict:
    if hasattr(container, "nrows"):
        return {
            "dense": container.to_dense(),
            "container": repr(container),
        }
    return {
        "dims": list(container.dims),
        "entries": sorted(
            (list(c), v) for c, v in container.to_dict().items()
        ),
        "container": repr(container),
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


def _judge(out, reference) -> Optional[tuple[str, str]]:
    """The ``structure`` or ``dense`` finding against the generator's
    reference (a dense image, or a 3-D coordinate map), or None."""
    try:
        out.check_against_dense(reference)
    except DenseMismatchError as err:
        return "dense", str(err)
    except ValidationError as err:
        return "structure", str(err)
    return None


def _run_case_2d(dense: Dense, src: str, dst: str, backend: str,
                 optimize: bool, rng,
                 binary_search: bool = False) -> Optional[tuple[str, str]]:
    """Run one conversion case; return (stage, message) on discrepancy."""
    from repro import convert

    container = _make_source_2d(src, dense, rng)
    try:
        out = convert(
            container, dst,
            backend=backend,
            optimize=optimize,
            binary_search=binary_search,
            assume_sorted=(src != "COO"),
            validate="inputs",
        )
    except ValidationError as err:
        return "convert", f"well-formed input rejected: {err}"
    except Exception as err:  # noqa: BLE001 - any escape is a finding
        return "convert", f"{type(err).__name__}: {err}"
    outcome = _judge(out, dense)
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
    return _check_references(
        out, container, dst, backend,
        optimize=optimize,
        binary_search=binary_search,
        assume_sorted=(src != "COO"),
    )


def _run_case_3d(tensor: COOTensor3D, src: str, dst: str, backend: str,
                 optimize: bool, rng) -> Optional[tuple[str, str]]:
    from repro import convert

    container = _make_source_3d(src, tensor, rng)
    try:
        out = convert(
            container, dst,
            backend=backend,
            optimize=optimize,
            assume_sorted=(src != "COO3D"),
            validate="inputs",
        )
    except ValidationError as err:
        return "convert", f"well-formed input rejected: {err}"
    except Exception as err:  # noqa: BLE001
        return "convert", f"{type(err).__name__}: {err}"
    outcome = _judge(out, tensor.to_dict())
    if outcome is not None:
        return outcome
    return _check_references(
        out, container, dst, backend,
        optimize=optimize, assume_sorted=(src != "COO3D"),
    )


# ----------------------------------------------------------------------
# Shrinking


def _shrink_dense(dense: Dense, predicate, *, budget: int = 200) -> Dense:
    """Greedy minimization: zero out nonzeros, then trim trailing dims."""
    current = [row[:] for row in dense]
    attempts = 0
    improved = True
    while improved and attempts < budget:
        improved = False
        # 1. Try zeroing each nonzero.
        for i, row in enumerate(current):
            for j, v in enumerate(row):
                if v == 0.0 or attempts >= budget:
                    continue
                candidate = [r[:] for r in current]
                candidate[i][j] = 0.0
                attempts += 1
                if predicate(candidate):
                    current = candidate
                    improved = True
        # 2. Try dropping the last row / column.
        while len(current) > 1 and attempts < budget:
            candidate = [r[:] for r in current[:-1]]
            attempts += 1
            if predicate(candidate):
                current = candidate
                improved = True
            else:
                break
        while current and len(current[0]) > 1 and attempts < budget:
            candidate = [r[:-1] for r in current]
            attempts += 1
            if predicate(candidate):
                current = candidate
                improved = True
            else:
                break
    return current


def _shrink_tensor(tensor: COOTensor3D, predicate, *,
                   budget: int = 120) -> COOTensor3D:
    """Greedy minimization for 3-D cases: drop entries, shrink dims."""
    current = tensor
    attempts = 0
    improved = True
    while improved and attempts < budget:
        improved = False
        for n in range(current.nnz):
            if attempts >= budget:
                break
            keep = [m for m in range(current.nnz) if m != n]
            candidate = COOTensor3D(
                current.dims,
                [current.row[m] for m in keep],
                [current.col[m] for m in keep],
                [current.z[m] for m in keep],
                [current.val[m] for m in keep],
            )
            attempts += 1
            if predicate(candidate):
                current = candidate
                improved = True
                break
        for axis in range(3):
            if attempts >= budget or current.dims[axis] <= 1:
                continue
            dims = list(current.dims)
            dims[axis] -= 1
            axis_coords = (current.row, current.col, current.z)[axis]
            if any(c >= dims[axis] for c in axis_coords):
                continue
            candidate = COOTensor3D(
                tuple(dims), current.row, current.col, current.z,
                current.val,
            )
            attempts += 1
            if predicate(candidate):
                current = candidate
                improved = True
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


def _random_dense_3d(rng) -> list:
    """A random 3-D dense tensor (degenerate shapes included)."""
    dims = tuple(rng.randint(1, 5) for _ in range(3))
    dense = [
        [[0.0] * dims[2] for _ in range(dims[1])] for _ in range(dims[0])
    ]
    for _ in range(rng.randint(0, 14)):
        i, j, k = (rng.randrange(d) for d in dims)
        dense[i][j][k] = _rand_val(rng)
    return dense


def _dense_nd_equal(a, b, tol: float = 1e-9) -> bool:
    """:func:`repro.runtime.dense_equal` for any rank (nested-list dense
    images)."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(
            _dense_nd_equal(x, y, tol) for x, y in zip(a, b)
        )
    return not isinstance(a, list) and not isinstance(b, list) \
        and abs(a - b) <= tol


def _env_from_outputs(conversion, outputs: dict, src_env: dict) -> dict:
    """Map inspector outputs back into a composition's environment.

    The destination composition's :meth:`interpret` wants arrays under
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
    dense input, then checks — on every available backend and optimize
    level — that

    * the composed descriptor *synthesizes* (a crash is a finding),
    * converting the composition's arrays to the rank's pivot format
      (:data:`RANDOM_FORMAT_PIVOTS`) reproduces the dense image, with
      the composition's own :meth:`~repro.formats.levels.Composition.
      assemble` as the independent oracle,
    * dest-capable compositions also convert *from* the pivot, checked
      through :meth:`~repro.formats.levels.Composition.interpret`,
    * all backends produce identical output arrays.

    Runs are deterministic per ``seed``.  Failures are not shrunk (each
    case is already a single composition + small dense input); the
    report reuses :class:`FuzzReport` with one conversion checked per
    (direction, backend, optimize) combination.
    """
    from repro.formats.levels import LevelError, random_composition

    rng = random.Random(seed)
    report = FuzzReport(seed=seed, cases_requested=count)
    backends = _available_backends(backends, report)
    if not backends:
        return report

    def fail(case, comp, dense, direction, backend, optimize, stage,
             message):
        report.failures.append(
            FuzzFailure(
                case=case, kind=comp.family, src=direction[0],
                dst=direction[1], backend=backend, optimize=optimize,
                stage=stage, message=message,
                input_repr={"spec": comp.spec(), "dense": dense},
            )
        )

    for case in range(count):
        if len(report.failures) >= max_failures:
            break
        case_rng = random.Random(rng.randrange(1 << 30))
        comp = random_composition(case_rng, name=f"RF{case}")
        if comp.rank == 3:
            dense = _random_dense_3d(case_rng)
        else:
            _, gen = CASE_KINDS_2D[case_rng.randrange(len(CASE_KINDS_2D))]
            dense = gen(case_rng)
        report.cases_run += 1
        pivot_name = RANDOM_FORMAT_PIVOTS[comp.rank]
        pivot_fmt = get_format(pivot_name)
        pivot_comp = pivot_fmt.levels
        try:
            fmt = comp.build()
            env = comp.assemble(dense)
        except (LevelError, ValueError) as err:
            fail(case, comp, dense, (comp.name, pivot_name), "-", True,
                 "build", f"{type(err).__name__}: {err}")
            continue
        directions = [(fmt, pivot_fmt, comp, pivot_comp, env)]
        if comp.dest_capable:
            directions.append(
                (pivot_fmt, fmt, pivot_comp, comp,
                 pivot_comp.assemble(dense))
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
                        fail(case, comp, dense, direction, backend,
                             optimize, "synthesize", str(err))
                        continue
                    try:
                        outputs = conversion(
                            **{p: src_env[p] for p in conversion.params}
                        )
                    except Exception as err:  # noqa: BLE001 - a finding
                        fail(case, comp, dense, direction, backend,
                             optimize, "run",
                             f"{type(err).__name__}: {err}")
                        continue
                    try:
                        got = dst_comp.interpret(
                            _env_from_outputs(conversion, outputs, src_env)
                        )
                    except Exception as err:  # noqa: BLE001 - a finding
                        fail(case, comp, dense, direction, backend,
                             optimize, "dense",
                             f"outputs unreadable: {type(err).__name__}: "
                             f"{err}")
                        continue
                    if not _dense_nd_equal(got, dense):
                        fail(case, comp, dense, direction, backend,
                             optimize, "dense",
                             "dense image differs from the assemble/"
                             "interpret oracle")
                        continue
                    if reference_outputs is None:
                        reference_outputs = (backend, outputs)
                        continue
                    ref_backend, ref = reference_outputs
                    differing = _differing(ref, outputs)
                    if differing:
                        fail(case, comp, dense, direction, backend,
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

    covered: set = set()
    kinds_2d = list(CASE_KINDS_2D)
    with obs.TRACER.forced(trace):
        for case in range(cases):
            if len(report.failures) >= max_failures:
                break
            combo = combos[case % len(combos)]
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
                if src in SOURCES_3D:
                    kind = CASE_KINDS_3D[case % len(CASE_KINDS_3D)]
                    tensor = _gen_tensor(random.Random(case_seed), kind)

                    def predicate_3d(candidate):
                        return (
                            _run_case_3d(candidate, src, dst, backend,
                                         optimize,
                                         random.Random(case_seed))
                            is not None
                        )

                    outcome = _run_case_3d(
                        tensor, src, dst, backend, optimize,
                        random.Random(case_seed),
                    )
                    if outcome is not None:
                        if shrink:
                            tensor = _shrink_tensor(tensor, predicate_3d)
                            outcome = _run_case_3d(
                                tensor, src, dst, backend, optimize,
                                random.Random(case_seed),
                            ) or outcome
                        stage, message = outcome
                        report.failures.append(
                            FuzzFailure(
                                case=case, kind=kind, src=src, dst=dst,
                                backend=backend, optimize=optimize,
                                stage=stage, message=message,
                                input_repr=_input_repr(tensor),
                            )
                        )
                else:
                    kind, gen = kinds_2d[case % len(kinds_2d)]
                    dense = gen(random.Random(case_seed))

                    def predicate_2d(candidate):
                        return (
                            _run_case_2d(candidate, src, dst, backend,
                                         optimize,
                                         random.Random(case_seed), bsearch)
                            is not None
                        )

                    outcome = _run_case_2d(
                        dense, src, dst, backend, optimize,
                        random.Random(case_seed), bsearch,
                    )
                    if outcome is not None:
                        if shrink:
                            dense = _shrink_dense(dense, predicate_2d)
                            outcome = _run_case_2d(
                                dense, src, dst, backend, optimize,
                                random.Random(case_seed), bsearch,
                            ) or outcome
                        stage, message = outcome
                        report.failures.append(
                            FuzzFailure(
                                case=case, kind=kind, src=src, dst=dst,
                                backend=backend, optimize=optimize,
                                stage=stage, message=message,
                                input_repr={"dense": dense},
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
