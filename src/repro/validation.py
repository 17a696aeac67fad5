"""Differential testing of synthesized conversions.

A randomized cross-checking harness: generate matrices, push them through
every synthesizable conversion path (direct, round-trip, and two-step
chains), and compare the dense images.  Used by the test suite, by
``python -m repro selftest``, and handy when developing a new format
descriptor — one call exercises a descriptor against the whole library.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro import container_to_env, convert, dense_equal
from repro.formats import get_format
from repro.runtime import COOMatrix, COOTensor3D
from repro.synthesis import SynthesisError, synthesize

DEFAULT_TARGETS = ("CSR", "CSC", "DIA", "MCOO", "SCOO", "BCSR")


@dataclass
class DifferentialReport:
    """Outcome of a differential-testing run."""

    trials: int
    conversions_checked: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        lines = [
            f"differential test: {self.trials} matrices, "
            f"{self.conversions_checked} conversions checked — {status}"
        ]
        lines.extend(f"  FAIL {f}" for f in self.failures)
        return "\n".join(lines)


def random_matrix(rng: random.Random, max_dim: int = 16) -> COOMatrix:
    """A random sparse matrix with occasional degenerate shapes."""
    nrows = rng.randint(1, max_dim)
    ncols = rng.randint(1, max_dim)
    ncells = nrows * ncols
    nnz = rng.randint(0, min(ncells, 3 * max_dim))
    cells = rng.sample(range(ncells), nnz)
    dense = [[0.0] * ncols for _ in range(nrows)]
    for cell in cells:
        dense[cell // ncols][cell % ncols] = round(rng.uniform(-9, 9), 3) or 1.0
    return COOMatrix.from_dense(dense)


def differential_test(
    trials: int = 20,
    *,
    targets: Sequence[str] = DEFAULT_TARGETS,
    seed: int = 0,
    chains: bool = True,
    backend: str = "python",
) -> DifferentialReport:
    """Run the harness; every conversion must preserve the dense image."""
    rng = random.Random(seed)
    report = DifferentialReport(trials=trials, conversions_checked=0)

    for trial in range(trials):
        coo = random_matrix(rng)
        reference = coo.to_dense()
        converted: dict[str, object] = {}

        for target in targets:
            label = f"trial {trial}: SCOO->{target} ({coo})"
            try:
                out = convert(coo, target, backend=backend)
            except SynthesisError as err:
                report.failures.append(f"{label}: synthesis error: {err}")
                continue
            report.conversions_checked += 1
            try:
                out.check()
            except ValueError as err:
                report.failures.append(f"{label}: invariant violation: {err}")
                continue
            if not dense_equal(out.to_dense(), reference):
                report.failures.append(f"{label}: dense image differs")
                continue
            converted[target] = out

        if not chains:
            continue
        # Second hop: from each converted container to a rotated target.
        for index, (fmt, container) in enumerate(sorted(converted.items())):
            target = list(targets)[(index + 1) % len(targets)]
            if target == fmt:
                continue
            label = f"trial {trial}: {fmt}->{target} (chained)"
            try:
                out = convert(container, target, backend=backend)
            except SynthesisError as err:
                report.failures.append(f"{label}: synthesis error: {err}")
                continue
            report.conversions_checked += 1
            if not dense_equal(out.to_dense(), reference):
                report.failures.append(f"{label}: dense image differs")

    return report


def random_tensor3d(rng: random.Random, max_dim: int = 8) -> COOTensor3D:
    """A random sorted 3-D COO tensor with occasional degenerate shapes."""
    ni, nj, nk = (rng.randint(1, max_dim) for _ in range(3))
    nnz = rng.randint(0, 3 * max_dim)
    seen = sorted(
        {
            (rng.randrange(ni), rng.randrange(nj), rng.randrange(nk))
            for _ in range(nnz)
        }
    )
    rows, cols, zs = ([list(axis) for axis in zip(*seen)] if seen
                      else ([], [], []))
    vals = [round(rng.uniform(-9, 9), 3) or 1.0 for _ in rows]
    return COOTensor3D((ni, nj, nk), rows, cols, zs, vals)


def _equivalence_containers(src: str, matrices):
    """Build ``src``-format containers from raw COO inputs.

    The source-only formats have no incoming conversion edges, so their
    containers come from the direct constructors (``ELLMatrix.from_dense``,
    ``CSFTensor.from_coo``); everything else goes through ``convert``.
    Shapes a format cannot represent (e.g. a BCSR block size that does not
    divide the dims) are skipped.
    """
    from repro.runtime.csf import CSFTensor
    from repro.runtime.matrices import ELLMatrix

    containers = []
    for tag, coo in matrices:
        try:
            if src in ("COO", "SCOO", "COO3D", "SCOO3D"):
                containers.append((tag, coo))
            elif src == "ELL":
                containers.append((tag, ELLMatrix.from_dense(coo.to_dense())))
            elif src == "CSF":
                containers.append((tag, CSFTensor.from_coo(coo)))
            else:
                containers.append((tag, convert(coo, src)))
        except (SynthesisError, ValueError, KeyError):
            continue
    return containers


def _typed(outputs: dict) -> dict:
    """Each output paired with its element type: ``array('q')`` and
    ``array('d')`` holding equal numbers compare equal on their own."""
    return {
        name: (getattr(value, "typecode", type(value).__name__), value)
        for name, value in outputs.items()
    }


def backend_equivalence_test(
    trials: int = 4,
    *,
    seed: int = 0,
    pairs: Sequence[tuple[str, str]] | None = None,
    backends: Sequence[str] = ("numpy",),
) -> DifferentialReport:
    """Assert non-reference lowerings are bit-identical to the scalar one.

    For every synthesizable conversion pair (or an explicit ``pairs``
    list), the scalar backend and each backend in ``backends`` run on the
    same randomized inputs — including an empty matrix, a 1x1 matrix, and
    unsorted COO with duplicate coordinates — and their materialized
    inspector output dicts must compare equal, element for element.  This
    is a stronger check than :func:`differential_test`'s dense-image
    comparison: padding, pointer arrays, and permutation outputs must all
    match exactly.  ``backends`` defaults to the numpy tier; pass
    ``("numpy", "c")`` to gate the compiled tier as well.
    """
    from repro.backends import get_backend
    from repro.planner import PLANNABLE_2D, PLANNABLE_3D

    rng = random.Random(seed)
    report = DifferentialReport(trials=trials, conversions_checked=0)

    matrices = [(f"rand{i}", random_matrix(rng)) for i in range(trials)]
    matrices.append(("empty", COOMatrix(4, 5, [], [], [])))
    matrices.append(("single", COOMatrix(1, 1, [0], [0], [7.0])))
    dup = COOMatrix(3, 3, [0, 0, 2, 2], [1, 1, 0, 0], [1.0, 2.0, 3.0, 4.0])
    tensors = [(f"tens{i}", random_tensor3d(rng)) for i in range(trials)]
    tensors.append(("empty3", COOTensor3D((2, 3, 4), [], [], [], [])))

    if pairs is None:
        pairs = [
            (src, dst)
            for names in (PLANNABLE_2D, PLANNABLE_3D)
            for src in names
            for dst in names
            if src != dst
        ]

    candidates = [b for b in backends if get_backend(b).name != "python"]
    for src, dst in pairs:
        try:
            scalar = synthesize(
                get_format(src), get_format(dst), backend="python"
            )
            others = [
                synthesize(get_format(src), get_format(dst), backend=b)
                for b in candidates
            ]
        except SynthesisError:
            continue
        inputs_3d = src in ("COO3D", "SCOO3D", "MCOO3", "CSF")
        cases = _equivalence_containers(
            src, tensors if inputs_3d else matrices
        )
        if src in ("COO", "SCOO"):
            cases.append(("dup", dup))
        for tag, container in cases:
            env = container_to_env(container)
            scalar_out = scalar(**{p: env[p] for p in scalar.params})
            for other in others:
                env = container_to_env(container)
                other_out = other(**{p: env[p] for p in other.params})
                report.conversions_checked += 1
                ours, theirs = _typed(scalar_out), _typed(other_out)
                if ours != theirs:
                    diff = [k for k in ours if ours[k] != theirs.get(k)]
                    report.failures.append(
                        f"{src}->{dst} on {tag} ({other.backend}): "
                        f"outputs differ in {diff}"
                    )
    return report
