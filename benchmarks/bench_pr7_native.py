"""Benchmark the compiled-C tier against the numpy tier (Figure 2 pairs).

The four Figure 2 conversions run on the representative Table 3
matrices at 10x the benchmark suite's default scale (``REPRO_BENCH_SCALE``,
default here 0.2 vs the conftest's 0.02) — large enough that per-nonzero
inspector work dominates and the FFI dispatch floor is amortized, which
is the regime the native tier exists for.

Methodology follows the repo's benchmarking conventions:

* the C and numpy runs of each (pair, matrix) cell are *interleaved*, so
  machine-load drift biases both tiers equally (timing noise on these
  boxes runs 20-30%; the gate below demands a structural margin, not a
  marginal one),
* min over repeats, synthesis and the .so compile pre-warmed outside the
  timed region,
* the timed region is pinned warm: the
  ``repro_cbackend_compile_miss_total`` counter must not move during
  timing (every compile happened in warm-up) while
  ``repro_cbackend_compile_hit_total`` must grow (every timed C call was
  served from the artifact cache).  A miss inside the timed region fails
  the run — that would mean compile time leaked into an inspector
  measurement.

The gate: geomean C-over-numpy speedup across all cells >= 2x.

Emits ``BENCH_pr7.json``.  Usage::

    PYTHONPATH=src python benchmarks/bench_pr7_native.py [--out FILE]
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro import convert, get_conversion  # noqa: E402
from repro.backends import BackendUnavailableError, get_backend  # noqa: E402
from repro.datagen import load  # noqa: E402
from repro.formats import container_to_env  # noqa: E402
from repro.obs import METRICS  # noqa: E402

#: 10x the conftest default (0.02) — the acceptance scale for this bench.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.2"))

MATRICES = ["jnlbrng1", "majorbasis", "ecology1", "cant", "scircuit"]
#: DIA destinations only make sense on the diagonal-structured matrices
#: (elsewhere ndiags x nrows padding swamps every tier equally).
DIA_MATRICES = ["jnlbrng1", "majorbasis", "ecology1"]

#: (figure, src, dst, matrix list) — the Figure 2 conversions.
PAIRS = [
    ("fig2a", "COO", "CSC", MATRICES),
    ("fig2b", "CSR", "CSC", MATRICES),
    ("fig2c", "SCOO", "CSR", MATRICES),
    ("fig2d", "COO", "DIA", DIA_MATRICES),
]


def _count(name: str) -> float:
    """A counter's total over its labels; KeyError if none is declared."""
    return sum(s["value"] for s in METRICS.snapshot()[name]["samples"])


def _staged_inputs(conv, container, backend_name: str) -> dict:
    """Inspector inputs in the backend's native representation."""
    env = container_to_env(container)
    inputs = {p: env[p] for p in conv.params}
    return get_backend(backend_name).native_inputs(inputs)


def _runner(conv, inputs):
    def run():
        return conv.run_native(**inputs)

    return run


def _race_ms(run_c, run_np, repeats: int) -> tuple[float, float]:
    """Min time per tier, C and numpy runs interleaved."""
    gc.collect()
    best_c = best_np = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_c()
        best_c = min(best_c, time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_np()
        best_np = min(best_np, time.perf_counter() - t0)
    return best_c * 1e3, best_np * 1e3


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(REPO / "BENCH_pr7.json"))
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args(argv)

    try:
        get_backend("c").require()
    except BackendUnavailableError as err:
        # No toolchain: record the skip instead of failing the harness —
        # the CI job that *requires* the native tier installs one.
        with open(args.out, "w") as fh:
            json.dump({"skipped": str(err)}, fh, indent=1)
        print(f"SKIP: {err}", file=sys.stderr)
        return 0

    matrices = {name: load(name, scale=SCALE) for name in MATRICES}
    rows = []

    # Warm-up outside the timed region: synthesis, the .so compiles, and
    # one execution per cell (first-touch allocations, dlopen).
    cells = []
    for fig, src, dst, names in PAIRS:
        conv_c = get_conversion(src, dst, backend="c")
        conv_np = get_conversion(src, dst, backend="numpy")
        for name in names:
            coo = matrices[name]
            container = convert(coo, "CSR") if src == "CSR" else coo
            run_c = _runner(conv_c, _staged_inputs(conv_c, container, "c"))
            run_np = _runner(
                conv_np, _staged_inputs(conv_np, container, "numpy")
            )
            run_c(), run_np()
            cells.append((fig, src, dst, name, coo.nnz, run_c, run_np))

    miss0 = _count("repro_cbackend_compile_miss_total")
    hit0 = _count("repro_cbackend_compile_hit_total")
    for fig, src, dst, name, nnz, run_c, run_np in cells:
        c_ms, np_ms = _race_ms(run_c, run_np, args.repeats)
        rows.append([fig, f"{src}->{dst}", name, nnz, np_ms, c_ms,
                     np_ms / c_ms])
        print(
            f"{fig} {src}->{dst} {name} (nnz={nnz}): "
            f"numpy {np_ms:.2f}ms, c {c_ms:.2f}ms "
            f"({np_ms / c_ms:.1f}x)",
            file=sys.stderr,
        )
    miss_delta = _count("repro_cbackend_compile_miss_total") - miss0
    hit_delta = _count("repro_cbackend_compile_hit_total") - hit0

    speedups = [row[6] for row in rows]
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    report = {
        "native_vs_numpy": {
            "experiment": "compiled-C tier vs numpy tier, Figure 2 pairs",
            "scale": SCALE,
            "repeats": args.repeats,
            "headers": [
                "figure", "pair", "matrix", "nnz",
                "numpy_ms", "c_ms", "speedup",
            ],
            "rows": rows,
            "geomean_speedup": geomean,
        },
        "compile_cache": {
            "experiment": "warm-cache pinning of the timed region",
            "timed_miss_delta": miss_delta,
            "timed_hit_delta": hit_delta,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    print(
        f"geomean C speedup {geomean:.2f}x over numpy, "
        f"timed region: {miss_delta} compile misses / {hit_delta} cache hits "
        f"-> {args.out}",
        file=sys.stderr,
    )
    if miss_delta != 0:
        print("FAIL: a compile happened inside the timed region",
              file=sys.stderr)
        return 1
    if hit_delta <= 0:
        print("FAIL: timed C runs were not served from the compile cache",
              file=sys.stderr)
        return 1
    if geomean < 2.0:
        print("FAIL: geomean C-over-numpy speedup under 2x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
