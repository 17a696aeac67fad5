"""Benchmark the observability layer's overhead: tracing off vs. on.

Runs Fig-2-style conversions (COO->CSR, COO->CSC, CSR->CSC, on both
lowering backends) with synthesis and compilation pre-warmed, so the
timed region is pure inspector execution — the path every span site
sits on.  Three numbers per conversion:

* ``disabled_ms`` — ``trace=False``: every span site is one flag check
  returning the shared no-op span.  The contract is <1% of conversion
  time; this also reports the directly measured per-site no-op cost.
* ``enabled_ms`` — ``trace=True``: full span trees including the
  per-statement instrumented inspector.  Target <5%.
* ``enabled_overhead_pct`` — the measured delta between the two.

Also records the cache counters accumulated over the run (hit rates:
every timed call should be a memo hit) and the per-site no-op cost that
backs the disabled-path estimate.  Emits ``BENCH_pr4.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_pr4_obs_overhead.py \
        [--out BENCH_pr4.json] [--repeats 30] [--nnz 16384]
"""

from __future__ import annotations

import argparse
import json

import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import repro  # noqa: E402
import repro.obs as obs  # noqa: E402
from repro.datagen import random_uniform  # noqa: E402
from repro.obs import TRACER  # noqa: E402

#: Upper bound on span sites one convert() crosses — the pessimistic
#: constant tests/obs/test_overhead.py pins against.  The benchmark
#: additionally counts the real number per conversion from its own
#: warm trace (the per-statement spans don't count: their hooks only
#: exist in the instrumented variant, which the untraced path never
#: runs).
SPAN_SITES_BOUND = 32

CONVERSIONS = [
    ("COO", "CSR"),
    ("COO", "CSC"),
    ("CSR", "CSC"),
]


def _noop_site_cost_ns(iterations: int = 50_000) -> float:
    """Median-of-5 cost of one disabled span site, in nanoseconds."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(iterations):
            with obs.span("probe", category="bench", key="value"):
                pass
        best = min(best, (time.perf_counter() - start) / iterations)
    return best * 1e9


def _stage_source(matrix, src: str):
    if src == "COO":
        return matrix
    from repro.planner import convert_via_plan

    return convert_via_plan(matrix, src, trace=False)


def _timed_pair(source, dst: str, backend: str,
                repeats: int) -> tuple[float, float]:
    """Best per-call wall times (disabled_ms, enabled_ms).

    The two variants alternate within one loop so slow machine-load
    drift biases both equally, and the per-variant minimum damps
    scheduler noise — the quantity of interest is the code path's cost,
    not load jitter.  The span buffer is drained after each traced call
    so enabled runs never hit the MAX_ROOTS cap."""
    disabled, enabled = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        repro.convert(
            source, dst, backend=backend, validate="off", trace=False
        )
        disabled.append((time.perf_counter() - start) * 1e3)

        start = time.perf_counter()
        repro.convert(
            source, dst, backend=backend, validate="off", trace=True
        )
        enabled.append((time.perf_counter() - start) * 1e3)
        TRACER.clear()
    return min(disabled), min(enabled)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(REPO / "BENCH_pr4.json"))
    ap.add_argument("--repeats", type=int, default=30)
    ap.add_argument("--rows", type=int, default=512)
    ap.add_argument("--cols", type=int, default=512)
    ap.add_argument("--nnz", type=int, default=16384)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    matrix = random_uniform(args.rows, args.cols, args.nnz, seed=args.seed)
    site_ns = _noop_site_cost_ns()

    headers = [
        "conversion",
        "backend",
        "disabled_ms",
        "enabled_ms",
        "enabled_overhead_pct",
        "disabled_est_pct",
        "span_sites",
    ]
    rows = []
    for src, dst in CONVERSIONS:
        source = _stage_source(matrix, src)
        for backend in ("python", "numpy"):
            # Warm synthesis + compile (and the instrumented variant) so
            # the timed loops measure execution, not one-time work.
            repro.convert(source, dst, backend=backend, validate="off")
            repro.convert(
                source, dst, backend=backend, validate="off", trace=True
            )
            sites = sum(
                1
                for root in TRACER.finished_roots()
                for s in root.walk()
                if s.category != "execute.stmt"
            )
            TRACER.clear()

            disabled, enabled = _timed_pair(
                source, dst, backend, args.repeats
            )
            overhead_pct = (enabled - disabled) / disabled * 100.0
            est_pct = (site_ns * sites / (disabled * 1e6)) * 100.0
            rows.append(
                [f"{src}->{dst}", backend, disabled, enabled,
                 overhead_pct, est_pct, sites]
            )
            print(
                f"{src}->{dst} [{backend}] disabled {disabled:.3f}ms "
                f"enabled {enabled:.3f}ms ({overhead_pct:+.2f}%)",
                file=sys.stderr,
            )

    cache_counters = obs.unified_snapshot()["cache"]["counters"]
    hits = (
        cache_counters["repro_cache_memo_hit_total"]
        + cache_counters["repro_cache_disk_hit_total"]
    )
    lookups = hits + cache_counters["repro_cache_miss_total"]
    report = {
        "obs_overhead": {
            "experiment": "tracing disabled vs enabled on warmed "
            "Fig-2-style conversions",
            "matrix": {
                "rows": args.rows,
                "cols": args.cols,
                "nnz": args.nnz,
                "seed": args.seed,
            },
            "repeats": args.repeats,
            "headers": headers,
            "rows": rows,
            "noop_span_site_ns": site_ns,
            "span_sites_test_bound": SPAN_SITES_BOUND,
            "max_disabled_est_pct": max(r[5] for r in rows),
            "max_enabled_overhead_pct": max(r[4] for r in rows),
            "targets": {"disabled_pct": 1.0, "enabled_pct": 5.0},
            "cache_counters": cache_counters,
            "cache_hit_rate": hits / lookups if lookups else None,
        }
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    print(
        f"no-op site {site_ns:.0f}ns, max disabled est "
        f"{report['obs_overhead']['max_disabled_est_pct']:.3f}%, max "
        f"enabled {report['obs_overhead']['max_enabled_overhead_pct']:.2f}%"
        f" -> {args.out}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
