"""Benchmark the fast synthesis path: cold vs. warm vs. pre-PR baseline.

Synthesizes every ordered pair of the 2-D planner formats (the planner's
conversion graph) under three configurations, each in its own subprocess
so no module state, IR intern table, or synthesis memo leaks between
measurements:

* ``baseline`` — a pre-PR source tree.  Pass ``--baseline-ref <git-ref>``
  to measure a real checkout via a temporary ``git worktree``; without a
  ref the current tree runs with ``REPRO_IR_MEMO=0`` and the caches
  disabled, which approximates the pre-PR path (no interning, no memoized
  algebra, no disk cache).
* ``cold`` — the current tree against an empty disk cache: every pair is
  synthesized from scratch (and persisted).
* ``warm`` — the current tree against the cache the cold run populated:
  every pair should be served from disk (file load + exec only).

Emits ``BENCH_pr2.json`` with per-pair timings, geomean speedups, the
per-phase time breakdown from the ``repro.obs`` histograms of seconds,
and the warm run's cache counters (so "warm really did hit the disk
cache" is checkable).

Usage::

    PYTHONPATH=src python benchmarks/bench_pr2_synthesis_cache.py \
        [--baseline-ref <git-ref>] [--out BENCH_pr2.json]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Runs inside each measured subprocess.  Written to a file and executed
#: with the PYTHONPATH of the tree under test; must only use APIs present
#: in both the pre-PR and current trees (hence the feature probing).
_WORKER = r"""
import itertools, json, sys, time

mode, outpath = sys.argv[1], sys.argv[2]

from repro.formats import get_format
from repro.planner import PLANNABLE_2D
from repro.synthesis import SynthesisError

if mode in ("cold", "warm"):
    from repro.synthesis import synthesize_cached as _synth
    # One-time process overhead (hashing the package source for the cache
    # partition, importing the JSON descriptor schema) is not synthesis
    # work — pay it before the timed loop so it doesn't land on pair 1.
    from repro.codeversion import code_version_hash
    from repro.io.descriptor_json import descriptor_to_dict
    code_version_hash()
    descriptor_to_dict(get_format(PLANNABLE_2D[0]))
else:  # baseline trees predate synthesize_cached
    from repro.synthesis import synthesize as _synth

pairs = {}
for a, b in itertools.permutations(PLANNABLE_2D, 2):
    t0 = time.perf_counter()
    try:
        _synth(get_format(a), get_format(b))
        ok = True
    except SynthesisError:
        ok = False
    pairs[f"{a}->{b}"] = {"ms": (time.perf_counter() - t0) * 1e3, "ok": ok}

result = {"pairs": pairs, "phases": {}, "counters": {}}
if mode in ("cold", "warm"):
    # The report reads telemetry of these two runs only, and both run
    # this tree: every *_seconds histogram is a phase, every counter
    # series a counter.
    from repro.obs import METRICS

    for name, metric in METRICS.snapshot().items():
        for sample in metric["samples"]:
            labels = ", ".join(
                f"{k}={v}" for k, v in sorted(sample["labels"].items())
            )
            key = f"{name}{{{labels}}}" if labels else name
            value = sample["value"]
            if metric["kind"] == "histogram" and name.endswith("_seconds"):
                result["phases"][key] = {
                    "seconds": value["sum"], "calls": value["count"],
                }
            elif metric["kind"] == "counter":
                result["counters"][key] = value
    if not result["phases"] or not result["counters"]:
        raise SystemExit(f"{mode} run recorded no phases or no counters")

with open(outpath, "w") as fh:
    json.dump(result, fh)
"""


def _run_worker(mode: str, pythonpath: str, env_extra: dict) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        worker = Path(tmp) / "worker.py"
        worker.write_text(_WORKER)
        out = Path(tmp) / "out.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = pythonpath
        env.update(env_extra)
        subprocess.run(
            [sys.executable, str(worker), mode, str(out)],
            check=True,
            env=env,
            cwd=str(REPO),
        )
        return json.loads(out.read_text())


def _merge_min(results: list[dict]) -> dict:
    """Per-pair minimum over repeated runs (damps scheduler noise);
    phases/counters come from the first run."""
    merged = json.loads(json.dumps(results[0]))
    for other in results[1:]:
        for pair, rec in other["pairs"].items():
            cur = merged["pairs"].get(pair)
            if cur is None or rec["ms"] < cur["ms"]:
                merged["pairs"][pair] = rec
    return merged


def _geomean(ratios: list[float]) -> float:
    if not ratios:
        return float("nan")
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


class _Baseline:
    """The pre-PR tree to measure against, as (kind, pythonpath, env)."""

    def __init__(self, ref: str | None):
        self.ref = ref
        self._tmp = None

    def __enter__(self) -> tuple[str, str, dict]:
        if self.ref is None:
            # Proxy: current tree with interning/memoization/caches off.
            return (
                "memo-off-proxy",
                str(REPO / "src"),
                {"REPRO_IR_MEMO": "0", "REPRO_CACHE_DISABLE": "1"},
            )
        self._tmp = tempfile.TemporaryDirectory()
        tree = Path(self._tmp.name) / "baseline"
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(tree), self.ref],
            check=True,
            cwd=str(REPO),
            capture_output=True,
        )
        self._tree = tree
        return (
            f"worktree:{self.ref}",
            str(tree / "src"),
            {"REPRO_CACHE_DISABLE": "1"},
        )

    def __exit__(self, *exc):
        if self._tmp is not None:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(self._tree)],
                cwd=str(REPO),
                capture_output=True,
            )
            self._tmp.cleanup()
        return False


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--baseline-ref",
        default=None,
        metavar="GIT_REF",
        help="measure the pre-PR baseline from a git worktree at this ref "
        "(default: current tree with REPRO_IR_MEMO=0 as a proxy)",
    )
    ap.add_argument("--out", default=str(REPO / "BENCH_pr2.json"))
    ap.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="subprocess repetitions per configuration; per-pair minimum "
        "is reported (default: 3)",
    )
    args = ap.parse_args(argv)

    base_runs, cold_runs, warm_runs = [], [], []
    with _Baseline(args.baseline_ref) as (baseline_kind, base_pp, base_env):
        # Interleave baseline/cold/warm within each repetition so slow
        # drift in machine load (shared hosts) biases the three
        # configurations equally instead of whichever ran last.
        for i in range(args.repeats):
            base_runs.append(_run_worker("baseline", base_pp, base_env))
            # Each cold repetition needs its own empty cache directory —
            # the first run populates it, so reusing it would be warm.
            with tempfile.TemporaryDirectory() as cachedir:
                env = {"REPRO_CACHE_DIR": cachedir}
                cold_runs.append(_run_worker("cold", str(REPO / "src"), env))
                warm_runs.append(_run_worker("warm", str(REPO / "src"), env))
            print(f"repetition {i + 1}/{args.repeats} done", file=sys.stderr)
    base = _merge_min(base_runs)
    cold = _merge_min(cold_runs)
    warm = _merge_min(warm_runs)

    headers = [
        "pair",
        "baseline_ms",
        "cold_ms",
        "warm_ms",
        "cold_speedup",
        "warm_speedup",
    ]
    rows = []
    cold_ratios, warm_ratios = [], []
    for pair, b in base["pairs"].items():
        c = cold["pairs"].get(pair)
        w = warm["pairs"].get(pair)
        if c is None or w is None or not (b["ok"] and c["ok"] and w["ok"]):
            continue
        cold_ratios.append(b["ms"] / c["ms"])
        warm_ratios.append(b["ms"] / w["ms"])
        rows.append(
            [
                pair,
                b["ms"],
                c["ms"],
                w["ms"],
                b["ms"] / c["ms"],
                b["ms"] / w["ms"],
            ]
        )

    phase_names = sorted(set(cold["phases"]) | set(warm["phases"]))
    phase_rows = [
        [
            name,
            cold["phases"].get(name, {}).get("seconds", 0.0) * 1e3,
            cold["phases"].get(name, {}).get("calls", 0),
            warm["phases"].get(name, {}).get("seconds", 0.0) * 1e3,
            warm["phases"].get(name, {}).get("calls", 0),
        ]
        for name in phase_names
    ]

    report = {
        "synthesis_cache": {
            "experiment": "cold/warm synthesis of the 2-D planner graph",
            "baseline": baseline_kind,
            "headers": headers,
            "rows": rows,
            "geomean_cold_speedup": _geomean(cold_ratios),
            "geomean_warm_speedup": _geomean(warm_ratios),
            "warm_counters": {
                k: v
                for k, v in warm["counters"].items()
                if k.startswith("repro_cache_")
            },
        },
        "synthesis_phases": {
            "experiment": "per-phase synthesis time over the planner graph",
            "headers": [
                "phase",
                "cold_total_ms",
                "cold_calls",
                "warm_total_ms",
                "warm_calls",
            ],
            "rows": phase_rows,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    print(
        f"geomean cold speedup {_geomean(cold_ratios):.2f}x, "
        f"warm {_geomean(warm_ratios):.2f}x -> {args.out}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
