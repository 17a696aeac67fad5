"""End-to-end, layer-attributed benchmark of repro's conversions.

Measures what a caller of ``convert()`` or ``POST /convert`` waits for,
on three workloads (see README.md), and checks every output against the
scalar python tier::

    python3 benchmarks/e2e/run.py --workload fig2-large --seed 0 \\
        --seconds 12 --trace 0

Each phase runs in a fresh ``worker.py`` subprocess with ``REPRO_TRACE``
unset and empty ``REPRO_CACHE_DIR`` / ``REPRO_CBACKEND_DIR`` /
``REPRO_COSTS_DIR``.  ``--trace 0`` reports the end-to-end metrics (set-up
is repeated and its median taken); ``--trace 1`` reports the per-layer
metrics of a separate traced run.  Every time is scaled by the host's
speed, probed beside it (``speed.py``).  A table goes to stdout, then one
JSON line — ``{"correct", "attempted", "failed", "metrics"}`` — as the
last line.  Every run is also appended to
``benchmarks/e2e/.bench/results.jsonl`` for ``compare.py``.  Exits 1 on
a wrong output, a failed operation or a refused request, 2 when the
benchmark cannot run (no ``src/repro`` beside it, no C tier).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / ".bench"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import speed  # noqa: E402
import summary  # noqa: E402

WORKLOADS = ("fig2-large", "all-pairs", "serve-mixed")

#: Fresh processes whose set-up time is measured; the median is reported.
SETUP_RUNS = 3

#: Whole-run budget: a run must end within 180 s.
BUDGET_S = 170.0

E2E_UNITS = {
    "convert_ms": "ms",
    "nnz_per_s": "nnz/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

LAYER_UNITS = {
    **{metric: "ms" for _span, metric in layers.LAYERS},
    layers.MARSHAL_IN: "ms",
    "residue_share": "ratio",
    "trace.overhead_share": "ratio",
    "synthesis.cold_ms": "ms",
    "backends.first_call_ms": "ms",
    "verify.gate_checks": "count",
    "backends.c_scalar_pairs": "count",
    "backends.numpy_scalar_nests": "count",
}

#: The daemon's layers (serve-mixed only): name -> (unit, better).  The
#: JSON line of a traced run carries exactly the per-layer metrics of
#: BENCHMARK.json, which every workload reports, so these go to the table
#: and to the results file that compare.py reads.
SERVE_LAYERS = {
    "serve.decode_ms": ("ms", "lower"),
    "serve.encode_ms": ("ms", "lower"),
    "serve.request_ms": ("ms", "lower"),
    "serve.queue_wait_ms": ("ms", "lower"),
    "serve.convert_ms": ("ms", "lower"),
    "serve.outside_ms": ("ms", "lower"),
    "serve.bytes_in": ("B", "lower"),
    "serve.bytes_out": ("B", "lower"),
    "serve.shed": ("count", "lower"),
    "serve.cache_hit_ratio": ("ratio", "higher"),
}
SERVE_UNITS = {name: unit for name, (unit, _better) in SERVE_LAYERS.items()}


class WorkerError(RuntimeError):
    """A worker process failed: the benchmark could not run."""


# ----------------------------------------------------------------------
# Metrics from raw worker results
# ----------------------------------------------------------------------
def _ms(seconds: float) -> float:
    return seconds * 1e3


def failures(res: dict) -> int:
    """Operations that raised, were refused or returned a wrong output."""
    return sum(len(res.get(key, [])) for key in ("errors", "refused", "wrong"))


def success_ratio(res: dict) -> tuple[float, int]:
    attempted = res["attempted"]
    return (attempted - failures(res)) / attempted, attempted


def inprocess_metrics(res: dict, setups: list[float]) -> dict:
    """End-to-end metrics of an in-process timed run: {name: (value, n)}.

    Timings are over the operations that succeeded; a failed one makes
    the run incorrect and lowers ``success_ratio``.
    """
    samples = {cid: s for cid, s in res["samples"].items() if s}
    nnz = {cid: res["cells"][cid]["nnz"] for cid in samples}
    flat = [x for s in samples.values() for x in s]
    busy = sum(flat)
    n = len(flat)
    return {
        "convert_ms": (
            _ms(summary.geomean([summary.median(s) for s in samples.values()])),
            n,
        ),
        "nnz_per_s": (
            sum(nnz[cid] * len(s) for cid, s in samples.items()) / busy, n
        ),
        "latency_p50_ms": (_ms(summary.percentile(flat, 50)), n),
        "latency_p90_ms": (_ms(summary.percentile(flat, 90)), n),
        "throughput_rps": (n / busy, n),
        "setup_s": (summary.median(setups), len(setups)),
        "peak_rss_mb": (res["peak_rss_mb"], 1),
        "success_ratio": success_ratio(res),
    }


def serve_metrics(res: dict, setups: list[float]) -> dict:
    """End-to-end metrics of a serve-mixed timed run: {name: (value, n)}.

    Latencies are over 200 responses; a refused or failed request makes
    the run incorrect and lowers ``success_ratio``.
    """
    ok = [r for r in res["records"] if r[2] == 200]
    by_kind: dict[int, list[float]] = {}
    for kind, rtt, *_rest in ok:
        by_kind.setdefault(kind, []).append(rtt)
    rtts = [r[1] for r in ok]
    n = len(rtts)
    wall = res["wall_s"]
    kinds = {int(k): v for k, v in res["kinds"].items()}
    return {
        "convert_ms": (
            _ms(summary.geomean([summary.median(v) for v in by_kind.values()])),
            n,
        ),
        "nnz_per_s": (sum(kinds[r[0]]["nnz"] for r in ok) / wall, n),
        "latency_p50_ms": (_ms(summary.percentile(rtts, 50)), n),
        "latency_p90_ms": (_ms(summary.percentile(rtts, 90)), n),
        "throughput_rps": (n / wall, n),
        "setup_s": (summary.median(setups), len(setups)),
        "peak_rss_mb": (res["peak_rss_mb"], 1),
        "success_ratio": success_ratio(res),
    }


def layer_metrics(res: dict) -> dict:
    """Per-layer metrics of a traced in-process run: {name: (value, n)}.

    Each ``_ms`` value is per sweep: the sum over cells of the cell's
    median.  The residue compares the layers' sum with convert()'s.
    """
    dur = res["durations"]
    sweeps = res["sweeps"]

    def per_sweep(span: str) -> float:
        return sum(summary.median(v) for v in dur[span].values())

    out = {
        metric: (_ms(per_sweep(span)), sweeps)
        for span, metric in layers.LAYERS
    }
    e2e = per_sweep("convert")
    layers_total = sum(per_sweep(span) for span, _metric in layers.LAYERS)
    convert_med = {c: summary.median(v) for c, v in dur["convert"].items()}
    out.update(
        {
            layers.MARSHAL_IN: (_ms(per_sweep("marshal_in")), sweeps),
            "residue_share": (summary.residue_share(e2e, layers_total),
                              sweeps),
            # What the recorder's own spans add to a sweep, over what the
            # sweep's untraced convert() calls take.
            "trace.overhead_share": (res["recorder_s"] / e2e, sweeps),
            "synthesis.cold_ms": (_ms(sum(res["cold_s"].values())), 1),
            "backends.first_call_ms": (
                _ms(sum(c["first_s"] - convert_med[cid]
                        for cid, c in res["cells"].items())),
                1,
            ),
            "verify.gate_checks": (res["gate_checks"], 1),
            "backends.c_scalar_pairs": (res["c_scalar_pairs"], 1),
            "backends.numpy_scalar_nests": (res["numpy_scalar_nests"], 1),
        }
    )
    return out


def serve_layers(res: dict) -> dict:
    """The daemon's own layers, shown in the table (serve-mixed only)."""
    kinds = {int(k): v for k, v in res["kinds"].items()}
    records = res["records"]
    ok = [r for r in records if r[2] == 200]
    weights: dict[str, int] = {}
    for r in records:
        weights[kinds[r[0]]["id"]] = weights.get(kinds[r[0]]["id"], 0) + 1
    total = sum(weights.values())

    def wire(part: str) -> float:
        return sum(
            w * summary.median(res["wire"][kid][part])
            for kid, w in weights.items()
        ) / total

    by_id = {r[3]: r for r in records}
    spans, outside = [], []
    for t in res["traces"]:
        # The daemon's spans, scaled like the round trip they belong to.
        _kind, rtt, *_rest, factor = by_id[t["row"]["trace_id"]]
        s = {k: ms * factor for k, ms in serve_span_ms(t["root"]).items()}
        spans.append(s)
        outside.append(_ms(rtt) - s["serve.request"])
    n = len(spans)

    def span_median(name: str) -> tuple[float, int]:
        values = [s.get(name, 0.0) for s in spans]
        return summary.median(values), n

    hits = sum(t["row"]["cache"] == "memo_hit" for t in res["traces"])
    return {
        "serve.decode_ms": (_ms(wire("decode")), len(records)),
        "serve.encode_ms": (_ms(wire("encode")), len(records)),
        "serve.request_ms": span_median("serve.request"),
        "serve.queue_wait_ms": span_median("serve.queue_wait"),
        "serve.convert_ms": span_median("convert"),
        "serve.outside_ms": (summary.median(outside), n),
        "serve.bytes_in": (
            sum(kinds[r[0]]["bytes_in"] for r in records) / len(records),
            len(records),
        ),
        "serve.bytes_out": (sum(r[4] for r in ok) / len(ok), len(ok)),
        "serve.shed": (sum(r[2] == 503 for r in records), len(records)),
        "serve.cache_hit_ratio": (hits / n, n),
    }


def serve_span_ms(root: dict) -> dict:
    """Span durations by name over one ``/debug/trace`` tree, in ms."""
    out: dict[str, float] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        out[node["name"]] = out.get(node["name"], 0.0) + node["dur_us"] / 1e3
        stack.extend(node.get("children", ()))
    return out


def problems_of(res: dict) -> list[str]:
    """Everything that makes a run incorrect, as readable lines."""
    problems = list(res.get("oracle_problems", []))
    problems += [
        f"wrong output: {cid} ({n}x)"
        for cid, n in Counter(res.get("wrong", [])).items()
    ]
    problems += [
        f"{name} moved by {value:g} while timing"
        for name, value in res.get("invariants", {}).items()
        if value
    ]
    problems += [f"chrome trace: {p}" for p in res.get("trace_problems", [])]
    problems += [
        f"{what} ({n}x)"
        for key in ("errors", "refused")
        for what, n in Counter(res.get(key, [])).items()
    ]
    return problems


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict, units: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": units[name]}
            for name in units
        },
    }


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------
def worker_env(workdir: Path) -> dict:
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # the same dict layouts in every run
    for var, sub in (
        ("REPRO_CACHE_DIR", "cache"),
        ("REPRO_CBACKEND_DIR", "cbackend"),
        ("REPRO_COSTS_DIR", "costs"),
    ):
        env[var] = str(workdir / sub)
    return env


def run_worker(workload, seed, seconds, mode, deadline, trace_out=None):
    """One fresh worker process; returns its raw result."""
    workdir = OUT / "tmp" / f"{workload}-{seed}-{mode}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    out = workdir / "result.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode,
        "--workdir", str(workdir), "--out", str(out),
    ]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    # Own session, so a timeout also stops the worker's serve daemon.
    proc = subprocess.Popen(cmd, env=worker_env(workdir), cwd=ROOT,
                            stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise WorkerError(f"{workload} {mode} worker timed out")
    try:
        if code != 0:
            raise WorkerError(f"{workload} {mode} worker exited {code}")
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """(JSON line, metrics, daemon-layer rows, problems) of one workload."""
    deadline = time.monotonic() + BUDGET_S
    serve = workload == "serve-mixed"
    if trace:
        OUT.mkdir(parents=True, exist_ok=True)
        trace_out = OUT / f"trace-{workload}-seed{seed}.json"
        res = run_worker(workload, seed, seconds, "traced", deadline,
                         trace_out)
        # serve-mixed: the daemon's run, then the in-process replay.
        parts = [res, res["inprocess"]] if serve else [res]
        metrics = layer_metrics(parts[-1])
        extra = serve_layers(res) if serve else {}
        units = LAYER_UNITS
        problems = [p for part in parts for p in problems_of(part)]
        failed = sum(failures(part) for part in parts)
        print(f"chrome trace: {trace_out}")
    else:
        setups = [
            run_worker(workload, seed, seconds, "setup", deadline)["setup_s"]
            for _ in range(SETUP_RUNS - 1)
        ]
        res = run_worker(workload, seed, seconds, "timed", deadline)
        setups.append(res["setup_s"])
        metrics = (serve_metrics if serve else inprocess_metrics)(res, setups)
        extra = {}
        units = E2E_UNITS
        problems = problems_of(res)
        failed = failures(res)
    line = result_line(not problems, res["attempted"], failed, metrics, units)
    probes = res.get("probe_s") or [speed.NOMINAL_S]
    print(f"host speed: the probe took {_ms(summary.median(probes)):.3f} ms "
          f"(median of {len(probes)}); times are scaled to "
          f"{_ms(speed.NOMINAL_S):.3f} ms")
    return line, metrics, extra, problems


def run_record(workload: str, seed: int, seconds: float, trace: int,
               line: dict, extra: dict) -> dict:
    """The line as compare.py reads it, with the daemon's layers added."""
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, **line}
    record["metrics"] = dict(line["metrics"])
    for name, (value, _n) in extra.items():
        unit, better = SERVE_LAYERS[name]
        record["metrics"][name] = {"value": value, "unit": unit,
                                   "better": better}
    return record


def print_table(workload: str, metrics: dict, units: dict) -> None:
    print(f"== {workload}")
    print(f"{'metric':32} {'value':>16} {'unit':8} {'samples':>8}")
    for name, (value, n) in metrics.items():
        unit = units.get(name, "")
        print(f"{name:32} {value:16.6g} {unit:8} {n:8d}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2e: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in names:
        try:
            line, metrics, extra, problems = run_workload(
                workload, args.seed, args.seconds, bool(args.trace)
            )
        except WorkerError as err:
            print(f"e2e: {err}", file=sys.stderr)
            return 2
        units = LAYER_UNITS if args.trace else E2E_UNITS
        print_table(workload, metrics, units)
        if extra:
            print_table(f"{workload} (daemon layers)", extra, SERVE_UNITS)
        for problem in problems:
            print(f"PROBLEM: {problem}")
        OUT.mkdir(parents=True, exist_ok=True)
        record = run_record(workload, args.seed, args.seconds, args.trace,
                            line, extra)
        with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        print(json.dumps(line))
        if not line["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
