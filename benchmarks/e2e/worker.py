"""One benchmark process: the set-up, timed or traced phase of a workload.

run.py starts it with empty cache directories and ``REPRO_TRACE`` unset.
It writes raw samples as JSON to ``--out``; run.py turns them into
metrics.  ``--mode setup`` stops after set-up, ``timed`` runs the closed
loop with tracing off, ``traced`` times each layer::

    python worker.py --workload fig2-large --seed 0 --seconds 12 \\
        --mode timed --workdir DIR --out result.json
"""

import time

#: Process start, before numpy or repro is imported: set-up counts both.
T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from repro import container_format, convert, get_conversion  # noqa: E402
from repro.backends import BackendUnavailableError, get_backend  # noqa: E402

import layers  # noqa: E402
import serve_load  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from check import same_entries, same_output  # noqa: E402

#: The traced run repeats every cell at least this many times.
MIN_TRACED_SWEEPS = 5

#: The timed phase runs whole sweeps until at least this many samples,
#: so that p90 has ten samples beyond it.
MIN_TIMED_SAMPLES = 100

#: Counters that must not move while timing, read through the program's
#: Prometheus exposition (whose names stay stable).
INVARIANTS = {
    "synthesis.misses": "repro_cache_miss_total",
    "backends.c_compile_misses": "repro_cbackend_compile_miss_total",
    "backends.tier_fallbacks": "repro_backend_fallback_total",
}
GATE_CHECKS = "repro_gate_checks"


def counts(exposition: str | None = None) -> dict[str, float]:
    """The invariant counters and gate checks, from this process's
    Prometheus exposition or a scraped one."""
    from repro.obs import parse_prometheus_text, prometheus_text

    samples = parse_prometheus_text(
        prometheus_text() if exposition is None else exposition
    )
    names = dict(INVARIANTS, **{"verify.gate_checks": GATE_CHECKS})
    return {
        key: sum(v for (n, _labels), v in samples.items() if n == name)
        for key, name in names.items()
    }


def delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before[k] for k in INVARIANTS}


def reset_peak_rss() -> None:
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def convert_cell(cell):
    return convert(
        cell.source, cell.dst, backend=cell.backend,
        assume_sorted=cell.assume_sorted,
    )


# ----------------------------------------------------------------------
# In-process workloads: fig2-large, all-pairs
# ----------------------------------------------------------------------
def first_conversions(cells, convert_fn=convert_cell):
    outs, firsts = {}, {}
    for cell in cells:
        start = time.perf_counter()
        outs[cell.id] = convert_fn(cell)
        firsts[cell.id] = time.perf_counter() - start
    return outs, firsts


def oracles(cells, outs) -> tuple[dict, list[str]]:
    """The python-tier output of each cell's (source, destination).

    Checked once against the generated entries; returns the oracle per
    cell id and the ids whose oracle or first output disagreed.
    """
    by_key = {}
    for cell in cells:
        if cell.backend == "python":
            by_key[(id(cell.source), cell.dst)] = outs[cell.id]
    problems = []
    oracle = {}
    for cell in cells:
        key = (id(cell.source), cell.dst)
        if key not in by_key:
            by_key[key] = convert(
                cell.source, cell.dst, backend="python",
                assume_sorted=cell.assume_sorted,
            )
            if not same_entries(by_key[key], cell.triplets):
                problems.append(f"{cell.id}: oracle != generated entries")
        elif cell.backend == "python" and not same_entries(
            by_key[key], cell.triplets
        ):
            problems.append(f"{cell.id}: oracle != generated entries")
        oracle[cell.id] = by_key[key]
        if not same_output(outs[cell.id], oracle[cell.id]):
            problems.append(f"{cell.id}: first output != oracle")
    return oracle, problems


def freeze_heap() -> None:
    """Exempt the benchmark's own long-lived data from garbage collection.

    Sources and oracles hold millions of list items; without this, every
    full collection the conversions trigger walks them, and that pause
    lands on the same cells in every sweep.
    """
    gc.collect()
    gc.freeze()


def timed_phase(cells, oracle, seconds, clock,
                convert_fn=convert_cell) -> dict:
    """Closed loop of whole sweeps over the cells for ``seconds``
    (and at least :data:`MIN_TIMED_SAMPLES` conversions); each sample is
    scaled by the host's speed (:mod:`speed`)."""
    samples = {cell.id: [] for cell in cells}
    wrong, errors = [], []
    freeze_heap()
    before = counts()
    reset_peak_rss()
    start = time.perf_counter()
    sweeps = 0
    while True:
        for cell in cells:
            factor = clock.tick()
            t = time.perf_counter()
            try:
                out = convert_fn(cell)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                errors.append(f"{cell.id}: {type(exc).__name__}: {exc}")
                continue
            samples[cell.id].append((time.perf_counter() - t) * factor)
            if not same_output(out, oracle[cell.id]):
                wrong.append(cell.id)
            del out
        sweeps += 1
        if (
            time.perf_counter() - start >= seconds
            and sweeps * len(cells) >= MIN_TIMED_SAMPLES
        ):
            break
    peak = serve_load.peak_rss_mb()
    return {
        "samples": samples,
        "sweeps": sweeps,
        "attempted": sweeps * len(cells),
        "wrong": wrong,
        "errors": errors,
        "peak_rss_mb": peak,
        "invariants": delta(before, counts()),
        "probe_s": clock.readings,
    }


def traced_phase(cells, oracle, seconds, trace_out, clock) -> dict:
    """Each sweep: untraced convert(), then the mirrored layer sequence."""
    freeze_heap()
    before = counts()
    for cell in cells:  # one warm sweep: the gate checks it runs
        convert_cell(cell)
    gate_checks = counts()["verify.gate_checks"] - before["verify.gate_checks"]
    rec = layers.SpanRecorder()
    wrong = []
    before = counts()
    start = time.perf_counter()
    sweeps = 0
    while sweeps < MIN_TRACED_SWEEPS or time.perf_counter() - start < seconds:
        for cell in cells:
            rec.scale = clock.tick()
            with rec.span("cell", cell.id):
                with rec.span("convert", cell.id):
                    out = convert_cell(cell)
                with rec.span("mirror", cell.id):
                    mirrored, inputs = layers.mirror(cell, rec)
                with rec.span("marshal_in", cell.id):
                    get_backend(cell.backend).native_inputs(inputs)
            if not (
                same_output(mirrored, out)
                and same_output(out, oracle[cell.id])
            ):
                wrong.append(cell.id)
        sweeps += 1
    invariants = delta(before, counts())
    recorder_s = (
        len(rec.spans) / sweeps * layers.span_cost() * clock.refresh()
    )
    names = ["convert", "mirror", "marshal_in"] + [n for n, _ in layers.LAYERS]
    durations = rec.durations(names)
    problems = rec.write(trace_out)
    scalar_pairs, scalar_nests = set(), {}
    for cell in cells:
        conv = get_conversion(cell.src, cell.dst, backend=cell.backend)
        if cell.backend == "c" and "__C_RUN(" not in conv.source:
            scalar_pairs.add(cell.pair)
        if cell.backend == "numpy":
            stats = conv.vector_stats or {}
            scalar_nests[cell.pair] = stats.get("scalar_nests", 0)
    return {
        "sweeps": sweeps,
        "attempted": sweeps * len(cells),
        "wrong": wrong,
        "errors": [],
        "invariants": invariants,
        "durations": durations,
        "recorder_s": recorder_s,
        "trace_problems": problems,
        "gate_checks": gate_checks,
        "c_scalar_pairs": len(scalar_pairs),
        "numpy_scalar_nests": sum(scalar_nests.values()),
        "probe_s": clock.readings,
    }


def first_lookups(cells) -> dict[str, float]:
    """First get_conversion() per cell, before any conversion runs."""
    cold = {}
    for cell in cells:
        src = container_format(cell.source, assume_sorted=cell.assume_sorted)
        start = time.perf_counter()
        get_conversion(src, cell.dst, backend=cell.backend)
        cold[cell.id] = time.perf_counter() - start
    return cold


def run_cells(cells, mode, seconds, trace_out, gen_s) -> dict:
    """Set-up (and the timed or traced phase) over in-process cells.

    Set-up times are scaled by the host's speed probed right after set-up.
    """
    result = {"gen_s": gen_s}
    cold = first_lookups(cells) if mode == "traced" else {}
    outs, firsts = first_conversions(cells)
    setup_s = time.perf_counter() - T0 - gen_s
    clock = speed.Clock()
    result["setup_s"] = setup_s * clock.factor
    if mode == "setup":
        return result
    result["cold_s"] = {cid: s * clock.factor for cid, s in cold.items()}
    oracle, problems = oracles(cells, outs)
    del outs
    result["oracle_problems"] = problems
    result["cells"] = {
        c.id: {"nnz": c.nnz, "first_s": firsts[c.id] * clock.factor}
        for c in cells
    }
    if mode == "timed":
        result.update(timed_phase(cells, oracle, seconds, clock))
    else:
        result.update(traced_phase(cells, oracle, seconds, trace_out, clock))
    return result


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def _request(kind):
    from repro.serve.protocol import parse_convert_request

    return parse_convert_request(json.loads(kind.body))


def serve_oracles(kinds, factor) -> tuple[dict, list[str], dict]:
    """Serialized python-tier result per kind index, plus the per-kind
    decode and encode times measured here on the kind's own body, scaled
    by the host-speed ``factor``."""
    from repro.serve.protocol import serialize_container

    expected, problems, wire = {}, [], {}
    for index, kind in enumerate(kinds):
        decode = []
        for _ in range(5):
            start = time.perf_counter()
            matrix = _request(kind)["matrix"]
            decode.append((time.perf_counter() - start) * factor)
        out = convert(matrix, kind.dst, backend="python",
                      assume_sorted=matrix.is_sorted_lexicographic())
        if not same_entries(out, kind.triplets):
            problems.append(f"{kind.id}: oracle != generated entries")
        encode = []
        for _ in range(5):
            start = time.perf_counter()
            doc = serialize_container(out, kind.dst)
            json.dumps(doc)
            encode.append((time.perf_counter() - start) * factor)
        expected[index] = doc
        wire[kind.id] = {"decode": decode, "encode": encode}
    return expected, problems, wire


def kind_cells(kinds) -> list[workloads.Cell]:
    """The daemon's conversions, as in-process cells for the traced run."""
    cells = []
    for kind in kinds:
        matrix = _request(kind)["matrix"]
        sorted_ = matrix.is_sorted_lexicographic()
        cells.append(
            workloads.Cell(kind.id, "SCOO" if sorted_ else "COO", kind.dst,
                           "c", sorted_, matrix, kind.triplets)
        )
    return cells


def scrape_counts(daemon) -> dict[str, float]:
    status, body = daemon.get("/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics returned {status}")
    return counts(body.decode())


def response_failures(kinds, records) -> tuple[list[str], list[str]]:
    """The kinds of wrong 200 responses, and the refused requests."""
    wrong = [kinds[r[0]].id for r in records if r[2] == 200 and not r[5]]
    refused = [
        f"{kinds[r[0]].id}: HTTP {r[2]}" for r in records if r[2] != 200
    ]
    return wrong, refused


def run_serve(kinds, seed, mode, seconds, workdir, trace_out, gen_s) -> dict:
    result = {"gen_s": gen_s}
    schedules = [
        workloads.serve_schedule(seed, kinds, client)
        for client in range(serve_load.CLIENTS)
    ]
    daemon = serve_load.Daemon(
        workdir / "daemon",
        serve_load.daemon_env(os.environ, workdir / "daemon"),
    )
    spawned = time.perf_counter()
    try:
        address = daemon.start()
        firsts = serve_load.first_responses(address, kinds)
        setup_s = time.perf_counter() - spawned
        clock = speed.Clock()
        result["setup_s"] = setup_s * clock.factor
        failed = [k.id for k, (s, _) in zip(kinds, firsts) if s != 200]
        if failed:
            raise RuntimeError(f"set-up requests failed: {failed}")
        if mode == "setup":
            return result
        expected, problems, wire = serve_oracles(kinds, clock.factor)
        checker = serve_load.ResponseChecker(expected)
        problems += [
            f"{kinds[i].id}: first response != oracle"
            for i, (_s, data) in enumerate(firsts)
            if not checker.ok(i, data)
        ]
        del firsts
        result["oracle_problems"] = problems
        before = scrape_counts(daemon)
        daemon.reset_peak_rss()
        loop = serve_load.closed_loop(address, kinds, schedules, seconds,
                                      checker, clock)
        result["peak_rss_mb"] = daemon.peak_rss_mb()
        result["invariants"] = delta(before, scrape_counts(daemon))
        records = loop.pop("records")
        result.update(loop)
        result["kinds"] = {
            i: {"id": k.id, "nnz": k.nnz, "bytes_in": len(k.body)}
            for i, k in enumerate(kinds)
        }
        result["records"] = records
        result["attempted"] = len(records) + len(loop["errors"])
        result["wrong"], result["refused"] = response_failures(kinds, records)
        if mode == "traced":
            wanted = {r[3] for r in records}
            result["traces"] = serve_load.recorded_traces(daemon, wanted)
            result["wire"] = wire
    finally:
        daemon.stop()
    if mode == "traced":
        result["inprocess"] = run_cells(
            kind_cells(kinds), "traced", 0.0, trace_out, gen_s=0.0
        )
    return result


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig2-large", "all-pairs", "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "timed", "traced"))
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)
    try:
        get_backend("c").require()
    except BackendUnavailableError as err:
        print(f"e2e: the C tier is required: {err}", file=sys.stderr)
        return 3
    start = time.perf_counter()
    if args.workload == "serve-mixed":
        kinds = workloads.serve_kinds(args.seed)
        result = run_serve(kinds, args.seed, args.mode, args.seconds,
                           args.workdir, args.trace_out,
                           gen_s=time.perf_counter() - start)
    else:
        build = (
            workloads.fig2_large
            if args.workload == "fig2-large"
            else workloads.all_pairs
        )
        cells = build(args.seed)
        result = run_cells(cells, args.mode, args.seconds, args.trace_out,
                           gen_s=time.perf_counter() - start)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
