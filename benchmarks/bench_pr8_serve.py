"""Benchmark the conversion daemon: sustained requests/sec over HTTP.

Four experiments against an in-process ``ConversionServer`` driven by
real ``ServeClient`` HTTP round-trips:

* ``throughput`` — a mixed-pair sweep (CSR/CSC/DIA/MCOO over several
  matrices) against a cold synthesis world (fresh disk cache, empty
  memo) and then the identical sweep warm.  Cold pays one synthesis
  per (src, dst, backend) fingerprint; warm serves every request from
  the process memo, so the gap is the amortization the daemon exists
  to capture.  Structural gate: warm rps >= 2x cold rps.
* ``workers`` — the same warm sweep fired from 8 concurrent client
  threads at a 1-worker server and an 8-worker server.  Reported but
  not gated: the pure-python executors hold the GIL, so the pool buys
  overlap only for I/O and any numpy spans, not a linear speedup.
* ``coalescing`` — 8 concurrent requests for one cold fingerprint,
  with synthesis artificially held for 200ms so every waiter is
  guaranteed to arrive while it is in flight (fan-in is what's being
  measured, not synthesis speed).  Structural gate: >= 2 waiters
  served per synthesis.
* ``lru_budget`` — ``REPRO_CACHE_MAX_ENTRIES=6``, then 16 distinct
  fingerprints streamed through; the on-disk entry count is sampled
  after every request.  Structural gate: the observed maximum never
  exceeds the budget.

Wall-clock numbers swing 20-30% between CI runs, so only the >=2x
structural margins above are gated (see README benchmarking notes);
everything else is reported for the record.

Emits ``BENCH_pr8.json``.  Usage::

    PYTHONPATH=src python benchmarks/bench_pr8_serve.py [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.datagen.matrices import random_uniform  # noqa: E402
from repro.obs import METRICS  # noqa: E402
from repro.serve import ConversionServer, ServeClient, coo_payload  # noqa: E402
from repro.synthesis import cache as cache_mod  # noqa: E402
from repro.synthesis import clear_memo  # noqa: E402

PAIRS = ["CSR", "CSC", "DIA", "MCOO"]


def _count(name: str) -> float:
    """A counter's total over its labels; KeyError if none is declared."""
    return sum(s["value"] for s in METRICS.snapshot()[name]["samples"])


def _matrices(count: int = 4, n: int = 24, nnz: int = 96) -> list:
    return [random_uniform(n, n, nnz, seed=seed) for seed in range(count)]


def _sweep(client: ServeClient, payloads: list[dict]) -> float:
    """Run every (matrix, dst) request once, return elapsed seconds."""
    start = time.perf_counter()
    for payload, dst in payloads:
        resp = client.convert(payload, dst)
        assert resp["ok"], resp
    return time.perf_counter() - start


def _request_list(matrices: list) -> list[tuple[dict, str]]:
    return [(coo_payload(m), dst) for m in matrices for dst in PAIRS]


def bench_throughput(tmp: str) -> dict:
    os.environ["REPRO_CACHE_DIR"] = str(Path(tmp) / "throughput")
    clear_memo()
    server = ConversionServer(port=0, workers=4).start_in_background()
    try:
        client = ServeClient(server.address)
        requests = _request_list(_matrices())
        cold_s = _sweep(client, requests)
        warm_runs = [_sweep(client, requests) for _ in range(3)]
        warm_s = min(warm_runs)
        n = len(requests)
        return {
            "requests_per_sweep": n,
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "cold_rps": n / cold_s,
            "warm_rps": n / warm_s,
            "warm_over_cold": (n / warm_s) / (n / cold_s),
        }
    finally:
        server.shutdown()


def _concurrent_sweep(client: ServeClient, requests, threads: int) -> float:
    chunks = [requests[i::threads] for i in range(threads)]
    barrier = threading.Barrier(threads + 1)
    errors: list[Exception] = []

    def worker(chunk):
        try:
            barrier.wait()
            for payload, dst in chunk:
                assert client.convert(payload, dst)["ok"]
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    pool = [threading.Thread(target=worker, args=(c,)) for c in chunks]
    for t in pool:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in pool:
        t.join()
    if errors:
        raise errors[0]
    return time.perf_counter() - start


def bench_workers(tmp: str) -> dict:
    os.environ["REPRO_CACHE_DIR"] = str(Path(tmp) / "workers")
    clear_memo()
    requests = _request_list(_matrices(count=6))
    out: dict = {"requests": len(requests), "client_threads": 8}
    for workers in (1, 8):
        server = ConversionServer(port=0, workers=workers).start_in_background()
        try:
            client = ServeClient(server.address)
            _sweep(client, requests)  # pre-warm synthesis outside the clock
            elapsed = min(
                _concurrent_sweep(client, requests, threads=8)
                for _ in range(3)
            )
            out[f"workers_{workers}_seconds"] = elapsed
            out[f"workers_{workers}_rps"] = len(requests) / elapsed
        finally:
            server.shutdown()
    out["pool_over_single"] = (
        out["workers_8_rps"] / out["workers_1_rps"]
    )
    return out


def bench_coalescing(tmp: str) -> dict:
    os.environ["REPRO_CACHE_DIR"] = str(Path(tmp) / "coalescing")
    clear_memo()
    # Hold synthesis open long enough that every concurrent waiter is
    # in the building before the first one finishes.
    real = cache_mod._raw_synthesize
    calls: list[int] = []

    def held(*args, **kwargs):
        calls.append(1)
        time.sleep(0.2)
        return real(*args, **kwargs)

    cache_mod._raw_synthesize = held
    server = ConversionServer(port=0, workers=8).start_in_background()
    try:
        client = ServeClient(server.address)
        payload = coo_payload(random_uniform(32, 32, 96, seed=99))
        before = _count("repro_cache_coalesced_total")
        n = 8
        barrier = threading.Barrier(n)
        errors: list[Exception] = []

        def worker():
            try:
                barrier.wait()
                assert client.convert(payload, "CSR")["ok"]
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        pool = [threading.Thread(target=worker) for _ in range(n)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        if errors:
            raise errors[0]
        coalesced = _count("repro_cache_coalesced_total") - before
        syntheses = len(calls)
        return {
            "concurrent_requests": n,
            "syntheses": syntheses,
            "coalesced_waiters": coalesced,
            "waiters_per_synthesis": coalesced / max(syntheses, 1),
        }
    finally:
        server.shutdown()
        cache_mod._raw_synthesize = real


def bench_lru_budget(tmp: str) -> dict:
    budget = 6
    os.environ["REPRO_CACHE_DIR"] = str(Path(tmp) / "lru")
    os.environ["REPRO_CACHE_MAX_ENTRIES"] = str(budget)
    clear_memo()
    server = ConversionServer(port=0, workers=2).start_in_background()
    try:
        client = ServeClient(server.address)
        payload = coo_payload(random_uniform(24, 24, 60, seed=5))
        max_entries = 0
        distinct = 0
        # Fingerprints are keyed on (src, dst, backend, pass flags), so
        # sweep all three axes to stream 16 distinct entries past the
        # 6-entry budget.
        for backend in ("python", "numpy"):
            for optimize in (True, False):
                for dst in PAIRS:
                    resp = client.convert(payload, dst, backend=backend,
                                          optimize=optimize)
                    assert resp["ok"], resp
                    distinct += 1
                    max_entries = max(max_entries,
                                      cache_mod.cache_stats()["entries"])
        return {
            "budget_entries": budget,
            "distinct_fingerprints": distinct,
            "max_entries_observed": max_entries,
            "evictions": _count("repro_cache_disk_evict_total"),
        }
    finally:
        server.shutdown()
        os.environ.pop("REPRO_CACHE_MAX_ENTRIES", None)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(REPO / "BENCH_pr8.json"))
    args = ap.parse_args(argv)

    report: dict = {"bench": "pr8_serve", "pairs": PAIRS}
    with tempfile.TemporaryDirectory() as tmp:
        saved = os.environ.get("REPRO_CACHE_DIR")
        try:
            report["throughput"] = bench_throughput(tmp)
            report["workers"] = bench_workers(tmp)
            report["coalescing"] = bench_coalescing(tmp)
            report["lru_budget"] = bench_lru_budget(tmp)
        finally:
            if saved is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = saved
            clear_memo()

    gates = {
        "warm_rps_at_least_2x_cold":
            report["throughput"]["warm_over_cold"] >= 2.0,
        "coalescing_at_least_2_waiters_per_synthesis":
            report["coalescing"]["waiters_per_synthesis"] >= 2.0,
        "lru_never_exceeds_budget":
            report["lru_budget"]["max_entries_observed"]
            <= report["lru_budget"]["budget_entries"],
    }
    report["gates"] = gates

    out = Path(args.out)
    with out.open("w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")

    print(f"cold:  {report['throughput']['cold_rps']:8.1f} req/s")
    print(f"warm:  {report['throughput']['warm_rps']:8.1f} req/s "
          f"({report['throughput']['warm_over_cold']:.1f}x)")
    print(f"pool:  {report['workers']['pool_over_single']:.2f}x "
          f"(8 workers vs 1, warm, 8 client threads)")
    print(f"coalescing: {report['coalescing']['coalesced_waiters']} waiters / "
          f"{report['coalescing']['syntheses']} synthesis")
    print(f"lru: max {report['lru_budget']['max_entries_observed']} entries "
          f"(budget {report['lru_budget']['budget_entries']})")
    print(f"wrote {out}")

    failed = [name for name, ok in gates.items() if not ok]
    if failed:
        print("GATE FAILURES: " + ", ".join(failed), file=sys.stderr)
        return 1
    print("all structural gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
