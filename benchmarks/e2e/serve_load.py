"""serve-mixed: a ``repro serve`` daemon and a closed loop of two clients.

The daemon is the program's own CLI (``python -m repro serve --port 0
--backend c``: default worker count, flight recorder on), spawned as a
subprocess.  Load comes from this one process: two client threads, each
holding one keep-alive connection, in lock step: each sends its next
request only once both previous responses are fully read.  The load
pauses once a second while the host's speed is probed (:mod:`speed`).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

CLIENTS = 2

#: Longest stretch of load between two host-speed probes.
SEGMENT_S = 1.0

#: How long the loop waits for a client at a segment boundary: longer
#: than one request may take (the connections' timeout).
BARRIER_TIMEOUT_S = 130.0
_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")


class Daemon:
    """One ``repro serve`` subprocess; stderr goes to a log file."""

    def __init__(self, workdir: Path, env: dict):
        self.workdir = workdir
        self.env = env
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None

    def start(self, timeout: float = 60.0) -> tuple[str, int]:
        self.workdir.mkdir(parents=True, exist_ok=True)
        log = self.workdir / "serve.log"
        with open(log, "w") as fh:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--backend", "c"],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=fh,
                env=self.env,
            )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _LISTENING.search(log.read_text())
            if match:
                self.address = (match.group(1), int(match.group(2)))
                return self.address
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"repro serve did not start:\n{log.read_text()}")

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self.proc = None

    def reset_peak_rss(self) -> None:
        with open(f"/proc/{self.proc.pid}/clear_refs", "w") as fh:
            fh.write("5")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def get(self, path: str):
        conn = http.client.HTTPConnection(*self.address, timeout=60)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class ResponseChecker:
    """Compares response ``result``s with the oracle's serialization.

    A full JSON decode checks the first response of each kind.  Later
    responses are matched by a digest of their bytes up to the ``meta``
    object (everything before it is deterministic: status, format and the
    result arrays); any mismatch falls back to the full decode, so the
    digest only saves time, never decides a wrong answer is right.
    """

    def __init__(self, expected: dict[int, dict]):
        self.expected = expected
        self._digests: dict[int, bytes] = {}
        self._lock = threading.Lock()

    def ok(self, kind: int, data: bytes) -> bool:
        cut = data.rfind(b', "meta": ')
        digest = None
        if cut > 0 and b'"result": {' in data[:cut]:
            digest = hashlib.sha1(data[:cut]).digest()
            if self._digests.get(kind) == digest:
                return True
        want = self.expected[kind]
        try:
            doc = json.loads(data)
            good = (
                doc.get("ok") is True
                and doc["result"]["arrays"] == want["arrays"]
                and doc["result"]["shape"] == want["shape"]
            )
        except (ValueError, KeyError, TypeError, AttributeError):
            return False
        if good and digest is not None:
            with self._lock:
                self._digests[kind] = digest
        return good


def post(conn: http.client.HTTPConnection, body: bytes):
    """One round trip: (seconds from send to full body read, status,
    trace id, body bytes)."""
    start = time.perf_counter()
    conn.request(
        "POST", "/convert", body=body,
        headers={"Content-Type": "application/json"},
    )
    resp = conn.getresponse()
    data = resp.read()
    rtt = time.perf_counter() - start
    return rtt, resp.status, resp.getheader("X-Repro-Trace-Id", ""), data


def first_responses(address, kinds) -> list[tuple[int, bytes]]:
    """(status, body) of one request per kind, in order."""
    conn = http.client.HTTPConnection(*address, timeout=120)
    out = []
    try:
        for kind in kinds:
            _rtt, status, _trace_id, data = post(conn, kind.body)
            out.append((status, data))
    finally:
        conn.close()
    return out


def closed_loop(address, kinds, schedules, seconds, checker, clock) -> dict:
    """One thread per schedule, one connection each, for ``seconds``.

    The clients run in lock step: in each round every client sends the
    next request of its schedule, and the next round starts once all of
    them have their response.  The run is cut into segments of at least
    one round and at most about :data:`SEGMENT_S`.  Between two segments
    the clients wait, with no request in flight, while ``clock`` (a
    :class:`speed.Clock`) probes the host's speed; every time in a
    segment is scaled by that segment's factor.  Each record is (kind,
    scaled round-trip seconds, status, trace id, bytes out, output ok,
    factor).  The check runs after the round trip is timed.  ``wall_s``
    is the scaled sum of the segments' wall times.
    """
    n = len(schedules)
    records: list[tuple] = []
    lock = threading.Lock()
    errors: list[str] = []
    segment = {"deadline": 0.0, "factor": 1.0, "stop": False, "more": True}

    def end_of_round():
        segment["more"] = time.perf_counter() < segment["deadline"]

    go = threading.Barrier(n + 1, timeout=BARRIER_TIMEOUT_S)
    step = threading.Barrier(n, action=end_of_round,
                             timeout=BARRIER_TIMEOUT_S)
    done = threading.Barrier(n + 1, timeout=BARRIER_TIMEOUT_S)
    ends = [0.0] * n

    def client(index: int):
        conn = http.client.HTTPConnection(*address, timeout=120)
        mine = []
        schedule = schedules[index]
        pos = 0
        try:
            while True:
                go.wait()
                if segment["stop"]:
                    break
                factor = segment["factor"]
                while True:
                    kind = schedule[pos % len(schedule)]
                    pos += 1
                    try:
                        rtt, status, trace_id, data = post(
                            conn, kinds[kind].body
                        )
                    except (OSError, http.client.HTTPException) as exc:
                        errors.append(f"{kinds[kind].id}: {exc!r}")
                        conn.close()
                        conn = http.client.HTTPConnection(*address,
                                                          timeout=120)
                    else:
                        good = status == 200 and checker.ok(kind, data)
                        mine.append((kind, rtt * factor, status, trace_id,
                                     len(data), good, factor))
                    step.wait()
                    if not segment["more"]:
                        break
                ends[index] = time.perf_counter()
                done.wait()
        except threading.BrokenBarrierError:
            pass
        finally:
            conn.close()
            with lock:
                records.extend(mine)

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(n)
    ]
    for t in threads:
        t.start()
    wall = 0.0
    stop_at = time.perf_counter() + seconds
    try:
        while True:
            factor = clock.refresh()
            start = time.perf_counter()
            if start >= stop_at:
                break
            segment.update(deadline=min(start + SEGMENT_S, stop_at),
                           factor=factor)
            go.wait()
            done.wait()
            wall += (max(ends) - start) * factor
        segment["stop"] = True
        go.wait()
    except threading.BrokenBarrierError:
        for barrier in (go, step, done):
            barrier.abort()
        raise RuntimeError("a client thread stopped mid-run") from None
    finally:
        for t in threads:
            t.join(timeout=300)
    if any(t.is_alive() for t in threads):
        raise RuntimeError("client threads did not finish")
    return {
        "records": records,
        "errors": errors,
        "wall_s": wall,
        "probe_s": clock.readings,
    }


def recorded_traces(daemon: Daemon, wanted: set[str]) -> list[dict]:
    """Span trees of recently recorded requests among ``wanted`` ids."""
    status, data = daemon.get("/debug/requests?limit=1000")
    if status != 200:
        raise RuntimeError(f"/debug/requests returned {status}")
    rows = json.loads(data)["requests"]
    trees = []
    for row in rows:
        if row["trace_id"] not in wanted:
            continue
        status, data = daemon.get(f"/debug/trace/{row['trace_id']}")
        if status == 200:
            doc = json.loads(data)
            trees.append({"row": row, "root": doc["root"]})
    return trees


def daemon_env(base_env: dict, workdir: Path) -> dict:
    """The worker's environment with the daemon's own empty caches."""
    env = dict(base_env)
    for var, sub in (
        ("REPRO_CACHE_DIR", "cache"),
        ("REPRO_CBACKEND_DIR", "cbackend"),
        ("REPRO_COSTS_DIR", "costs"),
    ):
        env[var] = os.fspath(workdir / sub)
    return env
