"""Exposition names that code outside the package reads.

A missing name reads as 0 to those readers, so a check built on it
would pass vacuously.  This provokes each event and pins each name in
the Prometheus exposition.  ``repro_cache_coalesced_total``, which the
serve-smoke CI job reads, is pinned by ``tests/serve/test_coalescing.py``.
"""

import repro.obs as obs
from repro import COOMatrix, convert
from repro.backends import available_backend, c_backend
from repro.obs import parse_prometheus_text, prometheus_text
from repro.synthesis import clear_memo
from repro.synthesis.cache import stats_file_payload

from tests.tiers import needs_c

#: benchmarks/e2e/worker.py sums these over labels (``INVARIANTS``: no
#: synthesis miss, C compile miss or tier fallback while timing; and
#: ``GATE_CHECKS``).
WORKER_NAMES = (
    "repro_cache_miss_total",
    "repro_cbackend_compile_miss_total",
    "repro_backend_fallback_total",
    "repro_gate_checks",
)

#: CI's native-tier warm step prints this histogram's sum per ``step``
#: label from the ``REPRO_CACHE_STATS_FILE`` dump.
CI_HISTOGRAMS = {"repro_cbackend_build_seconds": ("compile", "link")}


@needs_c
def test_worker_names_count_their_events(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CBACKEND_DIR", str(tmp_path / "cbackend"))
    clear_memo()
    c_backend.clear_lib_memo()
    obs.reset_all()
    try:
        # A synthesis miss, a C compile miss and an input gate check.
        matrix = COOMatrix(3, 4, [0, 1, 2, 2], [1, 0, 2, 3],
                           [1.0, 2.0, 3.0, 4.0])
        convert(matrix, "CSR", backend="c", validate="inputs")
        # A forced C -> numpy fallback: no compiler.
        monkeypatch.setenv("CC", "/nonexistent/cc")
        monkeypatch.setattr(c_backend, "_COMPILER_TAG", None)
        assert available_backend("c").name == "numpy"
        samples = parse_prometheus_text(prometheus_text())
        stats = stats_file_payload()["metrics"]
    finally:
        clear_memo()
        c_backend.clear_lib_memo()
    for name in WORKER_NAMES:
        total = sum(v for (n, _labels), v in samples.items() if n == name)
        assert total >= 1, name
    for name, steps in CI_HISTOGRAMS.items():
        sums = {
            s["labels"]["step"]: s["value"]["sum"]
            for s in stats[name]["samples"]
        }
        assert set(sums) == set(steps) and min(sums.values()) > 0, sums
        for step in steps:
            assert samples[f"{name}_count", (("step", step),)] >= 1
