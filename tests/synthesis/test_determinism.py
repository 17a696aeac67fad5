"""Generated source is the same in every process.

The C tier names each compiled library by its source text, and the
learned-cost store keys each conversion by a hash of it, so a library or
a learned cost is shared across processes only if every process prints
the same text for the same conversion.  Set iteration order follows
``PYTHONHASHSEED``; this test runs ``tools/codegen_digest.py`` — every
library conversion, generated kernel and tandem pipeline — under two
seeds, in two fresh processes, and compares what they print.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC_DIR = str(REPO / "src")

#: Prints ``{"category:...": sha256}`` for every library conversion
#: (both optimize levels, with and without the binary-search rewrite, on
#: every lowering tier), every generated kernel's python source and C
#: listing, and every tandem pipeline.  Printing C needs no compiler.
TOOL = str(REPO / "tools" / "codegen_digest.py")


def _sources(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, TOOL], capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_pair_prints_the_same_source_under_any_hash_seed():
    first, second = _sources("0"), _sources("2")
    assert first.keys() == second.keys()
    conversions = [k for k in first if k.startswith("conversion:")]
    tiers = {key.rsplit(":", 1)[1] for key in conversions}
    assert tiers == {"python", "numpy", "c"}
    # 324 conversions per tier, 58 kernels (python and C each) and 297
    # tandem pipelines: a shrinking sweep would hide a program.
    counts = Counter(key.split(":", 1)[0] for key in first)
    assert counts == {"conversion": 3 * 324, "kernel": 2 * 58,
                      "tandem": 297}, counts
    differ = sorted(k for k in first if first[k] != second[k])
    assert not differ, f"{len(differ)} sources depend on the hash seed: " \
        f"{differ[:6]}"
