"""Generated source is the same in every process.

The C tier names each compiled library by its source text, and the
learned-cost store keys each conversion by a hash of it, so a library or
a learned cost is shared across processes only if every process prints
the same text for the same conversion.  Set iteration order follows
``PYTHONHASHSEED``; this test synthesizes every library pair under two
seeds, in two fresh processes, and compares what they print.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")

#: Prints ``{"SRC->DST:opt:bsearch:tier": sha256 of the source}`` for
#: every synthesizable library pair, both optimize levels, with and
#: without the binary-search rewrite, on every lowering tier.  Printing
#: C needs no compiler.
_SCRIPT = """
import hashlib, json
from repro.formats.library import all_formats
from repro.synthesis import SynthesisError, synthesize

out = {}
formats = all_formats()
for src in formats:
    for dst in formats:
        if src.name == dst.name or src.rank != dst.rank:
            continue
        for optimize in (True, False):
            for bsearch in (False, True):
                for tier in ("python", "numpy", "c"):
                    try:
                        conv = synthesize(src, dst, optimize=optimize,
                                          binary_search=bsearch,
                                          backend=tier)
                    except SynthesisError:
                        continue
                    key = f"{src.name}->{dst.name}:{int(optimize)}" \\
                          f":{int(bsearch)}:{tier}"
                    out[key] = hashlib.sha256(
                        conv.source.encode()).hexdigest()
print(json.dumps(out))
"""


def _sources(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_pair_prints_the_same_source_under_any_hash_seed():
    first, second = _sources("0"), _sources("2")
    assert first.keys() == second.keys()
    tiers = {key.rsplit(":", 1)[1] for key in first}
    assert tiers == {"python", "numpy", "c"}
    # 324 conversions per tier: a shrinking sweep would hide a pair.
    assert len(first) == 3 * 324, len(first)
    differ = sorted(k for k in first if first[k] != second[k])
    assert not differ, f"{len(differ)} sources depend on the hash seed: " \
        f"{differ[:6]}"
