#!/usr/bin/env python
"""Print a SHA-256 digest of every program the synthesizer generates.

One JSON object on stdout, one key per program, its category first:

* ``conversion:SRC->DST:OPT:BSEARCH:TIER`` — the source of every
  library pair, with and without optimization and the binary-search
  rewrite, on the python, numpy and C tiers;
* ``kernel:FMT:KIND:python`` and ``kernel:FMT:KIND:c`` — every
  generated executor's python source and C listing;
* ``tandem:SRC->DST:KIND`` — every tandem pipeline's optimized source,
  with the number of conversion statements it removed and whether the
  conversion was eliminated.

Two trees generate the same code exactly when they print the same
object; run it with ``PYTHONPATH`` at each tree's ``src`` and compare.
Printing C needs no compiler.

Usage: ``PYTHONPATH=src python tools/codegen_digest.py > digests.json``.
"""

import hashlib
import json

from repro.formats.library import all_formats
from repro.kernels.executor_gen import (
    IN_PLACE,
    KERNELS,
    KernelError,
    synthesize_kernel,
)
from repro.synthesis import SynthesisError, synthesize, tandem


def _digest(*parts) -> str:
    return hashlib.sha256("\n".join(map(str, parts)).encode()).hexdigest()


def digests() -> dict[str, str]:
    formats = all_formats()
    pairs = [(s, d) for s in formats for d in formats
             if s.name != d.name and s.rank == d.rank]
    out = {}
    for src, dst in pairs:
        for optimize in (True, False):
            for bsearch in (False, True):
                for tier in ("python", "numpy", "c"):
                    try:
                        conv = synthesize(src, dst, optimize=optimize,
                                          binary_search=bsearch,
                                          backend=tier)
                    except SynthesisError:
                        continue
                    key = (f"conversion:{src.name}->{dst.name}"
                           f":{int(optimize)}:{int(bsearch)}:{tier}")
                    out[key] = _digest(conv.source)
    for fmt in formats:
        for kind in KERNELS:
            try:
                kernel = synthesize_kernel(fmt, kind)
            except KernelError:
                continue
            out[f"kernel:{fmt.name}:{kind}:python"] = _digest(kernel.source)
            out[f"kernel:{fmt.name}:{kind}:c"] = _digest(kernel.c_source)
    for src, dst in pairs:
        for kind in KERNELS:
            if kind in IN_PLACE:
                continue
            try:
                result = tandem(src, dst, kind)
            except (SynthesisError, KernelError):
                continue
            out[f"tandem:{src.name}->{dst.name}:{kind}"] = _digest(
                result.optimized_source,
                result.conversion_statements_removed,
                result.conversion_eliminated,
            )
    return out


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1, sort_keys=True))
