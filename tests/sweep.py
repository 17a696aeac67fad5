"""The conversion sweep the lowering tests walk.

Every synthesizable pair of the format library at both optimize levels,
the ``binary_search=True`` conversions into DIA at both levels, and the
compositions ``repro fuzz --random-formats --seed 0 --cases 60`` draws.
"""

from __future__ import annotations

import random
from functools import lru_cache

from repro.formats import get_format
from repro.formats.levels import LevelError, random_composition
from repro.formats.library import all_formats
from repro.synthesis import SynthesisError, synthesize
from repro.verify.fuzz import RANDOM_FORMAT_PIVOTS


def _candidates():
    formats = all_formats()
    dia = get_format("DIA")
    for optimize in (True, False):
        for src in formats:
            for dst in formats:
                if src.name != dst.name:
                    yield src, dst, optimize, False
            if src.name != "DIA":
                yield src, dia, optimize, True
    rng = random.Random(0)
    for case in range(60):
        comp = random_composition(
            random.Random(rng.randrange(1 << 30)), name=f"RF{case}"
        )
        try:
            fmt = comp.build()
        except (LevelError, ValueError):
            continue
        pivot = get_format(RANDOM_FORMAT_PIVOTS[comp.rank])
        directions = [(fmt, pivot)] + ([(pivot, fmt)] if comp.dest_capable else [])
        for src, dst in directions:
            for optimize in (True, False):
                yield src, dst, optimize, False


@lru_cache(maxsize=None)
def sweep() -> tuple:
    """``(label, src, dst, optimize, binary_search)`` per conversion."""
    out = []
    for src, dst, optimize, bsearch in _candidates():
        try:
            synthesize(src, dst, optimize=optimize, binary_search=bsearch)
        except SynthesisError:
            continue
        label = f"{src.name}->{dst.name}:opt{int(optimize)}" + (
            ":bsearch" if bsearch else ""
        )
        out.append((label, src, dst, optimize, bsearch))
    return tuple(out)


def synthesized(backend: str):
    """Yield ``(label, conversion)`` for the whole sweep on ``backend``."""
    for label, src, dst, optimize, bsearch in sweep():
        yield label, synthesize(
            src, dst, optimize=optimize, binary_search=bsearch, backend=backend
        )
