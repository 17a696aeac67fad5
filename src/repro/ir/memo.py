"""Shared memo tables for the hash-consed IR.

Every :class:`~repro.ir.terms.Expr`, atom, conjunction, set, and relation
is immutable, and atoms/expressions are interned, so the expensive
algebraic operations — substitution, Fourier–Motzkin projection, relation
composition — are pure functions of their (hash-consed) operands.  This
module centralizes the memo dictionaries those operations key into, the
``repro_ir_memo_lookups_total{op, outcome}`` counter (``repro stats``,
``repro --profile``), and the kill switch used by benchmarks to measure the un-memoized path
(``REPRO_IR_MEMO=0``).

Tables are plain dicts: reads and writes are atomic under the GIL, and a
racing recomputation stores an equal (interned: identical) value, so no
locking is needed for correctness.  Each table is size-capped to keep a
pathological workload from growing without bound.
"""

from __future__ import annotations

import os

import repro.obs as obs

#: Kill switch: ``REPRO_IR_MEMO=0`` disables both operation memo tables
#: and the intern-table reuse, approximating the pre-hash-consing IR for
#: the cold-synthesis ablation benchmark.
ENABLED = os.environ.get("REPRO_IR_MEMO", "1") not in ("0", "false", "off")

#: Per-table entry cap; the table is cleared wholesale when exceeded.
MAX_ENTRIES = 1 << 20

_TABLES: dict[str, dict] = {}


def table(name: str) -> dict:
    """The (registered) memo dict for one operation."""
    t = _TABLES.get(name)
    if t is None:
        t = _TABLES.setdefault(name, {})
    return t


#: Memo reads per operation, ``outcome`` ``hit`` or ``miss``.
LOOKUPS = obs.counter(
    "repro_ir_memo_lookups_total",
    "IR memo-table reads by operation and outcome",
)


def lookup(t: dict, name: str, key):
    """Memo read with hit/miss accounting; returns None on miss."""
    value = t.get(key)
    LOOKUPS.inc(op=name, outcome="miss" if value is None else "hit")
    return value


def store(t: dict, key, value):
    """Memo write honoring the size cap; returns ``value``."""
    if len(t) >= MAX_ENTRIES:
        t.clear()
    t[key] = value
    return value


def clear_all() -> None:
    """Drop every memo table (intern tables are left alone: identity-based
    fast paths stay correct because structural equality is the fallback)."""
    for t in _TABLES.values():
        t.clear()


def stats() -> dict[str, int]:
    """Current entry count per memo table."""
    return {name: len(t) for name, t in sorted(_TABLES.items())}


def freeze_mapping(mapping) -> frozenset:
    """A hashable, order-insensitive key for a substitution mapping."""
    return frozenset(mapping.items())
