"""Shared memo tables for the hash-consed IR.

Every :class:`~repro.ir.terms.Expr`, atom, conjunction, set, and relation
is immutable, and atoms/expressions are interned, so the expensive
algebraic operations — substitution, Fourier–Motzkin projection, relation
composition — are pure functions of their (hash-consed) operands.  This
module centralizes the memo dictionaries those operations key into, the
one lookup → compute → store sequence they all run (:func:`memo`), and
the ``repro_ir_memo_lookups_total{op, outcome}`` counter (``repro
stats``, ``repro --profile``).

Tables are plain dicts: reads and writes are atomic under the GIL, and a
racing recomputation stores an equal (interned: identical) value, so no
locking is needed for correctness.  Each table is size-capped to keep a
pathological workload from growing without bound.
"""

from __future__ import annotations

from typing import Callable, TypeVar

import repro.obs as obs

T = TypeVar("T")

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


def memo(t: dict, op: str, key, compute: Callable[..., T], *args) -> T:
    """``t[key]``, or ``compute(*args)`` stored under ``key`` on a miss.

    Each read counts on :data:`LOOKUPS` under ``op``; a table at its cap
    is cleared before the store.
    """
    value = t.get(key)
    if value is not None:
        LOOKUPS.inc(op=op, outcome="hit")
        return value
    LOOKUPS.inc(op=op, outcome="miss")
    value = compute(*args)
    if len(t) >= MAX_ENTRIES:
        t.clear()
    t[key] = value
    return value


def stats() -> dict[str, int]:
    """Current entry count per memo table."""
    return {name: len(t) for name, t in sorted(_TABLES.items())}


def freeze_mapping(mapping) -> frozenset:
    """A hashable, order-insensitive key for a substitution mapping."""
    return frozenset(mapping.items())
