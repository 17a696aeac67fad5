"""The permutation abstraction: ordered lists populated by insertion.

The synthesized inspector in the paper creates
``P = new OrderedList(2, 1, MORTON(), "<")`` and inserts every nonzero's
dense coordinates; the list's ordering constraint (a user-defined comparison
key) determines the destination position of each nonzero.  This module is
the runtime counterpart.

Two variants exist:

* :class:`OrderedList` — the permutation ``P``: maps each inserted
  coordinate tuple to its rank under the ordering (insertion order when no
  key is given, matching the paper's "an arbitrary order will be used").
* :class:`OrderedSet` — deduplicating variant used for index arrays with a
  strict monotonic quantifier, such as DIA's ``off`` array: repeated inserts
  of a value collapse and ``finalize`` yields the sorted unique values.
"""

from __future__ import annotations

import bisect
from typing import Callable, Optional

try:
    import numpy as _np
except ImportError:  # pragma: no cover - the reference image ships numpy
    _np = None

#: Below this many items the python sort wins; above it the column-array
#: argsort in :meth:`OrderedList.finalize` pays off.
_NUMPY_SORT_THRESHOLD = 64


class OrderedList:
    """Insert-then-rank permutation structure.

    Parameters mirror the generated constructor call in the paper:
    ``in_arity`` is the arity of inserted tuples, ``out_arity`` the arity of
    the produced positions (always 1 here — the rank), ``key`` the
    user-defined comparison key (e.g. the Morton function) and ``op`` the
    direction (``"<"`` ascending, ``">"`` descending).
    """

    def __init__(
        self,
        in_arity: int,
        out_arity: int = 1,
        key: Optional[Callable[..., object]] = None,
        op: str = "<",
        unique: bool = False,
    ):
        if in_arity < 1:
            raise ValueError("in_arity must be >= 1")
        if out_arity != 1:
            raise ValueError("only rank (out_arity == 1) positions are supported")
        if op not in ("<", ">"):
            raise ValueError(f"op must be '<' or '>', got {op!r}")
        self.in_arity = in_arity
        self.out_arity = out_arity
        self.key = key
        self.op = op
        #: When true, tuples with equal *keys* collapse onto one rank — the
        #: blocked-format case, where every nonzero of a block shares the
        #: block's position.  ``len`` then counts distinct keys.
        self.unique = unique
        self._items: list[tuple[int, ...]] = []
        self._rank: dict[tuple[int, ...], int] | None = None
        self._distinct = 0

    def insert(self, *coords: int) -> None:
        """Record one tuple.  Position is assigned at :meth:`finalize`."""
        if len(coords) == 1 and isinstance(coords[0], tuple):
            coords = coords[0]
        if len(coords) != self.in_arity:
            raise ValueError(
                f"expected {self.in_arity} coordinates, got {len(coords)}"
            )
        # coords is already a tuple here (either the *args tuple or the
        # unwrapped caller tuple) — no per-insert copy needed.
        self._items.append(coords)
        self._rank = None

    def __len__(self) -> int:
        if self.unique:
            if self._rank is None:
                self.finalize()
            return self._distinct
        return len(self._items)

    def finalize(self) -> None:
        """Sort (stably) by the key and build the tuple -> rank index.

        With ``unique=True``, tuples whose keys compare equal receive the
        same rank (the rank of the distinct key).
        """
        if self.key is None:
            ordered = list(self._items)
        else:
            ordered = self._sorted_items()
        if self.unique:
            keyfn = self.key or (lambda *t: t)
            rank: dict[tuple[int, ...], int] = {}
            last_key = object()
            next_rank = -1
            for item in ordered:
                item_key = keyfn(*item)
                if item_key != last_key:
                    next_rank += 1
                    last_key = item_key
                rank[item] = next_rank
            self._rank = rank
            self._distinct = next_rank + 1
        else:
            self._rank = {t: n for n, t in enumerate(ordered)}
        self._items = ordered

    def _sorted_items(self) -> list[tuple[int, ...]]:
        """Stable key sort of the inserted tuples.

        Fast path: compute key *columns* (one python key call per tuple)
        and rank them with a single C-level ``np.lexsort`` instead of
        sorting python tuples.  Falls back to ``sorted`` for
        descending order, tiny inputs, or keys that don't fit int64.
        """
        items = self._items
        if (
            _np is not None
            and self.op == "<"
            and len(items) >= _NUMPY_SORT_THRESHOLD
        ):
            try:
                key_rows = [self.key(*t) for t in items]
                key_cols = [
                    _np.asarray(col, dtype=_np.int64) for col in zip(*key_rows)
                ]
                order = _np.lexsort(tuple(reversed(list(key_cols))))
                return [items[i] for i in order.tolist()]
            except (OverflowError, TypeError, ValueError):
                pass  # exotic key values: use the general path below
        return sorted(items, key=lambda t: self.key(*t), reverse=(self.op == ">"))

    def lookup(self, *coords: int) -> int:
        """The destination position of an inserted tuple (the paper's P)."""
        rank = self._rank
        if rank is None:
            self.finalize()
            rank = self._rank
        assert rank is not None
        # *coords is already a tuple, which is the common-case dict key —
        # no per-lookup tuple() allocation.
        try:
            return rank[coords]
        except (KeyError, TypeError):
            pass
        if len(coords) == 1 and isinstance(coords[0], tuple):
            coords = coords[0]
        else:
            coords = tuple(coords)
        try:
            return rank[coords]
        except KeyError:
            raise KeyError(f"{coords} was never inserted") from None

    __call__ = lookup

    def ordered_items(self) -> list[tuple[int, ...]]:
        """All tuples in destination order."""
        if self._rank is None:
            self.finalize()
        return list(self._items)


class LexBucketPermutation:
    """Counting-sort specialization of the permutation for lex orderings.

    When the destination ordering is lexicographic with leading component
    ``c`` and the source traversal already orders entries correctly *within*
    each value of ``c`` (e.g. row-major sorted COO going to column-major
    CSC), the permutation is a stable bucket sort: histogram ``c``,
    prefix-sum, and assign ranks in insertion order.  This replaces the
    comparison sort + hash lookup of :class:`OrderedList` with O(1) integer
    arithmetic per entry — the "more efficient implementation" direction the
    paper's conclusion calls for.

    Lookups are served by advancing per-bucket fill pointers, which is
    correct because generated inspectors query positions in complete passes
    over the source in insertion order; after each full pass the fill
    pointers reset automatically, so multiple sequential passes (the
    unoptimized, unfused inspector) also work.  Partial passes would not.
    """

    def __init__(self, nbuckets: int, which: int, in_arity: int):
        if nbuckets < 1:
            raise ValueError("nbuckets must be >= 1")
        if not (0 <= which < in_arity):
            raise ValueError("bucket coordinate index out of range")
        self.nbuckets = nbuckets
        self.which = which
        self.in_arity = in_arity
        self._counts = [0] * (nbuckets + 1)
        self._starts: list[int] | None = None
        self._fill: list[int] | None = None
        self._total = 0
        self._served = 0

    def insert(self, *coords: int) -> None:
        self._counts[coords[self.which] + 1] += 1
        self._total += 1
        self._starts = None

    def __len__(self) -> int:
        return self._total

    def finalize(self) -> None:
        if _np is not None and self.nbuckets >= _NUMPY_SORT_THRESHOLD:
            starts = _np.cumsum(
                _np.asarray(self._counts, dtype=_np.int64)
            ).tolist()
        else:
            starts = self._counts.copy()
            for b in range(self.nbuckets):
                starts[b + 1] += starts[b]
        self._starts = starts
        self._fill = starts[:-1].copy() + [starts[-1]]
        self._served = 0

    def lookup(self, *coords: int) -> int:
        if self._starts is None:
            self.finalize()
        assert self._fill is not None and self._starts is not None
        bucket = coords[self.which]
        pos = self._fill[bucket]
        self._fill[bucket] = pos + 1
        self._served += 1
        if self._served == self._total:
            # A complete pass finished: rewind for the next pass.
            self._fill = self._starts[:-1].copy() + [self._starts[-1]]
            self._served = 0
        return pos

    __call__ = lookup


class OrderedSet:
    """Sorted set of integers for strictly-monotonic index arrays.

    DIA's ``off`` array carries the quantifier
    ``forall d1,d2: d1 < d2 <=> off(d1) < off(d2)``; enforcing it on insert
    means deduplicating and sorting.  Lookup by value supports both the
    linear-search copy loop (via :meth:`__getitem__` in a scan) and the
    binary-search optimization of Figure 3 (via :meth:`index_of`).
    """

    def __init__(self):
        self._sorted: list[int] = []
        self._present: set[int] = set()

    def insert(self, value: int) -> None:
        if value in self._present:
            return
        self._present.add(value)
        bisect.insort(self._sorted, value)

    def __len__(self) -> int:
        return len(self._sorted)

    def __getitem__(self, index: int) -> int:
        return self._sorted[index]

    def __iter__(self):
        return iter(self._sorted)

    def __contains__(self, value: int) -> bool:
        return value in self._present

    def index_of(self, value: int) -> int:
        """Binary-search the index of ``value`` (raises if absent)."""
        index = bisect.bisect_left(self._sorted, value)
        if index == len(self._sorted) or self._sorted[index] != value:
            raise KeyError(f"{value} not present")
        return index

    def to_list(self) -> list[int]:
        return list(self._sorted)
