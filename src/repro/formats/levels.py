"""Level-format composition: derive descriptors instead of hand-writing them.

Chou et al. ("Format Abstraction for Sparse Tensor Algebra Compilers") and
UniSparse observe that sparse formats are compositions of per-dimension
*level types*.  This module is that observation turned into a small DSL:
a format is a sequence of level specs —

>>> from repro.formats.levels import Dense, Compressed, compose
>>> csr = compose("CSR", [Dense("i"), Compressed("j")])

— from which the sparse-to-dense relation, data access relation, UF
domains/ranges, monotonic quantifiers and the ordering quantifier of a
:class:`~repro.formats.descriptor.FormatDescriptor` are *derived*.

Level types and the families they compose into:

============  ====================================================
level type    meaning
============  ====================================================
`Singleton`   per-position coordinate array (COO-style)
`Dense`       every coordinate of the dimension is iterated
`Compressed`  pointer-delimited sorted index array (CSR/CSF-style)
`Offset`      coordinate derived as ``base + off(d)`` (DIA-style)
`Padded`      fixed-width slots with ``-1`` padding (ELL-style)
============  ====================================================

Valid compositions (rank = number of dense dimensions, each covered by
exactly one level):

* **coord** — all levels ``Singleton``; optional ``lex``/``morton``
  ordering (COO, SCOO, MCOO, COO3D, ...).
* **compressed** — a (possibly empty) ``Dense`` prefix followed by one or
  more ``Compressed`` levels (CSR, CSC, DCSR, CSF, ...).  A leading
  ``Compressed`` level is a *root*: its index array is strictly
  monotonic and counted by its own size symbol.
* **offset** — ``[Dense(base), Offset(dim)]`` (DIA).
* **padded** — ``[Dense(base), Padded(dim)]`` (ELL).
* **blocked** — ``[Dense(d0, block=b), Compressed(d1, block=b)]``
  (BCSR and its column-major mirror BCSC).

The emitters are written to reproduce the library's historical
hand-written relation *strings* exactly, so descriptor fingerprints,
synthesis memo keys and generated inspectors are stable across the
refactor; the hand-written forms survive only as test oracles.

Beyond descriptor derivation the composition carries the format's
*dense semantics*: :meth:`Composition.assemble` builds the format's
arrays from coordinate cells (:class:`Cells`) or a dense image, and
:meth:`Composition.entries` reads the stored entries back —
:meth:`Composition.interpret` turns them into the dense image.  Every
runtime container's round trip runs through these, and, being
independent of any synthesized inspector, ``assemble`` and ``entries``
are the oracle pair the random-composition fuzzer (``repro fuzz
--random-formats``) checks generated conversions against.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from repro.ir import (
    FloorDiv,
    MonotonicQuantifier,
    OrderingQuantifier,
    Var,
    lexicographic,
    morton,
)

from repro.runtime.morton import morton_vec
from repro.runtime.storage import INDEX, VALUE, as_ndarray

from .descriptor import FormatDescriptor, FormatError


#: Canonical dense dimension names, their human words and shape symbols.
CANONICAL_DIMS = ("i", "j", "k")
DIM_WORD = {"i": "row", "j": "col", "k": "z"}
DIM_SHAPE_SYM = {"i": "NR", "j": "NC", "k": "NZ"}

#: Padding sentinel of padded levels (matches ``ELLMatrix.PAD``).
PAD = -1


class LevelError(FormatError):
    """Raised for invalid level compositions."""


# ----------------------------------------------------------------------
# Level specs


@dataclass(frozen=True)
class Level:
    """Base level spec: one dense dimension, one storage discipline."""

    dim: str

    kind = ""

    def options(self) -> dict:
        """Non-default options, for :meth:`Composition.spec` round-trips."""
        return {}


@dataclass(frozen=True)
class Dense(Level):
    """The dimension is iterated exhaustively (optionally block-wise)."""

    block: int | None = None
    kind = "dense"

    def options(self) -> dict:
        return {"block": self.block} if self.block else {}


@dataclass(frozen=True)
class Compressed(Level):
    """Pointer-delimited sorted index array over the previous level.

    As the *first* level of a composition it is a root: no pointer, a
    strictly monotonic index array counted by ``count``.  ``ptr``,
    ``idx`` and ``count`` override the derived UF / symbol names.
    """

    block: int | None = None
    ptr: str | None = None
    idx: str | None = None
    count: str | None = None
    strict: bool = False
    kind = "compressed"

    def options(self) -> dict:
        out: dict = {}
        if self.block:
            out["block"] = self.block
        for key in ("ptr", "idx", "count"):
            if getattr(self, key):
                out[key] = getattr(self, key)
        if self.strict:
            out["strict"] = True
        return out


@dataclass(frozen=True)
class Singleton(Level):
    """One coordinate array entry per stored position (COO-style)."""

    uf: str | None = None
    kind = "singleton"

    def options(self) -> dict:
        return {"uf": self.uf} if self.uf else {}


@dataclass(frozen=True)
class Offset(Level):
    """Coordinate derived as ``base + off(d)`` — the DIA diagonal level."""

    uf: str = "off"
    count: str = "ND"
    kind = "offset"

    def options(self) -> dict:
        out: dict = {}
        if self.uf != "off":
            out["uf"] = self.uf
        if self.count != "ND":
            out["count"] = self.count
        return out


@dataclass(frozen=True)
class Padded(Level):
    """Fixed-width slots per outer coordinate, ``-1``-padded (ELL-style)."""

    uf: str | None = None
    width: str = "W"
    kind = "padded"

    def options(self) -> dict:
        out: dict = {}
        if self.uf:
            out["uf"] = self.uf
        if self.width != "W":
            out["width"] = self.width
        return out


_LEVEL_KINDS = {
    "dense": Dense,
    "compressed": Compressed,
    "singleton": Singleton,
    "offset": Offset,
    "padded": Padded,
}


# ----------------------------------------------------------------------
# The composition


@dataclass(frozen=True)
class Composition:
    """A named sequence of level specs plus an ordering choice.

    ``ordering`` is ``"auto"`` (the family's natural ordering), ``"none"``,
    ``"lex"`` (lexicographic in level-dimension order) or ``"morton"``.
    """

    name: str
    levels: tuple[Level, ...]
    ordering: str = "auto"
    description: str = ""
    family: str = field(init=False, default="")

    def __post_init__(self):
        object.__setattr__(self, "family", _classify(self.levels))
        if self.ordering not in ("auto", "none", "lex", "morton"):
            raise LevelError(
                f"{self.name}: unknown ordering {self.ordering!r}"
            )
        if self.ordering == "morton" and self.family != "coord":
            raise LevelError(
                f"{self.name}: morton ordering requires singleton levels"
            )

    def __hash__(self) -> int:
        # Every memoized per-format lookup (bind, pack, check) hashes its
        # composition, so the hash is computed once per instance.
        try:
            return self._hash
        except AttributeError:
            value = hash((self.name, self.levels, self.ordering,
                          self.description))
            object.__setattr__(self, "_hash", value)
            return value

    def __reduce__(self):
        # Rebuild from the fields: a cached string hash is per process.
        return (type(self),
                (self.name, self.levels, self.ordering, self.description))

    # ------------------------------------------------------------------
    @functools.cached_property
    def dims(self) -> tuple[str, ...]:
        """Dimensions in level order."""
        return tuple(level.dim for level in self.levels)

    @functools.cached_property
    def rank(self) -> int:
        return len(self.levels)

    @functools.cached_property
    def canonical_dims(self) -> tuple[str, ...]:
        return CANONICAL_DIMS[: self.rank]

    @functools.cached_property
    def shape_syms(self) -> tuple[str, ...]:
        return tuple(DIM_SHAPE_SYM[d] for d in self.canonical_dims)

    @property
    def dest_capable(self) -> bool:
        """Whether the format can be a conversion *destination*.

        Root-compressed chains and padded layouts need distinct-value /
        maximum counts the paper's constraint cases cannot derive, so
        they are source-only; unordered coordinate formats leave the
        position order unconstrained.
        """
        if self.family == "coord":
            return self._resolved_ordering() is not None
        if self.family == "compressed":
            ncomp = sum(1 for lv in self.levels if lv.kind == "compressed")
            return ncomp == 1
        if self.family == "padded":
            return False
        return True  # offset, blocked

    def _resolved_ordering(self) -> str | None:
        if self.ordering != "auto":
            return None if self.ordering == "none" else self.ordering
        if self.family == "coord":
            return None  # plain COO: unordered by default
        return "lex"

    # ------------------------------------------------------------------
    def build(self) -> FormatDescriptor:
        """Derive the :class:`FormatDescriptor` for this composition."""
        emitter = {
            "coord": _emit_coord,
            "compressed": _emit_compressed,
            "offset": _emit_offset,
            "padded": _emit_padded,
            "blocked": _emit_blocked,
        }[self.family]
        fmt = emitter(self)
        fmt.levels = self
        return fmt

    # ------------------------------------------------------------------
    def spec(self) -> str:
        """The textual spec, round-trippable through :func:`parse_spec`."""
        terms = []
        for level in self.levels:
            opts = []
            for key, value in level.options().items():
                opts.append(key if value is True else f"{key}={value}")
            inner = ", ".join([level.dim] + opts)
            terms.append(f"{level.kind}({inner})")
        text = ", ".join(terms)
        if self.ordering != "auto":
            text += f" @ {self.ordering}"
        return text

    def to_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "levels": [
                {"kind": level.kind, "dim": level.dim, **level.options()}
                for level in self.levels
            ],
        }
        if self.ordering != "auto":
            out["ordering"] = self.ordering
        if self.description:
            out["description"] = self.description
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "Composition":
        try:
            levels = []
            for entry in data["levels"]:
                entry = dict(entry)
                kind = entry.pop("kind")
                dim = entry.pop("dim")
                levels.append(_LEVEL_KINDS[kind](dim, **entry))
            return cls(
                name=data["name"],
                levels=tuple(levels),
                ordering=data.get("ordering", "auto"),
                description=data.get("description", ""),
            )
        except (KeyError, TypeError) as err:
            raise LevelError(f"malformed composition dict: {err}") from err

    # ------------------------------------------------------------------
    # Dense semantics: assemble, read back, interpret.

    def assemble(self, source, *, symbols: Mapping | None = None) -> dict:
        """Build the format's arrays from coordinate cells.

        ``source`` is a :class:`Cells` or a dense image (nested lists,
        read as the cells of its nonzero entries in row-major order).
        Entries are ordered as the format stores them; duplicate
        coordinates are kept, not collapsed, so :meth:`check` still
        rejects them.  ``symbols`` overrides a size the format would
        otherwise derive (a padded level's width, which must not be
        below the longest run).

        Returns the full inspector environment — UF arrays (int64 / float64
        numpy arrays), ``Asrc`` and every size symbol — exactly like
        :func:`repro.formats.bindings.container_to_env` would for a
        runtime container of the format.
        """
        cells = source if isinstance(source, Cells) else \
            Cells.from_dense(source, self.rank, self.name)
        if len(cells.shape) != self.rank:
            raise LevelError(
                f"{self.name}: cells of rank {len(cells.shape)} != format "
                f"rank {self.rank}"
            )
        return _ASSEMBLERS[self.family](self, cells, symbols or {})

    def entries(self, env: Mapping) -> "Cells":
        """The stored entries of an environment, in storage order.

        Padding is not an entry: ``-1`` slots of a padded level, and
        zero or out-of-range slots of offset and blocked levels, are
        skipped; every other stored value is one, explicit zeros
        included.  This one reader serves :meth:`interpret` and every
        container's ``to_dense`` / ``to_dict`` / ``nonzeros``.
        """
        shape = _env_shape(self, env)
        coords, values = _READERS[self.family](self, env, shape)
        return Cells(shape, tuple(coords), values)

    def interpret(self, env: Mapping) -> list:
        """Read the dense image back from an environment of arrays.

        The inverse of :meth:`assemble`.  Content checks compare
        :meth:`entries` instead, which costs O(stored entries) whatever
        the shape.
        """
        return self.entries(env).to_dense()

    def check(
        self,
        env: Mapping,
        *,
        container: str | None = None,
        names: Mapping[str, str] | None = None,
    ) -> bool | None:
        """Raise the first violation of this format's invariants in ``env``.

        The invariants are derived from the levels — array lengths, UF
        ranges, pointer endpoints and monotonicity, per-segment strict
        order and uniqueness, padding and the ordering key — and checked
        with vectorized numpy passes (:mod:`repro.formats.invariants`).
        Raises a :class:`~repro.errors.ValidationError` subclass carrying
        the offending coordinate or position; ``container`` names the
        container in its message, and ``names`` maps UF and shape symbols
        (and ``Asrc``) to the words the message uses for them.  A
        negative shape raises :class:`~repro.errors.ShapeError` before any
        array is read.  A coordinate format returns whether its entries
        strictly increase in lexicographic order.
        """
        from repro.errors import ShapeError

        from .invariants import CHECKERS

        names = names or {}
        for sym in self.shape_syms:
            if env[sym] < 0:
                raise ShapeError(
                    f"{names.get(sym, sym)} must not be negative, got "
                    f"{env[sym]}",
                    container=container,
                )
        return CHECKERS[self.family](self, env, container, names)

    def env_from_arrays(
        self,
        shape: Sequence[int],
        data,
        level_arrays: Sequence[Mapping | None],
        *,
        extras: Mapping | None = None,
    ) -> dict:
        """Bind raw per-level arrays to this composition's UF/symbol names.

        ``level_arrays`` aligns with :attr:`levels`: ``None`` for dense
        levels, else a dict with the level's arrays under structural
        role keys — ``"coord"`` (singleton), ``"ptr"``/``"idx"``
        (compressed; root levels have no ``"ptr"``), ``"idx"`` (offset:
        the offsets; padded: the padded column array, plus ``"width"``).
        All UF names and count symbols are derived from the level
        structure (:func:`level_names`), so a container binding only
        states which attribute fills which level.  ``extras`` adds
        further symbols.
        """
        env: dict = {}
        for names, arrays in zip(level_names(self), level_arrays):
            for role, name in names.items():
                env[name] = (
                    len(arrays["idx"]) if role == "count" else arrays[role]
                )
        if self.family == "coord":
            env["NNZ"] = len(data)
        env["Asrc"] = data
        env.update(_shape_env(self, shape))
        if self.family == "blocked":
            block = self.levels[0].block
            env["NBR"] = -(-shape[0] // block)
            env["NBC"] = -(-shape[1] // block)
        env.update(extras or {})
        return env


def compose(
    name: str,
    levels: Sequence[Level],
    *,
    ordering: str = "auto",
    description: str = "",
) -> FormatDescriptor:
    """Build a :class:`FormatDescriptor` from a level composition."""
    comp = Composition(
        name=name,
        levels=tuple(levels),
        ordering=ordering,
        description=description,
    )
    return comp.build()


# ----------------------------------------------------------------------
# Family classification and validation


def _classify(levels: Sequence[Level]) -> str:
    if not levels:
        raise LevelError("a composition needs at least one level")
    rank = len(levels)
    dims = [level.dim for level in levels]
    expected = set(CANONICAL_DIMS[:rank])
    if set(dims) != expected or len(set(dims)) != rank:
        raise LevelError(
            f"levels must cover dimensions {sorted(expected)} exactly "
            f"once, got {dims}"
        )
    kinds = [level.kind for level in levels]
    if all(k == "singleton" for k in kinds):
        return "coord"
    if any(getattr(level, "block", None) for level in levels):
        if rank != 2 or kinds != ["dense", "compressed"]:
            raise LevelError(
                "blocked compositions must be [Dense(d0, block=b), "
                f"Compressed(d1, block=b)], got {kinds}"
            )
        b0, b1 = levels[0].block, levels[1].block
        if b0 != b1 or not b0 or b0 < 1:
            raise LevelError(
                f"blocked levels need one equal positive block size, "
                f"got {b0!r} and {b1!r}"
            )
        return "blocked"
    if kinds == ["dense", "offset"]:
        return "offset"
    if kinds == ["dense", "padded"]:
        return "padded"
    ndense = sum(1 for k in kinds if k == "dense")
    ncomp = sum(1 for k in kinds if k == "compressed")
    if (
        ndense + ncomp == rank
        and ncomp >= 1
        and kinds == ["dense"] * ndense + ["compressed"] * ncomp
    ):
        return "compressed"
    raise LevelError(
        f"unsupported level composition {kinds}; supported families: "
        "all-singleton, dense*+compressed+, dense+offset, dense+padded, "
        "blocked dense+compressed"
    )


# ----------------------------------------------------------------------
# Shared emission helpers


def _loop_var(dim: str) -> str:
    return dim * 2


def _bounds(var: str, sym: str) -> str:
    return f"0 <= {var} < {sym}"


def _ordering_quantifier(comp: Composition) -> OrderingQuantifier | None:
    resolved = comp._resolved_ordering()
    if resolved is None:
        return None
    if resolved == "morton":
        return morton(list(comp.dims))
    return lexicographic(list(comp.dims))


# ----------------------------------------------------------------------
# coord family (COO / SCOO / MCOO / COO3D / ...)


def _coord_ufs_of(comp: Composition) -> dict[str, str]:
    suffix = "_m" if comp._resolved_ordering() == "morton" else "1"
    out = {}
    for level in comp.levels:
        out[level.dim] = level.uf or f"{DIM_WORD[level.dim]}{suffix}"
    return out


def _emit_coord(comp: Composition) -> FormatDescriptor:
    dims = comp.canonical_dims
    ufs = _coord_ufs_of(comp)
    copies = [_loop_var(d) for d in dims]
    tuple_vars = ["n"] + copies
    constraints = (
        [f"{ufs[d]}(n) = {d}" for d in dims]
        + [f"{_loop_var(d)} = {d}" for d in dims]
        + [_bounds(d, DIM_SHAPE_SYM[d]) for d in dims]
        + ["0 <= n < NNZ"]
    )
    sparse = (
        f"{{[{', '.join(tuple_vars)}] -> [{', '.join(dims)}] : "
        f"{' && '.join(constraints)}}}"
    )
    data = f"{{[{', '.join(tuple_vars)}] -> [nd] : nd = n}}"
    return FormatDescriptor(
        name=comp.name,
        sparse_to_dense=sparse,
        data_access=data,
        uf_domains={ufs[d]: "{[x] : 0 <= x < NNZ}" for d in dims},
        uf_ranges={
            ufs[d]: f"{{[i] : 0 <= i < {DIM_SHAPE_SYM[d]}}}" for d in dims
        },
        ordering=_ordering_quantifier(comp),
        coord_ufs=ufs,
        shape_syms=comp.shape_syms,
        position_var="n",
        description=comp.description,
    )


# ----------------------------------------------------------------------
# compressed family (CSR / CSC / DCSR / CSF / ...)


@functools.lru_cache(maxsize=256)
def _compressed_names(comp: Composition) -> list[dict]:
    """Derived per-level naming: loop var, ptr/idx UFs, count symbol.

    Memoized per composition (every bind and check of a compressed
    container asks); callers read the entries and never change them.
    """
    levels = comp.levels
    dense_levels = [lv for lv in levels if lv.kind == "dense"]
    comp_levels = [lv for lv in levels if lv.kind == "compressed"]
    single = len(comp_levels) == 1 and len(dense_levels) >= 1
    pos_default = "k" if "k" not in comp.dims else "p"
    names = []
    for index, level in enumerate(levels):
        word = DIM_WORD[level.dim]
        if level.kind == "dense":
            names.append({"var": _loop_var(level.dim)})
            continue
        entry: dict = {}
        if single:
            entry["var"] = pos_default
            entry["idx"] = level.idx or f"{word}2"
            prefix = "".join(DIM_WORD[lv.dim] for lv in dense_levels)
            entry["ptr"] = level.ptr or f"{prefix}ptr"
            entry["count"] = level.count or "NNZ"
        else:
            entry["var"] = f"{level.dim}p"
            entry["idx"] = level.idx or f"{word}idx"
            if index > 0:
                entry["ptr"] = level.ptr or f"{word}ptr"
            last = index == len(levels) - 1
            entry["count"] = level.count or (
                "NNZ" if last else f"NP{level.dim.upper()}"
            )
        names.append(entry)
    return names


def _emit_compressed(comp: Composition) -> FormatDescriptor:
    levels = comp.levels
    names = _compressed_names(comp)
    dims = comp.canonical_dims
    ndense = sum(1 for lv in levels if lv.kind == "dense")
    ncomp = len(levels) - ndense
    single = ncomp == 1 and ndense >= 1

    dense_syms = [DIM_SHAPE_SYM[lv.dim] for lv in levels[:ndense]]
    dense_vars = [names[x]["var"] for x in range(ndense)]

    def dense_flat(extra: str = "") -> str:
        """The flattened dense-prefix position expression."""
        if ndense == 1:
            return f"{dense_vars[0]}{extra}"
        terms = []
        for x, var in enumerate(dense_vars):
            scale = " * ".join(dense_syms[x + 1 :])
            terms.append(f"{scale} * {var}" if scale else var)
        return " + ".join(terms) + extra

    uf_domains: dict[str, str] = {}
    uf_ranges: dict[str, str] = {}
    monotonic: list[MonotonicQuantifier] = []
    coord_ufs: dict[str, str] = {}
    constraints: list[str] = []
    tuple_vars = [entry["var"] for entry in names]

    if single:
        cdim = levels[-1].dim
        entry = names[-1]
        pos = entry["var"]
        copies = {d: _loop_var(d) for d in dims}
        tuple_vars = tuple_vars[:-1] + [pos]
        tuple_vars += [copies[d] for d in dims if copies[d] not in tuple_vars]
        constraints += [f"{copies[d]} = {d}" for d in dims]
        constraints.append(f"{entry['idx']}({pos}) = {cdim}")
        constraints += [
            _bounds(names[x]["var"], dense_syms[x]) for x in range(ndense)
        ]
        constraints.append(
            f"{entry['ptr']}({dense_flat()}) <= {pos} < "
            f"{entry['ptr']}({dense_flat(' + 1')})"
        )
        constraints.append(_bounds(cdim, DIM_SHAPE_SYM[cdim]))
        prod = " * ".join(dense_syms)
        uf_domains[entry["ptr"]] = f"{{[x] : 0 <= x <= {prod}}}"
        uf_ranges[entry["ptr"]] = "{[n] : 0 <= n <= NNZ}"
        uf_domains[entry["idx"]] = "{[x] : 0 <= x < NNZ}"
        uf_ranges[entry["idx"]] = (
            f"{{[i] : 0 <= i < {DIM_SHAPE_SYM[cdim]}}}"
        )
        strict = levels[-1].strict
        monotonic.append(MonotonicQuantifier(entry["ptr"], strict=strict))
        for x in range(ndense):
            coord_ufs[levels[x].dim] = f"{DIM_WORD[levels[x].dim]}_of"
        coord_ufs[cdim] = entry["idx"]
    else:
        # Chain style (CSF / DCSR): per-level defs, per-level loop
        # bounds, then the dense-space bounds of the compressed dims.
        for index, level in enumerate(levels):
            if level.kind == "dense":
                constraints.append(f"{names[index]['var']} = {level.dim}")
            else:
                constraints.append(
                    f"{level.dim} = {names[index]['idx']}"
                    f"({names[index]['var']})"
                )
        prev_count = None
        for index, level in enumerate(levels):
            entry = names[index]
            if level.kind == "dense":
                constraints.append(
                    _bounds(entry["var"], DIM_SHAPE_SYM[level.dim])
                )
                continue
            if "ptr" not in entry:
                constraints.append(_bounds(entry["var"], entry["count"]))
            else:
                prev = names[index - 1]["var"]
                constraints.append(
                    f"{entry['ptr']}({prev}) <= {entry['var']} < "
                    f"{entry['ptr']}({prev} + 1)"
                )
            prev_count = entry["count"]
        constraints += [
            _bounds(lv.dim, DIM_SHAPE_SYM[lv.dim])
            for lv in levels
            if lv.kind == "compressed"
        ]
        prev_count = None
        first_comp = next(
            x for x, lv in enumerate(levels) if lv.kind == "compressed"
        )
        for index, level in enumerate(levels):
            entry = names[index]
            if level.kind == "dense":
                coord_ufs[level.dim] = f"{DIM_WORD[level.dim]}_of"
                continue
            if "ptr" in entry:
                if index == first_comp:
                    upper = " * ".join(dense_syms)
                else:
                    upper = prev_count
                uf_domains[entry["ptr"]] = f"{{[x] : 0 <= x <= {upper}}}"
                cvar = (
                    "n" if entry["count"] == "NNZ"
                    else entry["count"][1].lower()
                )
                uf_ranges[entry["ptr"]] = (
                    f"{{[{cvar}] : 0 <= {cvar} <= {entry['count']}}}"
                )
                monotonic.append(MonotonicQuantifier(entry["ptr"]))
            else:
                monotonic.insert(
                    0, MonotonicQuantifier(entry["idx"], strict=True)
                )
            uf_domains[entry["idx"]] = (
                f"{{[x] : 0 <= x < {entry['count']}}}"
            )
            uf_ranges[entry["idx"]] = (
                f"{{[{level.dim}] : 0 <= {level.dim} < "
                f"{DIM_SHAPE_SYM[level.dim]}}}"
            )
            coord_ufs[level.dim] = entry["idx"]
            prev_count = entry["count"]
        # A non-root chain (dense prefix) keeps insertion order; a root
        # chain leads with the strict root index, as hand-written CSF did.

    pos = names[-1]["var"]
    sparse = (
        f"{{[{', '.join(tuple_vars)}] -> [{', '.join(dims)}] : "
        f"{' && '.join(constraints)}}}"
    )
    data = f"{{[{', '.join(tuple_vars)}] -> [kd] : kd = {pos}}}"
    return FormatDescriptor(
        name=comp.name,
        sparse_to_dense=sparse,
        data_access=data,
        uf_domains=uf_domains,
        uf_ranges=uf_ranges,
        monotonic=monotonic,
        ordering=_ordering_quantifier(comp),
        coord_ufs=coord_ufs,
        shape_syms=comp.shape_syms,
        position_var=pos,
        description=comp.description,
    )


# ----------------------------------------------------------------------
# offset family (DIA)


def _emit_offset(comp: Composition) -> FormatDescriptor:
    base, level = comp.levels[0].dim, comp.levels[1]
    dim = level.dim
    bb, cc = _loop_var(base), _loop_var(dim)
    bsym, dsym = DIM_SHAPE_SYM[base], DIM_SHAPE_SYM[dim]
    uf, count = level.uf, level.count
    sparse = (
        f"{{[{bb}, d, {cc}] -> [i, j] : {base} = {bb}"
        f" && 0 <= {base} < {bsym} && 0 <= d < {count}"
        f" && {dim} = {base} + {uf}(d) && 0 <= {dim} < {dsym}"
        f" && {cc} = {dim}}}"
    )
    data = f"{{[{bb}, d, {cc}] -> [kd] : kd = {count} * {bb} + d}}"
    return FormatDescriptor(
        name=comp.name,
        sparse_to_dense=sparse,
        data_access=data,
        uf_domains={uf: f"{{[x] : 0 <= x < {count}}}"},
        uf_ranges={uf: f"{{[o] : 0 - {bsym} < o < {dsym}}}"},
        monotonic=[MonotonicQuantifier(uf, strict=True)],
        ordering=None,
        coord_ufs={d: f"{DIM_WORD[d]}_of" for d in comp.canonical_dims},
        shape_syms=comp.shape_syms,
        position_var="d",
        description=comp.description,
    )


# ----------------------------------------------------------------------
# padded family (ELL)


def _padded_uf(comp: Composition) -> str:
    level = comp.levels[1]
    return level.uf or f"ell{DIM_WORD[level.dim]}"


def _emit_padded(comp: Composition) -> FormatDescriptor:
    base, level = comp.levels[0].dim, comp.levels[1]
    dim, width = level.dim, level.width
    bb, cc = _loop_var(base), _loop_var(dim)
    bsym, dsym = DIM_SHAPE_SYM[base], DIM_SHAPE_SYM[dim]
    uf = _padded_uf(comp)
    sparse = (
        f"{{[{bb}, w, {cc}] -> [i, j] : {base} = {bb}"
        f" && {dim} = {uf}({width} * {bb} + w)"
        f" && {cc} = {dim} && 0 <= {bb} < {bsym} && 0 <= w < {width}"
        f" && 0 <= {dim} < {dsym}}}"
    )
    data = f"{{[{bb}, w, {cc}] -> [kd] : kd = {width} * {bb} + w}}"
    return FormatDescriptor(
        name=comp.name,
        sparse_to_dense=sparse,
        data_access=data,
        uf_domains={uf: f"{{[x] : 0 <= x < {bsym} * {width}}}"},
        uf_ranges={uf: f"{{[{dim}] : 0 - 1 <= {dim} < {dsym}}}"},
        ordering=lexicographic([base, dim]),
        coord_ufs={base: f"{DIM_WORD[base]}_of", dim: uf},
        shape_syms=comp.shape_syms,
        position_var="w",
        description=comp.description,
    )


# ----------------------------------------------------------------------
# blocked family (BCSR / BCSC)


def _blocked_names(comp: Composition) -> dict:
    d0, d1 = comp.levels[0].dim, comp.levels[1].dim
    level = comp.levels[1]
    return {
        "b": comp.levels[0].block,
        "d0": d0,
        "d1": d1,
        "bloop": f"b{d0}",
        "pos": "bk",
        "ptr": level.ptr or f"b{DIM_WORD[d0]}ptr",
        "idx": level.idx or f"b{DIM_WORD[d1]}",
        "count": level.count or "NB",
        "rvar": {"i": "ri", "j": "ci"},
    }


def _emit_blocked(comp: Composition) -> FormatDescriptor:
    nm = _blocked_names(comp)
    b, d0, d1 = nm["b"], nm["d0"], nm["d1"]
    bloop, pos, rvar = nm["bloop"], nm["pos"], nm["rvar"]
    d0sym, d1sym = DIM_SHAPE_SYM[d0], DIM_SHAPE_SYM[d1]
    dims = comp.canonical_dims
    tuple_vars = [bloop, pos] + [rvar[d] for d in dims]
    defs = []
    for d in dims:
        origin = bloop if d == d0 else f"{nm['idx']}({pos})"
        defs.append(f"{d} = {b} * {origin} + {rvar[d]}")
    constraints = (
        defs
        + [f"0 <= {rvar[d]} < {b}" for d in dims]
        + [
            f"{nm['ptr']}({bloop}) <= {pos} < {nm['ptr']}({bloop} + 1)",
            f"0 <= {bloop} <= ({d0sym} - 1) // {b}",
        ]
        + [_bounds(d, DIM_SHAPE_SYM[d]) for d in dims]
    )
    sparse = (
        f"{{[{', '.join(tuple_vars)}] -> [{', '.join(dims)}] : "
        f"{' && '.join(constraints)}}}"
    )
    data = (
        f"{{[{', '.join(tuple_vars)}] -> [kd] : "
        f"kd = {b * b} * {pos} + {b} * {rvar['i']} + {rvar['j']}}}"
    )
    ordering = OrderingQuantifier(
        list(dims),
        [FloorDiv(Var(d0), b).as_expr(), FloorDiv(Var(d1), b).as_expr()],
        collapse_ties=True,
    )
    return FormatDescriptor(
        name=comp.name,
        sparse_to_dense=sparse,
        data_access=data,
        uf_domains={
            nm["ptr"]: f"{{[x] : 0 <= x <= ({d0sym} - 1) // {b} + 1}}",
            nm["idx"]: f"{{[x] : 0 <= x < {nm['count']}}}",
        },
        uf_ranges={
            nm["ptr"]: f"{{[n] : 0 <= n <= {nm['count']}}}",
            nm["idx"]: f"{{[c] : 0 <= c <= ({d1sym} - 1) // {b}}}",
        },
        monotonic=[MonotonicQuantifier(nm["ptr"])],
        ordering=ordering,
        coord_ufs={d: f"b{DIM_WORD[d]}_of" for d in dims},
        shape_syms=comp.shape_syms,
        position_var=pos,
        description=comp.description,
    )


# ----------------------------------------------------------------------
# Role names: which UF or symbol each level role binds


@functools.lru_cache(maxsize=256)
def level_names(comp: Composition) -> tuple[dict, ...]:
    """Per level, the UF or symbol name each structural role binds.

    Roles are ``"coord"`` (singleton), ``"ptr"`` / ``"idx"`` (compressed,
    blocked, and the offset and padded index arrays), ``"count"`` (the
    symbol counting a level's positions) and ``"width"`` (a padded
    level's width symbol); dense levels bind nothing.  Memoized per
    composition; callers read the entries and never change them.
    """
    if comp.family == "coord":
        ufs = _coord_ufs_of(comp)
        return tuple({"coord": ufs[level.dim]} for level in comp.levels)
    if comp.family == "compressed":
        return tuple(
            {role: entry[role] for role in ("ptr", "idx", "count")
             if role in entry}
            for entry in _compressed_names(comp)
        )
    level = comp.levels[1]
    if comp.family == "offset":
        return ({}, {"idx": level.uf, "count": level.count})
    if comp.family == "padded":
        return ({}, {"idx": _padded_uf(comp), "width": level.width})
    nm = _blocked_names(comp)
    return ({}, {"ptr": nm["ptr"], "idx": nm["idx"], "count": nm["count"]})


# ----------------------------------------------------------------------
# Dense semantics: coordinate cells


class Cells(NamedTuple):
    """Stored entries as columns: the shape, one int64 coordinate column
    per canonical dimension, and the float64 values, entry by entry."""

    shape: tuple[int, ...]
    coords: tuple
    values: np.ndarray

    @classmethod
    def from_dense(cls, dense, rank: int, name: str = "dense") -> "Cells":
        """The nonzero entries of a dense image, in row-major order."""
        image = np.array(dense, dtype=np.float64)
        if image.ndim != rank:
            if image.size or image.ndim > rank:
                raise LevelError(
                    f"{name}: dense rank {image.ndim} != format rank {rank}"
                )
            image = image.reshape(image.shape + (0,) * (rank - image.ndim))
        flat = np.flatnonzero(image)
        return cls(
            tuple(int(n) for n in image.shape),
            tuple(c.astype(np.int64, copy=False)
                  for c in np.unravel_index(flat, image.shape)),
            image.ravel()[flat],
        )

    def tuples(self):
        """``(i, j[, k], value)`` per entry, as Python scalars."""
        return zip(*(c.tolist() for c in self.coords), self.values.tolist())

    def to_dict(self) -> dict:
        """Coordinate -> value; a repeated coordinate keeps its last value."""
        # A memoryview iterates Python scalars without a list copy.
        return dict(zip(zip(*map(memoryview, self.coords)),
                        memoryview(self.values)))

    def to_dense(self) -> list:
        """The dense image; a repeated coordinate keeps its last value.

        Entries are grouped by their leading coordinate (a stable sort,
        skipped when it already leads in order) and written row by row.
        """
        dense = _zeros(self.shape)
        lead, values = self.coords[0], self.values
        rest = self.coords[1:]
        if lead.size > 1 and (lead[1:] < lead[:-1]).any():
            order = np.argsort(lead, kind="stable")
            lead, values = lead[order], values[order]
            rest = [c[order] for c in rest]
        bounds = np.searchsorted(lead, np.arange(self.shape[0] + 1)).tolist()
        vals = values.tolist()
        if len(rest) == 1:
            cols = rest[0].tolist()
            for x, row in enumerate(dense):
                lo, hi = bounds[x], bounds[x + 1]
                for j, value in zip(cols[lo:hi], vals[lo:hi]):
                    row[j] = value
        else:
            ys, zs = (c.tolist() for c in rest)
            for x, plane in enumerate(dense):
                for n in range(bounds[x], bounds[x + 1]):
                    plane[ys[n]][zs[n]] = vals[n]
        return dense


def _zeros(shape: Sequence[int]) -> list:
    if len(shape) == 2:
        return [[0.0] * shape[1] for _ in range(shape[0])]
    return [_zeros(shape[1:]) for _ in range(shape[0])]


def _index(values) -> np.ndarray:
    """An index array (typed, numpy or list) as int64, typed ones in place."""
    return as_ndarray(values, INDEX)


def _value(values) -> np.ndarray:
    return as_ndarray(values, VALUE)


def _shape_env(comp: Composition, shape: Sequence[int]) -> dict:
    if len(shape) != comp.rank:
        raise LevelError(
            f"{comp.name}: dense rank {len(shape)} != format rank "
            f"{comp.rank}"
        )
    return dict(zip(comp.shape_syms, shape))


def _env_shape(comp: Composition, env: Mapping) -> tuple[int, ...]:
    try:
        return tuple(int(env[s]) for s in comp.shape_syms)
    except KeyError as err:
        raise LevelError(
            f"{comp.name}: environment lacks shape symbol {err}"
        ) from None


def _dim_index(comp: Composition, dim: str) -> int:
    return comp.canonical_dims.index(dim)


def _starts(*keys: np.ndarray) -> np.ndarray:
    """Whether each entry of sorted key columns starts a new key."""
    n = keys[0].size
    new = np.ones(n, dtype=bool)
    if n > 1:
        new[1:] = keys[0][1:] != keys[0][:-1]
        for key in keys[1:]:
            new[1:] |= key[1:] != key[:-1]
    return new


def _lex_order(*keys: np.ndarray):
    """The stable lexicographic order of key columns (the first key
    primary), as an index for ``column[order]``: no sort when the keys
    already are in order, as cells read from a dense image often are."""
    from .invariants import _first_descent

    if _first_descent(keys) is None:
        return slice(None)
    return np.lexsort(keys[::-1])


def _pointers(parents: np.ndarray, segments: int) -> np.ndarray:
    """The pointer array of positions whose (sorted) parents are given."""
    counts = np.bincount(parents, minlength=segments)
    return np.concatenate(([0], np.cumsum(counts))).astype(np.int64, copy=False)


# ----------------------------------------------------------------------
# Dense semantics: assemble (cells -> arrays), one whole-array pass each


def _assemble_coord(comp: Composition, cells: Cells, symbols) -> dict:
    cols = [cells.coords[_dim_index(comp, d)] for d in comp.dims]
    resolved = comp._resolved_ordering()
    coords, values = cells.coords, cells.values
    if resolved is not None:
        if resolved == "lex":
            order = _lex_order(*cols)
        else:
            order = np.argsort(morton_vec(*cols), kind="stable")
        coords = [c[order] for c in coords]
        values = values[order]
    return comp.env_from_arrays(
        cells.shape, values,
        [{"coord": coords[_dim_index(comp, level.dim)]}
         for level in comp.levels],
    )


def _assemble_compressed(comp: Composition, cells: Cells, symbols) -> dict:
    axes = [_dim_index(comp, level.dim) for level in comp.levels]
    keys = [cells.coords[axis] for axis in axes]
    order = _lex_order(*keys)
    keys = [key[order] for key in keys]
    nnz = keys[0].size
    # ``parent``: each entry's position at the previous level (one
    # virtual root before the first), ``segments`` that level's size.
    parent = np.zeros(nnz, dtype=np.int64)
    segments = 1
    level_arrays: list = []
    last = comp.rank - 1
    for index, level in enumerate(comp.levels):
        key = keys[index]
        if level.kind == "dense":
            size = cells.shape[axes[index]]
            parent = parent * size + key
            segments *= size
            level_arrays.append(None)
            continue
        # A compressed level stores each distinct prefix once; the last
        # level stores every entry, duplicates included.
        new = np.ones(nnz, dtype=bool) if index == last else \
            _starts(parent, key)
        first = np.flatnonzero(new)
        arrays = {"idx": key[first]}
        if index > 0:
            arrays["ptr"] = _pointers(parent[first], segments)
        level_arrays.append(arrays)
        parent = np.cumsum(new) - 1
        segments = first.size
    return comp.env_from_arrays(
        cells.shape, cells.values[order], level_arrays
    )


def _assemble_offset(comp: Composition, cells: Cells, symbols) -> dict:
    base = cells.coords[_dim_index(comp, comp.levels[0].dim)]
    diagonal = cells.coords[_dim_index(comp, comp.levels[1].dim)] - base
    offsets = np.unique(diagonal)
    nd = offsets.size
    data = np.zeros(cells.shape[_dim_index(comp, comp.levels[0].dim)] * nd)
    data[nd * base + np.searchsorted(offsets, diagonal)] = cells.values
    return comp.env_from_arrays(cells.shape, data, [None, {"idx": offsets}])


def _assemble_padded(comp: Composition, cells: Cells, symbols) -> dict:
    level = comp.levels[1]
    base_axis = _dim_index(comp, comp.levels[0].dim)
    base = cells.coords[base_axis]
    dim = cells.coords[_dim_index(comp, level.dim)]
    order = _lex_order(base, dim)
    base, dim = base[order], dim[order]
    nbase = cells.shape[base_axis]
    counts = np.bincount(base, minlength=nbase)
    natural = int(counts.max(initial=0))
    width = symbols.get(level.width)
    width = natural if width is None else int(width)
    if width < natural:
        raise ValueError(f"width {width} below the natural width {natural}")
    starts = np.cumsum(counts) - counts
    slot = base * width + np.arange(base.size) - starts[base]
    cols = np.full(nbase * width, PAD, dtype=np.int64)
    vals = np.zeros(nbase * width)
    cols[slot] = dim
    vals[slot] = cells.values[order]
    return comp.env_from_arrays(
        cells.shape, vals, [None, {"idx": cols, "width": width}]
    )


def _assemble_blocked(comp: Composition, cells: Cells, symbols) -> dict:
    nm = _blocked_names(comp)
    b = nm["b"]
    a0 = _dim_index(comp, nm["d0"])
    a1 = _dim_index(comp, nm["d1"])
    block0 = cells.coords[a0] // b
    block1 = cells.coords[a1] // b
    order = _lex_order(block0, block1)
    block0, block1 = block0[order], block1[order]
    new = _starts(block0, block1)
    first = np.flatnonzero(new)
    i, j = (c[order] for c in cells.coords)
    # Within-block layout is canonical row-major (kd = b*b*bk + b*ri + ci)
    # whatever the block order.
    data = np.zeros(first.size * b * b)
    data[(np.cumsum(new) - 1) * (b * b) + (i % b) * b + j % b] = \
        cells.values[order]
    ptr = _pointers(block0[first], -(-cells.shape[a0] // b))
    return comp.env_from_arrays(
        cells.shape, data, [None, {"ptr": ptr, "idx": block1[first]}]
    )


_ASSEMBLERS = {
    "coord": _assemble_coord,
    "compressed": _assemble_compressed,
    "offset": _assemble_offset,
    "padded": _assemble_padded,
    "blocked": _assemble_blocked,
}


# ----------------------------------------------------------------------
# Dense semantics: read the stored entries back (arrays -> cells)


def _read_coord(comp: Composition, env: Mapping, shape):
    ufs = _coord_ufs_of(comp)
    coords = [_index(env[ufs[d]]) for d in comp.canonical_dims]
    return coords, _value(env["Asrc"])


def _read_compressed(comp: Composition, env: Mapping, shape):
    names = _compressed_names(comp)
    # Walk the levels, keeping the coordinate column of every level so
    # far, indexed by position at the current level.
    coords: list = [None] * comp.rank
    positions = 1
    for index, level in enumerate(comp.levels):
        axis = _dim_index(comp, level.dim)
        if level.kind == "dense":
            size = shape[axis]
            coords = [None if c is None else np.repeat(c, size)
                      for c in coords]
            coords[axis] = np.tile(np.arange(size, dtype=np.int64),
                                   positions)
            positions *= size
            continue
        idx = _index(env[names[index]["idx"]])
        if "ptr" in names[index]:
            parent = np.repeat(
                np.arange(positions), np.diff(_index(env[names[index]["ptr"]]))
            )
            coords = [None if c is None else c[parent] for c in coords]
        coords[axis] = idx
        positions = idx.size
    return coords, _value(env["Asrc"])


def _read_offset(comp: Composition, env: Mapping, shape):
    level = comp.levels[1]
    base_axis = _dim_index(comp, comp.levels[0].dim)
    dim_axis = _dim_index(comp, level.dim)
    offsets = _index(env[level.uf])
    data = _value(env["Asrc"])
    base = np.repeat(np.arange(shape[base_axis], dtype=np.int64),
                     offsets.size)
    dim = base + np.tile(offsets, shape[base_axis])
    keep = (dim >= 0) & (dim < shape[dim_axis]) & (data != 0.0)
    coords = [None, None]
    coords[base_axis], coords[dim_axis] = base[keep], dim[keep]
    return coords, data[keep]


def _read_padded(comp: Composition, env: Mapping, shape):
    level = comp.levels[1]
    base_axis = _dim_index(comp, comp.levels[0].dim)
    cols = _index(env[_padded_uf(comp)])
    base = np.repeat(np.arange(shape[base_axis], dtype=np.int64),
                     int(env[level.width]))
    keep = cols != PAD
    coords = [None, None]
    coords[base_axis] = base[keep]
    coords[_dim_index(comp, level.dim)] = cols[keep]
    return coords, _value(env["Asrc"])[keep]


def _read_blocked(comp: Composition, env: Mapping, shape):
    nm = _blocked_names(comp)
    b = nm["b"]
    ptr = _index(env[nm["ptr"]])
    idx = _index(env[nm["idx"]])
    data = _value(env["Asrc"])
    block = np.arange(data.size, dtype=np.int64) // (b * b)
    within = np.arange(data.size, dtype=np.int64) % (b * b)
    origin = [None, None]
    origin[_dim_index(comp, nm["d0"])] = np.repeat(
        np.arange(ptr.size - 1, dtype=np.int64), np.diff(ptr)
    )[block] * b
    origin[_dim_index(comp, nm["d1"])] = idx[block] * b
    i = origin[0] + within // b
    j = origin[1] + within % b
    keep = (i < shape[0]) & (j < shape[1]) & (data != 0.0)
    return [i[keep], j[keep]], data[keep]


_READERS = {
    "coord": _read_coord,
    "compressed": _read_compressed,
    "offset": _read_offset,
    "padded": _read_padded,
    "blocked": _read_blocked,
}


# ----------------------------------------------------------------------
# Spec parsing (the CLI's ``repro formats compose SPEC`` syntax)


def parse_spec(
    text: str, *, name: str = "COMPOSED", description: str = ""
) -> Composition:
    """Parse ``"dense(i), compressed(j) [@ ordering]"`` into a composition.

    Each term is ``kind(dim[, key=value | flag]...)``; kinds are
    ``dense``, ``compressed``, ``singleton``, ``offset`` and ``padded``.
    An optional ``@ none|lex|morton`` suffix selects the ordering.
    """
    body, ordering = text, "auto"
    if "@" in text:
        body, _, tail = text.partition("@")
        ordering = tail.strip()
    terms = []
    depth = 0
    current = ""
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            terms.append(current)
            current = ""
        else:
            current += ch
    if current.strip():
        terms.append(current)
    levels = []
    for term in terms:
        term = term.strip()
        if not term.endswith(")") or "(" not in term:
            raise LevelError(
                f"malformed level term {term!r}; expected kind(dim, ...)"
            )
        kind, _, inner = term[:-1].partition("(")
        kind = kind.strip().lower()
        if kind not in _LEVEL_KINDS:
            raise LevelError(
                f"unknown level kind {kind!r}; expected one of "
                f"{sorted(_LEVEL_KINDS)}"
            )
        parts = [p.strip() for p in inner.split(",") if p.strip()]
        if not parts:
            raise LevelError(f"level term {term!r} names no dimension")
        kwargs: dict = {}
        for part in parts[1:]:
            if "=" in part:
                key, _, value = part.partition("=")
                key, value = key.strip(), value.strip()
                if key == "block":
                    try:
                        kwargs[key] = int(value)
                    except ValueError:
                        raise LevelError(
                            f"block size must be an integer, got {value!r}"
                        ) from None
                elif key == "strict":
                    kwargs[key] = value.lower() in ("1", "true", "yes")
                else:
                    kwargs[key] = value
            else:
                kwargs[part] = True
        try:
            levels.append(_LEVEL_KINDS[kind](parts[0], **kwargs))
        except TypeError as err:
            raise LevelError(f"bad options for {term!r}: {err}") from err
    return Composition(
        name=name,
        levels=tuple(levels),
        ordering=ordering,
        description=description,
    )


# ----------------------------------------------------------------------
# Random compositions (the fuzzer's format generator)


def random_composition(rng: random.Random, *, name: str) -> Composition:
    """A random valid composition, uniform over the supported families.

    The sampled space is exactly what the emitters above support:
    dimension permutations, rank 2-3 coordinate and compressed-chain
    layouts, both offset/padded orientations, and blocked layouts with
    block sizes 2-4.  Every composition it returns must synthesize and
    convert cleanly — a crash or discrepancy downstream is a finding,
    not a generator bug.
    """
    family = rng.choice(
        ("coord", "coord", "compressed", "compressed", "offset",
         "padded", "blocked")
    )
    if family == "coord":
        rank = rng.choice((2, 3))
        dims = list(CANONICAL_DIMS[:rank])
        rng.shuffle(dims)
        ordering = rng.choice(("none", "lex", "morton"))
        return Composition(
            name=name,
            levels=tuple(Singleton(d) for d in dims),
            ordering=ordering,
            description="random coordinate composition",
        )
    if family == "compressed":
        rank = rng.choice((2, 3))
        dims = list(CANONICAL_DIMS[:rank])
        rng.shuffle(dims)
        ncomp = rng.randint(1, rank)
        ndense = rank - ncomp
        levels: list[Level] = [Dense(d) for d in dims[:ndense]]
        levels += [Compressed(d) for d in dims[ndense:]]
        if ndense == 0:
            levels[0] = Compressed(dims[0], strict=True)
        return Composition(
            name=name,
            levels=tuple(levels),
            description="random compressed composition",
        )
    if family == "offset":
        base, dim = rng.choice((("i", "j"), ("j", "i")))
        return Composition(
            name=name,
            levels=(Dense(base), Offset(dim)),
            description="random offset composition",
        )
    if family == "padded":
        base, dim = rng.choice((("i", "j"), ("j", "i")))
        return Composition(
            name=name,
            levels=(Dense(base), Padded(dim)),
            description="random padded composition",
        )
    b = rng.choice((2, 3, 4))
    d0, d1 = rng.choice((("i", "j"), ("j", "i")))
    return Composition(
        name=name,
        levels=(Dense(d0, block=b), Compressed(d1, block=b)),
        description="random blocked composition",
    )


__all__ = [
    "CANONICAL_DIMS",
    "Composition",
    "Compressed",
    "Dense",
    "Level",
    "LevelError",
    "Offset",
    "PAD",
    "Padded",
    "Singleton",
    "compose",
    "parse_spec",
    "random_composition",
]
