"""The format library: every descriptor from Table 1, plus extensions.

Formats included (paper Table 1): COO, SCOO (lexicographically sorted COO —
the source format Figure 2 assumes), MCOO (Morton-ordered COO), COO3D,
SCOO3D, MCOO3 (Morton-ordered 3-D COO), CSR, CSC, DIA.  Expressiveness
extensions usable as conversion *sources* (their size symbols are
distinct-value or maximum counts the constraint cases cannot derive, so
they cannot be destinations): BCSR (Figure 1's blocked format), CSF
(compressed sparse fiber), ELL (padded ELLPACK), and DCSR (doubly
compressed sparse row).  BCSC is BCSR's column-major mirror and, like
BCSR, works in both directions.

Every descriptor is *derived* from a level composition
(:mod:`repro.formats.levels`): a format here is one line naming its
per-dimension level types, and the relations, UF domains/ranges and
quantifiers fall out of the composition emitters.  The historical
hand-written forms survive as test oracles
(``tests/formats/test_level_parity.py``) pinning the derived descriptors
structurally equal to them.

The library is registry-driven: :func:`register_format` adds new named
compositions at runtime and :func:`register_parameterized` adds families
resolvable with a trailing block size (``"BCSR4"``, ``"BCSC3"``), so
level-composed and parameterized formats register uniformly.
"""

from __future__ import annotations

from typing import Callable

from .descriptor import FormatDescriptor
from .levels import Compressed, Dense, Offset, Padded, Singleton, compose


def coo(*, sorted_lex: bool = False, name: str | None = None) -> FormatDescriptor:
    """2-D coordinate format; ``sorted_lex=True`` gives SCOO."""
    return compose(
        name or ("SCOO" if sorted_lex else "COO"),
        [Singleton("i"), Singleton("j")],
        ordering="lex" if sorted_lex else "none",
        description=(
            "Coordinate format"
            + (", sorted lexicographically row-first" if sorted_lex else "")
        ),
    )


def scoo() -> FormatDescriptor:
    """Sorted COO: row-major lexicographic order (Figure 2's source)."""
    return coo(sorted_lex=True)


def mcoo() -> FormatDescriptor:
    """Morton-ordered COO (the paper's running example destination)."""
    return compose(
        "MCOO",
        [Singleton("i"), Singleton("j")],
        ordering="morton",
        description="COO sorted by the Morton (Z-order) curve",
    )


def coo3d(
    *, sorted_lex: bool = False, name: str | None = None
) -> FormatDescriptor:
    """3-D coordinate format (COO3D / SCOO3D)."""
    return compose(
        name or ("SCOO3D" if sorted_lex else "COO3D"),
        [Singleton("i"), Singleton("j"), Singleton("k")],
        ordering="lex" if sorted_lex else "none",
        description="3-D coordinate format",
    )


def mcoo3() -> FormatDescriptor:
    """Morton-ordered 3-D COO (the Table 4 destination)."""
    return compose(
        "MCOO3",
        [Singleton("i"), Singleton("j"), Singleton("k")],
        ordering="morton",
        description="3-D COO sorted by the Morton (Z-order) curve",
    )


def csr() -> FormatDescriptor:
    """Compressed sparse row."""
    return compose(
        "CSR",
        [Dense("i"), Compressed("j")],
        description="Compressed sparse row",
    )


def csc() -> FormatDescriptor:
    """Compressed sparse column."""
    return compose(
        "CSC",
        [Dense("j"), Compressed("i")],
        description="Compressed sparse column",
    )


def dia() -> FormatDescriptor:
    """Diagonal format with the paper's ``kd = ND * ii + d`` data layout."""
    return compose(
        "DIA",
        [Dense("i"), Offset("j")],
        description="Diagonal storage, strictly increasing offsets",
    )


def bcsr(block: int = 2) -> FormatDescriptor:
    """Blocked CSR with a concrete block size.

    The block size must be a literal so the map stays in the affine-with-UF
    fragment (``i = block * bi + ri``).  Synthesizing *into* BCSR exercises
    the Case 6 extension (affine block decomposition): the composed
    constraints ``i = B*bi + ri`` with ``0 <= ri < B`` resolve to
    ``bi = i // B`` and ``ri = i % B``, the block ordering quantifier
    (block row-major, ties within a block collapsed onto one position)
    drives a unique-rank permutation, and ``NB`` — the number of populated
    blocks — is its distinct count.
    """
    if block < 1:
        raise ValueError("block size must be positive")
    return compose(
        f"BCSR{block}",
        [Dense("i", block=block), Compressed("j", block=block)],
        description=f"Blocked CSR, {block}x{block} dense blocks",
    )


def bcsc(block: int = 2) -> FormatDescriptor:
    """Blocked CSC: BCSR's column-major mirror.

    Block columns are dense, populated blocks within a block column are
    compressed (``bcolptr`` / ``brow``); the within-block data layout
    stays canonical row-major so ``kd = B*B*bk + B*ri + ci`` as in BCSR.
    Works in both conversion directions via the same Case 6 affine block
    decomposition.
    """
    if block < 1:
        raise ValueError("block size must be positive")
    return compose(
        f"BCSC{block}",
        [Dense("j", block=block), Compressed("i", block=block)],
        description=f"Blocked CSC, {block}x{block} dense blocks",
    )


def csf() -> FormatDescriptor:
    """Compressed sparse fiber (SPLATT-style 3-D compression).

    A three-level compression: roots compress distinct ``i`` values, fibers
    compress distinct ``(i, j)`` pairs.  Usable as a conversion *source*
    and for generated kernels; synthesizing *into* CSF would require
    deriving the distinct-value counts ``NROOT`` / ``NFIB``, which the
    paper's constraint cases cannot express.
    """
    return compose(
        "CSF",
        [
            Compressed("i", idx="rootidx", count="NROOT", strict=True),
            Compressed("j", ptr="fptr", idx="fibidx", count="NFIB"),
            Compressed("k", ptr="kptr", idx="kidx"),
        ],
        description="Compressed sparse fiber, three-level compression",
    )


def dcsr() -> FormatDescriptor:
    """Doubly compressed sparse row (source-capable extension).

    CSR with the row dimension compressed as well: only rows holding a
    nonzero appear, as a strictly increasing ``rowidx`` array of length
    ``NDR``.  Destination synthesis would need ``NDR`` — the distinct
    row count — which the constraint cases cannot derive, so DCSR is
    source-only, like CSF (its 2-D analogue).
    """
    return compose(
        "DCSR",
        [
            Compressed("i", idx="rowidx", count="NDR", strict=True),
            Compressed("j", ptr="dptr", idx="dcol"),
        ],
        description="Doubly compressed sparse row, empty rows elided",
    )


def ell() -> FormatDescriptor:
    """ELLPACK with column padding (source-capable extension).

    Each row stores exactly ``W`` slots; padded slots carry column ``-1``.
    The sparse-to-dense map is made total by the ``0 <= j`` guard, which
    excludes padding — the guard is *not* implied by ``ellcol``'s declared
    range (which includes -1), so synthesis keeps it in generated loops.
    Destination synthesis would need ``W`` = the maximum row length, a
    count the constraint cases cannot derive, so ELL is source-only.
    """
    return compose(
        "ELL",
        [Dense("i"), Padded("j")],
        description="ELLPACK, fixed width with -1 column padding",
    )


#: Registered factories by canonical name, in presentation order
#: (:func:`all_formats` and the unknown-format error message follow it).
_FACTORIES: dict[str, Callable[[], FormatDescriptor]] = {}

#: Parameterized families: ``{"BCSR": bcsr}`` makes ``"BCSR4"`` resolve
#: to ``bcsr(block=4)``.  ``"<FAMILY>2"`` aliases the family's canonical
#: entry so block-2 descriptors stay the shared default instances.
_PARAMETERIZED: dict[str, Callable[[int], FormatDescriptor]] = {}

#: Built descriptors by name.  Descriptors are immutable in practice and
#: building one re-parses every relation in its definition, so the library
#: hands out one shared instance per name — which also lets identity-keyed
#: caches downstream (format fingerprints, the synthesis memo) hit.
_BUILT: dict[str, FormatDescriptor] = {}


def register_format(
    name: str, factory: Callable[[], FormatDescriptor]
) -> None:
    """Register a named format factory (idempotent for the same factory).

    ``factory`` is called lazily on first :func:`get_format` lookup and
    its result memoized; re-registering an existing name replaces the
    factory and drops the memoized instance.
    """
    key = name.upper()
    _FACTORIES[key] = factory
    _BUILT.pop(key, None)


def register_parameterized(
    family: str, factory: Callable[[int], FormatDescriptor]
) -> None:
    """Register a blocked family resolvable as ``f"{family}{block}"``."""
    _PARAMETERIZED[family.upper()] = factory


def parameterized_families() -> tuple[str, ...]:
    """The registered blocked families (``"BCSR"``, ``"BCSC"``, ...).

    The auto-tuner enumerates block-size candidates for every
    dest-capable blocked family listed here, so registering a
    parameterized composed family makes it tunable with no tuner
    changes.
    """
    return tuple(_PARAMETERIZED)


class UnknownFormatError(KeyError):
    """:func:`get_format` was asked for a name the library does not hold."""

    def __str__(self) -> str:
        return self.args[0]


def get_format(name: str) -> FormatDescriptor:
    """Look up a format descriptor by name (case-insensitive, memoized).

    Parameterized blocked names resolve too: ``"BCSR4"`` builds (and
    memoizes) ``bcsr(block=4)``, so the planner and auto-tuner can refer
    to tuned parameterizations by plain string.  An unknown name raises
    :class:`UnknownFormatError`.
    """
    key = name.upper()
    fmt = _BUILT.get(key)
    if fmt is not None:
        return fmt
    for family in _PARAMETERIZED:
        if key == f"{family}2":
            key = family  # the library's default blocked descriptor
            break
    fmt = _BUILT.get(key)
    if fmt is None:
        factory = _FACTORIES.get(key)
        if factory is None:
            for family, param_factory in _PARAMETERIZED.items():
                if key.startswith(family) and key[len(family):].isdigit():
                    block = int(key[len(family):])
                    def factory(block=block, make=param_factory):
                        return make(block)
                    break
        if factory is None:
            raise UnknownFormatError(
                f"unknown format {name!r}; available: {sorted(_FACTORIES)}"
            )
        import repro.obs as obs

        with obs.span("parse.format", category="parse", format=key):
            fmt = _BUILT[key] = factory()
    return fmt


def format_names() -> tuple[str, ...]:
    """The registered format names, in presentation order."""
    return tuple(_FACTORIES)


def all_formats() -> list[FormatDescriptor]:
    """Every descriptor in the library (used by the Table 1 regeneration)."""
    return [get_format(name) for name in _FACTORIES]


for _name, _factory in (
    ("COO", coo),
    ("SCOO", scoo),
    ("MCOO", mcoo),
    ("COO3D", coo3d),
    ("SCOO3D", lambda: coo3d(sorted_lex=True)),
    ("MCOO3", mcoo3),
    ("CSR", csr),
    ("CSC", csc),
    ("DIA", dia),
    ("BCSR", bcsr),
    ("CSF", csf),
    ("ELL", ell),
    ("DCSR", dcsr),
    ("BCSC", bcsc),
):
    register_format(_name, _factory)
register_parameterized("BCSR", bcsr)
register_parameterized("BCSC", bcsc)
del _name, _factory
