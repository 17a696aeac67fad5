"""One base class for every container with a level composition.

A container class states its storage once, as a :class:`Layout`: which
attribute holds the shape, which attribute fills each role of each level
of its format's composition, and which holds the values.  For CSR::

    class CSRMatrix(LevelContainer):
        format_name = "CSR"
        layout = Layout(
            shape=("nrows", "ncols"),
            levels=(None, {"ptr": "rowptr", "idx": "col"}),
            values="val",
        )

:class:`LevelContainer` derives the rest from that declaration and the
composition :func:`repro.formats.get_format` returns for ``format_name``:
the constructor (shape, then the level attributes in declaration order,
then the values), typed storage (:mod:`.storage`), ``nnz``, ``repr``,
``check()``, and the round trips through dense images, coordinate maps
and other containers.  The bind to a UF environment and the pack from
inspector outputs are derived from the same declaration in
:mod:`repro.formats.bindings`.

Level roles are ``coord`` (a singleton level's coordinates), ``ptr`` and
``idx`` (a compressed, offset, padded or blocked level's arrays) and two
integer parameters: ``block`` (a blocked level's block size; a size
other than the library default binds the parameterized format, e.g.
``BCSR4``) and ``width`` (a padded level's width).

The composition is looked up lazily: this package never imports
:mod:`repro.formats` at module level.
"""

from __future__ import annotations

import operator
from typing import Mapping

from repro.errors import DenseMismatchError

from .storage import index_array, value_array

#: Level roles whose attribute holds an int parameter, not an index array.
PARAMETERS = ("block", "width")

#: Every declared container class by the format names it stores:
#: ``format_name``, plus the sorted form a coordinate layout declares.
CONTAINERS: dict[str, type] = {}


def _bindings():
    """:mod:`repro.formats.bindings`, imported on first use (it imports
    this package)."""
    from repro.formats import bindings

    return bindings


class Layout:
    """Which attribute of a container fills which role of its format.

    ``shape`` names one int attribute per dimension, or one attribute
    holding the shape tuple (``"dims"``).  ``levels`` aligns with the
    composition's levels: ``None`` for a level with nothing stored, else
    ``{role: attribute}``.  ``values`` names the value array.
    ``summary`` is the ``repr`` text after the shape, formatted with the
    container as ``c``.  ``sorted_format`` names the lexicographically
    sorted form of an unordered coordinate format (``SCOO`` for ``COO``).
    """

    def __init__(self, shape, levels, values, *, summary="nnz={c.nnz}",
                 sorted_format=None):
        self.shape = shape
        self.levels = tuple(dict(level or {}) for level in levels)
        self.values = values
        self.summary = summary
        self.sorted_format = sorted_format
        self.rank = len(self.levels)
        fields = (
            [(shape, "dims")] if isinstance(shape, str)
            else [(name, "int") for name in shape]
        )
        for level in self.levels:
            fields += [
                (attr, "int" if role in PARAMETERS else "index")
                for role, attr in level.items()
            ]
        #: Constructor fields in order, as ``(attribute, kind)``.
        self.fields = tuple(fields + [(values, "value")])
        #: ``{attribute: role}`` of the int parameters, in order.
        self.params = {
            attr: role for level in self.levels
            for role, attr in level.items() if role in PARAMETERS
        }
        #: ``container -> shape tuple``.
        self.shape_of = operator.attrgetter(
            *((shape,) if isinstance(shape, str) else shape)
        )

    def constructor(self):
        """The ``__init__`` the fields imply, one typed assignment each.

        Written out as source, as :mod:`dataclasses` does, so a
        container costs what a hand-written constructor did and keeps
        its positional signature.
        """
        convert = {
            "int": "int({0})",
            "dims": "(" + "".join(
                f"int({{0}}[{x}]), " for x in range(self.rank)) + ")",
            "index": "index_array({0}, {0!r})",
            "value": "value_array({0}, {0!r})",
        }
        names = [name for name, _ in self.fields]
        body = "".join(
            f"    self.{name} = {convert[kind].format(name)}\n"
            for name, kind in self.fields
        )
        namespace = {"index_array": index_array, "value_array": value_array}
        exec(f"def __init__(self, {', '.join(names)}):\n{body}", namespace)
        return namespace["__init__"]


class LevelContainer:
    """A sparse container whose layout is declared, not written.

    Subclasses set ``format_name`` and ``layout``; a subclass that sets
    neither stores and binds exactly as its base does.
    """

    format_name = ""
    layout: Layout

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        if "format_name" in own:
            CONTAINERS[cls.format_name] = cls
        if "layout" in own:
            if "__init__" not in own:
                cls.__init__ = cls.layout.constructor()
                cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
            if cls.layout.sorted_format:
                CONTAINERS[cls.layout.sorted_format] = cls

    @property
    def nnz(self) -> int:
        """Stored values; padded layouts (DIA, ELL, blocked) count their
        padding slots."""
        return len(getattr(self, self.layout.values))

    def __repr__(self):
        shape = self.layout.shape_of(self)
        text = str(shape) if isinstance(self.layout.shape, str) else \
            "x".join(str(n) for n in shape)
        summary = self.layout.summary.format(c=self)
        return f"{type(self).__name__}({text}, {summary})"

    # ------------------------------------------------------------------
    # Invariants

    def check(self) -> None:
        """Raise the first violation of the structural invariants.

        The invariants are not written per class: they are derived from
        the level composition the container binds to (bounds, duplicates,
        pointer endpoints and monotonicity, ordering) and checked with
        vectorized numpy passes — see
        :func:`repro.formats.bindings.check_container`.
        """
        _bindings().check_container(self)

    def check_against_dense(self, reference, *, tol: float = 0.0,
                            format_name: str | None = None) -> None:
        """Validate invariants *and* compare the contents to ``reference``.

        ``reference`` is another container, a
        :class:`~repro.formats.levels.Cells`, a dense image or a
        coordinate -> value mapping (:func:`compare_contents`).
        Structural violations surface from the invariants of
        ``format_name`` — the format a conversion produced, else the one
        the class declares (:func:`repro.formats.bindings.check_container`)
        — a different shape or the first differing coordinate as a
        :class:`~repro.errors.DenseMismatchError` naming the coordinate
        and both values.
        """
        _bindings().check_container(self, format_name=format_name)
        compare_contents(self, reference, tol)

    def first_unsorted_position(self) -> int | None:
        """Position of the first entry breaking lexicographic order.

        The cheap monotonicity scan the validation gate runs before
        trusting ``assume_sorted=True``; ``None`` when the data is sorted.
        Only coordinate formats have a storage order to scan.
        """
        return _bindings().first_unsorted_position(self)

    def is_sorted_lexicographic(self) -> bool:
        """Row-major sorted — the assumption Figure 2 makes for sources."""
        return self.first_unsorted_position() is None

    # ------------------------------------------------------------------
    # Round trips, all through the composition

    def to_dense(self) -> list:
        """The dense image (:meth:`Composition.interpret`)."""
        composition, env = _bindings().bound(self)
        return composition.interpret(env)

    def to_dict(self) -> dict:
        """Coordinate -> value map of the stored entries."""
        composition, env = _bindings().bound(self)
        return composition.entries(env).to_dict()

    def nonzeros(self):
        """``(i, j[, k], value)`` per stored entry, in storage order."""
        composition, env = _bindings().bound(self)
        return composition.entries(env).tuples()

    @classmethod
    def from_dense(cls, dense, *params, **named):
        """Assemble from a dense image's nonzero cells.

        ``params`` are the layout's parameters (``bsize``, ``width``); an
        omitted one takes the format's default (block 2, the natural
        width).
        """
        return _bindings().assemble_container(cls, dense, params, named)

    @classmethod
    def from_coo(cls, source, *params, **named):
        """Assemble from another container's stored entries, ordered as
        this format stores them."""
        return _bindings().assemble_container(cls, source, params, named)

    def sorted_lexicographic(self):
        """The stored entries as a lexicographically sorted coordinate
        container of the same rank."""
        coo = coordinate_class(self.layout.rank)
        return _bindings().assemble_container(
            coo, self, format_name=coo.layout.sorted_format
        )

    def to_coo(self):
        """The stored entries, in storage order, as a coordinate
        container of the same rank."""
        return coordinate_class(self.layout.rank).from_coo(self)


def coordinate_class(rank: int) -> type:
    """The coordinate container of ``rank``: the class whose layout
    declares a sorted coordinate form."""
    for cls in CONTAINERS.values():
        if "layout" in vars(cls) and cls.layout.sorted_format \
                and cls.layout.rank == rank:
            return cls
    raise TypeError(f"no coordinate container of rank {rank}")


def container_class(name: str) -> type | None:
    """The container class storing format ``name``: an exact match, else
    its parameterized family (``BCSR4`` -> ``BCSR``)."""
    name = name.upper()
    return CONTAINERS.get(name) or CONTAINERS.get(name.rstrip("0123456789"))


def _shape(obj) -> tuple:
    """The shape of a container or a :class:`~repro.formats.levels.Cells`."""
    if hasattr(obj, "layout"):
        return tuple(obj.layout.shape_of(obj))
    if hasattr(obj, "dims"):  # HiCOO, which declares no layout
        return tuple(obj.dims)
    return obj.shape


def compare_contents(actual, reference, tol: float = 0.0) -> None:
    """Raise :class:`DenseMismatchError` where ``actual`` and
    ``reference`` hold different contents.

    ``actual`` is a container or a :class:`~repro.formats.levels.Cells`;
    ``reference`` is either of those, a dense image or a coordinate ->
    value map.  The shapes must agree whenever the reference has one
    (a map has none), and the stored entries are compared as coordinate
    maps, an absent coordinate reading 0.0, so the cost is O(stored
    entries) whatever the shape.  The error names the row-major first
    differing coordinate.
    """
    from repro.formats.levels import Cells

    shape, have = _shape(actual), actual.to_dict()
    if isinstance(reference, Mapping):
        want_shape, want = None, reference
    else:
        if not hasattr(reference, "to_dict"):  # a dense image
            reference = Cells.from_dense(reference, len(shape))
        want_shape, want = _shape(reference), reference.to_dict()
    if want_shape is not None and want_shape != shape:
        raise DenseMismatchError(
            f"shape {shape} differs from the reference's {want_shape}",
            container=repr(actual),
        )
    differing = [
        coord for coord in have.keys() | want.keys()
        if abs(have.get(coord, 0.0) - want.get(coord, 0.0)) > tol
    ]
    if differing:
        coord = min(differing)
        x, y = have.get(coord, 0.0), want.get(coord, 0.0)
        raise DenseMismatchError(
            f"contents differ at {coord}: stored {x!r}, reference {y!r}",
            coordinate=coord,
            expected=y,
            actual=x,
            container=repr(actual),
        )
