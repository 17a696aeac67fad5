"""Glue between format descriptors and runtime tensor containers.

A descriptor talks about uninterpreted functions (``rowptr``, ``col2``...);
a container holds concrete arrays.  Bindings translate both ways so the
high-level :func:`repro.convert` API can run synthesized inspectors on
containers directly.

Nothing here is written per format.  Each container class declares
which attribute fills which role of its format's level composition
(:class:`repro.runtime.container.Layout`), and the UF/symbol name of
each role is derived from the levels
(:func:`repro.formats.levels.level_names`).  From the two, this module
derives, per container class and format:

* the bind (:func:`container_to_env`): the container's own typed arrays
  under the descriptor's names, not copies;
* the pack (:func:`outputs_to_container`) and the assembly from cells
  (:func:`assemble_container`): the constructor arguments read back
  from those names;
* the invariants (:func:`check_container`): the composition's
  :meth:`~repro.formats.levels.Composition.check`, with each array named
  by its attribute.

A conversion binds its source once (:func:`bind_source`) and runs on
that binding (:func:`run_conversion`).  A format without a composition
cannot be bound.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import time
from typing import Callable, Mapping, NamedTuple

import repro.obs as obs
from repro.errors import ShapeError, UnsortedInputError
from repro.runtime.container import LevelContainer, container_class

from . import invariants, library
from .levels import level_names


class BindingError(ValueError):
    """Raised when a container cannot be bound to a format descriptor."""


class _Plan(NamedTuple):
    """How one container class binds to one format."""

    composition: object
    #: Per level, ``{role: attribute}`` of the roles the level binds.
    levels: tuple
    #: ``environment -> shape tuple``, and whether one attribute holds
    #: the whole tuple.
    shape: Callable
    dims: bool
    #: The level arguments of the constructor in order, as
    #: ``(constant, key)``: a value the composition fixes (a block size),
    #: else the UF or symbol name the argument is bound to.
    arguments: tuple
    #: UF / symbol name -> attribute, for error messages.
    names: dict


@functools.lru_cache(maxsize=256)
def _plan(cls: type, fmt) -> _Plan:
    """Read ``cls``'s layout against the role names of ``fmt``'s levels.

    Memoized per class and descriptor (the library hands out one
    descriptor per name); callers never change the plan.
    """
    composition, layout = fmt.levels, cls.layout
    shape = composition.shape_syms
    dims = isinstance(layout.shape, str)
    if dims:
        names = {s: f"{layout.shape}[{x}]" for x, s in enumerate(shape)}
    else:
        names = dict(zip(shape, layout.shape))
    levels, arguments = [], []
    for level, declared, bound in zip(
        composition.levels, layout.levels, level_names(composition)
    ):
        levels.append({r: a for r, a in declared.items() if r in bound})
        for role, attr in declared.items():
            if role == "block":
                arguments.append((True, level.block))
            else:
                arguments.append((False, bound[role]))
                names[bound[role]] = attr
    names["Asrc"] = layout.values
    return _Plan(composition, tuple(levels), operator.itemgetter(*shape),
                 dims, tuple(arguments), names)


def _binding(name: str, cls: type, what) -> _Plan:
    """The plan binding ``cls`` to library format ``name``."""
    fmt = library.get_format(name)
    if fmt.levels is None:
        raise BindingError(
            f"{what!r}: its format has no level composition to derive its "
            f"binding from"
        )
    return _plan(cls, fmt)


def _declared_format(container) -> str:
    """The format a container's class declares, with its block size.

    A non-default block size binds the parameterized descriptor: mapping
    every BCSRMatrix to the block-2 "BCSR" would hand a bsize-4 container
    to an inspector reading 2x2 blocks.
    """
    if not isinstance(container, LevelContainer):
        raise BindingError(f"no format descriptor for container {container!r}")
    cls = type(container)
    name = cls.format_name
    for x, level in enumerate(cls.layout.levels):
        if "block" in level:
            block = getattr(container, level["block"])
            if block < 1:
                raise ShapeError(
                    "block size must be positive", container=repr(container)
                )
            default = _binding(name, cls, container).composition.levels[x]
            if block != default.block:
                name = f"{name}{block}"
    return name


def _bound(container, format_name: str | None = None) -> tuple[_Plan, dict]:
    plan = _binding(format_name or _declared_format(container),
                    type(container), container)
    return plan, _env(container, plan)


def _env(container, plan: _Plan) -> dict:
    layout = type(container).layout
    return plan.composition.env_from_arrays(
        layout.shape_of(container),
        getattr(container, layout.values),
        [{r: getattr(container, a) for r, a in level.items()}
         for level in plan.levels],
    )


def bound(container):
    """``(composition, environment)`` of a container, without a data scan.

    The composition is that of the format its class declares: sorted and
    unsorted coordinate formats (COO/SCOO, COO3D/SCOO3D) bind identical
    UF names, so the sortedness scan never changes the environment.  A
    format without a composition raises :class:`BindingError`.
    """
    plan, env = _bound(container)
    return plan.composition, env


def bind_source(container, *, assume_sorted: bool | None = True,
                check: bool = False) -> tuple[str, dict]:
    """Bind a source container once: its descriptor name and environment.

    An unordered coordinate container under ``assume_sorted`` is named
    its sorted form (SCOO for COO: the paper's Figure 2 assumption) when
    its entries are sorted: with ``check``, when it passes
    :func:`check_container`'s audit, which holds it to that order;
    without, when one scan finds them sorted.  ``assume_sorted=None``
    promises no order: with ``check``, the audit of the declared format
    names the sorted form when it finds the entries strictly increasing;
    without, the scan decides as under ``True``.
    """
    name = _declared_format(container)
    plan, env = _bound(container, name)
    sorted_format = type(container).layout.sorted_format
    if check:
        ordered = _check(container, plan, env, assume_sorted)
    else:
        ordered = assume_sorted is not False and sorted_format and \
            plan.composition._resolved_ordering() is None and \
            invariants.first_unsorted_position(plan.composition, env) is None
    return (ordered and sorted_format) or name, env


def container_format(container, *, assume_sorted: bool = True) -> str:
    """The descriptor name matching a runtime container (unchecked
    :func:`bind_source`); without ``assume_sorted``, the one its class
    declares, named without a bind."""
    if not assume_sorted:
        return _declared_format(container)
    return bind_source(container)[0]


def container_to_env(container) -> dict:
    """Bind a container's arrays to its descriptor's UF / symbol names.

    The environment is derived from the format's level composition; a
    format without one raises :class:`BindingError`.
    """
    return _bound(container)[1]


def check_container(container, *, assume_sorted: bool = False,
                    format_name: str | None = None) -> None:
    """Check a container against the invariants its composition derives.

    Raises the first :class:`~repro.errors.ValidationError` a sequential
    audit of the container would meet.  The composition is that of
    ``format_name`` when given — the format a conversion produced, so a
    ``COOMatrix`` converted into SCOO must be sorted — else the one its
    class declares.  Under ``assume_sorted=True`` an unordered coordinate
    format is checked as its lexicographically ordered variant — the SCOO
    precondition the sorted descriptors rely on — and an order violation
    names that promise and its remedy.
    """
    _check(container, *_bound(container, format_name), assume_sorted)


def _check(container, plan: _Plan, env: dict,
           assume_sorted: bool | None) -> bool:
    """:func:`check_container` on a bound container; whether it held the
    container to the promised order, or, under ``assume_sorted=None``,
    found the entries strictly increasing."""
    composition = plan.composition
    promised = (
        assume_sorted
        and composition.family == "coord"
        and composition._resolved_ordering() is None
    )
    if promised:
        composition = _sorted_variant(composition)
    try:
        found = composition.check(
            env, container=repr(container), names=plan.names
        )
    except UnsortedInputError as err:
        if not promised:
            raise
        raise UnsortedInputError(
            f"entries are not lexicographically sorted (first violation "
            f"at position {err.position}) but assume_sorted=True promised "
            f"sorted input",
            position=err.position,
            remedy="pass assume_sorted=False to convert via the sorting "
                   "COO descriptor",
            container=repr(container),
        ) from None
    return promised or (assume_sorted is None and bool(found))


@functools.lru_cache(maxsize=64)
def _sorted_variant(composition):
    """An unordered coordinate composition, lexicographically ordered."""
    return dataclasses.replace(composition, ordering="lex")


def first_unsorted_position(container) -> int | None:
    """First position of a coordinate container breaking lexicographic
    order (ties allowed), or ``None`` when it is sorted."""
    return invariants.first_unsorted_position(*bound(container))


def _build(cls, plan: _Plan, shape, arrays, values, rename={}):
    """``cls(...)``: the shape read from ``shape``, each level argument
    from ``arrays`` under its (``rename``-d) UF or symbol name."""
    extents = plan.shape(shape)
    arguments = [extents] if plan.dims else list(extents)
    for constant, key in plan.arguments:
        arguments.append(key if constant else arrays[rename.get(key, key)])
    arguments.append(values)
    return cls(*arguments)


def outputs_to_container(
    dst_name: str,
    outputs: Mapping[str, object],
    uf_output_map: Mapping[str, str],
    src_env: Mapping[str, object],
):
    """Build the destination container from an inspector's output dict.

    ``uf_output_map`` translates the descriptor's canonical UF names to the
    (possibly suffixed) names the generated inspector returned; ``src_env``
    supplies the shape symbols.
    """
    try:
        fmt = library.get_format(dst_name)
    except KeyError:
        fmt = None
    cls, plan = _destination(dst_name, fmt)
    return _build(cls, plan, src_env, outputs, outputs["Adst"],
                  uf_output_map)


def run_conversion(conversion, dst_name: str, env: Mapping):
    """One conversion step on a bound source: the inspector's inputs read
    from ``env``, the inspector, then the pack into a ``dst_name``
    container.  Returns the container and the inspector's seconds."""
    inputs = {p: env[p] for p in conversion.params}
    start = time.perf_counter()
    outputs = conversion(**inputs)
    elapsed = time.perf_counter() - start
    with obs.span("pack_outputs", category="runtime"):
        result = outputs_to_container(
            dst_name, outputs, conversion.uf_output_map, env
        )
    return result, elapsed


@functools.lru_cache(maxsize=256)
def _destination(name: str, fmt) -> tuple[type, _Plan]:
    """The container class packing format ``name``, and its plan."""
    cls = container_class(name)
    if cls is None or fmt is None or fmt.levels is None:
        raise BindingError(f"no container for destination format {name!r}")
    return cls, _plan(cls, fmt)


def assemble_container(cls, source, params=(), named=None, *,
                       format_name: str | None = None):
    """A ``cls`` container holding ``source``'s entries.

    ``source`` is a dense image (its nonzero cells) or another container
    (its stored entries).  The format is ``format_name``, else the one
    ``cls`` declares with the layout's parameters applied: ``params`` /
    ``named`` bind them like constructor arguments (``bsize``, ``width``;
    an omitted one takes the format's default).
    """
    roles = cls.layout.params
    given = dict(zip(roles, params), **(named or {}))
    if len(params) > len(roles) or set(given) - set(roles):
        raise TypeError(f"{cls.__name__} takes parameters {list(roles)}")
    name = format_name or cls.format_name
    for attr, value in given.items():
        if value is not None and roles[attr] == "block":
            name = f"{name}{value}"
    plan = _binding(name, cls, cls)
    symbols = {
        symbol: given[attr] for symbol, attr in plan.names.items()
        if given.get(attr) is not None
    }
    if isinstance(source, LevelContainer):
        source_plan, env = _bound(source)
        source = source_plan.composition.entries(env)
    env = plan.composition.assemble(source, symbols=symbols)
    return _build(cls, plan, env, env, env["Asrc"])
