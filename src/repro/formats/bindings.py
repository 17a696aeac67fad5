"""Glue between format descriptors and runtime tensor containers.

A descriptor talks about uninterpreted functions (``rowptr``, ``col2``...);
a container holds concrete arrays.  Bindings translate both ways so the
high-level :func:`repro.convert` API can run synthesized inspectors on
containers directly.

Binding is registry-driven and *level-driven*: each container class
registers which attribute fills which level of its format's composition
(:func:`register_container`), and the UF/symbol names are derived from
the level structure via
:meth:`repro.formats.levels.Composition.env_from_arrays`.  Formats whose
descriptor carries no composition fall back to the legacy name-based
environment tables kept at the bottom of this module.

The same binding derives a container's invariants: :func:`check_container`
checks the bound environment against its composition
(:meth:`~repro.formats.levels.Composition.check`), which is what every
container's ``check()`` runs.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Mapping, NamedTuple

from repro.errors import ShapeError, UnsortedInputError
from repro.runtime import (
    BCSCMatrix,
    BCSRMatrix,
    CSFTensor,
    COOMatrix,
    COOTensor3D,
    CSCMatrix,
    CSRMatrix,
    DCSRMatrix,
    DIAMatrix,
    ELLMatrix,
    MortonCOOMatrix,
    MortonCOOTensor3D,
)

from . import invariants


class BindingError(ValueError):
    """Raised when a container cannot be bound to a format descriptor."""


class ContainerBinding(NamedTuple):
    """How one container class binds to its format's level composition."""

    #: ``container -> descriptor name`` (may inspect the data, e.g. the
    #: COO sortedness check; receives ``assume_sorted`` as keyword).
    format_name: Callable
    #: ``container -> (shape, data, level_arrays, extras)`` where
    #: ``level_arrays`` aligns with the composition's levels (see
    #: :meth:`Composition.env_from_arrays`).
    level_arrays: Callable


#: Registered bindings in resolution order (subclasses must precede
#: their bases, like MortonCOOMatrix before COOMatrix).
_CONTAINERS: list[tuple[type, ContainerBinding]] = []


def register_container(
    container_cls: type,
    format_name: Callable,
    level_arrays: Callable,
) -> None:
    """Register a container class's level binding.

    Resolution walks registrations in order with ``isinstance``, so
    register subclasses before their base classes.  Re-registering a
    class replaces its binding in place.
    """
    binding = ContainerBinding(format_name, level_arrays)
    for pos, (cls, _) in enumerate(_CONTAINERS):
        if cls is container_cls:
            _CONTAINERS[pos] = (container_cls, binding)
            return
    _CONTAINERS.append((container_cls, binding))


def _binding_of(container) -> ContainerBinding | None:
    for cls, binding in _CONTAINERS:
        if isinstance(container, cls):
            return binding
    return None


def container_format(container, *, assume_sorted: bool = True) -> str:
    """The descriptor name matching a runtime container.

    For plain COO containers, ``assume_sorted`` selects SCOO when the data
    is lexicographically sorted (the paper's Figure 2 assumption).
    """
    binding = _binding_of(container)
    if binding is None:
        raise BindingError(f"no format descriptor for container {container!r}")
    return binding.format_name(container, assume_sorted=assume_sorted)


def _bound(container, what: str):
    """``(binding, composition)`` of a container, without a data scan.

    The composition is that of the format detected with
    ``assume_sorted=False``: sorted and unsorted coordinate formats
    (COO/SCOO, COO3D/SCOO3D) bind identical UF names, so the
    sortedness scan never changes the environment.
    """
    binding = _binding_of(container)
    if binding is None:
        raise BindingError(f"no {what} for container {container!r}")
    from .library import get_format

    name = binding.format_name(container, assume_sorted=False)
    return binding, get_format(name).levels


def _env(binding, composition, container) -> dict:
    shape, data, level_arrays, extras = binding.level_arrays(container)
    return composition.env_from_arrays(
        shape, data, level_arrays, extras=extras
    )


def container_to_env(container) -> dict:
    """Bind a container's arrays to its descriptor's UF / symbol names.

    The environment is derived from the format's level composition when
    it has one; hand-written descriptors use the legacy name-based
    tables in :func:`_legacy_container_to_env`.
    """
    binding, composition = _bound(container, "environment binding")
    if composition is None:
        return _legacy_container_to_env(container)
    return _env(binding, composition, container)


def check_container(container, *, assume_sorted: bool = False) -> None:
    """Check a container against the invariants its composition derives.

    Raises the first :class:`~repro.errors.ValidationError` a sequential
    audit of the container would meet.  Under ``assume_sorted=True`` an
    unordered coordinate format is checked as its lexicographically
    ordered variant — the SCOO precondition the sorted descriptors rely
    on — and an order violation names that promise and its remedy.
    """
    binding, composition = _bound(container, "level binding")
    if composition is None:
        raise BindingError(
            f"{container!r}: its format has no level composition to "
            f"derive invariants from"
        )
    promised = (
        assume_sorted
        and composition.family == "coord"
        and composition._resolved_ordering() is None
    )
    if promised:
        composition = dataclasses.replace(composition, ordering="lex")
    env = _env(binding, composition, container)
    try:
        composition.check(
            env,
            container=repr(container),
            names=_attribute_names(container, env),
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


def _attribute_names(container, env: Mapping) -> dict[str, str]:
    """UF name -> the container attribute bound to it, for messages.

    Matched by identity: a binding hands the container's own arrays to
    the environment, so each bound array is one of its attributes.
    """
    attrs = {
        id(value): attr for attr, value in vars(container).items()
        if not isinstance(value, (int, float, tuple))
    }
    return {
        uf: attrs[id(value)] for uf, value in env.items()
        if id(value) in attrs
    }


def first_unsorted_position(container) -> int | None:
    """First position of a coordinate container breaking lexicographic
    order (ties allowed), or ``None`` when it is sorted."""
    binding, composition = _bound(container, "level binding")
    return invariants.first_unsorted_position(
        composition, _env(binding, composition, container)
    )


# ----------------------------------------------------------------------
# Per-class bindings: which attribute fills which level.


def _coo_name(c, *, assume_sorted):
    if assume_sorted and c.first_unsorted_position() is None:
        return "SCOO"
    return "COO"


def _coo3d_name(c, *, assume_sorted):
    if assume_sorted and c.first_unsorted_position() is None:
        return "SCOO3D"
    return "COO3D"


def _block_name(family: str) -> Callable:
    def name(c, *, assume_sorted):
        # Non-default block sizes bind to their parameterized descriptor;
        # mapping every BCSRMatrix to the block-2 "BCSR" would hand a
        # bsize-4 container to an inspector reading 2x2 blocks.
        if c.bsize < 1:
            raise ShapeError(
                "block size must be positive", container=repr(c)
            )
        return family if c.bsize == 2 else f"{family}{c.bsize}"

    return name


register_container(
    MortonCOOMatrix,
    lambda c, *, assume_sorted: "MCOO",
    lambda c: (
        (c.nrows, c.ncols),
        c.val,
        [{"coord": c.row}, {"coord": c.col}],
        None,
    ),
)
register_container(
    COOMatrix,
    _coo_name,
    lambda c: (
        (c.nrows, c.ncols),
        c.val,
        [{"coord": c.row}, {"coord": c.col}],
        None,
    ),
)
register_container(
    CSRMatrix,
    lambda c, *, assume_sorted: "CSR",
    lambda c: (
        (c.nrows, c.ncols),
        c.val,
        [None, {"ptr": c.rowptr, "idx": c.col}],
        None,
    ),
)
register_container(
    CSCMatrix,
    lambda c, *, assume_sorted: "CSC",
    lambda c: (
        (c.nrows, c.ncols),
        c.val,
        [None, {"ptr": c.colptr, "idx": c.row}],
        None,
    ),
)
register_container(
    DIAMatrix,
    lambda c, *, assume_sorted: "DIA",
    lambda c: ((c.nrows, c.ncols), c.data, [None, {"idx": c.off}], None),
)
register_container(
    BCSRMatrix,
    _block_name("BCSR"),
    lambda c: (
        (c.nrows, c.ncols),
        c.data,
        [None, {"ptr": c.browptr, "idx": c.bcol}],
        {"NBR": c.nblockrows, "NBC": -(-c.ncols // c.bsize)},
    ),
)
register_container(
    BCSCMatrix,
    _block_name("BCSC"),
    lambda c: (
        (c.nrows, c.ncols),
        c.data,
        [None, {"ptr": c.bcolptr, "idx": c.brow}],
        {"NBR": -(-c.nrows // c.bsize), "NBC": c.nblockcols},
    ),
)
register_container(
    ELLMatrix,
    lambda c, *, assume_sorted: "ELL",
    lambda c: (
        (c.nrows, c.ncols),
        c.val,
        [None, {"idx": c.col, "width": c.width}],
        None,
    ),
)
register_container(
    DCSRMatrix,
    lambda c, *, assume_sorted: "DCSR",
    lambda c: (
        (c.nrows, c.ncols),
        c.val,
        [{"idx": c.rowidx}, {"ptr": c.dptr, "idx": c.dcol}],
        None,
    ),
)
register_container(
    CSFTensor,
    lambda c, *, assume_sorted: "CSF",
    lambda c: (
        c.dims,
        c.val,
        [
            {"idx": c.rootidx},
            {"ptr": c.fptr, "idx": c.fibidx},
            {"ptr": c.kptr, "idx": c.kidx},
        ],
        None,
    ),
)
register_container(
    MortonCOOTensor3D,
    lambda c, *, assume_sorted: "MCOO3",
    lambda c: (
        c.dims,
        c.val,
        [{"coord": c.row}, {"coord": c.col}, {"coord": c.z}],
        None,
    ),
)
register_container(
    COOTensor3D,
    _coo3d_name,
    lambda c: (
        c.dims,
        c.val,
        [{"coord": c.row}, {"coord": c.col}, {"coord": c.z}],
        None,
    ),
)


# ----------------------------------------------------------------------
# Legacy name-based environments (formats without a composition).


def _legacy_container_to_env(container) -> dict:
    if isinstance(container, MortonCOOMatrix):
        return {
            "row_m": container.row,
            "col_m": container.col,
            "Asrc": container.val,
            "NR": container.nrows,
            "NC": container.ncols,
            "NNZ": container.nnz,
        }
    if isinstance(container, COOMatrix):
        return {
            "row1": container.row,
            "col1": container.col,
            "Asrc": container.val,
            "NR": container.nrows,
            "NC": container.ncols,
            "NNZ": container.nnz,
        }
    if isinstance(container, CSRMatrix):
        return {
            "rowptr": container.rowptr,
            "col2": container.col,
            "Asrc": container.val,
            "NR": container.nrows,
            "NC": container.ncols,
            "NNZ": container.nnz,
        }
    if isinstance(container, CSCMatrix):
        return {
            "colptr": container.colptr,
            "row2": container.row,
            "Asrc": container.val,
            "NR": container.nrows,
            "NC": container.ncols,
            "NNZ": container.nnz,
        }
    if isinstance(container, DIAMatrix):
        return {
            "off": container.off,
            "Asrc": container.data,
            "NR": container.nrows,
            "NC": container.ncols,
            "ND": container.ndiags,
        }
    if isinstance(container, BCSRMatrix):
        return {
            "browptr": container.browptr,
            "bcol": container.bcol,
            "Asrc": container.data,
            "NR": container.nrows,
            "NC": container.ncols,
            "NBR": container.nblockrows,
            "NB": container.nblocks,
            "NBC": -(-container.ncols // container.bsize),
        }
    if isinstance(container, ELLMatrix):
        return {
            "ellcol": container.col,
            "Asrc": container.val,
            "NR": container.nrows,
            "NC": container.ncols,
            "W": container.width,
        }
    if isinstance(container, CSFTensor):
        return {
            "rootidx": container.rootidx,
            "fptr": container.fptr,
            "fibidx": container.fibidx,
            "kptr": container.kptr,
            "kidx": container.kidx,
            "Asrc": container.val,
            "NR": container.dims[0],
            "NC": container.dims[1],
            "NZ": container.dims[2],
            "NROOT": container.nroots,
            "NFIB": container.nfibers,
            "NNZ": container.nnz,
        }
    if isinstance(container, MortonCOOTensor3D):
        return {
            "row_m": container.row,
            "col_m": container.col,
            "z_m": container.z,
            "Asrc": container.val,
            "NR": container.dims[0],
            "NC": container.dims[1],
            "NZ": container.dims[2],
            "NNZ": container.nnz,
        }
    if isinstance(container, COOTensor3D):
        return {
            "row1": container.row,
            "col1": container.col,
            "z1": container.z,
            "Asrc": container.val,
            "NR": container.dims[0],
            "NC": container.dims[1],
            "NZ": container.dims[2],
            "NNZ": container.nnz,
        }
    raise BindingError(f"no environment binding for container {container!r}")


# ----------------------------------------------------------------------
# Destination direction: inspector outputs -> container.


def _block_size(name: str, family: str) -> int:
    suffix = name[len(family):]
    return int(suffix) if suffix else 2


#: Destination builders by format family (trailing block digits
#: stripped).  Each receives ``(get, data, src_env, name)``.
_DEST_BUILDERS: dict[str, Callable] = {
    "COO": lambda get, data, env, name: COOMatrix(
        env.get("NR"), env.get("NC"), get("row1"), get("col1"), data
    ),
    "MCOO": lambda get, data, env, name: MortonCOOMatrix(
        env.get("NR"), env.get("NC"), get("row_m"), get("col_m"), data
    ),
    "CSR": lambda get, data, env, name: CSRMatrix(
        env.get("NR"), env.get("NC"), get("rowptr"), get("col2"), data
    ),
    "CSC": lambda get, data, env, name: CSCMatrix(
        env.get("NR"), env.get("NC"), get("colptr"), get("row2"), data
    ),
    "DIA": lambda get, data, env, name: DIAMatrix(
        env.get("NR"), env.get("NC"), list(get("off")), data
    ),
    "COO3D": lambda get, data, env, name: COOTensor3D(
        (env.get("NR"), env.get("NC"), env.get("NZ")),
        get("row1"), get("col1"), get("z1"), data,
    ),
    "MCOO3": lambda get, data, env, name: MortonCOOTensor3D(
        (env.get("NR"), env.get("NC"), env.get("NZ")),
        get("row_m"), get("col_m"), get("z_m"), data,
    ),
    "BCSR": lambda get, data, env, name: BCSRMatrix(
        env.get("NR"), env.get("NC"), _block_size(name, "BCSR"),
        get("browptr"), get("bcol"), data,
    ),
    "BCSC": lambda get, data, env, name: BCSCMatrix(
        env.get("NR"), env.get("NC"), _block_size(name, "BCSC"),
        get("bcolptr"), get("brow"), data,
    ),
}
_DEST_BUILDERS["SCOO"] = _DEST_BUILDERS["COO"]
_DEST_BUILDERS["SCOO3D"] = _DEST_BUILDERS["COO3D"]


def register_destination(family: str, builder: Callable) -> None:
    """Register a destination container builder for a format family."""
    _DEST_BUILDERS[family.upper()] = builder


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

    def get(canonical: str):
        return outputs[uf_output_map.get(canonical, canonical)]

    data = outputs["Adst"]
    name = dst_name.upper()
    builder = _DEST_BUILDERS.get(name) or _DEST_BUILDERS.get(
        name.rstrip("0123456789")
    )
    if builder is None:
        raise BindingError(
            f"no container for destination format {dst_name!r}"
        )
    return builder(get, data, src_env, name)
