"""Typed storage for container fields: int64 indices, float64 values.

Every runtime container keeps its index fields (coordinates, pointers,
offsets, block indices) as ``array('q')`` and its value fields as
``array('d')``.  Both expose their buffer without a copy: numpy reads it
through ``np.frombuffer`` and cffi through ``ffi.from_buffer``, so the
gate, the binding and the C marshal-in touch no Python objects.  An
``array.array`` compares with ``==`` to a single bool, so two containers
still compare field for field through ``vars(a) == vars(b)``.

:func:`typed` is the one conversion every constructor runs.  It takes the
typecode from the field's role, never from the data, and it always
copies, so a caller's sequence stays the caller's.  Interpreted Python
(the scalar reference tier, the baselines, ``to_dense``) reads lists:
reading an ``array.array`` element costs about 1.7x a list read, so such
code takes one :func:`as_list` copy at its entry.

Typed fields stay JSON-serializable the way list fields were: importing
this module teaches the stdlib encoder to write an ``array.array`` as a
JSON list.
"""

from __future__ import annotations

import json
from array import array

from repro.errors import BoundsError, StructureError

#: Typecode of index fields (int64) and of value fields (float64).
INDEX = "q"
VALUE = "d"

#: numpy dtype kind of each typecode's 8-byte element.
_KINDS = {INDEX: "i", VALUE: "f"}


def typed(values, typecode: str, field: str) -> array:
    """A fresh ``array(typecode)`` holding ``values``.

    An ``array`` of the same typecode, or a numpy array of the matching
    8-byte dtype, is copied with one memcpy; other sequences element by
    element.  An index beyond int64 raises
    :class:`~repro.errors.BoundsError` and a non-integral index or
    non-numeric value :class:`~repro.errors.StructureError`, each naming
    ``field`` and the position.
    """
    if hasattr(values, "dtype"):
        dtype = values.dtype
        if (values.ndim == 1 and dtype.kind == _KINDS[typecode]
                and dtype.itemsize == 8 and dtype.isnative):
            if not values.flags.c_contiguous:
                values = values.copy()
            out = array(typecode)
            out.frombytes(memoryview(values).cast("B"))
            return out
        values = values.tolist()
    elif not hasattr(values, "__len__"):
        values = list(values)  # a one-shot iterable: keep it for errors
    try:
        return array(typecode, values)
    except (TypeError, OverflowError, ValueError):
        raise _rejection(values, typecode, field) from None


def index_array(values, field: str) -> array:
    """:func:`typed` for an index field (``array('q')``)."""
    return typed(values, INDEX, field)


def value_array(values, field: str) -> array:
    """:func:`typed` for a value field (``array('d')``)."""
    return typed(values, VALUE, field)


def _rejection(values, typecode: str, field: str):
    """The named error for the first element ``typecode`` cannot hold."""
    for position, value in enumerate(values):
        try:
            array(typecode, (value,))
        except OverflowError:
            if typecode == INDEX:
                return BoundsError(
                    f"{field}[{position}] = {value} does not fit in int64",
                    position=position,
                )
            return StructureError(
                f"{field}[{position}] = {value} does not fit in float64"
            )
        except TypeError:
            kind = "an integer" if typecode == INDEX else "a number"
            return StructureError(
                f"{field}[{position}] = {value!r} is not {kind}"
            )
    return StructureError(f"{field} is not a sequence of numbers")


def as_list(value):
    """A typed or numpy array as a list, a numpy scalar as a Python
    scalar; anything else unchanged."""
    return value.tolist() if hasattr(value, "tolist") else value


def listed(container):
    """A shallow copy of ``container`` whose typed fields are lists.

    For interpreted code that indexes a container element by element
    (the baselines): it takes this copy once at its entry and never
    hands it out.
    """
    copy = object.__new__(type(container))
    vars(copy).update(
        (name, as_list(value)) for name, value in vars(container).items()
    )
    return copy


def as_ndarray(values, typecode: str):
    """``values`` as a numpy array of ``typecode``'s dtype.

    A typed array of that typecode becomes a read-only view of its own
    buffer, without a copy; anything else is converted.
    """
    import numpy as np

    dtype = np.int64 if typecode == INDEX else np.float64
    if isinstance(values, array) and values.typecode == typecode:
        view = np.frombuffer(values, dtype=dtype)
        view.flags.writeable = False
        return view
    return np.asarray(values, dtype=dtype)


_encode_default = json.JSONEncoder.default


def _encode_typed(encoder, obj):
    if isinstance(obj, array):
        return obj.tolist()
    return _encode_default(encoder, obj)


json.JSONEncoder.default = _encode_typed
