"""The wire schema of the conversion service (``repro-serve/1``).

Requests and responses are JSON documents.  Matrices travel as COO
triplets — the natural interchange form every client can produce — and
results come back as the destination container's named arrays (the same
UF-name binding :func:`repro.formats.bindings.container_to_env` uses),
so a response is loadable without knowing repro's container classes.

A convert request::

    {"dst": "CSR",              # required destination format
     "matrix": {"rows": R, "cols": C,
                "row": [...], "col": [...], "val": [...]},
     "backend": "python",       # optional; degrades c -> numpy -> python
     "validate": "inputs",      # off | inputs | full; at least the
                                #   daemon's --validate level
     "optimize": true,          # JSON booleans only
     "binary_search": false,
     "plan": false,             # route through the multi-step planner,
                                #   which takes neither optimize: false
                                #   nor binary_search: true
     "assume_sorted": null,     # null = detect from the data
     "trace_id": "abc123"}      # optional client-supplied correlation id

A successful response::

    {"ok": true, "schema": "repro-serve/1", "format": "CSR",
     "result": {"arrays": {...}, "shape": {...}},
     "trace_id": "abc123",
     "meta": {"backend": "...", "seconds": ..., "trace_id": "abc123"}}

Every request reads as ``json.loads`` reads it, and every response body
is exactly the bytes ``json.dumps`` writes for the document; the daemon
reads the matrix's arrays and writes the result arrays natively when it
can (:mod:`repro.serve.jsontext`).  So :func:`parse_matrix` takes
``row``/``col``/``val`` as lists or as the typed arrays the decoder
reads.

Failures carry ``{"ok": false, "error": {"type": ..., "message": ...}}``
with the :class:`~repro.errors.ValidationError` subclass name in
``type`` for gate rejections.  Every ``/convert`` response — success or
failure — echoes its trace id both in the body and in the
``X-Repro-Trace-Id`` header; a client-supplied ``trace_id`` (the JSON
field, or the same header) is adopted so distributed callers can
correlate daemon traces with their own.
"""

from __future__ import annotations

from array import array
from typing import Any, Mapping

SCHEMA = "repro-serve/1"

#: Request fields accepted by POST /convert; anything else is rejected
#: so client typos fail loudly instead of being silently ignored.
CONVERT_FIELDS = frozenset(
    {
        "dst",
        "matrix",
        "backend",
        "validate",
        "optimize",
        "binary_search",
        "plan",
        "assume_sorted",
        "trace_id",
    }
)


class ProtocolError(ValueError):
    """A malformed request document (maps to HTTP 400)."""


def parse_matrix(payload: Mapping[str, Any]):
    """Build the COO container a convert request carries.

    Validation of the *values* (bounds, duplicates, sortedness, a
    negative shape) is the validate gate's job inside ``convert()``;
    this checks the document structure, and the constructor rejects an
    index that is not an int64 or a value that is not a number with a
    :class:`~repro.errors.ValidationError` naming the field.
    """
    from repro.runtime import COOMatrix

    if not isinstance(payload, Mapping):
        raise ProtocolError("matrix must be an object")
    missing = {"rows", "cols", "row", "col", "val"} - set(payload)
    if missing:
        raise ProtocolError(f"matrix is missing fields {sorted(missing)}")
    rows, cols = payload["rows"], payload["cols"]
    # bool is an int subclass: JSON true must not read as 1 row.
    if any(type(n) is not int for n in (rows, cols)):
        raise ProtocolError("matrix rows/cols must be integers")
    row, col, val = payload["row"], payload["col"], payload["val"]
    # Lists from json.loads, or the typed arrays jsontext.decode reads.
    if not all(isinstance(a, (list, array)) for a in (row, col, val)):
        raise ProtocolError("matrix row/col/val must be arrays")
    if not (len(row) == len(col) == len(val)):
        raise ProtocolError(
            f"matrix row/col/val lengths differ: "
            f"{len(row)}/{len(col)}/{len(val)}"
        )
    return COOMatrix(rows, cols, row, col, val)


def result_document(container, format_name: str) -> dict:
    """A result container as its UF-named arrays plus shape symbols.

    The arrays are the container's own ``array('q')``/``array('d')``
    fields, which :func:`repro.serve.jsontext.encode` writes as the JSON
    lists ``json.dumps`` would.
    """
    from repro.formats import container_to_env

    env = container_to_env(container)
    arrays = {}
    shape = {}
    for name, value in env.items():
        if isinstance(value, int):
            shape[name] = value
        else:
            arrays[name] = value
    return {
        "arrays": arrays,
        "shape": shape,
        "repr": repr(container),
        "format": format_name,
    }


def serialize_container(container, format_name: str) -> dict:
    """:func:`result_document` with each array as a JSON-ready list."""
    doc = result_document(container, format_name)
    doc["arrays"] = {
        name: values.tolist() for name, values in doc["arrays"].items()
    }
    return doc


def parse_convert_request(doc: Mapping[str, Any]) -> dict:
    """Normalize and validate a convert request document."""
    if not isinstance(doc, Mapping):
        raise ProtocolError("request body must be a JSON object")
    unknown = set(doc) - CONVERT_FIELDS
    if unknown:
        raise ProtocolError(f"unknown request fields {sorted(unknown)}")
    dst = doc.get("dst")
    if not isinstance(dst, str) or not dst:
        raise ProtocolError("dst (destination format name) is required")
    if "matrix" not in doc:
        raise ProtocolError("matrix is required")
    validate = doc.get("validate", "inputs")
    from repro.verify.gate import VALIDATE_LEVELS

    if validate not in VALIDATE_LEVELS:
        raise ProtocolError(
            f"validate must be one of {VALIDATE_LEVELS}, got {validate!r}"
        )
    backend = doc.get("backend", "python")
    if not isinstance(backend, str):
        raise ProtocolError("backend must be a string")
    assume_sorted = doc.get("assume_sorted")
    if assume_sorted is not None and not isinstance(assume_sorted, bool):
        raise ProtocolError("assume_sorted must be a boolean or null")
    flags = {
        name: doc.get(name, default)
        for name, default in (
            ("optimize", True), ("binary_search", False), ("plan", False)
        )
    }
    for name, value in flags.items():
        # A string or number must not read as its truth value.
        if not isinstance(value, bool):
            raise ProtocolError(f"{name} must be a boolean")
    if flags["plan"] and (not flags["optimize"] or flags["binary_search"]):
        raise ProtocolError(
            "plan: true synthesizes every step optimized and without "
            "binary search, so it takes neither optimize: false nor "
            "binary_search: true"
        )
    trace_id = doc.get("trace_id")
    if trace_id is not None:
        from repro.obs import valid_trace_id

        if not valid_trace_id(trace_id):
            raise ProtocolError(
                "trace_id must be 1-64 characters of [A-Za-z0-9_.-]"
            )
    return {
        "dst": dst.upper(),
        "matrix": parse_matrix(doc["matrix"]),
        "backend": backend,
        "validate": validate,
        **flags,
        "assume_sorted": assume_sorted,
        "trace_id": trace_id,
    }


def error_body(exc: BaseException, *, trace_id: str | None = None) -> dict:
    body = {
        "ok": False,
        "schema": SCHEMA,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    if trace_id:
        body["trace_id"] = trace_id
    return body
