"""A content hash over the package's own source, for cache invalidation.

The learned-cost store (:mod:`repro.planner.coststore`) folds it into
every entry's key, so a timing an older checkout measured is never
served after the package changes.  The C artifacts do not read it: each
is named by what builds it (:mod:`repro.backends.c_backend`), so a
checkout that prints the same C reuses them.

The hash covers every ``.py`` file under the installed ``repro`` package
(sorted by relative path, content-hashed), computed once per process.
"""

from __future__ import annotations

import hashlib
import os

_CACHED_HASH: str | None = None


def code_version_hash() -> str:
    """Hex digest identifying this checkout of the ``repro`` package."""
    global _CACHED_HASH
    if _CACHED_HASH is None:
        root = os.path.dirname(os.path.abspath(__file__))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for fname in sorted(filenames):
                if not fname.endswith(".py"):
                    continue
                path = os.path.join(dirpath, fname)
                rel = os.path.relpath(path, root)
                digest.update(rel.encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _CACHED_HASH = digest.hexdigest()
    return _CACHED_HASH
