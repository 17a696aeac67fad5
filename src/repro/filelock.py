"""An advisory inter-process lock on a ``.lock`` file beside a path."""

from __future__ import annotations

import contextlib
from pathlib import Path

try:  # POSIX only; without it the lock is a no-op.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]


@contextlib.contextmanager
def file_lock(path: Path):
    """Hold an exclusive ``flock`` on ``<path>.lock`` for the block.

    Two *processes* writing ``path`` (the cost store's read-merge-write,
    a C artifact's build) serialize on it instead of racing.  Degrades to
    a no-op where ``fcntl`` is unavailable or the lock file cannot be
    created.
    """
    if fcntl is None:
        yield
        return
    lock_path = path.with_suffix(path.suffix + ".lock")
    try:
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(lock_path, "a+")
    except OSError:
        yield
        return
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        yield
    finally:
        with contextlib.suppress(OSError):
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        handle.close()
