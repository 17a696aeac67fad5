"""An advisory inter-process lock on a ``.lock`` file beside a path."""

from __future__ import annotations

import contextlib
from pathlib import Path

try:  # POSIX only; without it the lock is a no-op.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]


@contextlib.contextmanager
def file_lock(path: Path, *, shared: bool = False):
    """Hold an exclusive ``flock`` on ``<path>.lock`` for the block.

    Two *processes* writing ``path`` (the cost store's read-merge-write,
    a C artifact's build) serialize on it instead of racing.  ``shared``
    takes the lock shared, for a reader that must not see a writer's
    update half done; it creates no directory, since where there is none
    there is nothing to read.  Degrades to a no-op where ``fcntl`` is
    unavailable or the lock file cannot be created.
    """
    if fcntl is None:
        yield
        return
    lock_path = path.with_suffix(path.suffix + ".lock")
    try:
        if not shared:
            lock_path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(lock_path, "a+")
    except OSError:
        yield
        return
    try:
        mode = fcntl.LOCK_SH if shared else fcntl.LOCK_EX
        fcntl.flock(handle.fileno(), mode)
        yield
    finally:
        with contextlib.suppress(OSError):
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        handle.close()
