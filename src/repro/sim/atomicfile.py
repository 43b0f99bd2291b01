"""Atomic file replacement with orphan sweeping.

The result cache, the checkpoint store and the service's queue journal
all persist by writing a temp file next to the target and
``os.replace``-ing it in, so a reader sees the old file or the new one,
never a torn mix.  A writer killed between opening its temp file and
the replace leaves that temp file behind; :func:`atomic_write` sweeps
such orphans from the target's directory on the next write, so none of
the three stores accumulates them.
"""

from __future__ import annotations

import os
import threading
import time
from typing import IO, Callable

__all__ = ["STALE_TMP_SECONDS", "atomic_write"]

#: seconds after which an orphaned temp file is considered abandoned; a
#: live concurrent writer finishes in well under this
STALE_TMP_SECONDS = 300.0


def _sweep_stale_tmp(dirpath: str, marker: str, keep: str) -> None:
    """Delete files in ``dirpath`` whose name contains ``marker`` and
    that are older than :data:`STALE_TMP_SECONDS`.

    Recent temp files belong to live concurrent writers and are left
    alone, as is ``keep`` (the caller's own temp path).
    """
    cutoff = time.time() - STALE_TMP_SECONDS
    try:
        names = os.listdir(dirpath)
    except OSError:
        return
    for name in names:
        if marker not in name:
            continue
        candidate = os.path.join(dirpath, name)
        if candidate == keep:
            continue
        try:
            if os.path.getmtime(candidate) < cutoff:
                os.unlink(candidate)
        except OSError:
            pass                     # vanished or unreadable: not ours


def atomic_write(path: str, write: Callable[[IO], None],
                 binary: bool = False) -> None:
    """Replace ``path`` with what ``write(handle)`` writes, atomically.

    Creates the parent directory, sweeps stale temp orphans of the same
    kind from it (``*.json.tmp.*`` for a ``.json`` target, and so on),
    writes ``<path>.tmp.<pid>.<thread>`` and ``os.replace``-s it over
    ``path``.  On any failure the temp file is removed and the
    exception propagates; callers decide whether that is fatal.
    """
    dirpath = os.path.dirname(path) or "."
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        os.makedirs(dirpath, exist_ok=True)
        _sweep_stale_tmp(dirpath, os.path.splitext(path)[1] + ".tmp.",
                         keep=tmp)
        with open(tmp, "wb" if binary else "w",
                  encoding=None if binary else "utf-8") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
