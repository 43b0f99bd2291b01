"""Structured JSON-lines run journal.

Every interesting lifecycle moment — a simulation starting or
finishing, a cache hit or miss, a job moving through the service queue,
a worker crash — is one JSON object on its own line, so a run's journal
can be tailed, grepped, or post-processed (``repro events
tail|summarize``) without any log-parsing heuristics.

The journal destination is resolved from the environment once per
process:

* ``REPRO_LOG_DIR=<dir>`` — append to ``<dir>/events.jsonl``.  Writes
  are single ``write`` calls on a file opened in append mode per event,
  so the CLI, the HTTP server, and every worker subprocess can share
  one journal file safely (POSIX ``O_APPEND`` semantics); one
  distributed run lands in one file.
* ``REPRO_LOG=stderr`` — write events to stderr (ad-hoc debugging).
* neither — the journal is disabled and :meth:`EventJournal.emit`
  returns immediately; the instrumented code paths cost one truthiness
  check.

Record schema (``SCHEMA_VERSION``): every event carries ``v`` (schema
version), ``ts`` (Unix seconds), ``kind``, ``pid``, and — whenever a
:mod:`~repro.obs.tracing` span is active or IDs are passed explicitly —
``trace_id``/``span_id``.  Remaining keys are per-kind payload.  The
schema is append-only: adding keys is fine, renaming or retyping the
core keys requires a version bump (there is a golden fixture test
pinning this).
"""

from __future__ import annotations

import io
import json
import os
import sys
import threading
import time
from typing import Any, Dict, Iterator, Optional, TextIO

from .tracing import current_context

__all__ = ["EventJournal", "SCHEMA_VERSION", "LOG_DIR_ENV_VAR",
           "LOG_ENV_VAR", "JOURNAL_FILENAME", "configure_journal",
           "get_journal", "journal_path_from_env", "read_events"]

#: bump on any backwards-incompatible change to the core record keys
SCHEMA_VERSION = 1

#: environment variable naming the journal directory
LOG_DIR_ENV_VAR = "REPRO_LOG_DIR"

#: environment variable selecting a non-file sink (``stderr``) or ``off``
LOG_ENV_VAR = "REPRO_LOG"

#: journal file name inside ``REPRO_LOG_DIR``
JOURNAL_FILENAME = "events.jsonl"


def journal_path_from_env() -> Optional[str]:
    """The journal file path implied by ``REPRO_LOG_DIR``, or None."""
    root = os.environ.get(LOG_DIR_ENV_VAR)
    if not root:
        return None
    return os.path.join(root, JOURNAL_FILENAME)


class EventJournal:
    """One process's journal writer.

    Parameters
    ----------
    path:
        Journal file (appended to, created with its directory on first
        emit).  Mutually exclusive with ``stream``.
    stream:
        Text stream to write events to (e.g. ``sys.stderr``).

    With neither, the journal is disabled and ``emit`` is a no-op.
    """

    def __init__(self, path: Optional[str] = None,
                 stream: Optional[TextIO] = None) -> None:
        if path and stream:
            raise ValueError("give either a path or a stream, not both")
        self.path = path or None
        self.stream = stream
        self._lock = threading.Lock()
        self._dir_ready = False
        self.emitted = 0
        self.dropped = 0

    @property
    def enabled(self) -> bool:
        return self.path is not None or self.stream is not None

    def emit(self, kind: str, trace_id: Optional[str] = None,
             span_id: Optional[str] = None, **fields: Any) -> None:
        """Append one event; never raises (a journal must not take the
        workload down with it — write failures count in ``dropped``)."""
        if not self.enabled:
            return
        if trace_id is None:
            context = current_context()
            if context is not None:
                trace_id = context.trace_id
                if span_id is None:
                    span_id = context.span_id
        record: Dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "ts": round(time.time(), 6),
            "kind": kind,
            "pid": os.getpid(),
        }
        if trace_id is not None:
            record["trace_id"] = trace_id
        if span_id is not None:
            record["span_id"] = span_id
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        try:
            line = json.dumps(record, separators=(",", ":"),
                              default=str) + "\n"
        except (TypeError, ValueError):
            self.dropped += 1
            return
        with self._lock:
            try:
                if self.stream is not None:
                    self.stream.write(line)
                else:
                    # open-per-emit keeps the fd unshared across forked
                    # workers; one O_APPEND write per event is atomic
                    # enough for line-oriented consumers
                    if not self._dir_ready:
                        parent = os.path.dirname(self.path)
                        if parent:
                            os.makedirs(parent, exist_ok=True)
                        self._dir_ready = True
                    with open(self.path, "a", encoding="utf-8") as handle:
                        handle.write(line)
                self.emitted += 1
            except (OSError, ValueError):
                self.dropped += 1


_DISABLED = EventJournal()
_journal: Optional[EventJournal] = None
_journal_lock = threading.Lock()


def get_journal() -> EventJournal:
    """The process-wide journal, resolved from the environment once.

    ``REPRO_LOG_DIR`` wins; ``REPRO_LOG=stderr`` is the fallback sink;
    otherwise the shared disabled journal is returned.  A forked or
    spawned worker resolves independently from its inherited
    environment, so a distributed run converges on one journal file.
    """
    global _journal
    if _journal is None:
        with _journal_lock:
            if _journal is None:
                path = journal_path_from_env()
                if path:
                    _journal = EventJournal(path=path)
                elif os.environ.get(LOG_ENV_VAR, "").lower() == "stderr":
                    _journal = EventJournal(stream=sys.stderr)
                else:
                    _journal = _DISABLED
    return _journal


def _fresh_locks_after_fork() -> None:
    """Give a forked child unheld journal locks.

    A fork copies each lock in whatever state another thread of the
    parent left it; a threaded server forking a job while a request
    thread emits would otherwise hand the child a held lock, and its
    first emit would block until the job's timeout.
    """
    global _journal_lock
    _journal_lock = threading.Lock()
    if _journal is not None:
        _journal._lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_locks_after_fork)


def configure_journal(path: Optional[str] = None,
                      stream: Optional[TextIO] = None) -> EventJournal:
    """Install an explicit process journal (tests, embedding).

    With no arguments the journal is reset, and the next
    :func:`get_journal` re-resolves from the environment.
    """
    global _journal
    with _journal_lock:
        if path is None and stream is None:
            _journal = None
            return _DISABLED
        _journal = EventJournal(path=path, stream=stream)
        return _journal


def read_events(source) -> Iterator[Dict[str, Any]]:
    """Parsed events from a journal path or open text stream.

    Corrupt or truncated lines (a process died mid-write) are skipped,
    not raised — a journal is diagnostic data, never a failure source.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, encoding="utf-8") as handle:
            yield from read_events(handle)
        return
    assert isinstance(source, io.TextIOBase) or hasattr(source, "__iter__")
    for line in source:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and "kind" in record:
            yield record
