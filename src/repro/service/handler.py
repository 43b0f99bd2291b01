"""Shared HTTP plumbing for the service's tiers.

The shard server, the gateway and the cache tier all speak JSON over
``http.server``.  :class:`JSONServer` is their one server scaffold
(daemon request threads, ``port``/``url``, background serving) and
:func:`serve_until_interrupted` their one foreground loop;
:class:`JSONHandler` holds what their handlers share — quiet logging
unless the server is verbose, JSON and text responses, and a bounded
request-body read.  A ``Content-Length`` that is not a
non-negative integer is refused (``ValueError``, which every tier
answers with a JSON 400) before any read, because ``rfile.read(-1)``
would block the handler thread until the client hung up.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple, Type

__all__ = ["JSONHandler", "JSONServer", "serve_until_interrupted"]


class JSONServer(ThreadingHTTPServer):
    """Threading HTTP server base: one daemon thread per request.

    ``port=0`` binds an ephemeral port (tests); read it back from
    :attr:`port`.
    """

    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 handler: Type[BaseHTTPRequestHandler],
                 verbose: bool = False) -> None:
        self.verbose = verbose
        super().__init__(address, handler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.server_address[0]}:{self.port}"

    def start_background(self) -> threading.Thread:
        """Serve on a daemon thread (tests and embedded use)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True,
                                  name=f"{type(self).__name__}-http")
        thread.start()
        return thread


def serve_until_interrupted(server: ThreadingHTTPServer,
                            ready: Optional[threading.Event] = None
                            ) -> None:
    """Serve in the foreground until Ctrl-C or SIGTERM, then close.

    Handlers are registered explicitly because a backgrounded server
    (CI, shell scripts) often inherits SIGINT as ignored; off the main
    thread, where they cannot be, ``server.shutdown()`` stops the loop.
    ``ready`` is set once the handlers are in place.
    """
    def _interrupt(_signum, _frame) -> None:
        raise KeyboardInterrupt

    previous = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous.append((signum, signal.signal(signum, _interrupt)))
        except (ValueError, OSError):        # not the main thread
            pass
    if ready is not None:
        ready.set()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for signum, handler in previous:
            signal.signal(signum, handler)
        server.server_close()


class JSONHandler(BaseHTTPRequestHandler):
    """Base handler: JSON in, JSON out, HTTP/1.1 keep-alive."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send_bytes(self, status: int, body: bytes,
                    content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send(self, status: int, payload: Dict[str, Any]) -> None:
        self._send_bytes(status, json.dumps(payload).encode("utf-8"),
                         "application/json")

    def _send_text(self, status: int, body: str,
                   content_type: str = "text/plain; version=0.0.4") -> None:
        self._send_bytes(status, body.encode("utf-8"), content_type)

    def _read_body(self) -> bytes:
        """The request body, sized by ``Content-Length`` (absent = 0).

        A malformed length raises ``ValueError`` and marks the
        connection for closing: the unread body cannot be skipped.
        """
        raw = self.headers.get("Content-Length")
        try:
            length = int(raw or 0)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise ValueError(f"invalid Content-Length: {raw!r}")
        return self.rfile.read(length) if length else b""

    def _read_json(self) -> Dict[str, Any]:
        """The request body as a JSON object; ValueError otherwise."""
        raw = self._read_body()
        if not raw:
            raise ValueError("empty request body")
        data = json.loads(raw.decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data
