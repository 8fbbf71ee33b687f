"""The stdlib HTTP shell around :class:`~repro.server.app.TimingServerApp`.

A threaded TCP server speaking just enough HTTP/1.1 for a localhost
JSON service, tuned for request-per-millisecond round trips:

* hand-rolled request parsing — ``BaseHTTPRequestHandler`` burns
  several hundred microseconds per request in ``readline`` and
  ``email.parser`` header handling, which on one core rivals the
  coalesced cost of an entire analysis; this parser reads the raw
  head, splits lines, and looks at the two headers that matter
  (``Content-Length``, ``Connection``);
* keep-alive by default (HTTP/1.1 semantics), one response write per
  request with an explicit ``Content-Length``;
* ``TCP_NODELAY`` — without it the write-request/read-response
  ping-pong of a keep-alive connection stalls ~40ms per request on
  Nagle + delayed-ACK interaction;
* listen backlog raised from the stdlib default of 5 so a burst of
  connecting clients is not reset;
* daemon threads so a hung client cannot block process exit.

Every parseable request is answered, even on handler bugs (the app
converts them to structured 500s); the shell only swallows client
disconnects.  Transport-level rejections (bad request line, bad or
oversized ``Content-Length``) carry the same structured JSON error
body as app-level ones — a client never has to parse two error
dialects.  Oversized bodies are refused from the ``Content-Length``
header *before* any body bytes are buffered, then the connection is
closed (the unread body makes it unframeable).
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from http.client import responses as _REASONS

from repro.server.app import TimingServerApp

#: Default bind address: serving is localhost-first; put a real proxy in
#: front for anything else.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8421

#: Cap on request head + body size (16 MiB): a netlist upload fits, a
#: runaway or malicious stream does not.
MAX_REQUEST_BYTES = 16 * 1024 * 1024


class _Handler(socketserver.BaseRequestHandler):
    """One keep-alive connection: parse, dispatch to the app, respond."""

    def handle(self) -> None:
        sock = self.request
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buf = b""
        try:
            while True:
                # -------- request head
                while b"\r\n\r\n" not in buf:
                    if len(buf) > MAX_REQUEST_BYTES:
                        return
                    chunk = sock.recv(65536)
                    if not chunk:
                        return
                    buf += chunk
                head, _, buf = buf.partition(b"\r\n\r\n")
                lines = head.split(b"\r\n")
                parts = lines[0].split(b" ")
                if len(parts) != 3:
                    sock.sendall(
                        _error_response(
                            400, "bad-request-line", "malformed request line"
                        )
                    )
                    return
                method, target, version = parts
                keep_alive = version != b"HTTP/1.0"
                length = 0
                for line in lines[1:]:
                    name, _, value = line.partition(b":")
                    name = name.strip().lower()
                    if name == b"content-length":
                        try:
                            length = int(value)
                        except ValueError:
                            length = -1
                        if length < 0:
                            sock.sendall(
                                _error_response(
                                    400,
                                    "bad-content-length",
                                    "Content-Length is not a "
                                    "non-negative integer",
                                )
                            )
                            return
                    elif name == b"connection":
                        token = value.strip().lower()
                        if token == b"close":
                            keep_alive = False
                        elif token == b"keep-alive":
                            keep_alive = True
                max_body = self.server.max_body_bytes
                if length > max_body:
                    # refuse from the header alone — never buffer an
                    # oversized body
                    sock.sendall(
                        _error_response(
                            413,
                            "body-too-large",
                            f"request body of {length} bytes exceeds "
                            f"this server's limit of {max_body} bytes",
                        )
                    )
                    return
                # -------- request body
                while len(buf) < length:
                    chunk = sock.recv(65536)
                    if not chunk:
                        return
                    buf += chunk
                body, buf = buf[:length], buf[length:]
                # -------- dispatch + response
                status, ctype, payload = self.server.app.handle(
                    method.decode("latin-1"),
                    target.decode("latin-1"),
                    body,
                )
                reason = _REASONS.get(status, "Unknown")
                header = (
                    f"HTTP/1.1 {status} {reason}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                )
                if not keep_alive:
                    header += "Connection: close\r\n"
                sock.sendall(header.encode("latin-1") + b"\r\n" + payload)
                if self.server.verbose:
                    print(
                        f"{self.client_address[0]} "
                        f"{method.decode('latin-1')} "
                        f"{target.decode('latin-1')} {status}"
                    )
                if not keep_alive:
                    return
        except (
            BrokenPipeError,
            ConnectionResetError,
            TimeoutError,
            OSError,
        ):
            pass  # client went away; nothing to answer


def _error_response(status: int, code: str, message: str) -> bytes:
    """A transport-level rejection in the app's error-body dialect.

    Always ``Connection: close``: these rejections leave the stream
    unframeable (unread body, garbled head), so the connection cannot
    be reused.
    """
    reason = _REASONS.get(status, "Unknown")
    payload = json.dumps(
        {"error": {"code": code, "message": message}, "trace_id": None}
    ).encode()
    return (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1") + payload


class TimingHTTPServer(socketserver.ThreadingTCPServer):
    """One daemon: an app, a bound socket, a thread per connection."""

    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = 128

    def __init__(
        self,
        app: TimingServerApp,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        verbose: bool = False,
        max_body_bytes: int = MAX_REQUEST_BYTES,
    ):
        self.app = app
        self.verbose = verbose
        if max_body_bytes < 1:
            raise ValueError(
                f"max_body_bytes must be >= 1, got {max_body_bytes}"
            )
        self.max_body_bytes = int(max_body_bytes)
        super().__init__((host, port), _Handler)

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` ephemeral binds)."""
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    def shutdown(self) -> None:
        """Stop serving, close the listening socket, drain the app.

        The stdlib ``shutdown`` only stops :meth:`serve_forever`; this
        one also closes the listening socket (a later
        :meth:`server_close` is harmless) and then drains every
        design's coalescer, so one call stops everything
        :func:`start_server` started and leaks nothing.
        """
        super().shutdown()
        self.server_close()
        self.app.close()


def start_server(
    app: TimingServerApp,
    host: str = DEFAULT_HOST,
    port: int = 0,
    *,
    verbose: bool = False,
    max_body_bytes: int = MAX_REQUEST_BYTES,
) -> tuple[TimingHTTPServer, threading.Thread]:
    """Bind and serve on a background thread (tests, benchmarks).

    Returns the server (already accepting connections) and its thread;
    call ``server.shutdown()`` to stop both and close the socket.
    """
    server = TimingHTTPServer(
        app, host, port, verbose=verbose, max_body_bytes=max_body_bytes
    )
    thread = threading.Thread(
        target=server.serve_forever,
        name=f"timing-server:{server.port}",
        daemon=True,
    )
    thread.start()
    return server, thread


__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "MAX_REQUEST_BYTES",
    "TimingHTTPServer",
    "start_server",
]
