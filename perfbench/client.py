"""A small HTTP/1.1 client that reuses connections when the server allows.

The benchmark's load generator.  It speaks HTTP/1.1 and keeps a
connection open whenever the response permits it: an HTTP/1.1 response
without ``Connection: close``, or an HTTP/1.0 response that says
``Connection: keep-alive``.  Otherwise it closes the socket and opens a
new one for the next request.  Every connect is counted, so a server
that starts to keep connections alive shows the gain with no change to
the benchmark.

It parses only what the reachability service sends: a status line,
headers, and a ``Content-Length`` body.
"""

from __future__ import annotations

import socket
import time

__all__ = ["Connection", "RequestFailed", "Response", "encode_request", "wait_ready"]

_HEADER_END = b"\r\n\r\n"


class RequestFailed(Exception):
    """The request got no complete response (timeout or socket error)."""


class Response:
    """One complete HTTP response."""

    __slots__ = ("status", "body")

    def __init__(self, status: int, body: bytes) -> None:
        self.status = status
        self.body = body


def encode_request(host: str, method: str, path: str, body: bytes | None = None) -> bytes:
    """One HTTP/1.1 request; a body is sent as JSON."""
    if body is None:
        return f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode()
    return (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


class Connection:
    """One client connection to ``host:port``; not thread-safe.

    ``connects`` counts TCP connects made so far.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.connects = 0
        self._sock: socket.socket | None = None

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port), self.timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.connects += 1
        self._sock = sock
        return sock

    def get(self, path: str) -> Response:
        return self.request(encode_request(self.host, "GET", path), idempotent=True)

    def request(self, raw: bytes, idempotent: bool) -> Response:
        """Send ``raw`` and read the whole response.

        A reused connection the server closed while idle fails before
        any response byte arrives; an idempotent request is then sent
        once more on a fresh connection.  Raises :class:`RequestFailed`
        on timeouts and socket errors.
        """
        reused = self._sock is not None
        try:
            return self._exchange(raw)
        except _StaleConnection:
            self.close()
            if not (reused and idempotent):
                raise RequestFailed("connection closed before a response") from None
        try:
            return self._exchange(raw)
        except _StaleConnection:
            self.close()
            raise RequestFailed("connection closed before a response") from None

    def _exchange(self, raw: bytes) -> Response:
        sock = self._sock
        try:
            if sock is None:
                sock = self._connect()
            sock.sendall(raw)
            buffer = b""
            while _HEADER_END not in buffer:
                chunk = sock.recv(65536)
                if not chunk:
                    if buffer:
                        raise RequestFailed("connection closed mid-response")
                    raise _StaleConnection()
                buffer += chunk
        except (ConnectionResetError, BrokenPipeError):
            raise _StaleConnection() from None
        except OSError as exc:  # timeouts, refused connects
            self.close()
            raise RequestFailed(f"{type(exc).__name__}: {exc}") from None
        except RequestFailed:
            self.close()
            raise
        head, _, body = buffer.partition(_HEADER_END)
        lines = head.decode("latin-1").split("\r\n")
        version, status = lines[0].split(" ", 2)[:2]
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip().lower()
        length = int(headers.get("content-length", "0"))
        try:
            while len(body) < length:
                chunk = sock.recv(65536)
                if not chunk:
                    raise RequestFailed("connection closed mid-body")
                body += chunk
        except OSError as exc:
            self.close()
            raise RequestFailed(f"{type(exc).__name__}: {exc}") from None
        except RequestFailed:
            self.close()
            raise
        connection = headers.get("connection", "")
        if version == "HTTP/1.1":
            keep_alive = connection != "close"
        else:
            keep_alive = connection == "keep-alive"
        if not keep_alive:
            self.close()
        return Response(int(status), body)


class _StaleConnection(Exception):
    """The peer closed the connection before sending any response byte."""


def wait_ready(host: str, port: int, deadline: float, poll_s: float = 0.002) -> None:
    """Poll ``GET /readyz`` until it answers 200 or ``deadline`` passes."""
    while True:
        conn = Connection(host, port, timeout_s=5.0)
        try:
            if conn.get("/readyz").status == 200:
                return
        except RequestFailed:
            pass
        finally:
            conn.close()
        if time.monotonic() > deadline:
            raise RequestFailed(f"server on port {port} never became ready")
        time.sleep(poll_s)
