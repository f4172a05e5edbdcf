"""The HTTP transport: routing, JSON codec, error mapping.

A thin adapter from :class:`http.server.ThreadingHTTPServer` onto
:class:`~repro.serve.service.ShardedService` — the handler owns *no*
state of its own beyond the request it is parsing, which is what makes
the one-handler-instance-per-request model of ``http.server`` safe:
every shared object the handler touches (the service, the registry)
carries its own thread-safety contract.

Endpoints::

    GET  /healthz                 liveness (200 ok / 503 failing)
    GET  /readyz                  readiness (200 ready / 503 not yet)
    GET  /metrics                 Prometheus text exposition, live
    GET  /stats                   per-shard JSON introspection
    GET  /window/topk[?limit=N]   the live window's trending patterns
    GET  /admin/topk[?limit=N]    quiesce + merge(): whole-stream top-k
    POST /ingest                  {"trees": ["(A (B))", ...]}
    POST /estimate/<kind>         lock-free sum of per-shard estimates
    POST /window/estimate/<kind>  same, over the shards' sliding windows
    POST /admin/estimate/<kind>   quiesce + merge(): the exact answer
    POST /admin/drain             quiesce only (apply every queued batch)
    POST /admin/snapshot          quiesce + checkpoint every shard

``<kind>`` is one of ``ordered``, ``unordered``, ``sum``, ``xpath``
(window estimates: no ``xpath``).  The top-k and window surfaces need
the service configured with ``--topk`` / ``--window-trees`` — without
them those routes answer 409.

Error mapping (one place, for every route): :class:`ApiError` carries
its own status; ``queue.Full`` is 503 backpressure with a
``Retry-After``; other :class:`~repro.errors.ReproError` subtypes are
400s (the request named an invalid pattern/config) except
:class:`~repro.errors.SnapshotError`, which is a 500 (the server failed
the durable part).

Transport: every response leaves in a single write with ``TCP_NODELAY``
set, and every request body is consumed before routing — including on
routes that ignore it — so a keep-alive connection stays in sync.  A
body the handler will not read (over :data:`MAX_BODY_BYTES` → 413,
chunked → 411, malformed ``Content-Length`` → 400) is answered with
``Connection: close``.
"""

from __future__ import annotations

import json
import queue
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.errors import ReproError, SnapshotError
from repro.obs.export import to_prometheus_text
from repro.serve.models import (
    ApiError,
    parse_estimate_request,
    parse_ingest_request,
    parse_topk_limit,
)
from repro.serve.service import ShardedService

__all__ = ["ApiHandler", "ServingHTTPServer", "make_server"]

#: Largest request body accepted, in bytes (64 MiB) — bounds one
#: handler thread's parse memory before tree validation even starts.
MAX_BODY_BYTES = 64 * 1024 * 1024


class ServingHTTPServer(ThreadingHTTPServer):  # sketchlint: thread-safe
    """A ``ThreadingHTTPServer`` carrying the service it fronts.

    Thread-safe: the two attributes added here are assigned once before
    ``serve_forever`` and only read by handler threads.
    """

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: ShardedService):
        super().__init__(address, ApiHandler)
        self.service = service


class ApiHandler(BaseHTTPRequestHandler):  # sketchlint: thread-confined
    """One instance per request, on that request's handler thread.

    Thread-confined by the ``http.server`` model; all sharing goes
    through ``self.server.service`` (thread-safe) and the registry.
    """

    server: ServingHTTPServer
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on the accepted socket.  Each response already leaves
    #: in one write (see :meth:`_send`); without this, Nagle's algorithm
    #: could still hold a segment back until the client's delayed ACK
    #: (~40 ms) on a keep-alive connection.
    disable_nagle_algorithm = True
    #: Quiet by default; ``repro.serve.app`` flips this for ``--verbose``.
    log_requests = False

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — http.server's naming
        try:
            self._read_body()  # keep the connection in sync if one came
            parts = urlsplit(self.path)
            path, params = parts.path, parse_qs(parts.query)
            service = self.server.service
            if path == "/healthz":
                health = service.health()
                self._send(200 if health["status"] == "ok" else 503, health)
            elif path == "/readyz":
                ready = service.ready()
                self._send(200 if ready["ready"] else 503, ready)
            elif path == "/metrics":
                self._send(
                    200,
                    to_prometheus_text(service.metrics).encode(),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            elif path == "/stats":
                self._send(200, service.stats())
            elif path == "/window/topk":
                self._send(200, service.window_topk(parse_topk_limit(params)))
            elif path == "/admin/topk":
                self._send(200, service.topk(parse_topk_limit(params)))
            else:
                self._send(404, {"error": f"no such path {path!r}"})
        except Exception as exc:  # noqa: BLE001 — boundary: map, don't crash
            self._send_error(exc)

    def do_POST(self) -> None:  # noqa: N802 — http.server's naming
        try:
            # Consumed before routing, whatever the route does with it: a
            # body left unread would be parsed as the next request on a
            # keep-alive connection.
            body = self._read_body()
            service = self.server.service
            path = self.path
            if path == "/ingest":
                trees = parse_ingest_request(_decode_json(body))
                self._send(202, service.submit(trees))
            elif path.startswith("/estimate/"):
                kind = path[len("/estimate/"):]
                parsed = parse_estimate_request(kind, _decode_json(body))
                self._send(200, service.estimate(kind, parsed))
            elif path.startswith("/window/estimate/"):
                kind = path[len("/window/estimate/"):]
                parsed = parse_estimate_request(kind, _decode_json(body))
                self._send(200, service.window_estimate(kind, parsed))
            elif path.startswith("/admin/estimate/"):
                kind = path[len("/admin/estimate/"):]
                parsed = parse_estimate_request(kind, _decode_json(body))
                self._send(200, service.admin_estimate(kind, parsed))
            elif path == "/admin/drain":
                self._send(200, service.drain())
            elif path == "/admin/snapshot":
                paths = service.snapshot()
                self._send(200, {"checkpoints": [str(p) for p in paths]})
            else:
                self._send(404, {"error": f"no such path {path!r}"})
        except Exception as exc:  # noqa: BLE001 — boundary: map, don't crash
            self._send_error(exc)

    # ------------------------------------------------------------------
    # Codec
    # ------------------------------------------------------------------
    def _read_body(self) -> bytes:
        """The request body, read in full (``b""`` without one).

        A body this handler cannot frame or will not read — a chunked
        transfer, a malformed or negative ``Content-Length``, or more
        than :data:`MAX_BODY_BYTES` — leaves unread bytes on the socket,
        so those answers also close the connection.
        """
        if self.headers.get("Transfer-Encoding"):
            self.close_connection = True
            raise ApiError("chunked request bodies are not supported", 411)
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise ApiError("malformed Content-Length header")
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise ApiError(f"request body over {MAX_BODY_BYTES} bytes", 413)
        return self.rfile.read(length) if length else b""

    def _send(
        self,
        status: int,
        body: dict | bytes,
        content_type: str = "application/json",
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        """Write the status line, headers and body in a single write.

        A ``dict`` body is encoded as one line of JSON.

        One ``wfile.write`` means one ``sendall`` — one segment for a
        small response — so a keep-alive client never waits on a body
        that trails its headers.  ``Connection: close`` is announced
        whenever the handler will close after this response.
        """
        if isinstance(body, dict):
            body = (json.dumps(body) + "\n").encode()
        self.log_request(status)
        lines = [
            f"{self.protocol_version} {status} {self.responses[status][0]}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        lines.extend(f"{k}: {v}" for k, v in (extra_headers or {}).items())
        if self.close_connection:
            lines.append("Connection: close")
        head = "\r\n".join(lines).encode("latin-1", "strict")
        self.wfile.write(head + b"\r\n\r\n" + body)

    def _send_error(self, exc: Exception) -> None:
        """The one error-mapping table for every route."""
        if isinstance(exc, ApiError):
            self._send(exc.status, {"error": str(exc)})
        elif isinstance(exc, queue.Full):
            self._send(
                503,
                {"error": "ingest queue full, retry with backoff"},
                extra_headers={"Retry-After": "1"},
            )
        elif isinstance(exc, SnapshotError):
            self._send(500, {"error": f"checkpoint failed: {exc}"})
        elif isinstance(exc, ReproError):
            self._send(400, {"error": str(exc)})
        else:
            self._send(
                500, {"error": f"internal error: {type(exc).__name__}: {exc}"}
            )

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if self.log_requests:
            super().log_message(format, *args)


def _decode_json(body: bytes) -> object:
    if not body:
        raise ApiError("request needs a JSON body (Content-Length > 0)")
    try:
        return json.loads(body)
    except ValueError as exc:
        raise ApiError(f"request body is not valid JSON: {exc}") from exc


def make_server(
    service: ShardedService, host: str = "127.0.0.1", port: int = 0
) -> ServingHTTPServer:
    """Bind a serving socket (``port=0`` picks an ephemeral port).

    Starts nothing: the caller starts the shards and runs
    ``serve_forever`` (see :mod:`repro.serve.app`); the actually bound
    port is ``server.server_address[1]``.
    """
    return ServingHTTPServer((host, port), service)
