"""Minimal asyncio HTTP/1.1 front end for the experiment service.

Pure standard library (``asyncio.start_server``): the service must
run in the bare container.  One request per connection
(``Connection: close``), every read guarded by the configured I/O
timeout so a slow or wedged client can never pin a handler.

Routes::

    POST /v1/jobs                submit (200 hot hit / 202 accepted /
                                 400 / 429+Retry-After / 503+Retry-After)
    GET  /v1/jobs/{id}           job status (200 / 404)
    GET  /v1/jobs/{id}/artifact  finished artifact (200 / 404 / 409)
    GET  /v1/jobs/{id}/trace     stitched Perfetto trace (200/404/409)
    GET  /v1/artifacts/{digest}  artifact by request digest (200 / 404)
    GET  /healthz                liveness
    GET  /readyz                 readiness (503 while shedding)
    GET  /v1/stats               service + engine counters
    GET  /metrics                Prometheus text exposition v0.0.4

Every request (except ``GET /metrics`` -- a scrape must not count
itself, or two scrapes of an idle service could never be
byte-identical) is counted into ``serve_http_requests_total`` /
``serve_http_latency_ms`` under a bounded route *template* label,
and optionally emitted as one structured JSON access-log line.

The module also ships :func:`http_request`, the tiny asyncio client
the load/chaos harness drives the server with -- including its
deliberately *mis*-behaving modes (slow writes, mid-request
disconnects).
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Callable

from repro.obs.metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.serve.models import (
    BadRequest,
    QueueFull,
    ServiceUnavailable,
)
from repro.serve.service import ExperimentService, serve_counts

#: Largest request body the server will read.
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    409: "Conflict", 413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str,
                 retry_after_s: float | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after_s = retry_after_s


#: Fixed routes that are their own metric label.
_FIXED_ROUTES = ("/healthz", "/readyz", "/v1/stats", "/v1/jobs",
                 "/metrics")


def route_template(path: str) -> str:
    """Collapse a request path to its bounded route-label template.

    Label cardinality must be a reviewable constant, so ids and
    digests never reach a label value; anything unrecognised is
    ``other``.
    """
    if path in _FIXED_ROUTES:
        return path
    if path.startswith("/v1/jobs/"):
        if path.endswith("/artifact"):
            return "/v1/jobs/{id}/artifact"
        if path.endswith("/trace"):
            return "/v1/jobs/{id}/trace"
        return "/v1/jobs/{id}"
    if path.startswith("/v1/artifacts/"):
        return "/v1/artifacts/{digest}"
    return "other"


class ServiceServer:
    """Binds an :class:`ExperimentService` to a TCP port.

    ``access_log`` is an optional callable receiving one dict per
    handled request (method, path, status, latency_ms, plus
    job_id/digest when the response carried a job); the CLI's
    ``--log-json`` wires it to a JSON-lines printer.
    """

    def __init__(self, service: ExperimentService,
                 host: str = "127.0.0.1", port: int = 0,
                 access_log: Callable[[dict], None] | None = None
                 ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.access_log = access_log
        self._server: asyncio.AbstractServer | None = None
        m = service.metrics
        self._m_requests = m.counter(
            "serve_http_requests_total",
            "handled HTTP requests (excluding /metrics scrapes)",
            labels=("method", "route", "status"))
        self._m_latency = m.histogram(
            "serve_http_latency_ms",
            "request handling latency (excluding /metrics scrapes)",
            labels=("route",))

    async def start(self) -> None:
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Connection handling.
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        timeout = self.service.config.io_timeout_s
        started = time.perf_counter()
        method: str | None = None
        path: str | None = None
        sent: tuple[int, Any] | None = None

        def send_error(status: int, message: str,
                       retry_after_s: float | None = None) -> None:
            nonlocal sent
            sent = (status, {"error": message})
            self._write_error(writer, status, message, retry_after_s)

        try:
            try:
                method, path, headers = await asyncio.wait_for(
                    self._read_head(reader), timeout=timeout)
                body = await asyncio.wait_for(
                    self._read_body(reader, headers), timeout=timeout)
            except asyncio.TimeoutError:
                send_error(408, "client too slow; dropping request")
                return
            except _HttpError as error:
                send_error(error.status, str(error))
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return  # client went away mid-request
            try:
                status, document, retry_after = self._route(
                    method, path, body)
            except _HttpError as error:
                send_error(error.status, str(error),
                           error.retry_after_s)
                return
            except Exception as error:   # never kill the handler task
                send_error(500, f"{type(error).__name__}: {error}")
                return
            sent = (status, document)
            self._write(writer, status, document, retry_after)
        finally:
            self._observe(method, path, sent,
                          time.perf_counter() - started)
            try:
                await asyncio.wait_for(writer.drain(),
                                       timeout=timeout)
            except (asyncio.TimeoutError, ConnectionError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _observe(self, method: str | None, path: str | None,
                 sent: tuple[int, Any] | None,
                 elapsed_s: float) -> None:
        """Per-route metrics + one access-log entry for a handled
        request.  Requests dropped before a request line parsed (or
        answered to a vanished client) are not observable; /metrics
        scrapes are deliberately excluded from the counters so idle
        scrapes stay byte-identical."""
        if method is None or path is None or sent is None:
            return
        status, document = sent
        latency_ms = elapsed_s * 1e3
        route = route_template(path)
        if path != "/metrics":
            self._m_requests.labels(method=method, route=route,
                                    status=str(status)).inc()
            self._m_latency.labels(route=route).observe(latency_ms)
        if self.access_log is None:
            return
        entry: dict[str, Any] = {
            "ts": round(time.time(), 3),
            "method": method,
            "path": path,
            "status": status,
            "latency_ms": round(latency_ms, 3),
        }
        job = (document.get("job")
               if isinstance(document, dict) else None)
        if isinstance(job, dict):
            if job.get("id") is not None:
                entry["job_id"] = job["id"]
            if job.get("digest") is not None:
                entry["digest"] = job["digest"]
        try:
            self.access_log(entry)
        except Exception:
            pass   # a broken log sink must never kill the handler

    async def _read_head(self, reader: asyncio.StreamReader
                         ) -> tuple[str, str, dict[str, str]]:
        request_line = (await reader.readline()).decode(
            "latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line "
                                  f"{request_line!r}")
        method, path, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            if ":" in line:
                key, _, value = line.partition(":")
                headers[key.strip().lower()] = value.strip()
        return method.upper(), path, headers

    async def _read_body(self, reader: asyncio.StreamReader,
                         headers: dict[str, str]) -> bytes:
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body of {length} bytes exceeds "
                                  f"the {MAX_BODY_BYTES} byte limit")
        if length <= 0:
            return b""
        return await reader.readexactly(length)

    # ------------------------------------------------------------------
    # Routing.
    # ------------------------------------------------------------------
    def _route(self, method: str, path: str, body: bytes
               ) -> tuple[int, Any, float | None]:
        service = self.service
        if path == "/healthz" and method == "GET":
            return 200, service.health(), None
        if path == "/metrics" and method == "GET":
            return 200, service.render_metrics(), None
        if path == "/readyz" and method == "GET":
            ready, document = service.readiness()
            return (200 if ready else 503), document, None
        if path == "/v1/stats" and method == "GET":
            from repro.engine.session import engine_counts

            return 200, {
                "serve": serve_counts(service.metrics),
                "breaker": service.breaker.as_dict(),
                "engine": engine_counts(service.metrics),
                "backend": service.config.backend,
                "artifacts": service.artifacts.stats(),
            }, None
        if path == "/v1/jobs" and method == "POST":
            return self._submit(body)
        if path.startswith("/v1/jobs/") and method == "GET":
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/artifact"):
                return self._artifact(rest[:-len("/artifact")])
            if rest.endswith("/trace"):
                return self._trace(rest[:-len("/trace")])
            return self._status(rest)
        if path.startswith("/v1/artifacts/") and method == "GET":
            return self._artifact_by_digest(
                path[len("/v1/artifacts/"):])
        if path in _FIXED_ROUTES:
            raise _HttpError(405, f"{method} not allowed on {path}")
        raise _HttpError(404, f"no route for {method} {path}")

    def _submit(self, body: bytes) -> tuple[int, dict, float | None]:
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise _HttpError(400, f"body is not JSON: {error}")
        try:
            job, envelope = self.service.submit(payload)
        except BadRequest as error:
            raise _HttpError(400, str(error))
        except QueueFull as error:
            raise _HttpError(429, str(error),
                             retry_after_s=error.retry_after_s)
        except ServiceUnavailable as error:
            raise _HttpError(503, str(error),
                             retry_after_s=error.retry_after_s)
        if envelope is not None:
            return 200, {"job": job.as_dict(),
                         "artifact": envelope}, None
        return 202, {"job": job.as_dict()}, None

    def _status(self, job_id: str) -> tuple[int, dict, float | None]:
        job = self.service.status(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        return 200, {"job": job.as_dict()}, None

    def _artifact(self, job_id: str) -> tuple[int, dict, float | None]:
        job, envelope = self.service.artifact_for(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        if job.state == "failed":
            return 200, {"job": job.as_dict()}, None
        if not job.terminal:
            raise _HttpError(
                409, f"job {job_id} is {job.state}; poll "
                     f"/v1/jobs/{job_id} until it is terminal")
        if envelope is None:
            raise _HttpError(
                404, f"artifact for job {job_id} is missing or "
                     "failed verification; resubmit the request")
        return 200, {"job": job.as_dict(), "artifact": envelope}, None

    def _trace(self, job_id: str) -> tuple[int, dict, float | None]:
        job = self.service.status(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        document = self.service.stitched_trace(job_id)
        if document is None:
            raise _HttpError(
                409, f"job {job_id} is {job.state}; the trace is "
                     f"stitched once the job is terminal")
        return 200, document, None

    def _artifact_by_digest(self, digest: str
                            ) -> tuple[int, dict, float | None]:
        envelope = self.service.artifacts.load(digest)
        if envelope is None:
            raise _HttpError(404, "no verified artifact for digest "
                                  f"{digest!r}")
        return 200, {"artifact": envelope}, None

    # ------------------------------------------------------------------
    # Response writing.
    # ------------------------------------------------------------------
    def _write(self, writer: asyncio.StreamWriter, status: int,
               document: Any,
               retry_after_s: float | None = None) -> None:
        if isinstance(document, str):
            # Pre-rendered text body (the /metrics exposition).
            body = document.encode("utf-8")
            content_type = METRICS_CONTENT_TYPE
        else:
            body = (json.dumps(document, sort_keys=True)
                    + "\n").encode()
            content_type = "application/json"
        head = [f"HTTP/1.1 {status} "
                f"{_REASONS.get(status, 'Unknown')}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(body)}",
                "Connection: close"]
        if retry_after_s is not None:
            head.append("Retry-After: "
                        f"{max(1, round(retry_after_s))}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)

    def _write_error(self, writer: asyncio.StreamWriter, status: int,
                     message: str,
                     retry_after_s: float | None = None) -> None:
        try:
            self._write(writer, status, {"error": message},
                        retry_after_s)
        except (ConnectionError, OSError):
            pass


# ----------------------------------------------------------------------
# Client (used by the load/chaos harness and the CLI examples).
# ----------------------------------------------------------------------
async def http_request(host: str, port: int, method: str, path: str,
                       body: Any = None, *, slow_s: float = 0.0,
                       disconnect: bool = False,
                       timeout_s: float = 30.0,
                       raw: bool = False
                       ) -> tuple[int, dict[str, str], Any]:
    """One HTTP exchange; returns ``(status, headers, document)``.

    ``slow_s`` sleeps between the head and the body to emulate a slow
    client; ``disconnect`` closes the socket mid-request (both are
    chaos-harness behaviours).  A disconnect reports status ``0``.
    With ``raw=True`` the response body is returned as decoded text
    instead of parsed JSON (used for ``/metrics`` scrapes, whose
    byte-level stability is part of the contract).
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        data = b""
        if body is not None:
            data = json.dumps(body, sort_keys=True).encode()
        head = [f"{method.upper()} {path} HTTP/1.1",
                f"Host: {host}:{port}",
                "Content-Type: application/json",
                f"Content-Length: {len(data)}",
                "Connection: close"]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode())
        await writer.drain()
        if disconnect:
            return 0, {}, None
        if slow_s > 0:
            await asyncio.sleep(slow_s)
        if data:
            writer.write(data)
            await writer.drain()
        blob = await asyncio.wait_for(reader.read(),
                                      timeout=timeout_s)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head_blob, _, body_blob = blob.partition(b"\r\n\r\n")
    lines = head_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1]) if lines and lines[0] else 0
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if ":" in line:
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
    document: Any = None
    if body_blob:
        if raw:
            document = body_blob.decode("utf-8", errors="replace")
        else:
            try:
                document = json.loads(body_blob.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                document = None
    return status, headers, document


__all__ = ["MAX_BODY_BYTES", "ServiceServer", "http_request",
           "route_template"]
