"""Stdlib HTTP front end for :class:`~repro.service.service.SimService`.

A deliberately small HTTP/1.1 server on raw ``asyncio`` streams - no new
dependencies: the service runs anywhere the simulator runs. One connection
per request (``Connection: close``), JSON bodies, and one streaming endpoint
(``/jobs/<fp>/events``) that emits NDJSON until the job reaches a terminal
state.

The API surface (documented operator-first in docs/SERVICE.md):

====== ============================ ===========================================
Method Path                         Meaning
====== ============================ ===========================================
GET    /healthz                     liveness + load (status/queue/in-flight)
GET    /stats                       lifetime counters, eviction report, config
POST   /jobs                        submit a job (coalesces; 429 on saturation)
GET    /jobs/<fp>                   status snapshot of one job
GET    /jobs/<fp>/result[?timeout=] long-poll for the result envelope
GET    /jobs/<fp>/events            NDJSON progress stream (replay + live)
POST   /admin/pause                 stop dispatching queued jobs
POST   /admin/resume                resume dispatching
POST   /admin/evict                 run a cache eviction sweep now
POST   /admin/shutdown              graceful shutdown ({"drain": false} cancels)
====== ============================ ===========================================

Every job response carries the job **fingerprint** - the same content hash
``SimJob.fingerprint()`` the engine keys its cache on - which is what makes
service-mode results provably interchangeable with local runs.
"""

from __future__ import annotations

import asyncio
import json
import re
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..config import SystemConfig
from ..errors import (
    ConfigError,
    ReproError,
    ServiceClosedError,
    ServiceSaturatedError,
)
from ..harness.engine import SimJob, TraceSpec
from ..harness.runner import MODEL_NAMES
from ..workloads.suite import benchmark_names
from .service import SimService

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_JOB_PATH = re.compile(r"^/jobs/([0-9a-f]{8,64})(/result|/events)?$")

#: Submission bodies larger than this are rejected outright (a full
#: SystemConfig dict is ~2 KiB; 1 MiB leaves room without inviting abuse).
MAX_BODY_BYTES = 1 << 20

#: Default long-poll window for ``/jobs/<fp>/result`` (seconds). Clients
#: loop on 408s, so this only bounds one round trip, not one job.
DEFAULT_RESULT_TIMEOUT_S = 30.0


def parse_job_payload(payload: dict) -> SimJob:
    """Validate a ``POST /jobs`` body and build the :class:`SimJob`.

    Raises :class:`~repro.errors.ConfigError` with a client-actionable
    message on anything malformed - surfaced as a 400, never a stack trace.
    """
    if not isinstance(payload, dict):
        raise ConfigError("job payload must be a JSON object")
    bench = payload.get("bench")
    if bench not in benchmark_names():
        raise ConfigError(
            f"unknown bench {bench!r}; choose from {benchmark_names()}"
        )
    model = payload.get("model")
    if model not in MODEL_NAMES:
        raise ConfigError(f"unknown model {model!r}; choose from {MODEL_NAMES}")
    try:
        n_accesses = int(payload.get("n_accesses"))
        seed = int(payload.get("seed", 7))
    except (TypeError, ValueError):
        raise ConfigError("n_accesses and seed must be integers")
    if n_accesses <= 0:
        raise ConfigError(f"n_accesses must be positive, got {n_accesses}")
    config_dict = payload.get("config")
    config = (
        SystemConfig.from_dict(config_dict)
        if config_dict is not None
        else SystemConfig.bench()
    )
    return SimJob(
        config=config, trace=TraceSpec(bench, n_accesses, seed), model=model
    )


class SimServiceServer:
    """Binds a :class:`SimService` to a host:port and speaks the API above."""

    def __init__(self, service: SimService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown_requested = asyncio.Event()

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_until_shutdown(self) -> None:
        """Run until ``POST /admin/shutdown`` (or :meth:`request_shutdown`),
        then drain the service and close the listener."""
        await self._shutdown_requested.wait()
        await self.service.shutdown(drain=self._drain_on_shutdown)
        await self.close()

    def request_shutdown(self, drain: bool = True) -> None:
        self._drain_on_shutdown = drain
        self._shutdown_requested.set()

    _drain_on_shutdown = True

    # -- connection handling -------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            method, path, query, body = await self._read_request(reader)
        except _BadRequest as exc:
            await self._respond(writer, exc.status, {"error": str(exc)})
            return
        except (asyncio.IncompleteReadError, ConnectionError, ValueError):
            writer.close()
            return
        try:
            await self._route(writer, method, path, query, body)
        except ConnectionError:
            pass
        except Exception as exc:  # no stack traces on the wire
            try:
                await self._respond(writer, 500, {"error": repr(exc)})
            except ConnectionError:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str], Optional[dict]]:
        request_line = await reader.readline()
        if not request_line:
            raise ConnectionError("empty request")
        try:
            method, target, _version = request_line.decode("latin-1").split()
        except ValueError:
            raise _BadRequest("malformed request line")
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if b":" in line:
                key, _, value = line.decode("latin-1").partition(":")
                headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > MAX_BODY_BYTES:
            raise _BadRequest("request body too large", status=413)
        body: Optional[dict] = None
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                raise _BadRequest("request body is not valid JSON")
        split = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        return method.upper(), split.path, query, body

    # -- routing -------------------------------------------------------------
    async def _route(self, writer, method: str, path: str,
                     query: Dict[str, str], body: Optional[dict]) -> None:
        service = self.service
        if path == "/healthz" and method == "GET":
            await self._respond(writer, 200, service.health())
            return
        if path == "/stats" and method == "GET":
            payload = {
                "stats": service.stats.as_dict(),
                "health": service.health(),
                "eviction": service.last_eviction.as_dict()
                if service.last_eviction is not None
                else None,
                "eviction_policy": service.config.eviction.describe(),
            }
            await self._respond(writer, 200, payload)
            return
        if path == "/jobs" and method == "POST":
            await self._submit(writer, body)
            return
        match = _JOB_PATH.match(path)
        if match is not None:
            fingerprint, sub = match.group(1), match.group(2)
            record = service.get_record(fingerprint)
            if record is None:
                await self._respond(
                    writer, 404,
                    {"error": f"unknown job {fingerprint[:12]}… (records are "
                              f"retained for the last "
                              f"{service.config.keep_records} jobs)"},
                )
                return
            if sub is None and method == "GET":
                await self._respond(writer, 200, record.snapshot())
                return
            if sub == "/result" and method == "GET":
                await self._result(writer, record, query)
                return
            if sub == "/events" and method == "GET":
                await self._events(writer, record)
                return
        if path == "/admin/pause" and method == "POST":
            await service.pause()
            await self._respond(writer, 200, service.health())
            return
        if path == "/admin/resume" and method == "POST":
            await service.resume()
            await self._respond(writer, 200, service.health())
            return
        if path == "/admin/evict" and method == "POST":
            report = service.evict_now()
            await self._respond(writer, 200, report.as_dict())
            return
        if path == "/admin/shutdown" and method == "POST":
            drain = True
            if isinstance(body, dict):
                drain = bool(body.get("drain", True))
            self.request_shutdown(drain=drain)
            await self._respond(
                writer, 200,
                {"status": "draining" if drain else "stopping",
                 "queue_depth": service.queue_depth,
                 "in_flight": service.in_flight},
            )
            return
        await self._respond(
            writer, 404 if method == "GET" else 405,
            {"error": f"no route {method} {path}"},
        )

    # -- endpoints -----------------------------------------------------------
    async def _submit(self, writer, body: Optional[dict]) -> None:
        try:
            job = parse_job_payload(body if body is not None else {})
        except ConfigError as exc:
            await self._respond(writer, 400, {"error": str(exc)})
            return
        except ReproError as exc:
            await self._respond(writer, 400, {"error": str(exc)})
            return
        try:
            record, coalesced = self.service.submit(job)
        except ServiceSaturatedError as exc:
            await self._respond(
                writer, 429,
                {"error": str(exc), "retry_after_s": exc.retry_after_s},
                extra_headers={"Retry-After": f"{exc.retry_after_s:g}"},
            )
            return
        except ServiceClosedError as exc:
            await self._respond(writer, 503, {"error": str(exc)})
            return
        payload = record.snapshot()
        payload["coalesced"] = coalesced
        payload["queue_depth"] = self.service.queue_depth
        await self._respond(writer, 200 if coalesced else 202, payload)

    async def _result(self, writer, record, query: Dict[str, str]) -> None:
        try:
            timeout = float(query.get("timeout", DEFAULT_RESULT_TIMEOUT_S))
        except ValueError:
            await self._respond(writer, 400, {"error": "timeout must be a number"})
            return
        try:
            await asyncio.wait_for(record.done.wait(), timeout=max(0.0, timeout))
        except asyncio.TimeoutError:
            await self._respond(
                writer, 408,
                {"error": f"job {record.fingerprint[:12]}… still "
                          f"{record.state} after {timeout:g}s; poll again",
                 "state": record.state},
            )
            return
        envelope = record.snapshot()
        if record.result is not None:
            envelope["result"] = record.result.to_dict()
            envelope["result_fingerprint"] = record.result.fingerprint()
        await self._respond(writer, 200, envelope)

    async def _events(self, writer, record) -> None:
        history, live = record.subscribe()
        headers = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Cache-Control: no-store\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(headers.encode("latin-1"))
        try:
            for event in history:
                writer.write((json.dumps(event, sort_keys=True) + "\n").encode("utf-8"))
            await writer.drain()
            if live is not None:
                while True:
                    event = await live.get()
                    writer.write(
                        (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
                    )
                    await writer.drain()
                    if event.get("kind") in ("result", "cancelled"):
                        break
        finally:
            if live is not None:
                record.unsubscribe(live)
            writer.close()

    # -- response plumbing ---------------------------------------------------
    async def _respond(self, writer, status: int, payload: dict,
                       extra_headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for key, value in (extra_headers or {}).items():
            lines.append(f"{key}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()
        writer.close()


class _BadRequest(Exception):
    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


async def serve_forever(service_config, host: str = "127.0.0.1",
                        port: int = 8765, ready=None) -> None:
    """Run a service + HTTP server until shutdown (``repro serve``'s core).

    ``ready(server)`` is called once the listener is bound (the CLI prints
    the URL; tests grab the ephemeral port). SIGINT/SIGTERM trigger the
    same graceful drain as ``POST /admin/shutdown``, where the platform
    allows installing handlers.
    """
    import signal

    service = SimService(service_config)
    await service.start()
    server = SimServiceServer(service, host, port)
    await server.start()
    loop = asyncio.get_running_loop()
    installed = []
    for signame in ("SIGINT", "SIGTERM"):
        signum = getattr(signal, signame, None)
        if signum is None:
            continue
        try:
            loop.add_signal_handler(signum, server.request_shutdown, True)
            installed.append(signum)
        except (NotImplementedError, RuntimeError, ValueError):
            pass
    if ready is not None:
        ready(server)
    try:
        await server.serve_until_shutdown()
    except asyncio.CancelledError:
        await service.shutdown(drain=True)
        await server.close()
        raise
    finally:
        for signum in installed:
            try:
                loop.remove_signal_handler(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
