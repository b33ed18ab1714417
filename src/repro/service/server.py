"""The HTTP face of the study service: stdlib only, eight endpoints.

============================  ==============================================
endpoint                      meaning
============================  ==============================================
``POST /jobs``                submit a study/sweep/manifest body; ``201``
                              with the new job document, or ``200`` when the
                              submission deduplicated onto an existing job
                              (``"deduplicated": true`` in the body)
``GET /jobs``                 list every retained job, submission order
``GET /jobs/<id>``            one job's status/progress document; for a
                              queued or running job, sent when the job
                              settles or after :data:`POLL_WAIT_S`,
                              whichever comes first
``GET /jobs/<id>/result``     the finished job's tagged-JSON envelope —
                              parses equal to ``repro run --json``; the
                              same bytes for every GET and every
                              deduplicated client
``GET /jobs/<id>/trace``      the finished job's ``repro-trace/v1``
                              envelope (409 until the job has run)
``DELETE /jobs/<id>``         cancel a *queued* job
``GET /health``               liveness probe
``GET /metrics``              pool health (queue depth, worker
                              utilization) + process metrics snapshot
============================  ==============================================

Errors arrive as ``{"error": {"type", "message", "repro"}}`` with the
status code chosen by exception class (:data:`STATUS_BY_ERROR`): a bad
submission is 400, an unknown job 404, an illegal state transition 409,
anything unexpected 500 — and the server survives all of them.
Requests ``http.server`` rejects before routing (an unsupported method,
a malformed request line) answer in the same JSON shape with the status
it chose, and close the connection.  Finished jobs are retained up to
:data:`~repro.service.jobs.MAX_FINISHED_JOBS`; an evicted id is a 404.

Every body is one line of compact JSON
(:func:`~repro.service.api.wire_body`).  A result body is encoded once,
when its job finishes (:attr:`~repro.service.jobs.Job.body`), and sent
as those bytes on every GET.  Every response leaves in one write:
status line, headers and body together.  Two writes would put the body
in a second small segment that Nagle's algorithm holds until the
client's delayed ACK, tens of milliseconds per response.  The waiting
poll keeps a client that polls back to back from crowding the job
workers off the interpreter.

The handler holds no state of its own: every request reaches the one
:class:`~repro.service.jobs.JobManager` hanging off the server object,
and all mutation happens under the manager's lock.  The server is
:class:`http.server.ThreadingHTTPServer`, so slow pollers never block a
submit.  Note this module constructs **no** thread or lock primitives
itself (RPL009): the threading server spawns its own handler threads
internally, and the worker pool lives in ``jobs.py``.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple, Type

from ..errors import ReproError
from .api import JobSubmission, wire_body
from .errors import (InvalidSubmission, JobNotFound, JobStateError,
                     ProtocolError, error_payload)
from .jobs import JobManager

#: How exception classes map onto HTTP status codes; first match wins,
#: so subclasses go before their bases.
STATUS_BY_ERROR: Tuple[Tuple[Type[BaseException], int], ...] = (
    (InvalidSubmission, 400),
    (JobNotFound, 404),
    (JobStateError, 409),
    (ReproError, 400),
)

#: Submission bodies larger than this are rejected outright (a manifest
#: of a few hundred entries is ~100 KiB; 4 MiB is nowhere near a limit
#: a legitimate client hits).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: The longest ``GET /jobs/<id>`` waits for a queued or running job to
#: settle before answering with the job as it stands.
POLL_WAIT_S = 1.0

#: How often the serving loop looks for a :meth:`ReproService.close`;
#: ``close`` waits at most this long for the loop to stop (``socketserver``
#: defaults to 0.5 s).
SERVE_POLL_S = 0.02


def status_for(error: BaseException) -> int:
    """The HTTP status an exception earns (500 when nothing matches).

    >>> status_for(JobNotFound("x")), status_for(ValueError("x"))
    (404, 500)
    """
    for error_type, status in STATUS_BY_ERROR:
        if isinstance(error, error_type):
            return status
    return 500


class _Handler(BaseHTTPRequestHandler):
    """Route requests onto ``self.server.manager``; never raise."""

    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"
    # A request line with no parsable version is answered with a status
    # line and headers, not as a bare HTTP/0.9 body.
    default_request_version = "HTTP/1.0"

    # -- plumbing --------------------------------------------------------------

    @property
    def manager(self) -> JobManager:
        return self.server.manager

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def parse_request(self) -> bool:
        self._body_read = False
        return super().parse_request()

    def _send_json(self, status: int, document: Any) -> None:
        self._send_body(status, wire_body(document))

    def _send_body(self, status: int, payload: bytes) -> None:
        """Send ``payload``, a :func:`~repro.service.api.wire_body`, as
        the response body."""
        if not self.close_connection and not self._body_read \
                and self.headers.get("Content-Length", "0") != "0":
            # A body the handler did not read would be parsed as the
            # next request on this connection.
            self.close_connection = True
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if self.close_connection:
            self.send_header("Connection", "close")
        # end_headers() would send the head on its own: queue the blank
        # line and the body behind it and flush them in one write.  (An
        # HTTP/0.9 request has no head, so the buffer may not exist.)
        if not hasattr(self, "_headers_buffer"):
            self._headers_buffer = []
        self._headers_buffer.append(b"\r\n" + payload)
        self.flush_headers()

    def _send_error_json(self, error: BaseException) -> None:
        self._send_json(status_for(error), {"error": error_payload(error)})

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """``http.server``'s own rejections, as typed JSON errors.  The
        request's framing may be broken, so the connection closes."""
        if message is None:
            message = self.responses.get(code, ("???",))[0]
        self.log_error("code %d, message %s", code, message)
        self.close_connection = True
        self._send_json(code, {"error": error_payload(ProtocolError(message))})

    def _read_body(self) -> Any:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            # The body cannot be framed, so nothing after the headers on
            # this connection is a request either.
            self.close_connection = True
            raise InvalidSubmission(f"Malformed Content-Length {header!r}")
        if length > MAX_BODY_BYTES:
            raise InvalidSubmission(
                f"Submission body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length) if length else b""
        self._body_read = True
        if not raw:
            raise InvalidSubmission("Empty submission body")
        try:
            return json.loads(raw)
        except ValueError as error:
            raise InvalidSubmission(
                f"Submission body is not JSON: {error}"
            ) from error

    # -- verbs -----------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802  (http.server naming)
        try:
            parts = [part for part in self.path.split("/") if part]
            if parts != ["jobs"]:
                raise JobNotFound(f"No such endpoint: POST {self.path}")
            submission = JobSubmission.from_document(self._read_body())
            job, attached = self.manager.submit(submission)
            document = self.manager.snapshot(job)
            document["deduplicated"] = attached
            self._send_json(200 if attached else 201, document)
        except Exception as error:
            self._send_error_json(error)

    def do_GET(self) -> None:  # noqa: N802
        try:
            parts = [part for part in self.path.split("?")[0].split("/")
                     if part]
            if parts == ["health"]:
                self._send_json(200, {"status": "ok"})
            elif parts == ["jobs"]:
                self._send_json(200, {"jobs": self.manager.documents()})
            elif len(parts) == 2 and parts[0] == "jobs":
                self._send_json(200, self.manager.poll(parts[1], POLL_WAIT_S))
            elif len(parts) == 3 and parts[0] == "jobs" \
                    and parts[2] == "result":
                self._send_body(200, self.manager.result_body(parts[1]))
            elif len(parts) == 3 and parts[0] == "jobs" \
                    and parts[2] == "trace":
                self._send_json(200, self.manager.trace(parts[1]))
            elif parts == ["metrics"]:
                self._send_json(200, self.manager.metrics_document())
            else:
                raise JobNotFound(f"No such endpoint: GET {self.path}")
        except Exception as error:
            self._send_error_json(error)

    def do_DELETE(self) -> None:  # noqa: N802
        try:
            parts = [part for part in self.path.split("/") if part]
            if len(parts) != 2 or parts[0] != "jobs":
                raise JobNotFound(f"No such endpoint: DELETE {self.path}")
            job = self.manager.cancel(parts[1])
            self._send_json(200, self.manager.snapshot(job))
        except Exception as error:
            self._send_error_json(error)


class ReproService(ThreadingHTTPServer):
    """The study service: a threading HTTP server bound to one
    :class:`~repro.service.jobs.JobManager`.

    ``port=0`` binds an ephemeral port (tests); :attr:`url` reports the
    resolved address either way.  :meth:`close` tears down both the
    socket and the worker pool.
    """

    daemon_threads = True

    def __init__(self, host: str = "127.0.0.1", port: int = 8000,
                 cache: Any = True, jobs: Optional[int] = None,
                 workers: int = 2, verbose: bool = False):
        self.manager = JobManager(cache=cache, jobs=jobs, workers=workers)
        self.verbose = verbose
        super().__init__((host, port), _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_forever(self, poll_interval: float = SERVE_POLL_S) -> None:
        super().serve_forever(poll_interval)

    def close(self) -> None:
        """Stop serving and shut the job pool down (queued jobs are
        cancelled; running jobs finish)."""
        self.shutdown()
        self.server_close()
        self.manager.close()


def describe_endpoints() -> Dict[str, str]:
    """The endpoint table, for ``repro serve``'s startup banner."""
    return {
        "POST /jobs": "submit a study/sweep/manifest body",
        "GET /jobs": "list retained jobs",
        "GET /jobs/<id>": "job status and progress (waits up to "
                          f"{POLL_WAIT_S:g} s for an unfinished job)",
        "GET /jobs/<id>/result": "finished job's result envelope",
        "GET /jobs/<id>/trace": "finished job's repro-trace/v1 envelope",
        "DELETE /jobs/<id>": "cancel a queued job",
        "GET /health": "liveness probe",
        "GET /metrics": "pool health + process metrics snapshot",
    }


__all__ = [
    "MAX_BODY_BYTES",
    "POLL_WAIT_S",
    "STATUS_BY_ERROR",
    "ReproService",
    "describe_endpoints",
    "status_for",
]
