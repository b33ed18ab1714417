"""The async study service: concurrency, dedup and fault harness.

The contracts under test (PR 8):

* **lifecycle** — submit / poll / fetch / cancel through the five HTTP
  endpoints, with typed error payloads and the right status codes;
* **dedup** — K identical concurrent submissions cost exactly one engine
  invocation (counter-proved, like ``test_delta_sweep``), and every
  client fetches byte-identical envelopes equal to a direct
  :func:`run_study`;
* **execution blindness at the API boundary** — job fingerprints are
  invariant under submission-body key order and ``jobs``
  (property-style, RPL004 extended to HTTP);
* **fault injection** — an engine raising mid-job yields status
  ``failed`` with a typed error payload, never a hung job or a dead
  server;
* **the wire** — every response, ``http.server``'s own rejections
  included, is one write of a typed JSON document; a status poll of an
  unfinished job waits for it up to a bound; and the job table keeps a
  bounded number of finished jobs without breaking dedup.

All HTTP traffic is stdlib ``http.client`` against an ephemeral port;
the engine under the service is the real one except where a counting /
blocking / raising wrapper is monkeypatched in (the registry resolves
runners at call time, so patching ``experiments.run_fig3_nand3``
reaches the worker threads).
"""

from __future__ import annotations

import functools
import http.client
import io
import json
import os
import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

import repro.analysis.experiments as experiments
import repro.service.jobs as jobs_module
import repro.service.server as server_module
from repro.errors import ReproError
from repro.runtime import ResultCache
from repro.runtime.manifest import ManifestEntry, run_manifest
from repro.service import (
    InvalidSubmission,
    JobManager,
    JobSubmission,
    ReproService,
    status_for,
)
from repro.study import StudyResult, SweepSpec, run_sweep_study
from repro.study.registry import run_study

POLL_TIMEOUT_S = 60.0

#: A sweep over an axis its engine does not understand.
_BAD_SWEEP = {"study": "sweep", "engine": "immunity",
              "axes": {"vdd": [0.9, 1.0]}, "params": {"trials": 5, "seed": 1}}
#: A sweep on the deterministic transient engine, which takes no
#: ``seed``/``trials``.
_TRANSIENT_SWEEP = {"study": "sweep", "engine": "transient",
                    "axes": {"vdd": [0.9, 1.0]}}


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


class Client:
    """A minimal stdlib HTTP client bound to one running service."""

    def __init__(self, service: ReproService):
        self.host, self.port = service.server_address[:2]

    def request(self, method: str, path: str, body=None):
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=POLL_TIMEOUT_S)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            return response.status, raw
        finally:
            connection.close()

    def json(self, method: str, path: str, body=None):
        status, raw = self.request(method, path, body)
        return status, json.loads(raw)

    def poll(self, job_id: str, until=("done", "failed", "cancelled")):
        deadline = time.monotonic() + POLL_TIMEOUT_S
        while True:
            status, document = self.json("GET", f"/jobs/{job_id}")
            assert status == 200
            if document["status"] in until:
                return document
            assert time.monotonic() < deadline, \
                f"job {job_id} stuck in {document['status']}"
            time.sleep(0.02)


def _start(tmp_path, **kwargs):
    kwargs.setdefault("cache", tmp_path / "cache")
    kwargs.setdefault("workers", 2)
    service = ReproService(port=0, **kwargs)
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    return service


@pytest.fixture
def service(tmp_path):
    running = _start(tmp_path)
    yield running
    running.close()


@pytest.fixture
def client(service):
    return Client(service)


@pytest.fixture
def fig3_gate(monkeypatch):
    """The counting/blocking fig3 engine: every invocation increments
    ``calls`` and waits on ``release`` before computing — so tests can
    pile up concurrent submissions against a provably single run."""
    real = experiments.run_fig3_nand3
    calls = []
    release = threading.Event()
    started = threading.Event()

    # wraps() preserves the runner's signature, which run_study uses to
    # validate keyword parameters before invoking it.
    @functools.wraps(real)
    def gated(*args, **kwargs):
        calls.append(1)
        started.set()
        assert release.wait(POLL_TIMEOUT_S), "gate never released"
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_fig3_nand3", gated)
    return calls, release, started


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_health(self, client):
        assert client.json("GET", "/health") == (200, {"status": "ok"})

    def test_close_is_prompt(self, tmp_path):
        service = _start(tmp_path)
        assert Client(service).json("GET", "/health")[0] == 200
        start = time.monotonic()
        service.close()
        assert time.monotonic() - start < 0.1

    def test_submit_poll_fetch(self, client):
        status, document = client.json("POST", "/jobs", {"study": "fig3"})
        assert status == 201
        assert document["deduplicated"] is False
        assert document["submission"] == {
            "kind": "study", "study": "fig3",
            "entries": 1, "deterministic": True,
        }
        job_id = document["id"]
        final = client.poll(job_id)
        assert final["status"] == "done"
        assert final["error"] is None
        status, envelope = client.json("GET", f"/jobs/{job_id}/result")
        assert status == 200
        assert envelope["study"] == "fig3"
        assert envelope["payload"] == run_study("fig3").to_json_dict()["payload"]

    def test_job_listing_in_submission_order(self, client):
        first = client.json("POST", "/jobs", {"study": "fig3"})[1]["id"]
        second = client.json(
            "POST", "/jobs",
            {"study": "fig3", "params": {"unit_width": 6.0}})[1]["id"]
        status, listing = client.json("GET", "/jobs")
        assert status == 200
        assert [job["id"] for job in listing["jobs"]] == [first, second]

    def test_sweep_job_reports_corner_progress(self, client):
        status, document = client.json("POST", "/jobs", {
            "study": "sweep", "engine": "immunity",
            "axes": {"cnts_per_trial": [2, 4, 6]},
            "params": {"trials": 20, "seed": 7},
        })
        assert status == 201
        assert document["progress"]["total"] == 3
        final = client.poll(document["id"])
        assert final["status"] == "done"
        assert final["progress"] == {"total": 3, "done": 3}

    def test_circuit_sweep_job_matches_run_sweep_study(self, client):
        body = {"study": "sweep", "engine": "circuit",
                "axes": {"vdd": [0.9, 1.0]},
                "params": {"circuit": "adder:2", "trials": 20, "draws": 10}}
        assert JobSubmission.from_document(body).kind == "sweep"
        status, document = client.json("POST", "/jobs", body)
        assert status == 201
        assert client.poll(document["id"])["status"] == "done"
        status, envelope = client.json("GET",
                                       f"/jobs/{document['id']}/result")
        assert status == 200
        expected = run_sweep_study(
            SweepSpec.from_mapping({"vdd": [0.9, 1.0]}), engine="circuit",
            circuit="adder:2", trials=20, draws=10)
        assert envelope["payload"] == expected.to_json_dict()["payload"]

    def test_unknown_job_is_404(self, client):
        for method, path in (
            ("GET", "/jobs/job-999999"),
            ("GET", "/jobs/job-999999/result"),
            ("DELETE", "/jobs/job-999999"),
        ):
            status, document = client.json(method, path)
            assert status == 404
            assert document["error"]["type"] == "JobNotFound"

    def test_unknown_endpoint_is_404(self, client):
        assert client.json("GET", "/nope")[0] == 404
        assert client.json("POST", "/jobs/extra", {"study": "fig3"})[0] == 404

    @pytest.mark.parametrize("body", [
        {"study": "no-such-study"},
        {"study": "sweep", "engine": "warp", "axes": {"vdd": [0.8]}},
        {"study": "fig3", "jobs": "four"},
        {"study": "fig3", "backend": "quantum"},
        {"studies": []},
        [1, 2, 3],
        _BAD_SWEEP,                                       # unknown axis
        {**_BAD_SWEEP, "axes": {"cnts_per_trial": [2, 4]},
         "params": {"trials": 5, "seed": 1, "bogus": 3}},  # unknown fixed
        {**_BAD_SWEEP, "axes": {"cnts_per_trial": [2, 4]},
         "params": {"trials": 5, "seed": 1,
                    "cnts_per_trial": 8}},               # swept and fixed
        {"studies": [{"study": "fig3"}, _BAD_SWEEP]},
        {"study": "fig3", "params": {"bogus": 1}},        # unknown keyword
        {**_TRANSIENT_SWEEP, "params": {"seed": 3}},
        {**_TRANSIENT_SWEEP, "params": {"trials": 5}},
        {**_TRANSIENT_SWEEP, "params": {"seed": None}},
        # There is no backend option: ``backend`` is an unknown key,
        # at the top level and inside a manifest entry alike.
        {"study": "fig3", "backend": "thread"},
        {"studies": [{"study": "fig3", "backend": "thread"}]},
    ])
    def test_invalid_submissions_are_400(self, client, body):
        status, document = client.json("POST", "/jobs", body)
        assert status == 400
        assert document["error"]["type"] == "InvalidSubmission"
        assert document["error"]["repro"] is True
        assert client.json("GET", "/jobs") == (200, {"jobs": []})

    def test_non_json_body_is_400(self, client):
        connection = http.client.HTTPConnection(client.host, client.port,
                                                timeout=POLL_TIMEOUT_S)
        try:
            connection.request("POST", "/jobs", body=b"{not json")
            response = connection.getresponse()
            assert response.status == 400
            assert json.loads(response.read())["error"]["type"] \
                == "InvalidSubmission"
        finally:
            connection.close()

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_malformed_content_length_is_400(self, client, length):
        # A raw socket: http.client computes the header itself.  The
        # request stays open, so a handler that waits for the body to end
        # never answers within the timeout.
        with socket.create_connection((client.host, client.port),
                                      timeout=3.0) as raw:
            raw.sendall(f"POST /jobs HTTP/1.1\r\nHost: test\r\n"
                        f"Content-Length: {length}\r\n\r\n".encode())
            response = http.client.HTTPResponse(raw)
            response.begin()
            assert response.status == 400
            assert json.loads(response.read())["error"]["type"] \
                == "InvalidSubmission"

    def test_result_of_unfinished_job_is_409(self, tmp_path, fig3_gate):
        calls, release, started = fig3_gate
        service = _start(tmp_path, workers=1)
        try:
            client = Client(service)
            job_id = client.json("POST", "/jobs", {"study": "fig3"})[1]["id"]
            assert started.wait(POLL_TIMEOUT_S)
            status, document = client.json("GET", f"/jobs/{job_id}/result")
            assert status == 409
            assert document["error"]["type"] == "JobStateError"
            release.set()
            assert client.poll(job_id)["status"] == "done"
        finally:
            release.set()
            service.close()


# ---------------------------------------------------------------------------
# Cancellation
# ---------------------------------------------------------------------------


class TestCancellation:
    def test_queued_job_cancels_and_never_runs(self, tmp_path, fig3_gate):
        calls, release, started = fig3_gate
        service = _start(tmp_path, workers=1)
        try:
            client = Client(service)
            blocker = client.json("POST", "/jobs", {"study": "fig3"})[1]["id"]
            assert started.wait(POLL_TIMEOUT_S)
            queued = client.json(
                "POST", "/jobs",
                {"study": "fig3", "params": {"unit_width": 6.0}})[1]
            assert queued["status"] == "queued"
            status, cancelled = client.json("DELETE", f"/jobs/{queued['id']}")
            assert status == 200
            assert cancelled["status"] == "cancelled"
            # Cancelling again, or fetching its result, is a state error.
            assert client.json("DELETE", f"/jobs/{queued['id']}")[0] == 409
            assert client.json(
                "GET", f"/jobs/{queued['id']}/result")[0] == 409
            release.set()
            assert client.poll(blocker)["status"] == "done"
            # Only the blocker ever reached the engine.
            assert len(calls) == 1
        finally:
            release.set()
            service.close()

    def test_running_job_cannot_be_cancelled(self, tmp_path, fig3_gate):
        calls, release, started = fig3_gate
        service = _start(tmp_path, workers=1)
        try:
            client = Client(service)
            job_id = client.json("POST", "/jobs", {"study": "fig3"})[1]["id"]
            assert started.wait(POLL_TIMEOUT_S)
            status, document = client.json("DELETE", f"/jobs/{job_id}")
            assert status == 409
            assert document["error"]["type"] == "JobStateError"
            release.set()
            assert client.poll(job_id)["status"] == "done"
        finally:
            release.set()
            service.close()

    def test_cancelled_job_does_not_absorb_resubmission(self, tmp_path,
                                                        fig3_gate):
        calls, release, started = fig3_gate
        service = _start(tmp_path, workers=1)
        try:
            client = Client(service)
            client.json("POST", "/jobs", {"study": "fig3"})
            assert started.wait(POLL_TIMEOUT_S)
            body = {"study": "fig3", "params": {"unit_width": 6.0}}
            queued = client.json("POST", "/jobs", body)[1]
            client.json("DELETE", f"/jobs/{queued['id']}")
            resubmitted = client.json("POST", "/jobs", body)[1]
            assert resubmitted["id"] != queued["id"]
            assert resubmitted["deduplicated"] is False
            release.set()
            assert client.poll(resubmitted["id"])["status"] == "done"
        finally:
            release.set()
            service.close()


# ---------------------------------------------------------------------------
# Dedup: the acceptance criterion
# ---------------------------------------------------------------------------


class TestConcurrentDedup:
    K = 6

    def test_k_identical_submissions_one_engine_run(self, tmp_path,
                                                    fig3_gate):
        """K concurrent identical POSTs -> exactly one engine invocation,
        one job id, K clients, and K byte-identical result envelopes
        equal to a direct ``run_study``."""
        calls, release, started = fig3_gate
        service = _start(tmp_path, workers=2)
        try:
            client = Client(service)
            responses = []
            errors = []

            def submit():
                try:
                    responses.append(
                        client.json("POST", "/jobs", {"study": "fig3"}))
                except Exception as error:  # pragma: no cover - harness
                    errors.append(error)

            threads = [threading.Thread(target=submit)
                       for _ in range(self.K)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert len(responses) == self.K

            job_ids = {document["id"] for _, document in responses}
            assert len(job_ids) == 1, "identical submissions split jobs"
            job_id = job_ids.pop()
            statuses = sorted(status for status, _ in responses)
            assert statuses == [200] * (self.K - 1) + [201]
            deduplicated = [document["deduplicated"]
                            for _, document in responses]
            assert sum(deduplicated) == self.K - 1

            release.set()
            final = client.poll(job_id)
            assert final["status"] == "done"
            assert final["clients"] == self.K
            assert len(calls) == 1, "dedup leaked extra engine runs"

            bodies = {client.request("GET", f"/jobs/{job_id}/result")[1]
                      for _ in range(self.K)}
            assert len(bodies) == 1, "clients saw different bytes"
            envelope = json.loads(bodies.pop())
            assert envelope["payload"] \
                == run_study("fig3").to_json_dict()["payload"]
        finally:
            release.set()
            service.close()

    def test_submission_after_completion_attaches_to_done_job(self, client):
        first = client.json("POST", "/jobs", {"study": "fig3"})[1]
        client.poll(first["id"])
        status, second = client.json("POST", "/jobs", {"study": "fig3"})
        assert status == 200
        assert second["id"] == first["id"]
        assert second["deduplicated"] is True
        assert second["clients"] == 2

    def test_execution_overrides_do_not_split_jobs(self, client):
        first = client.json("POST", "/jobs", {"study": "fig3"})[1]
        client.poll(first["id"])
        status, second = client.json(
            "POST", "/jobs", {"study": "fig3", "jobs": 4})
        assert status == 200
        assert second["id"] == first["id"]

    def test_fresh_entropy_submissions_never_dedup(self, client):
        body = {"study": "fig2", "params": {"seed": None, "trials": 10}}
        first = client.json("POST", "/jobs", body)[1]
        second = client.json("POST", "/jobs", body)[1]
        assert first["submission"]["deterministic"] is False
        assert first["id"] != second["id"]
        assert client.poll(first["id"])["status"] == "done"
        assert client.poll(second["id"])["status"] == "done"


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


class TestFaultInjection:
    def test_engine_exception_fails_job_not_server(self, tmp_path,
                                                   monkeypatch):
        def exploding(*args, **kwargs):
            raise RuntimeError("injected mid-job fault")

        monkeypatch.setattr(experiments, "run_fig3_nand3", exploding)
        service = _start(tmp_path)
        try:
            client = Client(service)
            job_id = client.json("POST", "/jobs", {"study": "fig3"})[1]["id"]
            final = client.poll(job_id)
            assert final["status"] == "failed"
            assert final["error"] == {
                "type": "RuntimeError",
                "message": "injected mid-job fault",
                "repro": False,
            }
            status, document = client.json("GET", f"/jobs/{job_id}/result")
            assert status == 409
            assert "RuntimeError" in document["error"]["message"]
            # The server survives and the pool still takes work.
            assert client.json("GET", "/health")[0] == 200
        finally:
            service.close()

    def test_pool_runs_new_jobs_after_a_failure(self, tmp_path, monkeypatch):
        real = experiments.run_fig3_nand3
        fail_first = {"armed": True}

        def flaky(*args, **kwargs):
            if fail_first.pop("armed", False):
                raise ValueError("transient explosion")
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_fig3_nand3", flaky)
        service = _start(tmp_path, workers=1)
        try:
            client = Client(service)
            failed = client.json("POST", "/jobs", {"study": "fig3"})[1]["id"]
            assert client.poll(failed)["status"] == "failed"
            # A failed job never absorbs a retry: same body, new job.
            status, retry = client.json("POST", "/jobs", {"study": "fig3"})
            assert status == 201
            assert retry["id"] != failed
            assert client.poll(retry["id"])["status"] == "done"
        finally:
            service.close()


# ---------------------------------------------------------------------------
# The wire: one write per response, waiting polls, a bounded job table
# ---------------------------------------------------------------------------


class _FakeSocket:
    """Just enough of a socket for one handler: canned request bytes in,
    and every write of the handler's ``wfile`` recorded as it arrives
    (the unbuffered ``wfile`` is one ``sendall`` per write)."""

    def __init__(self, request: bytes):
        self.request = request
        self.writes = []

    def makefile(self, mode, buffering=-1):
        return io.BytesIO(self.request)

    def sendall(self, data):
        self.writes.append(bytes(data))


def _handle(service, request: bytes):
    """Run one real handler over ``request``; ``(writes, status, body)``."""
    sock = _FakeSocket(request)
    server_module._Handler(sock, ("127.0.0.1", 0), service)
    head, _, body = b"".join(sock.writes).partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = [line for line in head.split(b"\r\n")
              if line.lower().startswith(b"content-length:")]
    assert int(length[0].split(b":")[1]) == len(body)
    return sock.writes, status, json.loads(body)


class TestOneWritePerResponse:
    def test_success_created_and_error_are_one_write(self, service):
        body = json.dumps({"study": "fig3"}).encode()
        for request, expected, key in (
            (b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n", 200, "status"),
            (b"POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: "
             + str(len(body)).encode() + b"\r\n\r\n" + body, 201,
             "deduplicated"),
            (b"GET /jobs/job-999999 HTTP/1.1\r\nHost: t\r\n\r\n", 404,
             "error"),
            (b"PUT /jobs HTTP/1.1\r\nHost: t\r\n\r\n", 501, "error"),
        ):
            writes, status, document = _handle(service, request)
            assert (status, len(writes)) == (expected, 1), writes
            assert key in document


class TestHttpServerErrorsAreJson:
    """``http.server`` rejects some requests before any ``do_*`` runs;
    those answers share the service's typed JSON error shape."""

    @staticmethod
    def _raw(client, request: bytes):
        with socket.create_connection((client.host, client.port),
                                      timeout=POLL_TIMEOUT_S) as raw:
            raw.sendall(request)
            response = http.client.HTTPResponse(raw)
            response.begin()
            document = json.loads(response.read())
            # The framing may be broken, so the server hangs up.
            assert raw.recv(1) == b""
            return response, document

    def test_unsupported_method_is_a_json_501(self, client):
        response, document = self._raw(
            client, b"PUT /jobs HTTP/1.1\r\nHost: test\r\n\r\n")
        assert response.status == 501
        assert response.getheader("Content-Type") == "application/json"
        assert document["error"]["type"] == "ProtocolError"
        assert "PUT" in document["error"]["message"]
        assert document["error"]["repro"] is True

    @pytest.mark.parametrize("line", [b"GET /jobs garbage HTTP/1.1",
                                      b"garbage"])
    def test_garbage_request_line_is_a_json_400(self, client, line):
        response, document = self._raw(client, line + b"\r\n\r\n")
        assert response.status == 400
        assert response.getheader("Content-Type") == "application/json"
        assert document["error"]["type"] == "ProtocolError"


class TestUnreadBodyClosesTheConnection:
    """A request whose body the handler does not read gets one answer and
    a closed connection: the body is never parsed as a second request."""

    SMUGGLED = b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n"

    @pytest.mark.parametrize("head, status", [
        (b"POST /jobs", 400),      # Content-Length over MAX_BODY_BYTES
        (b"POST /nope", 404),
        (b"DELETE /jobs/x/y", 404),
    ])
    def test_one_response_then_eof(self, client, monkeypatch, head, status):
        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 8)
        with socket.create_connection((client.host, client.port),
                                      timeout=POLL_TIMEOUT_S) as raw:
            raw.sendall(head + b" HTTP/1.1\r\nHost: t\r\nContent-Length: "
                        + str(len(self.SMUGGLED)).encode() + b"\r\n\r\n"
                        + self.SMUGGLED)
            response = http.client.HTTPResponse(raw)
            response.begin()
            assert response.status == status
            assert "error" in json.loads(response.read())
            assert response.getheader("Connection") == "close"
            assert raw.recv(1) == b""

    def test_read_body_keeps_the_connection(self, client):
        body = json.dumps({"study": "fig3"}).encode()
        connection = http.client.HTTPConnection(client.host, client.port,
                                                timeout=POLL_TIMEOUT_S)
        try:
            for _ in range(2):
                connection.request("POST", "/jobs", body=body)
                response = connection.getresponse()
                assert response.status in (200, 201)
                response.read()
                assert response.getheader("Connection") is None
        finally:
            connection.close()


class TestWaitingPoll:
    def test_poll_answers_running_once_the_bound_elapses(
            self, tmp_path, fig3_gate, monkeypatch):
        calls, release, started = fig3_gate
        monkeypatch.setattr(server_module, "POLL_WAIT_S", 0.05)
        service = _start(tmp_path, workers=1)
        try:
            client = Client(service)
            job_id = client.json("POST", "/jobs", {"study": "fig3"})[1]["id"]
            assert started.wait(POLL_TIMEOUT_S)
            status, document = client.json("GET", f"/jobs/{job_id}")
            assert status == 200
            assert document["status"] == "running"
        finally:
            release.set()
            service.close()

    def test_poll_answers_done_when_the_job_settles(
            self, tmp_path, fig3_gate, monkeypatch):
        calls, release, started = fig3_gate
        # A bound as long as the client's timeout: a poll that did not
        # wake on settlement would fail with a client timeout.
        monkeypatch.setattr(server_module, "POLL_WAIT_S", POLL_TIMEOUT_S)
        polling = threading.Event()
        real_poll = JobManager.poll

        def announced(manager, job_id, timeout):
            polling.set()
            return real_poll(manager, job_id, timeout)

        monkeypatch.setattr(JobManager, "poll", announced)
        service = _start(tmp_path, workers=1)
        releaser = threading.Thread(
            target=lambda: polling.wait(POLL_TIMEOUT_S) and release.set())
        try:
            client = Client(service)
            job_id = client.json("POST", "/jobs", {"study": "fig3"})[1]["id"]
            assert started.wait(POLL_TIMEOUT_S)
            releaser.start()
            status, document = client.json("GET", f"/jobs/{job_id}")
            assert (status, document["status"]) == (200, "done")
            assert document["cache"] == "miss"
            # A finished job answers at once, not after the bound.
            assert client.json("GET", f"/jobs/{job_id}")[1] == document
            assert len(calls) == 1
        finally:
            release.set()
            service.close()
            if releaser.is_alive():
                releaser.join()


class TestRetention:
    def test_finished_jobs_are_bounded_and_evicted_ids_are_404(
            self, tmp_path, monkeypatch):
        real = experiments.run_fig3_nand3
        calls = []

        @functools.wraps(real)
        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_fig3_nand3", counting)
        cap = jobs_module.MAX_FINISHED_JOBS
        bodies = [{"study": "fig3", "params": {"unit_width": 2.0 + k / 64}}
                  for k in range(3 * cap)]
        service = _start(tmp_path, workers=1)
        try:
            client = Client(service)
            ids = []
            for body in bodies:
                job_id = client.json("POST", "/jobs", body)[1]["id"]
                assert client.poll(job_id)["status"] == "done"
                ids.append(job_id)
            listing = client.json("GET", "/jobs")[1]["jobs"]
            assert [job["id"] for job in listing] == ids[-cap:]
            # A retained finished job still absorbs its duplicate.
            status, again = client.json("POST", "/jobs", bodies[-cap])
            assert (status, again["id"]) == (200, ids[-cap])
            assert again["deduplicated"] is True
            # An evicted job is unknown on every per-job endpoint.
            for method, suffix in (("GET", ""), ("GET", "/result"),
                                   ("GET", "/trace"), ("DELETE", "")):
                status, document = client.json(method,
                                               f"/jobs/{ids[0]}{suffix}")
                assert status == 404
                assert document["error"]["type"] == "JobNotFound"
            # Its body makes a new job, served from the store.
            runs = len(calls)
            status, fresh = client.json("POST", "/jobs", bodies[0])
            assert status == 201
            assert fresh["deduplicated"] is False
            assert fresh["id"] not in ids
            assert client.poll(fresh["id"])["cache"] == "hit"
            assert len(calls) == runs == 3 * cap
        finally:
            service.close()

    def test_queued_and_running_jobs_are_never_evicted(
            self, tmp_path, fig3_gate, monkeypatch):
        calls, release, started = fig3_gate
        monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 1)
        one = {"study": "fig3", "params": {"unit_width": 6.0}}
        two = {"study": "fig3", "params": {"unit_width": 7.0}}
        service = _start(tmp_path, workers=1)
        try:
            client = Client(service)
            blocker = client.json("POST", "/jobs", {"study": "fig3"})[1]["id"]
            assert started.wait(POLL_TIMEOUT_S)
            cancelled = client.json("POST", "/jobs", one)[1]["id"]
            client.json("DELETE", f"/jobs/{cancelled}")
            retry = client.json("POST", "/jobs", one)[1]["id"]
            doomed = client.json("POST", "/jobs", two)[1]["id"]
            client.json("DELETE", f"/jobs/{doomed}")
            # Two cancellations over a cap of one: the first is evicted,
            # the running blocker and the queued retry stay.
            listing = client.json("GET", "/jobs")[1]["jobs"]
            assert [job["id"] for job in listing] == [blocker, retry, doomed]
            assert client.json("GET", f"/jobs/{cancelled}")[0] == 404
            # The evicted job's dedup entry had moved to the retry.
            status, again = client.json("POST", "/jobs", one)
            assert (status, again["id"]) == (200, retry)
            release.set()
            assert client.poll(retry)["status"] == "done"
            listing = client.json("GET", "/jobs")[1]["jobs"]
            assert [job["id"] for job in listing] == [retry]
            assert client.json("GET", "/metrics")[1]["jobs"]["done"] == 1
            assert len(calls) == 2
        finally:
            release.set()
            service.close()


# ---------------------------------------------------------------------------
# One parser: `repro batch` and POST /jobs accept and reject alike
# ---------------------------------------------------------------------------


class TestOneParser:
    @pytest.mark.parametrize("document", [
        {"studies": [{"study": "fig3"}], "bogus": 1},
        {"studies": [{"study": "fig3"},
                     {"study": "fig3", "params": {"bogus": 1}}]},
        {"studies": [{"study": "fig3"},
                     {**_TRANSIENT_SWEEP, "params": {"seed": 3}}]},
        {"studies": [{"study": "fig3"},
                     {**_TRANSIENT_SWEEP, "params": {"trials": 5}}]},
        {"studies": [{"study": "fig3"},
                     {**_TRANSIENT_SWEEP, "params": {"seed": None}}]},
        {"studies": [{"study": "fig3"},
                     {"study": "fig3", "backend": "thread"}]},
    ])
    def test_batch_and_post_reject_alike_before_any_entry_runs(
            self, document, monkeypatch):
        """A malformed document fails ``run_manifest`` (``repro batch``)
        and ``JobSubmission.from_document`` (``POST /jobs``) alike, while
        it is parsed: the spy sees no entry run."""
        import repro.study.registry as registry

        calls = []
        real = registry.run_study

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(registry, "run_study", counting)
        with pytest.raises(ReproError):
            run_manifest(document)
        with pytest.raises(InvalidSubmission):
            JobSubmission.from_document(document)
        assert calls == []


# ---------------------------------------------------------------------------
# Fingerprint properties: execution blindness at the API boundary
# ---------------------------------------------------------------------------


def _fingerprint(document) -> str:
    return JobSubmission.from_document(document).fingerprint()


class TestFingerprintProperties:
    BASE = {"study": "sweep", "engine": "immunity", "mode": "grid",
            "axes": {"cnts_per_trial": [2, 4], "technique": ["compact"]},
            "params": {"trials": 50, "seed": 7}}

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_invariant_under_key_order(self, data):
        """Shuffling the top-level body keys and the ``params`` mapping
        never moves the fingerprint: the address hashes canonical
        content, not JSON serialisation order.  (``axes`` stays fixed —
        its declaration order is semantic, see the test below.)"""
        reference = _fingerprint(self.BASE)
        top = data.draw(st.permutations(list(self.BASE.items())))
        shuffled = {
            key: (dict(data.draw(st.permutations(list(value.items()))))
                  if key == "params" else value)
            for key, value in top
        }
        assert _fingerprint(shuffled) == reference

    def test_axes_order_is_semantic_not_serialisation(self):
        """Reordering ``axes`` *keys* is different work — axis order
        defines the corner expansion order of the sweep — so unlike
        ``params`` key order it legitimately moves the fingerprint."""
        swapped = dict(self.BASE, axes={"technique": ["compact"],
                                        "cnts_per_trial": [2, 4]})
        assert _fingerprint(swapped) != _fingerprint(self.BASE)

    @settings(max_examples=25, deadline=None)
    @given(jobs=st.one_of(st.none(), st.integers(-1, 16)))
    def test_invariant_under_execution_fields(self, jobs):
        """``jobs`` selects *how* the job executes; adding, removing or
        changing it never moves the fingerprint (RPL004 at the API
        boundary)."""
        document = dict(self.BASE)
        if jobs is not None:
            document["jobs"] = jobs
        assert _fingerprint(document) == _fingerprint(self.BASE)

    def test_work_changes_move_the_fingerprint(self):
        changed = dict(self.BASE, params={"trials": 51, "seed": 7})
        assert _fingerprint(changed) != _fingerprint(self.BASE)
        reaxed = dict(self.BASE, axes={"cnts_per_trial": [2, 4, 8],
                                       "technique": ["compact"]})
        assert _fingerprint(reaxed) != _fingerprint(self.BASE)

    def test_service_fingerprint_is_the_runtime_fingerprint(self):
        """A service job and a ``repro sweep`` / ``repro run`` of the
        same invocation share one content address (one cache entry)."""
        submission = JobSubmission.from_document(self.BASE)
        entry = ManifestEntry.from_mapping(self.BASE, 0)
        assert submission.fingerprint() == entry.key()[1]
        study = JobSubmission.from_document(
            {"study": "fig3", "params": {"unit_width": 6.0}})
        study_entry = ManifestEntry.from_mapping(
            {"study": "fig3", "params": {"unit_width": 6.0}}, 0)
        assert study.fingerprint() == study_entry.key()[1]

    def test_manifest_fingerprint_is_order_sensitive(self):
        """A manifest is an ordered program; reordering its entries is
        different work, unlike reordering keys inside one entry."""
        one = {"study": "fig3"}
        two = {"study": "fig3", "params": {"unit_width": 6.0}}
        forward = _fingerprint({"studies": [one, two]})
        backward = _fingerprint({"studies": [two, one]})
        assert forward != backward
        assert forward == _fingerprint({"studies": [one, two], "jobs": 8})


# ---------------------------------------------------------------------------
# Manager-level seams the HTTP tests cannot reach
# ---------------------------------------------------------------------------


class TestJobManager:
    def test_closed_manager_rejects_submissions(self, tmp_path):
        manager = JobManager(cache=tmp_path / "cache", workers=1)
        manager.close()
        with pytest.raises(Exception):
            manager.submit(JobSubmission.from_document({"study": "fig3"}))

    def test_close_cancels_queued_jobs(self, tmp_path, fig3_gate):
        calls, release, started = fig3_gate
        manager = JobManager(cache=tmp_path / "cache", workers=1)
        try:
            blocker, _ = manager.submit(
                JobSubmission.from_document({"study": "fig3"}))
            assert started.wait(POLL_TIMEOUT_S)
            queued, _ = manager.submit(JobSubmission.from_document(
                {"study": "fig3", "params": {"unit_width": 6.0}}))
            release.set()
            manager.close()
            assert queued.status == "cancelled"
            assert blocker.status == "done"
            assert len(calls) == 1
        finally:
            release.set()

    def test_progress_counts_only_planned_corners(self, tmp_path,
                                                  monkeypatch):
        """A circuit study reads and writes its own per-cell corners;
        they never tick a job's progress past its total, and a job
        without a total reports none done.  Progress is polled at every
        corner write and once each job has finished."""
        from repro.runtime.cache import ResultCache

        circuit = {"study": "circuit",
                   "params": {"circuit": "adder:2", "trials": 16,
                              "draws": 16}}
        sweep = {"study": "sweep", "engine": "immunity",
                 "axes": {"cnts_per_trial": [2, 4]},
                 "params": {"trials": 20, "seed": 7}}
        manager = JobManager(cache=tmp_path / "cache", workers=1)
        polls = []
        real_put = ResultCache.put_corner

        def polling_put(self, *args, **kwargs):
            polls.extend(document["progress"]
                         for document in manager.documents())
            return real_put(self, *args, **kwargs)

        monkeypatch.setattr(ResultCache, "put_corner", polling_put)
        try:
            submitted = [manager.submit(JobSubmission.from_document(body))[0]
                         for body in ({"studies": [sweep, circuit]},
                                      circuit)]
            for job in submitted:
                final = manager.poll(job.id, POLL_TIMEOUT_S)
                assert final["status"] == "done"
                polls.append(final["progress"])
        finally:
            manager.close()
        assert len(polls) > len(submitted)
        for progress in polls:
            assert (progress == {"total": None, "done": 0}
                    or progress["total"] is not None
                    and progress["done"] <= progress["total"]), progress

    def test_all_jobs_of_a_manager_append_to_one_segment(self, tmp_path):
        """Sweep jobs (through the progress view) and a circuit study
        (through the plain store) on two workers share one index and
        open segment per log: one study segment, one corner segment."""
        from repro.runtime.cache import SEGMENT_SUFFIX

        bodies = [{"study": "sweep", "engine": "immunity",
                   "axes": {"cnts_per_trial": [count]},
                   "params": {"trials": 20, "seed": 7}}
                  for count in (2, 4, 8)]
        bodies.append({"study": "circuit",
                       "params": {"circuit": "adder:2", "trials": 16,
                                  "draws": 16}})
        manager = JobManager(cache=tmp_path / "cache", workers=2)
        try:
            submitted = [manager.submit(JobSubmission.from_document(body))[0]
                         for body in bodies]
            for job in submitted:
                assert manager.poll(job.id, POLL_TIMEOUT_S)["status"] \
                    == "done"
        finally:
            manager.close()
        for tier in ("objects", "corners"):
            segments = list((tmp_path / "cache" / tier).iterdir())
            assert len(segments) == 1
            assert segments[0].suffix == SEGMENT_SUFFIX

    def test_a_parallel_job_never_starts_a_process(self, tmp_path,
                                                   monkeypatch):
        """A job that fans out (``"jobs": 2``) runs its shards on threads
        of the service's own process: with ``os.fork`` and
        ``os.posix_spawn`` disabled it still finishes, and its result is
        byte-identical to the ``"jobs": 1`` run."""
        body = {**_TRANSIENT_SWEEP,
                "axes": {"vdd": [0.9, 1.0], "cell": ["INV", "NAND2"]}}
        # Resolve the compiled stepper (a build starts the compiler)
        # before process creation is disabled.
        run_sweep_study(SweepSpec.from_mapping({"vdd": (0.9,)}),
                        engine="transient")

        def no_process(*args, **kwargs):
            raise AssertionError("the service started a process")

        monkeypatch.setattr(os, "fork", no_process)
        monkeypatch.setattr(os, "posix_spawn", no_process)
        envelopes = []
        for jobs in (2, 1):
            # A manager per run: the second body would otherwise attach
            # to the first job (``jobs`` is not part of the fingerprint).
            manager = JobManager(cache=tmp_path / f"cache-{jobs}", workers=1)
            try:
                job, _ = manager.submit(
                    JobSubmission.from_document({**body, "jobs": jobs}))
                final = manager.poll(job.id, POLL_TIMEOUT_S)
                assert final["status"] == "done", final
                envelopes.append(manager.result(job.id).to_json())
            finally:
                manager.close()
        assert envelopes[0] == envelopes[1]

    def test_invalid_submission_messages_are_typed(self):
        with pytest.raises(InvalidSubmission):
            JobSubmission.from_document({"study": "fig3", "jobs": True})
        with pytest.raises(InvalidSubmission):
            JobSubmission.from_document(
                {"studies": [{"study": "fig3"}], "extra": 1})
        assert status_for(InvalidSubmission("x")) == 400


# ---------------------------------------------------------------------------
# The result wire: bytes encoded once per job
# ---------------------------------------------------------------------------

_IMMUNITY = {"study": "sweep", "engine": "immunity",
             "params": {"trials": 20, "seed": 3}}
_ZIP_TRANSIENT = {"study": "sweep", "engine": "transient", "mode": "zip"}
_CIRCUIT = {"study": "circuit",
            "params": {"circuit": "adder:2", "trials": 8, "draws": 8}}

#: ``kind -> (body, smaller body whose store contents make the body a
#: partial hit, or None where nothing is partial)``.
WIRE_CASES = {
    "fig3": ({"study": "fig3", "params": {"unit_width": 5.0}}, None),
    "immunity-sweep": (
        {**_IMMUNITY, "axes": {"cnts_per_trial": [2, 4, 6]}},
        {**_IMMUNITY, "axes": {"cnts_per_trial": [2, 4]}}),
    "transient-sweep": (
        {**_ZIP_TRANSIENT, "axes": {"vdd": [0.9, 1.0, 1.1]}},
        {**_ZIP_TRANSIENT, "axes": {"vdd": [0.9, 1.0]}}),
    "circuit": (
        _CIRCUIT,
        {"study": "circuit",
         "params": {**_CIRCUIT["params"], "technique": "vulnerable"}}),
    "manifest": (
        {"studies": [{"study": "fig3"},
                     {**_IMMUNITY, "axes": {"cnts_per_trial": [2, 4, 6]}}]},
        {"studies": [{**_IMMUNITY, "axes": {"cnts_per_trial": [2, 4]}}]}),
}

#: ``(kind, store state)``: the state is how the store stands when the
#: body is submitted; ``dedup`` submits it twice to an empty store, the
#: second client attaching.  A fig3 job reads no corners, so is never
#: partial.
WIRE_STATES = [(kind, state) for kind in sorted(WIRE_CASES)
               for state in ("miss", "hit", "partial", "dedup")
               if state != "partial" or WIRE_CASES[kind][1] is not None]


def _run_direct(body, root):
    """What the runner returns for ``body`` against the store at ``root``."""
    return JobSubmission.from_document(body).run(cache=ResultCache(root))


@pytest.mark.parametrize("kind, state", WIRE_STATES)
def test_result_wire_is_the_runners_envelope_encoded_once(tmp_path, kind,
                                                          state):
    """``GET /jobs/<id>/result`` for every kind of job and store state:
    one line of compact JSON that parses to the ``to_json_dict()`` of
    the runner's result for the same invocation on a store in the same
    state, the same bytes for every GET and every attached client; the
    finished job holds those bytes and no typed result, and
    ``JobManager.result`` decodes the runner's result from them."""
    body, smaller = WIRE_CASES[kind]
    served_root, direct_root = tmp_path / "served", tmp_path / "direct"
    for root in (served_root, direct_root):
        if state == "partial":
            _run_direct(smaller, root)
        elif state == "hit":
            _run_direct(body, root)
    expected = _run_direct(body, direct_root)
    if state in ("hit", "partial") and kind != "manifest":
        assert expected.provenance.cache.startswith(state), \
            expected.provenance.cache
    service = _start(tmp_path, cache=served_root)
    try:
        client = Client(service)
        posts = [client.json("POST", "/jobs", body)[1]
                 for _ in range(2 if state == "dedup" else 1)]
        assert [post["deduplicated"] for post in posts] \
            == [False, True][:len(posts)]
        job_id = posts[0]["id"]
        assert {post["id"] for post in posts} == {job_id}
        final = client.poll(job_id)
        assert final["status"] == "done", final
        assert final["cache"] == expected.provenance.cache
        bodies = [client.request("GET", f"/jobs/{job_id}/result")
                  for _ in posts for _ in range(2)]
        assert {status for status, _ in bodies} == {200}
        raw = bodies[0][1]
        assert all(served == raw for _, served in bodies)
        assert raw == (json.dumps(json.loads(raw), separators=(",", ":"))
                       + "\n").encode("utf-8")
        assert json.loads(raw) == expected.to_json_dict()
        job = service.manager._jobs[job_id]
        assert job.body == raw
        assert not any(isinstance(value, StudyResult)
                       for value in vars(job).values())
        decoded = service.manager.result(job_id)
        assert type(decoded) is type(expected)
        assert decoded.to_json_dict() == expected.to_json_dict()
        if kind != "manifest":
            assert decoded == expected
    finally:
        service.close()
