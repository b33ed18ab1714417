"""Jobs and the :class:`JobManager`: the service's multiplexing core.

One manager owns a bounded pool of worker threads (this module and
``runtime/scheduler.py`` are the only places allowed to construct
thread/lock primitives — the RPL009 contract), a FIFO queue of jobs, and
the dedup index that makes the service scale: submissions are keyed by
their content fingerprint, and a second identical submission **attaches**
to the first's job — queued, running or already done — instead of
spawning new work.  K identical concurrent POSTs therefore cost exactly
one engine run, and every client reads the same bit-identical envelope.

The job state machine::

    queued ──▶ running ──▶ done
       │           └─────▶ failed      (engine raised: typed error payload)
       └─────▶ cancelled               (DELETE while still queued)

Transitions only move rightwards; ``done``/``failed``/``cancelled`` are
terminal.  Cancellation is queue-level by design: a *running* engine
invocation is never interrupted (killing it mid-write would violate the
cache's integrity discipline and the determinism contract), so
cancelling a running/finished job raises
:class:`~repro.service.errors.JobStateError`.

Worker threads run each job through
:meth:`~repro.service.api.JobSubmission.run` — which lowers onto the
registry, the sweep driver and the manifest runner, and from there onto
the repo's one deterministic scheduler.  An engine exception marks the
job ``failed`` with :func:`~repro.service.errors.error_payload` and the
worker moves on; the pool never dies with its job.

Sweep progress rides on the delta planner: the manager wraps its store
in a :class:`_ProgressCache` whose corner reads/writes tick the job's
``progress`` counter, so ``GET /jobs/<id>`` reports per-corner progress
(cached corners count the moment the plan resolves them; fresh corners
as each one lands in the store).

The job table is bounded: the manager retains at most
:data:`MAX_FINISHED_JOBS` finished (terminal) jobs and evicts the
oldest-finished first.  Queued and running jobs are never evicted.  An
evicted id is unknown from then on (:class:`JobNotFound`, HTTP 404), and
its dedup-index entry goes with it, so resubmitting the same body
creates a new job — which the store serves as a ``hit``.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional

from ..errors import ServiceError
from ..obs import clock as obs_clock
from ..obs import metrics as obs_metrics
from ..obs.trace import Tracer
from ..runtime.cache import ResultCache, as_cache
from ..study.results import StudyResult
from .api import JobSubmission
from .errors import JobNotFound, JobStateError, error_payload

#: The job states, in lifecycle order.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)

#: States no transition leaves.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

#: How many finished jobs the manager retains; beyond this the
#: oldest-finished job is evicted.  Bounds the memory of a long-running
#: service without touching queued or running jobs.
MAX_FINISHED_JOBS = 64


@dataclass
class Job:
    """One submission's lifecycle record.  Mutated only under the
    manager's lock; HTTP handlers read consistent snapshots via
    :meth:`JobManager.snapshot` and :meth:`JobManager.poll`."""

    id: str
    submission: JobSubmission
    fingerprint: str
    status: str = QUEUED
    created: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    clients: int = 1
    progress_total: Optional[int] = None
    progress_done: int = 0
    result: Optional[StudyResult] = None
    error: Optional[Dict[str, Any]] = None
    #: The job's ``repro-trace/v1`` envelope, recorded by the worker on
    #: completion (success or failure).  Deliberately NOT part of
    #: :meth:`document` — the job wire form predates tracing and stays
    #: byte-identical; ``GET /jobs/<id>/trace`` serves this separately.
    trace_document: Optional[Dict[str, Any]] = None

    def document(self) -> Dict[str, Any]:
        """The job's wire form (the ``GET /jobs/<id>`` body)."""
        return {
            "id": self.id,
            "fingerprint": self.fingerprint,
            "status": self.status,
            "submission": self.submission.describe(),
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "clients": self.clients,
            "progress": {
                "total": self.progress_total,
                "done": self.progress_done,
            },
            "cache": (self.result.provenance.cache
                      if self.result is not None else None),
            "error": self.error,
        }


class _ProgressCache(ResultCache):
    """A :class:`ResultCache` on the same root that reports per-corner
    progress back to the job as the sweep driver consumes it.

    ``get_corners`` ticks once per corner the delta plan serves from the
    store; ``put_corner`` once per freshly computed corner.  Everything
    else — study entries, stats, pruning — is the plain store."""

    def __init__(self, root, on_corners: Callable[[int], None]):
        super().__init__(root)
        self._on_corners = on_corners

    def get_corners(self, keys):
        found = super().get_corners(keys)
        if found:
            self._on_corners(len(found))
        return found

    def put_corner(self, key, metrics, engine=""):
        path = super().put_corner(key, metrics, engine=engine)
        self._on_corners(1)
        return path


class JobManager:
    """Multiplex concurrent jobs onto a bounded worker pool.

    ``cache`` is the content-addressed store every job runs against
    (anything :func:`~repro.runtime.cache.as_cache` accepts);
    ``jobs``/``backend`` are the default per-job scheduler fan-out, and
    ``workers`` bounds how many jobs execute concurrently.  The manager
    starts its workers immediately and runs until :meth:`close`.
    """

    def __init__(self, cache=None, jobs: Optional[int] = None,
                 backend: Optional[str] = None, workers: int = 2):
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        self._store = as_cache(cache)
        self._engine_jobs = jobs
        self._backend = backend
        # Insertion-ordered, so iteration is submission order.
        self._jobs: Dict[str, Job] = {}
        self._by_fingerprint: Dict[str, Job] = {}
        self._queue: Deque[Job] = deque()
        self._finished: Deque[Job] = deque()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._settled = threading.Condition(self._lock)
        self._closing = False
        self._sequence = 0
        self._workers = workers
        self._started_monotonic = obs_clock.monotonic()
        self._busy_seconds = 0.0
        self._threads = [
            threading.Thread(target=self._work, daemon=True,
                             name=f"repro-job-worker-{index}")
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ------------------------------------------------------------

    def submit(self, submission: JobSubmission) -> "tuple[Job, bool]":
        """Enqueue one submission; returns ``(job, attached)``.

        Deterministic submissions dedup by fingerprint: when a live job
        (queued, running, done) with the same address exists, the caller
        attaches to it — ``attached`` is ``True``, the job's ``clients``
        count grows, and no new work is created.  Failed and cancelled
        jobs never absorb new submissions (a retry must actually retry),
        and nondeterministic submissions (``"seed": null``) always get a
        fresh job.
        """
        with self._wakeup:
            if self._closing:
                raise ServiceError("JobManager is closed")
            key = submission.fingerprint()
            if submission.deterministic:
                existing = self._by_fingerprint.get(key)
                if existing is not None \
                        and existing.status not in (FAILED, CANCELLED):
                    existing.clients += 1
                    return existing, True
            self._sequence += 1
            job = Job(
                id=f"job-{self._sequence:06d}",
                submission=submission,
                fingerprint=key,
                created=obs_clock.wall_time(),
                progress_total=submission.total_corners(),
            )
            self._jobs[job.id] = job
            if submission.deterministic:
                self._by_fingerprint[key] = job
            self._queue.append(job)
            self._wakeup.notify()
            return job, False

    # -- inspection ------------------------------------------------------------

    def _get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFound(f"No job {job_id!r}")
        return job

    def snapshot(self, job: Job) -> Dict[str, Any]:
        """A consistent snapshot of the wire form of a job the caller
        already holds (an eviction cannot make it unknown)."""
        with self._lock:
            return job.document()

    def documents(self) -> List[Dict[str, Any]]:
        """Snapshots of every retained job, in submission order."""
        with self._lock:
            return [job.document() for job in self._jobs.values()]

    def result(self, job_id: str) -> StudyResult:
        """The finished job's typed result; :class:`JobStateError` until
        the job is ``done`` (a ``failed`` job's message carries its typed
        error payload)."""
        with self._lock:
            job = self._get(job_id)
            if job.status == DONE:
                return job.result
            if job.status == FAILED:
                raise JobStateError(
                    f"Job {job_id} failed: "
                    f"{(job.error or {}).get('type', 'Exception')}: "
                    f"{(job.error or {}).get('message', '')}"
                )
            raise JobStateError(
                f"Job {job_id} is {job.status}, not done"
            )

    def poll(self, job_id: str, timeout: float) -> Dict[str, Any]:
        """The job's wire form once it reaches a terminal state, or as it
        stands when ``timeout`` seconds lapse first; a finished job
        answers at once.  The wait and the snapshot share one hold of
        the lock, and the job object survives an eviction in between."""
        deadline = obs_clock.monotonic() + timeout
        with self._settled:
            job = self._get(job_id)
            while job.status not in TERMINAL_STATES:
                remaining = deadline - obs_clock.monotonic()
                if remaining <= 0:
                    break
                self._settled.wait(remaining)
            return job.document()

    # -- cancellation / shutdown -----------------------------------------------

    def cancel(self, job_id: str) -> Job:
        """Cancel a **queued** job.  Running jobs are never interrupted
        (see the module docstring) and terminal jobs cannot change, so
        both raise :class:`JobStateError`."""
        with self._lock:
            job = self._get(job_id)
            if job.status != QUEUED:
                raise JobStateError(
                    f"Job {job_id} is {job.status}; only queued jobs can "
                    "be cancelled"
                )
            self._finish(job, CANCELLED)
            obs_metrics.registry().inc("service.jobs_cancelled")
            return job

    def close(self, cancel_queued: bool = True,
              timeout: Optional[float] = None) -> None:
        """Shut the pool down.  Queued jobs are cancelled (or drained,
        with ``cancel_queued=False``); running jobs always finish —
        interrupting them is not a thing this layer does."""
        with self._wakeup:
            self._closing = True
            if cancel_queued:
                while self._queue:
                    job = self._queue.popleft()
                    if job.status == QUEUED:
                        self._finish(job, CANCELLED)
                        obs_metrics.registry().inc("service.jobs_cancelled")
            self._wakeup.notify_all()
        for thread in self._threads:
            thread.join(timeout)

    # -- the worker loop -------------------------------------------------------

    def _finish(self, job: Job, status: str) -> None:
        """Move ``job`` (lock held) to the terminal ``status``, wake its
        pollers, and evict the oldest-finished jobs beyond
        :data:`MAX_FINISHED_JOBS`.  A dedup-index entry goes only when it
        points at the evicted job (a retry may own it by now)."""
        job.status = status
        job.finished = obs_clock.wall_time()
        self._finished.append(job)
        while len(self._finished) > MAX_FINISHED_JOBS:
            evicted = self._finished.popleft()
            del self._jobs[evicted.id]
            if self._by_fingerprint.get(evicted.fingerprint) is evicted:
                del self._by_fingerprint[evicted.fingerprint]
        self._settled.notify_all()

    def _job_store(self, job: Job):
        """The store this job runs against: the manager's cache, wrapped
        to tick the job's corner progress (sweeps only — the wrapper is
        inert for plain studies, which never touch the corner API)."""
        if self._store is None:
            return None

        def on_corners(count: int) -> None:
            with self._lock:
                job.progress_done += count

        return _ProgressCache(self._store.root, on_corners)

    def _work(self) -> None:
        while True:
            with self._wakeup:
                while not self._queue and not self._closing:
                    self._wakeup.wait()
                if not self._queue:
                    return                   # closing and drained
                job = self._queue.popleft()
                if job.status != QUEUED:
                    continue                 # cancelled while queued
                job.status = RUNNING
                job.started = obs_clock.wall_time()
                submission = job.submission
            obs_metrics.registry().observe(
                "service.queue_latency_s", max(job.started - job.created, 0.0)
            )
            store = self._job_store(job)
            # Every job gets its own tracer: the worker thread activates
            # it around the engine run, so the cache / sweep / scheduler
            # instrumentation lands in this job's envelope and concurrent
            # workers never interleave (the active tracer is
            # thread-local).
            tracer = Tracer(f"job:{job.id}", job=job.id,
                            fingerprint=job.fingerprint,
                            kind=submission.kind)
            busy_start = obs_clock.monotonic()
            try:
                with tracer.activate():
                    with tracer.span("job.run", kind=submission.kind):
                        result = submission.run(cache=store,
                                                jobs=self._engine_jobs,
                                                backend=self._backend)
            except Exception as error:
                obs_metrics.registry().inc("service.jobs_failed")
                with self._lock:
                    self._busy_seconds += obs_clock.monotonic() - busy_start
                    job.error = error_payload(error)
                    job.trace_document = tracer.to_document()
                    self._finish(job, FAILED)
            else:
                obs_metrics.registry().inc("service.jobs_done")
                with self._lock:
                    self._busy_seconds += obs_clock.monotonic() - busy_start
                    job.result = result
                    job.trace_document = tracer.to_document()
                    if job.progress_total is not None:
                        job.progress_done = job.progress_total
                    self._finish(job, DONE)

    # -- observability ---------------------------------------------------------

    def trace(self, job_id: str) -> Dict[str, Any]:
        """The finished job's ``repro-trace/v1`` envelope;
        :class:`JobStateError` while the job has not run yet."""
        with self._lock:
            job = self._get(job_id)
            if job.trace_document is None:
                raise JobStateError(
                    f"Job {job_id} is {job.status}; its trace is recorded "
                    "when the job finishes"
                )
            return job.trace_document

    def metrics_document(self) -> Dict[str, Any]:
        """The ``GET /metrics`` body: pool health (the ``jobs`` counts
        cover retained jobs only) plus a snapshot of the process-wide
        metrics registry (queue latency histogram, cache counters, sweep
        planner counters)."""
        with self._lock:
            by_status = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                by_status[job.status] += 1
            queue_depth = len(self._queue)
            busy = self._busy_seconds
        uptime = max(obs_clock.monotonic() - self._started_monotonic, 1e-9)
        return {
            "schema": "repro-metrics/v1",
            "workers": self._workers,
            "uptime_s": uptime,
            "worker_busy_s": busy,
            "worker_utilization": busy / (uptime * self._workers),
            "jobs": by_status,
            "queue_depth": queue_depth,
            "metrics": obs_metrics.registry().snapshot(),
        }


__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "JOB_STATES",
    "Job",
    "JobManager",
    "MAX_FINISHED_JOBS",
    "QUEUED",
    "RUNNING",
    "TERMINAL_STATES",
]
