"""The async study service: an HTTP job API over the runtime layer.

``python -m repro serve`` turns the repository into a long-running
service — clients POST the same study/sweep/manifest documents the CLI
accepts, poll job status, and fetch result envelopes bit-identical to a
direct :func:`~repro.study.registry.run_study` call.  Identical
concurrent submissions collapse onto one engine run via the runtime
layer's content fingerprints.  Stdlib only: ``http.server`` +
``threading``, no new dependencies.
"""

from .api import KINDS, JobSubmission
from .errors import (InvalidSubmission, JobNotFound, JobStateError,
                     ProtocolError, error_payload)
from .jobs import JOB_STATES, TERMINAL_STATES, Job, JobManager
from .server import ReproService, describe_endpoints, status_for

__all__ = [
    "InvalidSubmission",
    "JOB_STATES",
    "Job",
    "JobManager",
    "JobNotFound",
    "JobStateError",
    "JobSubmission",
    "KINDS",
    "ProtocolError",
    "ReproService",
    "TERMINAL_STATES",
    "describe_endpoints",
    "error_payload",
    "status_for",
]
