"""Typed errors of the study service layer.

Every failure the job API can surface is an exception class here, and
every exception renders to the same wire shape via :func:`error_payload`
— a small JSON document carrying the exception type and message — so a
client can branch on ``error["type"]`` instead of parsing prose.  The
HTTP layer maps the classes onto status codes
(:data:`~repro.service.server.STATUS_BY_ERROR`); the job layer stores
the payload on failed jobs, which is how an engine raising mid-job
becomes a ``failed`` status with a typed body instead of a hung job or
a dead server.
"""

from __future__ import annotations

from typing import Any, Dict

from ..errors import ReproError, ServiceError


class InvalidSubmission(ServiceError):
    """A ``POST /jobs`` body that cannot become a job: malformed JSON
    shape, unknown study, bad axes, illegal execution parameters."""


class JobNotFound(ServiceError):
    """A job id no job carries (HTTP 404)."""


class JobStateError(ServiceError):
    """A legal request against a job in the wrong state — cancelling a
    running job, fetching the result of an unfinished one (HTTP 409)."""


class ProtocolError(ServiceError):
    """A request the HTTP layer rejects before routing it: an
    unsupported method, a malformed request line (the status code is
    the one ``http.server`` chose)."""


def error_payload(error: BaseException) -> Dict[str, Any]:
    """The wire form of one exception: type name, message, and whether
    it belongs to the repo's :class:`~repro.errors.ReproError` hierarchy
    (library failures) or escaped from elsewhere (engine bugs).

    >>> error_payload(JobNotFound("no job 'job-000009'"))
    {'type': 'JobNotFound', 'message': "no job 'job-000009'", 'repro': True}
    """
    return {
        "type": type(error).__name__,
        "message": str(error),
        "repro": isinstance(error, ReproError),
    }


__all__ = [
    "InvalidSubmission",
    "JobNotFound",
    "JobStateError",
    "ProtocolError",
    "error_payload",
]
