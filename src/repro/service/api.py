"""The service API boundary: submission bodies in, typed jobs out.

A *submission* is the JSON body of one ``POST /jobs`` — the same three
invocation shapes the CLI and manifest runner already understand:

* a **study** — ``{"study": "fig3", "params": {"unit_width": 6}}``
* a **sweep** — ``{"study": "sweep", "engine": "immunity",
  "axes": {"cnts_per_trial": [2, 4]}, "mode": "grid",
  "params": {"trials": 100, "seed": 7}}``
* a **manifest** — ``{"studies": [entry, entry, ...]}`` (each entry a
  study/sweep object as above)

Parsing goes through :func:`~repro.runtime.manifest.load_entries` and
:meth:`~repro.runtime.manifest.ManifestEntry.from_mapping`, the parser
``repro batch`` and ``repro sweep`` use, so the service accepts exactly
what ``repro batch`` accepts and rejects exactly what it rejects — one
validation surface, not two.  Only the top-level ``jobs`` override is
the service's own.

**Fingerprints are execution-blind at the API boundary too.**  The body
may carry a top-level ``jobs`` override (how wide the engines should
fan out), but :meth:`JobSubmission.fingerprint` is computed from
the *work* alone, through the same
:func:`~repro.runtime.fingerprint.study_fingerprint` /
:func:`~repro.runtime.fingerprint.sweep_fingerprint` addresses the cache
uses.  Two clients POSTing the same study with different worker counts
collapse onto one job — the RPL004 contract, extended to HTTP.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from ..errors import ReproError
from ..runtime.manifest import ManifestEntry, load_entries
from ..study.registry import get_study
from ..study.results import StudyResult
from ..study.serialize import canonical_json
from .errors import InvalidSubmission

#: Submission kinds, in increasing compositeness.
KINDS = ("study", "sweep", "manifest")


def wire_body(document: Any) -> bytes:
    """``document`` as a response body: one line of compact JSON.
    Compact separators keep CPython's C encoder, which ``indent`` turns
    off."""
    return (json.dumps(document, separators=(",", ":")) + "\n").encode("utf-8")


def _validate_jobs(jobs: Any) -> Optional[int]:
    """Check the body's optional ``jobs`` override."""
    if jobs is not None and (isinstance(jobs, bool)
                             or not isinstance(jobs, int)):
        raise InvalidSubmission(
            f"'jobs' must be an integer worker count, got {jobs!r}"
        )
    return jobs


@dataclass(frozen=True)
class JobSubmission:
    """One validated unit of service work, ready to fingerprint and run.

    ``entries`` holds the parsed invocation(s) — exactly one for study
    and sweep submissions, one per manifest line otherwise; manifest runs
    hand them to :func:`~repro.runtime.manifest.run_manifest` as parsed.
    ``jobs`` is the body's optional execution override — applied when
    the job runs, invisible to :meth:`fingerprint`.
    """

    kind: str
    entries: Tuple[ManifestEntry, ...]
    jobs: Optional[int] = None

    @classmethod
    def from_document(cls, document: Any) -> "JobSubmission":
        """Parse and validate one ``POST /jobs`` body.

        Raises :class:`~repro.service.errors.InvalidSubmission` (HTTP
        400) on anything that cannot become a job, with the underlying
        validator's message preserved.
        """
        if not isinstance(document, Mapping):
            raise InvalidSubmission(
                "A submission is a JSON object "
                "({'study': ...} or {'studies': [...]}), "
                f"got {type(document).__name__}"
            )
        body = dict(document)
        jobs = _validate_jobs(body.pop("jobs", None))
        manifest = "studies" in body
        try:
            entries = tuple(load_entries(body if manifest else [body]))
        except ReproError as error:
            raise InvalidSubmission(str(error)) from error
        kind = ("manifest" if manifest
                else "sweep" if entries[0].is_sweep else "study")
        return cls(kind=kind, entries=entries, jobs=jobs)

    # -- identity --------------------------------------------------------------

    def fingerprint(self) -> str:
        """The content address of this submission's *work*.

        Study and sweep submissions reuse the runtime layer's study/sweep
        fingerprints verbatim — a service job and a ``repro run``/``repro
        sweep`` of the same invocation share one cache entry.  Manifest
        submissions hash the ordered list of their entries' fingerprints.
        The execution override (``jobs``) never participates.
        """
        keys = [entry.key()[1] for entry in self.entries]
        if self.kind != "manifest":
            return keys[0]
        text = canonical_json({"kind": "manifest", "entries": keys})
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @property
    def deterministic(self) -> bool:
        """Whether identical submissions are interchangeable.  An entry
        with an explicit ``"seed": null`` asks for fresh OS entropy, so
        such a submission must neither dedup nor attach — mirroring the
        manifest runner's bypass."""
        return not any(entry.fresh_entropy for entry in self.entries)

    @property
    def study(self) -> str:
        """The display label: the canonical study name, ``"sweep"``, or
        ``"manifest"``."""
        return "manifest" if self.kind == "manifest" else self.entries[0].study

    def total_corners(self) -> Optional[int]:
        """How many sweep corners this submission expands to (the job's
        progress denominator), or ``None`` when corners are not the unit
        of work: no entry is a sweep, or a plain entry's runner takes
        ``cache`` — :func:`~repro.study.registry.run_study` then hands it
        the store, and it reads and writes corners no sweep planned (the
        circuit study)."""
        sweeps = [entry for entry in self.entries if entry.is_sweep]
        if not sweeps or any("cache" in get_study(entry.study).parameters()
                             for entry in self.entries
                             if not entry.is_sweep):
            return None
        return sum(len(entry.spec) for entry in sweeps)

    # -- execution -------------------------------------------------------------

    def run(self, cache=None, jobs: Optional[int] = None) -> StudyResult:
        """Execute the submission through the registry / sweep driver /
        manifest runner.  The body's own ``jobs`` wins over the service
        default passed in."""
        from ..runtime.manifest import run_manifest

        if self.jobs is not None:
            jobs = self.jobs
        if self.kind == "manifest":
            return run_manifest(list(self.entries), cache=cache, jobs=jobs)
        return self.entries[0].run(cache, jobs)

    def describe(self) -> Dict[str, Any]:
        """The submission's face in the job's wire form."""
        return {
            "kind": self.kind,
            "study": self.study,
            "entries": len(self.entries),
            "deterministic": self.deterministic,
        }


__all__ = ["KINDS", "JobSubmission", "wire_body"]
