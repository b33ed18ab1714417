"""The service API boundary: submission documents in, typed jobs out.

A *submission* is the JSON body of one ``POST /jobs`` — the same three
invocation shapes the CLI and manifest runner already understand:

* a **study** — ``{"study": "fig3", "params": {"unit_width": 6}}``
* a **sweep** — ``{"study": "sweep", "engine": "immunity",
  "axes": {"cnts_per_trial": [2, 4]}, "mode": "grid",
  "params": {"trials": 100, "seed": 7}}``
* a **manifest** — ``{"studies": [entry, entry, ...]}`` (each entry a
  study/sweep object as above)

Parsing reuses :class:`~repro.runtime.manifest.ManifestEntry`, so the
service accepts exactly what ``repro batch`` accepts and rejects exactly
what it rejects — one validation surface, not two.

**Fingerprints are execution-blind at the API boundary too.**  The body
may carry top-level ``jobs``/``backend`` overrides (how the engines
should execute), but :meth:`JobSubmission.fingerprint` is computed from
the *work* alone, through the same
:func:`~repro.runtime.fingerprint.study_fingerprint` /
:func:`~repro.runtime.fingerprint.sweep_fingerprint` addresses the cache
uses.  Two clients POSTing the same study with different worker counts
collapse onto one job — the RPL004 contract, extended to HTTP.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..errors import ReproError
from ..runtime.manifest import (
    ManifestEntry,
    _entry_key,
    _requests_fresh_entropy,
    _run_entry,
)
from ..runtime.scheduler import BACKENDS
from ..study.registry import get_study
from ..study.results import StudyResult
from ..study.serialize import canonical_json
from .errors import InvalidSubmission

#: Submission kinds, in increasing compositeness.
KINDS = ("study", "sweep", "manifest")


def _validate_execution(jobs: Any, backend: Any) -> Tuple[Optional[int],
                                                          Optional[str]]:
    """Normalise the body's optional execution overrides."""
    if jobs is not None:
        if isinstance(jobs, bool) or not isinstance(jobs, int):
            raise InvalidSubmission(
                f"'jobs' must be an integer worker count, got {jobs!r}"
            )
    if backend is not None and backend not in BACKENDS:
        raise InvalidSubmission(
            f"Unknown backend {backend!r}; use one of {BACKENDS}"
        )
    return jobs, backend


def _parse_entry(document: Mapping[str, Any], index: int) -> ManifestEntry:
    """One study/sweep entry through the manifest validator — which
    resolves study names, sweep engines and axes — with submission-grade
    error wrapping."""
    try:
        return ManifestEntry.from_mapping(document, index)
    except ReproError as error:
        raise InvalidSubmission(str(error)) from error


@dataclass(frozen=True)
class JobSubmission:
    """One validated unit of service work, ready to fingerprint and run.

    ``entries`` holds the parsed invocation(s) — exactly one for study
    and sweep submissions, one per manifest line otherwise; ``documents``
    keeps the normalised raw entry mappings so manifest runs replay
    through :func:`~repro.runtime.manifest.run_manifest` unchanged.
    ``jobs``/``backend`` are the body's optional execution overrides —
    applied when the job runs, invisible to :meth:`fingerprint`.
    """

    kind: str
    entries: Tuple[ManifestEntry, ...]
    documents: Tuple[Dict[str, Any], ...] = field(default=())
    jobs: Optional[int] = None
    backend: Optional[str] = None

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
        jobs, backend = _validate_execution(
            body.pop("jobs", None), body.pop("backend", None)
        )
        if "studies" in body:
            raw_entries = body.pop("studies")
            if body:
                raise InvalidSubmission(
                    f"Manifest submissions take only 'studies' (plus "
                    f"'jobs'/'backend'); unknown keys {sorted(body)}"
                )
            if not isinstance(raw_entries, (list, tuple)) or not raw_entries:
                raise InvalidSubmission(
                    "'studies' must be a non-empty list of study/sweep "
                    "entries"
                )
            entries = tuple(
                _parse_entry(entry, index)
                for index, entry in enumerate(raw_entries)
            )
            return cls(
                kind="manifest",
                entries=entries,
                documents=tuple(dict(entry) for entry in raw_entries),
                jobs=jobs,
                backend=backend,
            )
        entry = _parse_entry(body, 0)
        return cls(
            kind="sweep" if entry.is_sweep else "study",
            entries=(entry,),
            documents=(dict(body),),
            jobs=jobs,
            backend=backend,
        )

    # -- identity --------------------------------------------------------------

    def fingerprint(self) -> str:
        """The content address of this submission's *work*.

        Study and sweep submissions reuse the runtime layer's study/sweep
        fingerprints verbatim — a service job and a ``repro run``/``repro
        sweep`` of the same invocation share one cache entry.  Manifest
        submissions hash the ordered list of their entries' fingerprints.
        Execution overrides (``jobs``/``backend``) never participate.
        """
        keys = [_entry_key(entry)[1] for entry in self.entries]
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
        return not any(_requests_fresh_entropy(entry)
                       for entry in self.entries)

    @property
    def study(self) -> str:
        """The display label: the canonical study name, ``"sweep"``, or
        ``"manifest"``."""
        if self.kind == "manifest":
            return "manifest"
        entry = self.entries[0]
        return "sweep" if entry.is_sweep else get_study(entry.study).name

    def total_corners(self) -> Optional[int]:
        """How many sweep corners this submission expands to (the job's
        progress denominator), or ``None`` when corners are not the unit
        of work."""
        totals = [len(entry.spec().corners())
                  for entry in self.entries if entry.is_sweep]
        if not totals:
            return None
        return sum(totals)

    # -- execution -------------------------------------------------------------

    def run(self, cache=None, jobs: Optional[int] = None,
            backend: Optional[str] = None) -> StudyResult:
        """Execute the submission through the registry / sweep driver /
        manifest runner.  The body's own ``jobs``/``backend`` win over
        the service defaults passed in."""
        from ..runtime.manifest import run_manifest

        effective_jobs = self.jobs if self.jobs is not None else jobs
        effective_backend = self.backend if self.backend is not None \
            else backend
        if self.kind == "manifest":
            return run_manifest(list(self.documents), cache=cache,
                                jobs=effective_jobs,
                                backend=effective_backend)
        return _run_entry(self.entries[0], cache, effective_jobs,
                          effective_backend)

    def describe(self) -> Dict[str, Any]:
        """The submission's face in job documents."""
        return {
            "kind": self.kind,
            "study": self.study,
            "entries": len(self.entries),
            "deterministic": self.deterministic,
        }


__all__ = ["KINDS", "JobSubmission"]
