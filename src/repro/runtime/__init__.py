"""The runtime layer: deterministic parallel execution + result caching.

Everything below this package computes; this package decides *how* and
*whether* to compute.  It sits on top of the study layer and gives every
study three service-shaped properties:

* **one scheduler** (:mod:`~repro.runtime.scheduler`) — an ordered,
  deterministic task map over serial / thread / process backends.  Every
  parallel path in the repository (``run_sweep_study(jobs=...)``,
  ``run_circuit_study(jobs=...)``, the CLI ``--jobs`` flag) lowers
  onto it, and sharded runs are bit-identical to serial ones because
  seeds are spawned per corner in the parent and transient shards replay
  the full-grid time base;
* **one cache** (:mod:`~repro.runtime.cache` +
  :mod:`~repro.runtime.fingerprint`) — a content-addressed on-disk store
  at two granularities: serialized
  :class:`~repro.study.results.StudyResult` envelopes keyed by a stable
  hash of (study, params, seed, spec, engine, package version), and
  per-corner metric envelopes keyed by each corner's resolved binding,
  spawned seed and shared-state context.  Warm re-runs skip the engines
  entirely; every sweep plans its corner addresses and executes only
  the corners the store lacks (all of them without a store), so a
  *changed* sweep pays for its delta; provenance records
  ``cache="hit"`` / ``"miss"`` / ``"partial:<hits>/<corners>"``;
* **one batch runner** (:mod:`~repro.runtime.manifest`) — ``repro batch
  manifest.json`` executes a list of studies with cross-study dedup
  through the cache.

Import direction: ``repro.runtime`` imports ``repro.study``; the study
layer only reaches back lazily (inside functions), so the layering stays
acyclic.
"""

from .cache import (
    CACHE_SCHEMA,
    CORNER_SCHEMA,
    CacheStats,
    DEFAULT_CACHE_DIR,
    ENV_CACHE_DIR,
    ResultCache,
    as_cache,
    with_cache_status,
)
from .fingerprint import (
    EXECUTION_PARAMS,
    corner_fingerprint,
    study_fingerprint,
    sweep_fingerprint,
)
from .manifest import ManifestEntry, ManifestOutcome, ManifestResult, run_manifest
from .scheduler import (
    BACKENDS,
    DeltaPlan,
    execute_corners,
    plan_delta,
    plan_shards,
    resolve_backend,
    resolve_jobs,
    run_tasks,
    shard_indices,
)

__all__ = [
    "BACKENDS",
    "CACHE_SCHEMA",
    "CORNER_SCHEMA",
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "DeltaPlan",
    "ENV_CACHE_DIR",
    "EXECUTION_PARAMS",
    "ManifestEntry",
    "ManifestOutcome",
    "ManifestResult",
    "ResultCache",
    "as_cache",
    "corner_fingerprint",
    "execute_corners",
    "plan_delta",
    "plan_shards",
    "resolve_backend",
    "resolve_jobs",
    "run_manifest",
    "run_tasks",
    "shard_indices",
    "study_fingerprint",
    "sweep_fingerprint",
    "with_cache_status",
]
