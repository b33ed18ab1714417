"""The content-addressed on-disk result store.

Two granularities share one store root:

* **Study entries** — one serialized
  :class:`~repro.study.results.StudyResult` envelope filed under the
  :mod:`~repro.runtime.fingerprint` of the invocation that produced it.
* **Corner entries** — one tagged-JSON metrics payload per evaluated
  sweep corner, filed under its
  :func:`~repro.runtime.fingerprint.corner_fingerprint`.  These are what
  make sweep re-runs *incremental*: extending an axis only recomputes
  the corners whose addresses are absent
  (:func:`~repro.study.sweeps.run_sweep_study`).

::

    <root>/
      objects/<key[:2]>/<key>.json     one study entry per fingerprint
      corners/<key[:2]>/<key>.json     one corner envelope per fingerprint

Entry files wrap their payload in a small integrity document
(``repro-cache-entry/v1`` / ``repro-corner-entry/v1``) carrying the
fingerprint and a SHA-256 digest of the canonical payload text.  Reads
re-validate both; anything that fails — truncated JSON, digest mismatch,
foreign fingerprint — is treated as a miss, counted as *corrupt*, and
evicted, so a damaged store degrades to recomputation instead of wrong
answers.

The store keeps entries, not counters: a read writes nothing (bar the
eviction of a corrupt entry), and its hits, misses and corrupt reads go
to the :mod:`repro.obs` metrics registry and the active trace span
(``cache.hits``, ``cache.corner_misses``, ...).  Any number of processes
can therefore share one store without contending for a shared file.

Writes are atomic (temp file + ``os.replace`` in the same directory), so
concurrent writers and readers — the scheduler's whole point — never
observe half an entry.  A writer killed between the two leaves its
``.tmp-*`` file behind; :meth:`ResultCache.prune` sweeps those once they
are :data:`STALE_TEMP_S` old.

The default store location is ``.repro-cache/`` under the current
directory; the ``REPRO_CACHE_DIR`` environment variable or an explicit
``root`` overrides it (CLI: ``--cache DIR`` / ``--no-cache``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, Optional, Sequence,
                    Tuple, Union)

from ..errors import CacheError
from ..obs import clock as obs_clock
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..study.results import StudyResult

#: Version tag of the on-disk cache entry wrapper.
CACHE_SCHEMA = "repro-cache-entry/v1"

#: Version tag of the on-disk per-corner envelope wrapper.
CORNER_SCHEMA = "repro-corner-entry/v1"

#: Environment variable naming the default cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Store location used when neither an explicit root nor the environment
#: variable names one.
DEFAULT_CACHE_DIR = ".repro-cache"

CacheLike = Union[None, bool, str, os.PathLike, "ResultCache"]

#: Age (seconds) past which :meth:`ResultCache.prune` deletes a
#: ``.tmp-*`` file: a write takes milliseconds, so a temp file this old
#: belongs to a killed writer, never to a live one.
STALE_TEMP_S = 3600.0


def _is_key(text: str) -> bool:
    """Whether ``text`` is a well-formed (lowercase hex) cache key."""
    return bool(text) and all(c in "0123456789abcdef" for c in text)


@dataclass(frozen=True)
class CacheStats:
    """One scan of a cache store's contents."""

    root: str
    entries: int = 0
    total_bytes: int = 0
    by_study: Dict[str, int] = field(default_factory=dict)
    corner_entries: int = 0
    corner_bytes: int = 0

    def __str__(self) -> str:
        lines = [
            f"cache root   : {self.root}",
            f"entries      : {self.entries}",
            f"total bytes  : {self.total_bytes}",
        ]
        for study in sorted(self.by_study):
            lines.append(f"  {study:<12}: {self.by_study[study]}")
        lines += [
            f"corner entries : {self.corner_entries}",
            f"corner bytes   : {self.corner_bytes}",
        ]
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def _canonical_envelope_text(envelope: Dict[str, Any]) -> str:
    return json.dumps(envelope, sort_keys=True, separators=(",", ":"))


def _envelope_digest(envelope: Dict[str, Any]) -> str:
    return hashlib.sha256(
        _canonical_envelope_text(envelope).encode("utf-8")
    ).hexdigest()


def with_cache_status(result: StudyResult,
                      status: Optional[str]) -> StudyResult:
    """A copy of ``result`` whose provenance records ``status`` ("hit",
    "miss", ``None`` for no store read).  The ``cache`` provenance field
    is excluded from equality, so a warm-cache copy still compares equal
    to the cold-run original — the bit-identity contract survives
    annotation."""
    provenance = dataclasses.replace(result.provenance, cache=status)
    return dataclasses.replace(result, provenance=provenance)


class ResultCache:
    """A content-addressed store of typed study results.

    >>> import tempfile
    >>> from repro.study.results import Fig3Result, Provenance
    >>> root = tempfile.mkdtemp()
    >>> cache = ResultCache(root)
    >>> result = Fig3Result(provenance=Provenance.capture("fig3"),
    ...                     baseline_area=288.0)
    >>> cache.get("0" * 64) is None      # cold store: a miss
    True
    >>> _ = cache.put("0" * 64, result)
    >>> cache.get("0" * 64) == result    # warm store: the same result
    True
    >>> stats = cache.stats()
    >>> (stats.entries, stats.by_study)
    (1, {'fig3': 1})
    """

    def __init__(self, root: Union[None, str, os.PathLike] = None):
        if root is None:
            root = os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR
        self.root = Path(root)

    # -- paths -----------------------------------------------------------------

    @property
    def _objects(self) -> Path:
        return self.root / "objects"

    @property
    def _corners(self) -> Path:
        return self.root / "corners"

    def path_for(self, key: str) -> Path:
        """Where the study entry for ``key`` lives (whether or not it
        exists)."""
        return self._keyed_path(self._objects, key)

    def corner_path_for(self, key: str) -> Path:
        """Where the corner envelope for ``key`` lives (whether or not it
        exists)."""
        return self._keyed_path(self._corners, key)

    @staticmethod
    def _keyed_path(tree: Path, key: str) -> Path:
        if not _is_key(key):
            raise CacheError(f"Malformed cache key {key!r}")
        return tree / key[:2] / f"{key}.json"

    def _entries(self) -> Iterator[Path]:
        yield from self._tree_entries(self._objects)

    def _corner_entries(self) -> Iterator[Path]:
        yield from self._tree_entries(self._corners)

    @classmethod
    def _tree_entries(cls, tree: Path) -> Iterator[Path]:
        """The ``<key>.json`` entry files of ``tree`` — never a writer's
        ``.tmp-*`` file."""
        for path in cls._tree_files(tree, "*.json"):
            if _is_key(path.stem):
                yield path

    @staticmethod
    def _tree_files(tree: Path, pattern: str) -> Iterator[Path]:
        if not tree.is_dir():
            return
        for shard in sorted(tree.iterdir()):
            if shard.is_dir():
                yield from sorted(shard.glob(pattern))

    # -- atomic file primitives ------------------------------------------------

    def _write_atomic(self, path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(text)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    @staticmethod
    def _count(**deltas: int) -> None:
        """Count nonzero store-traffic deltas (``hits=1``,
        ``corner_misses=3``, ...) as ``cache.<name>`` in the process
        metrics registry and the active trace span (if any)."""
        for name, value in deltas.items():
            if value:
                obs_metrics.registry().inc(f"cache.{name}", value)
                obs_trace.add(f"cache.{name}", value)

    # -- the store API ---------------------------------------------------------

    def get(self, key: str) -> Optional[StudyResult]:
        """The stored result for ``key``, or ``None`` (a miss).

        Integrity is re-validated on every read; corrupt entries are
        evicted and count as both *corrupt* and a miss.
        """
        # A digest-valid entry that no longer decodes (result class
        # reshaped without a version bump, hand-edited store) is corrupt,
        # not fatal: evict and recompute.
        result, corrupt = self._read_validated(
            self.path_for(key), key, CACHE_SCHEMA, "result",
            StudyResult.from_json_dict, kind="study",
        )
        if result is None:
            self._count(misses=1, corrupt=int(corrupt))
            return None
        self._count(hits=1)
        return result

    def _read_validated(self, path: Path, key: str, schema: str, field: str,
                        decode, kind: str) -> Tuple[Optional[Any], bool]:
        """``(decoded value or None, corrupt)`` for one entry file.

        The wrapper must carry ``schema``, the fingerprint ``key`` and the
        SHA-256 digest of its ``field`` payload, and the payload must go
        through ``decode``.  Anything that fails is corrupt: the file is
        evicted.  Absent files are ``(None, False)``.  Counts nothing; the
        caller counts the read.
        """
        value, corrupt = None, False
        try:
            with open(path, "r", encoding="utf-8") as stream:
                wrapper = json.load(stream)
        except FileNotFoundError:
            return None, False
        except (OSError, json.JSONDecodeError):
            wrapper = None
        payload = wrapper.get(field) if isinstance(wrapper, dict) else None
        if (payload is None
                or wrapper.get("schema") != schema
                or wrapper.get("fingerprint") != key
                or wrapper.get("sha256") != _envelope_digest(payload)):
            corrupt = True
        else:
            try:
                value = decode(payload)
            except Exception:
                corrupt = True
        if value is None and corrupt:
            obs_trace.event("cache.evict", key=key, kind=kind)
            obs_metrics.registry().inc("cache.evictions")
            try:
                path.unlink()
            except OSError:
                pass
        return value, corrupt

    def _write_entry(self, path: Path, key: str, schema: str, field: str,
                     payload: Any, **tags: str) -> Path:
        """Wrap ``payload`` in the integrity document — ``schema``, the
        fingerprint ``key``, ``tags``, the SHA-256 digest of the payload
        and the write time — and write it to ``path`` atomically."""
        wrapper = {
            "schema": schema,
            "fingerprint": key,
            **tags,
            "sha256": _envelope_digest(payload),
            "created": obs_clock.wall_time(),
            field: payload,
        }
        try:
            self._write_atomic(path, json.dumps(wrapper, sort_keys=True))
        except OSError as error:
            raise CacheError(
                f"Cannot write cache entry {path}: {error}"
            ) from error
        return path

    def put(self, key: str, result: StudyResult) -> Path:
        """Persist ``result`` under ``key`` atomically; returns the entry
        path.  Counts one ``cache.puts``; the :meth:`get` miss that
        preceded it was counted there."""
        path = self._write_entry(self.path_for(key), key, CACHE_SCHEMA,
                                 "result", result.to_json_dict(),
                                 study=type(result).study_name)
        self._count(puts=1)
        return path

    # -- the corner store ------------------------------------------------------

    def get_corners(self, keys: Sequence[str]) -> Dict[str, Any]:
        """``{key: payload}`` for every corner fingerprint in ``keys``
        whose entry validated, with the hit/miss/corrupt reads counted
        once for the whole batch (a sweep diffs hundreds of corners per
        run).

        The integrity discipline mirrors the study store: schema tag,
        fingerprint and SHA-256 digest are re-validated on every read, and
        anything that fails — including a digest-valid payload that no
        longer decodes — is evicted and counted as corner-corrupt.
        """
        from ..study.serialize import decode

        found: Dict[str, Any] = {}
        missing: set = set()
        hits = misses = corrupt = 0
        for key in keys:
            if key in found:
                hits += 1
                continue
            if key in missing:
                misses += 1
                continue
            value, was_corrupt = self._read_validated(
                self.corner_path_for(key), key, CORNER_SCHEMA, "payload",
                decode, kind="corner",
            )
            if value is None:
                misses += 1
                corrupt += 1 if was_corrupt else 0
                missing.add(key)
            else:
                found[key] = value
                hits += 1
        self._count(corner_hits=hits, corner_misses=misses,
                    corner_corrupt=corrupt)
        return found

    def put_corner(self, key: str, metrics: Any,
                   engine: str = "") -> Path:
        """Persist one corner's metrics payload under its fingerprint
        atomically; returns the entry path.  Counts one
        ``cache.corner_puts``, like :meth:`put`."""
        from ..study.serialize import encode

        path = self._write_entry(self.corner_path_for(key), key,
                                 CORNER_SCHEMA, "payload", encode(metrics),
                                 study="corner", engine=engine)
        self._count(corner_puts=1)
        return path

    # -- maintenance -----------------------------------------------------------

    def stats(self) -> CacheStats:
        """Scan the store: entry counts, bytes, per-study breakdown (study
        entries) and corner-store totals.  Hits and misses are not stored;
        they are the ``cache.*`` counters of :mod:`repro.obs`."""
        entries = 0
        total_bytes = 0
        by_study: Dict[str, int] = {}
        for path in self._entries():
            entries += 1
            try:
                total_bytes += path.stat().st_size
                with open(path, "r", encoding="utf-8") as stream:
                    study = json.load(stream).get("study", "?")
            except (OSError, json.JSONDecodeError):
                study = "?"
            by_study[study] = by_study.get(study, 0) + 1
        corner_entries = 0
        corner_bytes = 0
        for path in self._corner_entries():
            corner_entries += 1
            try:
                corner_bytes += path.stat().st_size
            except OSError:
                pass
        return CacheStats(
            root=str(self.root),
            entries=entries,
            total_bytes=total_bytes,
            by_study=by_study,
            corner_entries=corner_entries,
            corner_bytes=corner_bytes,
        )

    def prune(self, study: Optional[str] = None,
              max_age_s: Optional[float] = None,
              max_entries: Optional[int] = None) -> int:
        """Delete entries; returns the number removed.

        With no bounds this clears everything (optionally one study's
        entries — corner envelopes carry the pseudo-study ``"corner"``).
        ``max_age_s`` keeps only entries written within the last that many
        seconds; ``max_entries`` keeps only the newest that many entries
        per granularity (study entries and corner envelopes are bounded
        independently — they have very different cardinalities).  Both
        bounds respect the ``study`` filter and compose: an entry is
        removed if *either* bound says so.

        Every call also deletes the ``.tmp-*`` files of killed writers —
        those older than :data:`STALE_TEMP_S`, whatever the filter and
        bounds; they are not entries and are not in the returned count.
        A live writer's temp file is younger and is never touched.
        """
        if max_age_s is not None and max_age_s < 0:
            raise CacheError(f"max_age_s must be >= 0, got {max_age_s!r}")
        if max_entries is not None and max_entries < 0:
            raise CacheError(f"max_entries must be >= 0, got {max_entries!r}")
        removed = 0
        now = obs_clock.wall_time()
        for tree in (self._objects, self._corners):
            for path in self._tree_files(tree, ".tmp-*"):
                try:
                    if path.stat().st_mtime < now - STALE_TEMP_S:
                        path.unlink()
                except OSError:
                    pass
        for tree_paths in (list(self._entries()), list(self._corner_entries())):
            candidates = []
            for path in tree_paths:
                try:
                    with open(path, "r", encoding="utf-8") as stream:
                        wrapper = json.load(stream)
                    entry_study = wrapper.get("study")
                    created = float(wrapper.get("created") or 0.0)
                except (OSError, json.JSONDecodeError, TypeError, ValueError):
                    # Unreadable entries are prunable regardless of the
                    # study filter, and sort as infinitely old.
                    entry_study, created = study, 0.0
                if study is not None and entry_study != study:
                    continue
                candidates.append((created, str(path), path))
            doomed = set()
            if max_age_s is None and max_entries is None:
                doomed.update(path for _, _, path in candidates)
            else:
                if max_age_s is not None:
                    cutoff = now - max_age_s
                    doomed.update(path for created, _, path in candidates
                                  if created < cutoff)
                if max_entries is not None:
                    survivors = sorted(
                        (entry for entry in candidates
                         if entry[2] not in doomed),
                        reverse=True,
                    )
                    doomed.update(path for _, _, path
                                  in survivors[max_entries:])
            for path in doomed:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


def as_cache(cache: CacheLike) -> Optional[ResultCache]:
    """Normalise the ``cache=`` parameter every runtime entry point takes:
    ``None``/``False`` disable caching, ``True`` opens the default store
    (``$REPRO_CACHE_DIR`` or ``.repro-cache/``), a path opens that store,
    and a :class:`ResultCache` passes through."""
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    if isinstance(cache, ResultCache):
        return cache
    if isinstance(cache, (str, os.PathLike)):
        return ResultCache(cache)
    raise CacheError(
        f"cache= must be None, bool, a path or a ResultCache, "
        f"got {type(cache).__name__}"
    )


def memoize(store: Optional[ResultCache], key: Callable[[], str],
            compute: Callable[[], StudyResult]) -> StudyResult:
    """``compute()`` served through the whole-study entries of ``store``.

    ``key()`` is the invocation's fingerprint, annotated on the current
    trace span.  A stored entry is returned with ``cache="hit"``.  On a
    miss the fresh result is stored with ``provenance.cache`` cleared, so
    a stored envelope never records a read outcome, and is returned with
    the status ``compute`` recorded (a corner-store outcome such as
    ``"partial:<h>/<n>"``) or else ``"miss"``.  Without a store nothing
    is read or fingerprinted and the result records no status.
    """
    if store is None:
        return with_cache_status(compute(), None)
    fingerprint = key()
    obs_trace.annotate(fingerprint=fingerprint)
    cached = store.get(fingerprint)
    if cached is not None:
        obs_trace.annotate(cache="hit")
        return with_cache_status(cached, "hit")
    result = compute()
    store.put(fingerprint, with_cache_status(result, None))
    result = with_cache_status(result, result.provenance.cache or "miss")
    obs_trace.annotate(cache=result.provenance.cache)
    return result


__all__ = [
    "CACHE_SCHEMA",
    "CORNER_SCHEMA",
    "CacheLike",
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "ENV_CACHE_DIR",
    "ResultCache",
    "as_cache",
    "memoize",
    "with_cache_status",
]
