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
      corners/<pid>-<token>.seg        append-only corner records, one
                                       segment per writing process

Study entry files wrap their payload in a small integrity document
(``repro-cache-entry/v1``) carrying the fingerprint and a SHA-256 digest
of the canonical payload text.  A corner record is the same document
(``repro-corner-entry/v1``) on one line of a segment.  Reads re-validate
schema, fingerprint and digest; anything that fails — truncated JSON,
digest mismatch, foreign fingerprint — is treated as a miss and counted
as *corrupt*: a study entry is evicted, a corner record leaves the index
(and the next :meth:`ResultCache.prune` drops it from disk), so a damaged
store degrades to recomputation instead of wrong answers.

The store keeps entries, not counters: a read writes nothing (bar the
eviction of a corrupt study entry), and its hits, misses and corrupt
reads go to the :mod:`repro.obs` metrics registry and the active trace
span (``cache.hits``, ``cache.corner_misses``, ...).  Any number of
processes can therefore share one store without contending for a shared
file.

Study entry writes are atomic (temp file + ``os.replace`` in the same
directory), so concurrent writers and readers never observe half an
entry.  A corner write is one unbuffered ``os.write`` of one
newline-terminated record to the writing process's own segment, after
the log-structured design of Rosenblum and Ousterhout (TOCS 1992): once
:meth:`ResultCache.put_corner` returns, any process can read the record.
Only complete lines are records, so the torn tail of a killed or failed
write is never served; a failed or short write retires its segment and
the next append starts a new one.  All :class:`ResultCache` objects of
one process on one root share one index of the records that process
wrote or scanned, and one open segment; a corner the index does not
hold rescans the segments' unread tails once per read before it counts
as a miss.
:meth:`ResultCache.prune` compacts the surviving records into one
segment.  A study write or a compaction killed between its temp file
and the rename leaves the ``.tmp-*`` file behind; ``prune`` sweeps
those once they are :data:`STALE_TEMP_S` old.

The default store location is ``.repro-cache/`` under the current
directory; the ``REPRO_CACHE_DIR`` environment variable or an explicit
``root`` overrides it (CLI: ``--cache DIR`` / ``--no-cache``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import secrets
import shutil
import tempfile
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple, Union)

from ..errors import CacheError
from ..obs import clock as obs_clock
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..study.results import StudyResult
from .scheduler import make_lock

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


#: File name suffix of a corner segment.
SEGMENT_SUFFIX = ".seg"

#: Matches a whole well-formed cache key: one or more lowercase hex digits.
_KEY = re.compile(r"[0-9a-f]+").fullmatch

#: What precedes the fingerprint in a corner record line.  Records are
#: written with sorted keys, and the ``created`` number and the escaped
#: ``engine`` string before it cannot contain this, so its first
#: occurrence is the record's own fingerprint.
_FINGERPRINT = b'"fingerprint": "'


def _is_key(text: str) -> bool:
    """Whether ``text`` is a well-formed (lowercase hex) cache key."""
    return _KEY(text) is not None


def _checked_key(key: str) -> str:
    if not _is_key(key):
        raise CacheError(f"Malformed cache key {key!r}")
    return key


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


def _validated(wrapper: Any, key: str, schema: str, field: str,
               decode: Callable[[Any], Any]) -> Tuple[Optional[Any], bool]:
    """``(decoded value or None, corrupt)`` for one parsed entry document.

    The document must carry ``schema``, the fingerprint ``key`` and the
    SHA-256 digest of its ``field`` payload, and the payload must go
    through ``decode``; anything else is corrupt.
    """
    payload = wrapper.get(field) if isinstance(wrapper, dict) else None
    if (payload is None
            or wrapper.get("schema") != schema
            or wrapper.get("fingerprint") != key
            or wrapper.get("sha256") != _envelope_digest(payload)):
        return None, True
    try:
        return decode(payload), False
    except Exception:
        return None, True


def _entry_text(key: str, schema: str, field: str, payload: Any,
                **tags: str) -> str:
    """``payload`` wrapped in the integrity document — ``schema``, the
    fingerprint ``key``, ``tags``, the SHA-256 digest of the payload and
    the write time — as one line of sorted-key JSON."""
    return json.dumps({
        "schema": schema,
        "fingerprint": key,
        **tags,
        "sha256": _envelope_digest(payload),
        "created": obs_clock.wall_time(),
        field: payload,
    }, sort_keys=True)


def _doomed(candidates: Iterable[Tuple[float, str]], now: float,
            max_age_s: Optional[float],
            max_entries: Optional[int]) -> Set[str]:
    """The names among ``(created, name)`` candidates that prune bounds
    remove: all of them with no bound; else those older than
    ``max_age_s``, and those beyond the newest ``max_entries``."""
    candidates = list(candidates)
    if max_age_s is None and max_entries is None:
        return {name for _, name in candidates}
    doomed: Set[str] = set()
    if max_age_s is not None:
        doomed.update(name for created, name in candidates
                      if created < now - max_age_s)
    if max_entries is not None:
        survivors = sorted((entry for entry in candidates
                            if entry[1] not in doomed), reverse=True)
        doomed.update(name for _, name in survivors[max_entries:])
    return doomed


def _record_key(line: bytes) -> Optional[str]:
    """The fingerprint a corner record line names, if well-formed; the
    read validates the whole record.  A byte search, about five times
    faster per record than ``json.loads``: it is most of the cost of a
    fresh process's first scan of a large store."""
    at = line.find(_FINGERPRINT)
    if at < 0:
        return None
    at += len(_FINGERPRINT)
    key = line[at:line.find(b'"', at)].decode("ascii", "replace")
    return key if _is_key(key) else None


def _fresh_segment_name() -> str:
    return f"{os.getpid()}-{secrets.token_hex(4)}{SEGMENT_SUFFIX}"


def _count_eviction(key: str, kind: str) -> None:
    obs_trace.event("cache.evict", key=key, kind=kind)
    obs_metrics.registry().inc("cache.evictions")


class _CornerLog:
    """The corner tier of one store root: append-only segment files in
    ``directory`` and this process's index over them (one per process and
    root: see :func:`_corner_log`).

    ``index`` maps each key to the locations ``(segment name, offset,
    length)`` of its records, newest first; ``scanned`` maps each segment
    to the offset up to which its records are indexed.  The writer is
    this process's open segment, keyed by PID so a forked child never
    appends to its parent's.  The methods that touch the index or the
    writer expect :attr:`lock` held: the service appends and reads from
    worker threads.
    """

    def __init__(self, directory: Path):
        self.directory = directory
        self.lock = make_lock()
        self.index: Dict[str, List[Tuple[str, int, int]]] = {}
        self.scanned: Dict[str, int] = {}
        self._writer: Optional[Tuple[int, int, str]] = None
        self._close: Optional[weakref.finalize] = None

    # -- writing ---------------------------------------------------------------

    def _segment(self) -> Tuple[int, str]:
        """``(fd, name)`` of this process's open segment, opening a new one
        after a fork, a retirement or a prune elsewhere unlinked it."""
        if self._writer is not None:
            pid, fd, name = self._writer
            if pid == os.getpid() and os.fstat(fd).st_nlink:
                return fd, name
            self.retire()
        self.directory.mkdir(parents=True, exist_ok=True)
        name = _fresh_segment_name()
        fd = os.open(self.directory / name,
                     os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND, 0o644)
        self._close = weakref.finalize(self, os.close, fd)
        self._writer = (os.getpid(), fd, name)
        self.scanned[name] = 0
        return fd, name

    def retire(self) -> None:
        """Close the open segment: the next append starts a new one."""
        if self._close is not None:
            self._close()
        self._writer = self._close = None

    def append(self, key: str, record: bytes) -> Path:
        """Append one newline-terminated ``record`` of ``key`` with one
        ``os.write`` and index it; returns the segment path.  A failed or
        short write retires the segment and raises :class:`OSError`."""
        fd, name = self._segment()
        try:
            written = os.write(fd, record)
        except OSError:
            self.retire()
            raise
        if written != len(record):
            self.retire()
            raise OSError(f"short write: {written} of {len(record)} bytes")
        end = os.lseek(fd, 0, os.SEEK_CUR)
        self.index.setdefault(key, []).insert(
            0, (name, end - len(record), len(record)))
        self.scanned[name] = end
        return self.directory / name

    # -- reading ---------------------------------------------------------------

    def segments(self) -> Dict[str, int]:
        """``{name: size}`` of every segment on disk."""
        try:
            entries = list(os.scandir(self.directory))
        except FileNotFoundError:
            return {}
        sizes = {}
        for entry in entries:
            if entry.name.endswith(SEGMENT_SUFFIX):
                try:
                    sizes[entry.name] = entry.stat().st_size
                except FileNotFoundError:
                    continue
        return sizes

    def _lines(self, name: str, start: int) -> Iterator[Tuple[int, bytes]]:
        """``(offset, line)`` for each complete line of segment ``name``
        from ``start``; a torn tail (no newline yet) is not a line."""
        try:
            stream = open(self.directory / name, "rb")
        except FileNotFoundError:
            return
        with stream:
            stream.seek(start)
            for line in stream:
                if not line.endswith(b"\n"):
                    return
                yield start, line
                start += len(line)

    def rescan(self) -> None:
        """Index the records appended since the last scan.  When a prune
        elsewhere compacted segments away, rebuild the whole index."""
        sizes = self.segments()
        if any(name not in sizes for name in self.scanned):
            self.index.clear()
            self.scanned.clear()
        for name in sorted(sizes):
            start = self.scanned.get(name, 0)
            if sizes[name] <= start:
                continue
            for offset, line in self._lines(name, start):
                key = _record_key(line)
                if key is not None:
                    self.index.setdefault(key, []).insert(
                        0, (name, offset, len(line)))
                start = offset + len(line)
            self.scanned[name] = start

    def read(self, keys: Iterable[str], decode: Callable[[Any], Any]
             ) -> Tuple[Dict[str, Any], Set[str]]:
        """``({key: payload}, keys met corrupt)`` for the indexed ``keys``.

        Each key's records are tried newest first; a corrupt one is
        dropped from the index (so an older valid record of the key can
        still serve), and so is one whose segment is gone."""
        found: Dict[str, Any] = {}
        corrupt: Set[str] = set()
        handles: Dict[str, Optional[int]] = {}
        try:
            for key in keys:
                locations = self.index.get(key)
                while locations:
                    name, offset, length = locations[0]
                    if name not in handles:
                        try:
                            handles[name] = os.open(self.directory / name,
                                                    os.O_RDONLY)
                        except FileNotFoundError:
                            handles[name] = None
                    if handles[name] is not None:
                        line = os.pread(handles[name], length, offset)
                        try:
                            wrapper = json.loads(line)
                        except ValueError:
                            wrapper = None
                        value, bad = _validated(wrapper, key, CORNER_SCHEMA,
                                                "payload", decode)
                        if not bad:
                            found[key] = value
                            break
                        corrupt.add(key)
                        _count_eviction(key, "corner")
                    locations.pop(0)
                if not locations:
                    self.index.pop(key, None)
        finally:
            for handle in handles.values():
                if handle is not None:
                    os.close(handle)
        return found, corrupt

    def valid_records(self, decode: Callable[[Any], Any]
                      ) -> Tuple[List[Tuple[str, float, bytes]], int]:
        """A full scan of the segments: ``([(key, created, line)], number
        of invalid complete lines)``, the valid records in segment
        order."""
        records: List[Tuple[str, float, bytes]] = []
        invalid = 0
        for name in sorted(self.segments()):
            for _, line in self._lines(name, 0):
                try:
                    wrapper = json.loads(line)
                    key = wrapper["fingerprint"]
                    created = float(wrapper["created"])
                except (ValueError, TypeError, KeyError):
                    invalid += 1
                    continue
                if isinstance(key, str) and _is_key(key) and not _validated(
                        wrapper, key, CORNER_SCHEMA, "payload", decode)[1]:
                    records.append((key, created, line))
                else:
                    invalid += 1
        return records, invalid

    def drop(self, names: Iterable[str]) -> None:
        """Retire the writer, unlink segments ``names`` and forget the
        index: the next miss rescans what is left."""
        self.retire()
        for name in names:
            try:
                os.unlink(self.directory / name)
            except FileNotFoundError:
                continue
        self.index.clear()
        self.scanned.clear()


#: This process's corner log of each store root, by resolved corner
#: directory, while a :class:`ResultCache` on the root holds it.
_LOGS = weakref.WeakValueDictionary()
_LOGS_LOCK = make_lock()
#: The log used last, held so that consecutive store objects on one root
#: (one ``as_cache(path)`` per call) share it too.  Holding every log
#: would keep the index and segment of each root a process ever touched.
_last_log: Optional[_CornerLog] = None


def _corner_log(root: Path) -> _CornerLog:
    """The corner log every store object of this process on ``root``
    shares: one index and one open segment."""
    global _last_log
    directory = (root / "corners").resolve()
    with _LOGS_LOCK:
        log = _LOGS.get(directory)
        if log is None:
            log = _LOGS[directory] = _CornerLog(directory)
        _last_log = log
    return log


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
        self._log = _corner_log(self.root)

    # -- paths -----------------------------------------------------------------

    @property
    def _objects(self) -> Path:
        return self.root / "objects"

    def path_for(self, key: str) -> Path:
        """Where the study entry for ``key`` lives (whether or not it
        exists)."""
        return self._objects / _checked_key(key)[:2] / f"{key}.json"

    def _entries(self) -> Iterator[Path]:
        """The ``<key>.json`` study entry files — never a writer's
        ``.tmp-*`` file."""
        for path in self._tree_files(self._objects, "*.json"):
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
        result, corrupt = self._read_validated(self.path_for(key), key)
        if result is None:
            self._count(misses=1, corrupt=int(corrupt))
            return None
        self._count(hits=1)
        return result

    def _read_validated(self, path: Path, key: str
                        ) -> Tuple[Optional[StudyResult], bool]:
        """``(result or None, corrupt)`` for one study entry file; a
        corrupt file is evicted, an absent one is ``(None, False)``.
        Counts nothing; the caller counts the read."""
        try:
            with open(path, "r", encoding="utf-8") as stream:
                wrapper = json.load(stream)
        except FileNotFoundError:
            return None, False
        except (OSError, json.JSONDecodeError):
            wrapper = None
        value, corrupt = _validated(wrapper, key, CACHE_SCHEMA, "result",
                                    StudyResult.from_json_dict)
        if corrupt:
            _count_eviction(key, "study")
            try:
                path.unlink()
            except OSError:
                pass
        return value, corrupt

    def put(self, key: str, result: StudyResult) -> Path:
        """Persist ``result`` under ``key`` atomically; returns the entry
        path.  Counts one ``cache.puts``; the :meth:`get` miss that
        preceded it was counted there."""
        path = self.path_for(key)
        text = _entry_text(key, CACHE_SCHEMA, "result",
                           result.to_json_dict(),
                           study=type(result).study_name)
        try:
            self._write_atomic(path, text)
        except OSError as error:
            raise CacheError(
                f"Cannot write cache entry {path}: {error}"
            ) from error
        self._count(puts=1)
        return path

    # -- the corner store ------------------------------------------------------

    def get_corners(self, keys: Sequence[str]) -> Dict[str, Any]:
        """``{key: payload}`` for every corner fingerprint in ``keys``
        whose record validated, with the hit/miss/corrupt reads counted
        once for the whole batch (a sweep diffs hundreds of corners per
        run).

        Records come from this process's index of the root; keys it does
        not hold rescan the segments' unread tails once before they count
        as misses.  Schema tag, fingerprint and SHA-256 digest are
        re-validated on every read, and a record that fails — including a
        digest-valid payload that no longer decodes — is dropped from the
        index and counted as corner-corrupt.
        """
        from ..study.serialize import decode

        wanted = list(dict.fromkeys(keys))
        with self._log.lock:
            found, corrupt = self._log.read(wanted, decode)
            missing = [key for key in wanted if key not in found]
            if missing:
                self._log.rescan()
                more, corrupt_more = self._log.read(missing, decode)
                found.update(more)
                corrupt |= corrupt_more
        hits = sum(1 for key in keys if key in found)
        self._count(corner_hits=hits, corner_misses=len(keys) - hits,
                    corner_corrupt=len(corrupt))
        return {key: found[key] for key in wanted if key in found}

    def put_corner(self, key: str, metrics: Any,
                   engine: str = "") -> Path:
        """Append one corner's metrics payload under its fingerprint to
        this process's segment; returns the segment path.  Counts one
        ``cache.corner_puts``, like :meth:`put`."""
        from ..study.serialize import encode

        text = _entry_text(_checked_key(key), CORNER_SCHEMA, "payload",
                           encode(metrics), study="corner", engine=engine)
        try:
            with self._log.lock:
                path = self._log.append(key, (text + "\n").encode("utf-8"))
        except OSError as error:
            raise CacheError(
                f"Cannot append corner {key} to {self._log.directory}: "
                f"{error}"
            ) from error
        self._count(corner_puts=1)
        return path

    # -- maintenance -----------------------------------------------------------

    def stats(self) -> CacheStats:
        """Scan the store: entry counts, bytes, per-study breakdown (study
        entries) and corner-store totals (distinct valid corner keys,
        segment bytes).  Hits and misses are not stored; they are the
        ``cache.*`` counters of :mod:`repro.obs`."""
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
        from ..study.serialize import decode

        records, _ = self._log.valid_records(decode)
        corner_entries = len({key for key, _, _ in records})
        corner_bytes = sum(self._log.segments().values())
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
        entries — corner records carry the pseudo-study ``"corner"``).
        ``max_age_s`` keeps only entries written within the last that many
        seconds; ``max_entries`` keeps only the newest that many entries
        per granularity (study entries and corners are bounded
        independently — they have very different cardinalities).  Both
        bounds respect the ``study`` filter and compose: an entry is
        removed if *either* bound says so.

        The corner tier is bounded per key and compacted: the newest
        valid record of each surviving key goes into one new segment
        (temp file + ``os.replace``), then the old segments are unlinked.
        Superseded records and torn tails are not entries; corrupt
        records are, and always go.  A record another process appends
        while the compaction runs may be lost: the store is a cache.

        Every call also deletes what is not an entry: the ``.tmp-*`` files
        of killed writers once older than :data:`STALE_TEMP_S` (a live
        writer's temp file is younger and is never touched), and the
        per-file corner tree of the older layout (``corners/<xx>/``),
        which nothing reads.
        """
        if max_age_s is not None and max_age_s < 0:
            raise CacheError(f"max_age_s must be >= 0, got {max_age_s!r}")
        if max_entries is not None and max_entries < 0:
            raise CacheError(f"max_entries must be >= 0, got {max_entries!r}")
        now = obs_clock.wall_time()
        corners = self._log.directory
        temps = list(self._tree_files(self._objects, ".tmp-*"))
        if corners.is_dir():
            temps += corners.glob(".tmp-*")
            for tree in corners.iterdir():
                if tree.is_dir():
                    shutil.rmtree(tree, ignore_errors=True)
        for path in temps:
            try:
                if path.stat().st_mtime < now - STALE_TEMP_S:
                    path.unlink()
            except OSError:
                pass
        removed = 0
        candidates = []
        for path in self._entries():
            try:
                with open(path, "r", encoding="utf-8") as stream:
                    wrapper = json.load(stream)
                entry_study = wrapper.get("study")
                created = float(wrapper.get("created") or 0.0)
            except (OSError, json.JSONDecodeError, TypeError, ValueError):
                # Unreadable entries are prunable regardless of the
                # study filter, and sort as infinitely old.
                entry_study, created = study, 0.0
            if study is None or entry_study == study:
                candidates.append((created, str(path)))
        for name in _doomed(candidates, now, max_age_s, max_entries):
            try:
                os.unlink(name)
                removed += 1
            except OSError:
                pass
        if study in (None, "corner"):
            removed += self._compact_corners(now, max_age_s, max_entries)
        return removed

    def _compact_corners(self, now: float, max_age_s: Optional[float],
                         max_entries: Optional[int]) -> int:
        """Rewrite the corner segments as one holding the newest valid
        record of each key the bounds keep; returns the number of keys
        removed plus the corrupt records dropped."""
        from ..study.serialize import decode

        log = self._log
        with log.lock:
            names = list(log.segments())
            records, invalid = log.valid_records(decode)
            newest: Dict[str, Tuple[float, bytes]] = {}
            for key, created, line in records:
                if key not in newest or created >= newest[key][0]:
                    newest[key] = (created, line)
            doomed = _doomed(((created, key) for key, (created, _)
                              in newest.items()),
                             now, max_age_s, max_entries)
            kept = [newest[key][1] for key in sorted(newest)
                    if key not in doomed]
            if kept:
                try:
                    self._write_atomic(log.directory / _fresh_segment_name(),
                                       b"".join(kept).decode("utf-8"))
                except OSError as error:
                    raise CacheError(
                        f"Cannot compact corner segments in "
                        f"{log.directory}: {error}"
                    ) from error
            log.drop(names)
        return len(doomed) + invalid


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
    "SEGMENT_SUFFIX",
    "as_cache",
    "memoize",
    "with_cache_status",
]
