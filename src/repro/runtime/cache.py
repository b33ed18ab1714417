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

Both are records in append-only segment files, one segment per writing
process and tier, after the log-structured design of Rosenblum and
Ousterhout (TOCS 1992)::

    <root>/
      objects/<pid>-<token>.seg        study records
      corners/<pid>-<token>.seg        corner records

A record is one line of sorted-key JSON: the payload wrapped in a small
integrity document (``repro-cache-entry/v1`` for a study,
``repro-corner-entry/v1`` for a corner) carrying the fingerprint and a
SHA-256 digest of the canonical payload text.  Reads re-validate schema,
fingerprint and digest, and decode the payload; a record that fails —
truncated JSON, digest mismatch, foreign fingerprint, a payload that no
longer decodes — is treated as a miss, counted as *corrupt* and dropped
from this process's index (the next :meth:`ResultCache.prune` drops it
from disk), so a damaged store degrades to recomputation instead of
wrong answers.

The store keeps entries, not counters: a read writes nothing, and its
hits, misses and corrupt reads go to the :mod:`repro.obs` metrics
registry and the active trace span (``cache.hits``,
``cache.corner_misses``, ...).  Any number of processes can therefore
share one store without contending for a shared file.

A write is one unbuffered ``os.write`` of one newline-terminated record
to the writing process's own segment of the tier: once
:meth:`ResultCache.put` or :meth:`ResultCache.put_corner` returns, any
process can read the record.  Only complete lines are records, so the
torn tail of a killed or failed write is never served; a failed or short
write retires its segment and the next append starts a new one.  All
:class:`ResultCache` objects of one process on one root share one index
per tier of the records that process wrote or scanned, and one open
segment per tier; a key the index does not hold rescans the segments'
unread tails once per read before it counts as a miss.
:meth:`ResultCache.prune` compacts each tier's surviving records into one
segment (temp file + ``os.replace``).  A compaction killed between its
temp file and the rename leaves the ``.tmp-*`` file behind; ``prune``
sweeps those once they are :data:`STALE_TEMP_S` old.

The default store location is ``.repro-cache/`` under the current
directory; the ``REPRO_CACHE_DIR`` environment variable or an explicit
``root`` overrides it (CLI: ``--cache DIR`` / ``--no-cache``).
"""

from __future__ import annotations

import contextlib
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


#: File name suffix of a segment.
SEGMENT_SUFFIX = ".seg"

#: Matches a whole well-formed cache key: one or more lowercase hex digits.
_KEY = re.compile(r"[0-9a-f]+").fullmatch

#: What precedes the fingerprint in a record line.  Records are written
#: with sorted keys, and the ``created`` number and a corner's escaped
#: ``engine`` string before it cannot contain this, so its first
#: occurrence is the record's own fingerprint.
_FINGERPRINT = b'"fingerprint": "'

#: Matches the start of a record line, whose first key is ``created``.
_CREATED = re.compile(rb'\{"created": ([^,]*),').match

#: How many leading bytes of a record line hold its ``created`` field.
_CREATED_HEAD = 64

#: A location in a tier: ``(segment name, offset, length)``.
Location = Tuple[str, int, int]


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


def _intact(wrapper: Any, key: str, schema: str, field: str) -> bool:
    """Whether a parsed record carries ``schema``, the fingerprint ``key``
    and the SHA-256 digest of its ``field`` payload."""
    return (isinstance(wrapper, dict)
            and wrapper.get(field) is not None
            and wrapper.get("schema") == schema
            and wrapper.get("fingerprint") == key
            and wrapper.get("sha256") == _envelope_digest(wrapper[field]))


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
    """The fingerprint a record line names, if well-formed; the read
    validates the whole record.  A byte search, about five times faster
    per record than ``json.loads``: it is most of the cost of a fresh
    process's first scan of a large store."""
    at = line.find(_FINGERPRINT)
    if at < 0:
        return None
    at += len(_FINGERPRINT)
    key = line[at:line.find(b'"', at)].decode("ascii", "replace")
    return key if _is_key(key) else None


def _record_created(head: Optional[bytes]) -> float:
    """The write time at the start of a record line, or ``-inf`` when the
    line does not start as a record does (it sorts as the oldest)."""
    match = _CREATED(head or b"")
    try:
        return float(match.group(1)) if match else float("-inf")
    except ValueError:
        return float("-inf")


def _fresh_segment_name() -> str:
    return f"{os.getpid()}-{secrets.token_hex(4)}{SEGMENT_SUFFIX}"


def _write_atomic(path: Path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to ``path`` through a ``.tmp-*`` file in the same
    directory and ``os.replace``: readers see all of it or none."""
    handle, temp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(handle, "wb") as stream:
            for chunk in chunks:
                stream.write(chunk)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


class _SegmentLog:
    """One tier of a store root: append-only segment files in
    ``directory`` whose records wrap a ``field`` payload in a ``schema``
    document, and this process's index over them (one per process, root
    and tier: see :func:`_open_logs`).

    ``index`` maps each key to the locations of its records, newest
    first; ``scanned`` maps each segment to the offset up to which its
    records are indexed.  The writer is this process's open segment,
    keyed by PID so a forked child never appends to its parent's.  The
    public methods take :attr:`lock`: the service appends and reads from
    worker threads.
    """

    def __init__(self, directory: Path, schema: str, field: str):
        self.directory = directory
        self.schema = schema
        self.field = field
        self.lock = make_lock()
        self.index: Dict[str, List[Location]] = {}
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
            self._retire()
        self.directory.mkdir(parents=True, exist_ok=True)
        name = _fresh_segment_name()
        fd = os.open(self.directory / name,
                     os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND, 0o644)
        self._close = weakref.finalize(self, os.close, fd)
        self._writer = (os.getpid(), fd, name)
        self.scanned[name] = 0
        return fd, name

    def _retire(self) -> None:
        """Close the open segment: the next append starts a new one."""
        if self._close is not None:
            self._close()
        self._writer = self._close = None

    def append(self, key: str, payload: Any, **tags: str) -> Path:
        """Append ``payload`` under ``key`` as one newline-terminated
        record with one ``os.write`` and index it; returns the segment
        path.  A failed or short write retires the segment and raises
        :class:`OSError`."""
        record = (_entry_text(key, self.schema, self.field, payload, **tags)
                  + "\n").encode("utf-8")
        with self.lock:
            fd, name = self._segment()
            try:
                written = os.write(fd, record)
            except OSError:
                self._retire()
                raise
            if written != len(record):
                self._retire()
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

    @contextlib.contextmanager
    def _reader(self) -> Iterator[Callable[[str, int, int], Optional[bytes]]]:
        """A ``read(name, offset, length)`` of segment bytes that opens
        each segment once and gives ``None`` for one that is gone; the
        segments close when the block ends."""
        handles: Dict[str, Optional[int]] = {}

        def read(name: str, offset: int, length: int) -> Optional[bytes]:
            if name not in handles:
                try:
                    handles[name] = os.open(self.directory / name,
                                            os.O_RDONLY)
                except FileNotFoundError:
                    handles[name] = None
            handle = handles[name]
            return None if handle is None else os.pread(handle, length,
                                                        offset)

        try:
            yield read
        finally:
            for handle in handles.values():
                if handle is not None:
                    os.close(handle)

    def _rescan(self) -> None:
        """Index the records appended since the last scan.  When a prune
        elsewhere compacted segments away, rebuild the whole index.

        A segment's records are in write order, but segment names are
        not: a key whose records the scan finds in more than one segment
        has them ordered by their ``created`` times, newest first."""
        sizes = self.segments()
        if any(name not in sizes for name in self.scanned):
            self.index.clear()
            self.scanned.clear()
        spread: Set[str] = set()
        for name in sorted(sizes):
            start = self.scanned.get(name, 0)
            if sizes[name] <= start:
                continue
            for offset, line in self._lines(name, start):
                key = _record_key(line)
                if key is not None:
                    locations = self.index.setdefault(key, [])
                    if locations and locations[0][0] != name:
                        spread.add(key)
                    locations.insert(0, (name, offset, len(line)))
                start = offset + len(line)
            self.scanned[name] = start
        if spread:
            with self._reader() as read:

                def created(location: Location) -> float:
                    name, offset, length = location
                    return _record_created(
                        read(name, offset, min(length, _CREATED_HEAD)))

                for key in spread:
                    # A stable sort: records written in one clock tick
                    # keep the scan's order.
                    self.index[key].sort(key=created, reverse=True)

    def _loaded(self, line: bytes, key: str,
                decode: Callable[[Any], Any]) -> Tuple[Any, bool]:
        """``(decoded payload, True)`` for an intact record line of
        ``key``, else ``(None, False)``.  A digest-valid payload that no
        longer decodes (a result class reshaped without a version bump, a
        hand-edited store) is damaged too."""
        try:
            wrapper = json.loads(line)
            if _intact(wrapper, key, self.schema, self.field):
                return decode(wrapper[self.field]), True
        except Exception:
            return None, False
        return None, False

    def _lookup(self, keys: Iterable[str], decode: Callable[[Any], Any]
                ) -> Tuple[Dict[str, Any], Set[str]]:
        """``({key: payload}, keys met corrupt)`` for the indexed ``keys``.

        Each key's records are tried newest first; a corrupt one is
        dropped from the index (so an older valid record of the key can
        still serve), and so is one whose segment is gone."""
        found: Dict[str, Any] = {}
        corrupt: Set[str] = set()
        with self._reader() as read:
            for key in keys:
                locations = self.index.get(key)
                while locations:
                    line = read(*locations[0])
                    if line is not None:
                        value, ok = self._loaded(line, key, decode)
                        if ok:
                            found[key] = value
                            break
                        corrupt.add(key)
                        obs_trace.event("cache.evict", key=key,
                                        kind=self.directory.name)
                        obs_metrics.registry().inc("cache.evictions")
                    locations.pop(0)
                if not locations:
                    self.index.pop(key, None)
        return found, corrupt

    def read(self, keys: Sequence[str], decode: Callable[[Any], Any]
             ) -> Tuple[Dict[str, Any], Set[str]]:
        """``({key: decoded payload}, keys met corrupt)`` for the distinct
        ``keys``.  Keys the index does not hold rescan the segments'
        unread tails once before they count as misses."""
        with self.lock:
            found, corrupt = self._lookup(keys, decode)
            missing = [key for key in keys if key not in found]
            if missing:
                self._rescan()
                more, corrupt_more = self._lookup(missing, decode)
                found.update(more)
                corrupt |= corrupt_more
        return found, corrupt

    def census(self, names: Iterable[str]
               ) -> Tuple[Dict[str, Tuple[float, str, Location]], int]:
        """A full scan of segments ``names``: ``({key: (created, study,
        location)} of each key's newest intact record, number of damaged
        complete lines)``.  Checks schema, fingerprint and digest; holds
        one record at a time and decodes no payload."""
        newest: Dict[str, Tuple[float, str, Location]] = {}
        damaged = 0
        for name in sorted(names):
            for offset, line in self._lines(name, 0):
                key = _record_key(line)
                try:
                    wrapper = json.loads(line)
                    created = float(wrapper["created"])
                except (ValueError, TypeError, KeyError):
                    wrapper = None
                if key is None or not _intact(wrapper, key, self.schema,
                                              self.field):
                    damaged += 1
                elif key not in newest or created >= newest[key][0]:
                    newest[key] = (created, wrapper.get("study", "?"),
                                   (name, offset, len(line)))
        return newest, damaged

    # -- maintenance -----------------------------------------------------------

    def sweep(self, now: float) -> None:
        """Delete what is not a segment: a killed writer's ``.tmp-*`` file
        once older than :data:`STALE_TEMP_S` (a live writer's is younger
        and stays), and any subdirectory (the per-file tree of the older
        layout, which nothing reads)."""
        try:
            entries = list(os.scandir(self.directory))
        except FileNotFoundError:
            return
        for entry in entries:
            try:
                if entry.is_dir(follow_symlinks=False):
                    shutil.rmtree(entry.path, ignore_errors=True)
                elif (entry.name.startswith(".tmp-")
                      and entry.stat().st_mtime < now - STALE_TEMP_S):
                    os.unlink(entry.path)
            except OSError:
                continue

    def _copies(self, locations: Iterable[Location]) -> Iterator[bytes]:
        """The bytes at each location, skipping a segment that is gone."""
        with self._reader() as read:
            for location in locations:
                data = read(*location)
                if data is not None:
                    yield data

    def compact(self, now: float, study: Optional[str],
                max_age_s: Optional[float],
                max_entries: Optional[int]) -> int:
        """Rewrite the segments as one holding the newest intact record of
        each key the bounds keep; returns the number of keys removed plus
        the damaged records dropped.  The bounds apply to the keys of
        ``study`` (all keys for ``None``); the rest are kept.  Kept
        records are copied one at a time, never all held at once."""
        with self.lock:
            names = list(self.segments())
            newest, damaged = self.census(names)
            doomed = _doomed(((created, key) for key, (created, tag, _)
                              in newest.items()
                              if study is None or tag == study),
                             now, max_age_s, max_entries)
            kept = [newest[key][2] for key in sorted(newest)
                    if key not in doomed]
            if kept:
                try:
                    _write_atomic(self.directory / _fresh_segment_name(),
                                  self._copies(kept))
                except OSError as error:
                    raise CacheError(f"Cannot compact the segments in "
                                     f"{self.directory}: {error}") from error
            self._retire()
            for name in names:
                try:
                    os.unlink(self.directory / name)
                except FileNotFoundError:
                    continue
            self.index.clear()
            self.scanned.clear()
        return len(doomed) + damaged


#: This process's segment logs of each store root, by resolved tier
#: directory, while a :class:`ResultCache` on the root holds them.
_LOGS = weakref.WeakValueDictionary()
_LOGS_LOCK = make_lock()
#: The logs used last, held so that consecutive store objects on one
#: root (one ``as_cache(path)`` per call) share them too.  Holding every
#: log would keep the index and segments of each root a process ever
#: touched.
_last_logs: Tuple[_SegmentLog, ...] = ()

#: The tiers of a store root: directory, record schema, payload field.
_TIERS = (("objects", CACHE_SCHEMA, "result"),
          ("corners", CORNER_SCHEMA, "payload"))


def _open_logs(root: Path) -> Tuple[_SegmentLog, ...]:
    """The study and corner logs every store object of this process on
    ``root`` shares: one index and one open segment per tier."""
    global _last_logs
    root = root.resolve()
    with _LOGS_LOCK:
        logs = []
        for name, schema, payload_field in _TIERS:
            log = _LOGS.get(root / name)
            if log is None:
                log = _LOGS[root / name] = _SegmentLog(root / name, schema,
                                                       payload_field)
            logs.append(log)
        _last_logs = tuple(logs)
    return _last_logs


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
        self._studies, self._corners = _open_logs(self.root)

    @staticmethod
    def _count(**deltas: int) -> None:
        """Count nonzero store-traffic deltas (``hits=1``,
        ``corner_misses=3``, ...) as ``cache.<name>`` in the process
        metrics registry and the active trace span (if any)."""
        for name, value in deltas.items():
            if value:
                obs_metrics.registry().inc(f"cache.{name}", value)
                obs_trace.add(f"cache.{name}", value)

    @staticmethod
    def _append(log: _SegmentLog, key: str, payload: Any,
                **tags: str) -> Path:
        try:
            return log.append(_checked_key(key), payload, **tags)
        except OSError as error:
            raise CacheError(
                f"Cannot append {key} to {log.directory}: {error}"
            ) from error

    # -- the store API ---------------------------------------------------------

    def get(self, key: str) -> Optional[StudyResult]:
        """The stored result for ``key``, or ``None`` (a miss).

        Integrity is re-validated on every read; a corrupt record counts
        as both *corrupt* and a miss unless an older intact record of the
        key serves.
        """
        found, corrupt = self._studies.read([_checked_key(key)],
                                            StudyResult.from_json_dict)
        self._count(hits=len(found), misses=1 - len(found),
                    corrupt=len(corrupt))
        return found.get(key)

    def put(self, key: str, result: StudyResult) -> Path:
        """Append ``result`` under ``key`` to this process's study segment;
        returns the segment path.  Counts one ``cache.puts``; the
        :meth:`get` miss that preceded it was counted there."""
        path = self._append(self._studies, key, result.to_json_dict(),
                            study=type(result).study_name)
        self._count(puts=1)
        return path

    def get_corners(self, keys: Sequence[str]) -> Dict[str, Any]:
        """``{key: payload}`` for every corner fingerprint in ``keys``
        whose record validated, with the hit/miss/corrupt reads counted
        once for the whole batch (a sweep diffs hundreds of corners per
        run).  Reads as :meth:`get` does."""
        from ..study.serialize import decode

        wanted = list(dict.fromkeys(keys))
        found, corrupt = self._corners.read(wanted, decode)
        hits = sum(1 for key in keys if key in found)
        self._count(corner_hits=hits, corner_misses=len(keys) - hits,
                    corner_corrupt=len(corrupt))
        return {key: found[key] for key in wanted if key in found}

    def put_corner(self, key: str, metrics: Any,
                   engine: str = "") -> Path:
        """Append one corner's metrics payload under its fingerprint to
        this process's corner segment; returns the segment path.  Counts
        one ``cache.corner_puts``, like :meth:`put`."""
        from ..study.serialize import encode

        path = self._append(self._corners, key, encode(metrics),
                            study="corner", engine=engine)
        self._count(corner_puts=1)
        return path

    # -- maintenance -----------------------------------------------------------

    def stats(self) -> CacheStats:
        """Scan the store: distinct intact study keys, segment bytes and
        the per-study breakdown, and the same totals for corners.  Hits
        and misses are not stored; they are the ``cache.*`` counters of
        :mod:`repro.obs`."""
        sizes = self._studies.segments()
        studies, _ = self._studies.census(sizes)
        by_study: Dict[str, int] = {}
        for _, study, _ in studies.values():
            by_study[study] = by_study.get(study, 0) + 1
        corner_sizes = self._corners.segments()
        corners, _ = self._corners.census(corner_sizes)
        return CacheStats(
            root=str(self.root),
            entries=len(studies),
            total_bytes=sum(sizes.values()),
            by_study=by_study,
            corner_entries=len(corners),
            corner_bytes=sum(corner_sizes.values()),
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

        Each tier the filter reaches is bounded per key and compacted: the
        newest intact record of each surviving key goes into one new
        segment (temp file + ``os.replace``), then the old segments are
        unlinked.  Superseded records and torn tails are not entries;
        corrupt records are, and always go.  A record another process
        appends while the compaction runs may be lost: the store is a
        cache.

        Every call also deletes what is not an entry: the ``.tmp-*`` files
        of killed compactions once older than :data:`STALE_TEMP_S` (a live
        writer's temp file is younger and is never touched), and the
        per-file trees of the older layout (``objects/<xx>/``,
        ``corners/<xx>/``), which nothing reads.
        """
        if max_age_s is not None and max_age_s < 0:
            raise CacheError(f"max_age_s must be >= 0, got {max_age_s!r}")
        if max_entries is not None and max_entries < 0:
            raise CacheError(f"max_entries must be >= 0, got {max_entries!r}")
        now = obs_clock.wall_time()
        self._studies.sweep(now)
        self._corners.sweep(now)
        removed = 0
        if study != "corner":
            removed += self._studies.compact(now, study, max_age_s,
                                             max_entries)
        if study in (None, "corner"):
            removed += self._corners.compact(now, None, max_age_s,
                                             max_entries)
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
    "SEGMENT_SUFFIX",
    "as_cache",
    "memoize",
    "with_cache_status",
]
