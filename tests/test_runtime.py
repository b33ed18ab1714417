"""The runtime layer: scheduler determinism, result cache, manifests."""

import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

import repro.analysis.experiments as experiments
from repro.errors import CacheError, RuntimeLayerError, StudyError
from repro.obs import registry
from repro.runtime import (
    ManifestResult,
    ResultCache,
    as_cache,
    resolve_jobs,
    run_manifest,
    run_tasks,
    shard_groups,
    shard_indices,
    study_fingerprint,
    sweep_fingerprint,
    with_cache_status,
)
from repro.runtime.cache import SEGMENT_SUFFIX, STALE_TEMP_S, _SegmentLog
from repro.study import StudyResult, SweepSpec, run_study, run_sweep_study


def counted(fn):
    """``(fn(), counts)``: ``counts`` maps each ``cache.*`` counter of
    the process metrics registry to what ``fn`` added to it."""
    before = registry().snapshot()["counters"]
    value = fn()
    after = registry().snapshot()["counters"]
    return value, {name: total - before.get(name, 0)
                   for name, total in after.items()
                   if name.startswith("cache.")
                   and total != before.get(name, 0)}


def segment_records(root, tier="corners"):
    """``[(segment path, offset, line)]`` for every complete record line
    of the ``tier`` segments (``"corners"`` or ``"objects"``) of the
    store at ``root``."""
    records = []
    for path in sorted((root / tier).glob(f"*{SEGMENT_SUFFIX}")):
        offset = 0
        for line in path.read_bytes().splitlines(keepends=True):
            if line.endswith(b"\n"):
                records.append((path, offset, line))
            offset += len(line)
    return records


def isolated_store(root):
    """A store on ``root`` with a study and a corner index and open
    segment of its own, as another process would hold: the store objects
    of one process on one root share theirs."""
    store = ResultCache(root)
    store._studies, store._corners = (
        _SegmentLog(log.directory, log.schema, log.field)
        for log in (store._studies, store._corners))
    return store


def tree_bytes(root):
    """``{relative path: bytes}`` of every file under ``root``."""
    return {path.relative_to(root): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

class TestFingerprint:
    def test_stable_across_calls(self):
        assert study_fingerprint("fig3") == study_fingerprint("fig3")
        assert study_fingerprint("fig2", {"trials": 20, "seed": 7}) == \
            study_fingerprint("fig2", {"seed": 7, "trials": 20})

    def test_sensitive_to_every_input(self):
        base = study_fingerprint("fig2", {"trials": 20})
        assert study_fingerprint("fig3", {"trials": 20}) != base
        assert study_fingerprint("fig2", {"trials": 21}) != base
        assert study_fingerprint("fig2", {"trials": 20, "seed": 7}) != base

    def test_execution_params_excluded(self):
        assert study_fingerprint("immunity_sweep", {"workers": 4}) == \
            study_fingerprint("immunity_sweep")
        assert study_fingerprint("immunity_sweep", {"jobs": 2}) == \
            study_fingerprint("immunity_sweep", {"chunk_size": 8})

    def test_seed_sequences_fingerprint_by_value(self):
        a = study_fingerprint("fig2", {"seed": np.random.SeedSequence(7)})
        b = study_fingerprint("fig2", {"seed": np.random.SeedSequence(7)})
        c = study_fingerprint("fig2", {"seed": np.random.SeedSequence(8)})
        assert a == b != c

    def test_sweep_fingerprint_covers_spec(self):
        spec_a = SweepSpec.from_mapping({"cnts_per_trial": (2, 4)})
        spec_b = SweepSpec.from_mapping({"cnts_per_trial": (2, 8)})
        a = sweep_fingerprint(spec_a, "immunity", 20, 7, {})
        assert a == sweep_fingerprint(spec_a, "immunity", 20, 7, {})
        assert a != sweep_fingerprint(spec_b, "immunity", 20, 7, {})
        assert a != sweep_fingerprint(spec_a, "transient", 20, 7, {})
        assert a != sweep_fingerprint(spec_a, "immunity", 20, 8, {})
        assert a != sweep_fingerprint(spec_a, "immunity", 20, 7,
                                      {"gate": "NAND3"})


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------

def _square(x):
    return x * x


class TestScheduler:
    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(-1) >= 1

    @pytest.mark.parametrize("jobs", [1, 3], ids=["serial", "thread"])
    def test_run_tasks_ordered_on_every_backend(self, jobs):
        tasks = list(range(13))
        assert run_tasks([functools.partial(_square, x) for x in tasks],
                         jobs=jobs) == \
            [x * x for x in tasks]

    @pytest.mark.parametrize("jobs,tasks,pooled", [
        (1, 4, False), (3, 1, False), (3, 0, False), (3, 4, True),
    ])
    def test_run_tasks_pools_only_more_than_one_task(self, jobs, tasks,
                                                     pooled):
        """``jobs>1`` and more than one task run on pool threads; anything
        else runs in the calling thread."""
        caller = threading.get_ident()
        idents = run_tasks([threading.get_ident] * tasks, jobs=jobs)
        assert len(idents) == tasks
        assert any(ident != caller for ident in idents) is pooled

    def test_shard_indices_partition(self):
        for n in (0, 1, 2, 5, 16, 17):
            for shards in (1, 2, 3, 8, 40):
                slices = shard_indices(n, shards)
                flat = [i for start, stop in slices for i in range(start, stop)]
                assert flat == list(range(n))
                if n:
                    sizes = [stop - start for start, stop in slices]
                    assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("groups", [
        [],
        ["a"] * 7,
        ["a", "b", "a", "c", "b", "a", "a", "c", "a"],
        [3, 1, 3, 3, 2, 1, 0, 0, 3, 2, 1],
    ])
    @pytest.mark.parametrize("jobs", [None, 1, 2, 3, 8])
    def test_shard_groups(self, groups, jobs):
        """Each group's positions, in order, in at most ``jobs`` balanced
        contiguous chunks; no shard spans two groups; groups in
        first-seen order."""
        shards = shard_groups(groups, jobs)
        assert sorted(p for shard in shards for p in shard) == \
            list(range(len(groups)))
        assert all(shard and len({groups[p] for p in shard}) == 1
                   for shard in shards)
        seen = list(dict.fromkeys(groups))
        assert list(dict.fromkeys(groups[shard[0]] for shard in shards)) \
            == seen
        for group in seen:
            mine = [shard for shard in shards if groups[shard[0]] == group]
            assert len(mine) <= resolve_jobs(jobs)
            assert [p for shard in mine for p in shard] == \
                [p for p, g in enumerate(groups) if g == group]
            sizes = [len(shard) for shard in mine]
            assert max(sizes) - min(sizes) <= 1
        if resolve_jobs(jobs) == 1:
            assert len(shards) == len(seen)


class TestShardedSweepBitIdentity:
    """Acceptance: jobs>1 is bit-identical to jobs=1 on both engines."""

    def test_immunity_grid(self):
        spec = SweepSpec.from_mapping({
            "cnts_per_trial": (2, 4),
            "technique": ("vulnerable", "compact"),
        })
        serial = run_sweep_study(spec, engine="immunity", trials=25, seed=7)
        for jobs in (2, 3):
            sharded = run_sweep_study(spec, engine="immunity", trials=25,
                                      seed=7, jobs=jobs)
            assert sharded == serial

    def test_immunity_zip(self):
        spec = SweepSpec.from_mapping(
            {"cnts_per_trial": (2, 4, 8),
             "technique": ("vulnerable", "compact", "compact")},
            mode="zip",
        )
        serial = run_sweep_study(spec, engine="immunity", trials=25, seed=7)
        sharded = run_sweep_study(spec, engine="immunity", trials=25, seed=7,
                                  jobs=2)
        assert sharded == serial

    def test_immunity_shared_population_contract_survives_sharding(self):
        """Corners differing only in technique still see the same defect
        populations when sharded — even when the shard boundary splits
        them apart."""
        spec = SweepSpec.from_mapping({
            "technique": ("vulnerable", "compact"),
            "cnts_per_trial": (2, 4),
        })
        serial = run_sweep_study(spec, engine="immunity", trials=25, seed=7)
        # 4 corners, 4 single-corner shards: techniques land on different
        # workers yet must reuse one child sequence per combination.
        sharded = run_sweep_study(spec, engine="immunity", trials=25, seed=7,
                                  jobs=4)
        assert sharded == serial

    def test_transient_grid(self):
        """Satellite: the transient engine's sharded path has the same
        bit-identity guarantee the immunity engine always had."""
        spec = SweepSpec.from_mapping({
            "vdd": (0.9, 1.0),
            "cell": ("INV", "NAND2"),
        })
        serial = run_sweep_study(spec, engine="transient")
        sharded = run_sweep_study(spec, engine="transient", jobs=3)
        assert sharded == serial
        assert [r.corner for r in sharded.records] == \
            [r.corner for r in serial.records]

    def test_transient_zip(self):
        spec = SweepSpec.from_mapping(
            {"vdd": (0.9, 1.0, 1.0), "pitch_nm": (5.0, 5.0, 4.5)},
            mode="zip",
        )
        serial = run_sweep_study(spec, engine="transient")
        sharded = run_sweep_study(spec, engine="transient", jobs=2)
        assert sharded == serial


class TestMonteCarloSweepRouting:
    def test_single_pool_implementation(self):
        """No parallel code path owns its own executor any more.

        Enforced by reprolint's RPL001 (the single-scheduler rule),
        which resolves import aliases in the AST instead of grepping
        source text — a comment mentioning ProcessPoolExecutor no
        longer trips it, a disguised ``from concurrent import
        futures as cf`` still does.
        """
        import repro.immunity.montecarlo as montecarlo
        import repro.study.sweeps as sweeps

        from repro.lint import lint_paths

        report = lint_paths(
            [montecarlo.__file__, sweeps.__file__], select=["RPL001"])
        rendered = "\n".join(f.render() for f in report.findings)
        assert not report.findings, f"private pool detected:\n{rendered}"


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

class TestResultCache:
    @pytest.mark.parametrize("text, accepted", [
        ("", False), ("ABCDEF", False), ("abC0", False), ("ab\n", False),
        ("g0", False), (" ab", False), ("0", True), ("0123456789abcdef", True),
        ("a" * 63 + "f", True), ("a" * 63 + "F", False)])
    def test_key_syntax(self, text, accepted):
        from repro.runtime.cache import _is_key
        assert _is_key(text) is accepted

    def test_roundtrip_and_counters(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        result = experiments.run_fig3_nand3()
        key = study_fingerprint("fig3")
        assert counted(lambda: cache.get(key)) == (None, {"cache.misses": 1})
        segment = cache.put(key, result)
        for reader in (cache, isolated_store(cache.root)):
            restored, counts = counted(lambda: reader.get(key))
            assert counts == {"cache.hits": 1}
            assert restored == result
            assert restored.to_dict() == result.to_dict()
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.by_study == {"fig3": 1}
        assert stats.total_bytes == segment.stat().st_size > 0
        assert sorted(path.name for path in cache.root.iterdir()) \
            == ["objects"]                     # entries, no counter file
        assert (segment.parent, segment.suffix) == (cache.root / "objects",
                                                    SEGMENT_SUFFIX)
        ((path, offset, line),) = segment_records(cache.root, "objects")
        assert (path, offset, line) == (segment, 0, segment.read_bytes())

    def test_corrupt_entry_is_evicted_not_served(self, tmp_path):
        """A damaged study record is a miss that leaves the index but not
        the disk; the next prune drops it."""
        cache = ResultCache(tmp_path / "store")
        key = study_fingerprint("fig3")
        segment = cache.put(key, experiments.run_fig3_nand3())
        text = segment.read_bytes()
        assert b"compact" in text
        segment.write_bytes(text.replace(b"compact", b"c0rrupt"))
        damaged = segment.read_bytes()
        for reader in (cache, isolated_store(cache.root)):
            value, counts = counted(lambda: reader.get(key))
            assert value is None               # digest mismatch -> miss
            assert counts == {"cache.misses": 1, "cache.corrupt": 1,
                              "cache.evictions": 1}
            # Evicted from the index: the next read is a plain miss.
            assert counted(lambda: reader.get(key)) == (
                None, {"cache.misses": 1})
        assert segment.read_bytes() == damaged     # a read writes nothing
        assert cache.stats().entries == 0
        assert cache.prune(max_entries=5) == 1
        assert list((cache.root / "objects").iterdir()) == []

    def test_digest_valid_but_undecodable_entry_is_evicted(self, tmp_path):
        """A stale record whose digest still matches (e.g. a result class
        reshaped without a version bump) must degrade to recomputation,
        not crash or serve garbage."""
        from repro.runtime.cache import _envelope_digest

        root = tmp_path / "store"
        key = study_fingerprint("fig3")
        result = experiments.run_fig3_nand3()
        segment = isolated_store(root).put(key, result)
        wrapper = json.loads(segment.read_text())
        wrapper["result"]["payload"] = "not-a-mapping"
        wrapper["sha256"] = _envelope_digest(wrapper["result"])
        segment.write_text(json.dumps(wrapper, sort_keys=True) + "\n")
        cache = isolated_store(root)
        value, counts = counted(lambda: cache.get(key))
        assert value is None
        assert counts == {"cache.misses": 1, "cache.corrupt": 1,
                          "cache.evictions": 1}
        assert counted(lambda: cache.get(key)) == (None, {"cache.misses": 1})
        cache.put(key, result)
        assert cache.get(key) == result
        assert isolated_store(root).get(key) == result

    @pytest.mark.parametrize("tier", ["objects", "corners"])
    @pytest.mark.parametrize("names", [("a", "b"), ("b", "a")])
    def test_a_rewrite_in_another_segment_is_read_first(
            self, tmp_path, monkeypatch, tier, names):
        """A key's corrupt record, then its valid rewrite by another
        writer a clock step later: a fresh reader serves the rewrite and
        meets no corrupt record, whichever segment name sorts first."""
        import repro.runtime.cache as cache_module
        from repro.obs import clock

        segment_names = iter(f"{name}{SEGMENT_SUFFIX}" for name in names)
        monkeypatch.setattr(cache_module, "_fresh_segment_name",
                            lambda: next(segment_names))
        now = [1_000_000.0]
        monkeypatch.setattr(clock, "wall_time", lambda: now[0])
        root = tmp_path / "store"
        if tier == "objects":
            key, value = study_fingerprint("fig3"), experiments.run_fig3_nand3()
            field = "result"

            def write(store):
                return store.put(key, value)

            def read(store):
                return store.get(key)
        else:
            key, value, field = "ab" * 32, {"x": 1.5}, "payload"

            def write(store):
                return store.put_corner(key, value)

            def read(store):
                return store.get_corners([key]).get(key)

        segment = write(isolated_store(root))
        wrapper = json.loads(segment.read_text())
        wrapper[field] = {"damaged": True}
        segment.write_text(json.dumps(wrapper, sort_keys=True) + "\n")
        now[0] += 1.0
        rewrite = write(isolated_store(root))
        assert rewrite.name != segment.name
        served, counts = counted(lambda: read(isolated_store(root)))
        assert served == value
        assert not any("corrupt" in name for name in counts)

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        key = study_fingerprint("fig3")
        segment = cache.put(key, experiments.run_fig3_nand3())
        segment.write_bytes(segment.read_bytes()[:40])
        assert cache.get(key) is None          # the indexed record is cut
        assert counted(lambda: isolated_store(cache.root).get(key)) == (
            None, {"cache.misses": 1})         # a torn tail is no record
        assert cache.stats().entries == 0

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        """Appends and the compaction's temp file + rename leave one
        segment per log and no temp file."""
        cache = ResultCache(tmp_path / "store")
        cache.put(study_fingerprint("fig3"), experiments.run_fig3_nand3())
        cache.put_corner("ab" * 32, {"x": 1})
        assert cache.prune(max_entries=1) == 0
        leftovers = [p for p in (tmp_path / "store").rglob(".tmp-*")]
        assert leftovers == []
        assert [len(list((cache.root / tier).iterdir()))
                for tier in ("objects", "corners")] == [1, 1]

    def test_prune(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        cache.put(study_fingerprint("fig3"), experiments.run_fig3_nand3())
        cache.put(study_fingerprint("fig3", {"unit_width": 6}),
                  experiments.run_fig3_nand3(unit_width=6))
        cache.put(study_fingerprint("table1"), experiments.run_table1())
        assert cache.prune(study="fig3") == 2
        assert cache.stats().by_study == {"table1": 1}
        assert cache.prune() == 1
        assert cache.stats().entries == 0

    def test_a_killed_writers_temp_file_is_swept_not_counted(self, tmp_path):
        """A killed compaction leaves its temp file beside the segments of
        the log it was compacting, studies or corners."""
        cache = ResultCache(tmp_path / "store")
        result = experiments.run_fig3_nand3()
        entry = cache.put(study_fingerprint("fig3"), result)
        segment = cache.put_corner("ab" * 32, {"x": 1})
        assert entry.parent == cache.root / "objects"
        assert segment.parent == cache.root / "corners"
        stale = [entry.parent / ".tmp-killed", segment.parent / ".tmp-killed"]
        killed_at = time.time() - STALE_TEMP_S - 60.0
        for path in stale:
            path.write_text('{"study": "fig3", "cre')
            os.utime(path, (killed_at, killed_at))
        stats = cache.stats()
        assert (stats.entries, stats.by_study, stats.corner_entries) \
            == (1, {"fig3": 1}, 1)
        assert stats.total_bytes == entry.stat().st_size
        assert stats.corner_bytes == segment.stat().st_size
        assert cache.prune(study="table1") == 0   # sweeps, counts entries
        assert not any(path.exists() for path in stale)
        assert cache.stats() == stats and segment.exists()
        fresh = isolated_store(cache.root)
        assert fresh.get(study_fingerprint("fig3")) == result
        assert fresh.get_corners(["ab" * 32]) == {"ab" * 32: {"x": 1}}

    def test_prune_spares_a_live_writers_temp_file(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        entry = cache.put(study_fingerprint("fig3"),
                          experiments.run_fig3_nand3())
        segment = cache.put_corner("ab" * 32, {"x": 1})
        live = [entry.parent / ".tmp-writing", segment.parent / ".tmp-writing"]
        for path in live:
            path.write_text('{"study": "fig3", "cre')
        assert cache.stats().entries == 1
        assert cache.prune(study="fig3") == 1
        assert all(path.exists() for path in live)
        assert cache.prune() == 1
        assert all(path.exists() for path in live)
        assert not segment.exists()
        assert cache.stats().corner_entries == 0

    def test_malformed_key_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = experiments.run_fig3_nand3()
        for key in ("../escape", "AB", ""):
            with pytest.raises(CacheError):
                cache.get(key)
            with pytest.raises(CacheError):
                cache.put(key, result)
            with pytest.raises(CacheError):
                cache.put_corner(key, {"x": 1})
        assert list(tmp_path.iterdir()) == []

    def test_env_var_names_default_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envstore"))
        assert ResultCache().root == tmp_path / "envstore"
        assert as_cache(True).root == tmp_path / "envstore"

    def test_a_read_writes_nothing(self, tmp_path, monkeypatch):
        """On a store nothing can be written to (a read-only mount), reads
        still serve study and corner hits and turn a corrupt record into a
        miss: a read writes, renames and deletes nothing."""
        root = tmp_path / "store"
        store = ResultCache(root)
        result = experiments.run_fig3_nand3()
        good, bad = study_fingerprint("fig3"), study_fingerprint("table1")
        store.put(good, result)
        store.put(bad, result)
        store.put_corner("ab" * 32, {"x": 1})
        (path, offset, line), = [record for record
                                 in segment_records(root, "objects")
                                 if bad.encode() in record[2]]
        with open(path, "r+b") as stream:
            stream.seek(offset + line.index(b"compact"))
            stream.write(b"c0rrupt")
        before = tree_bytes(root)

        def refuse(*args, **kwargs):
            raise OSError("read-only store")

        monkeypatch.setattr("repro.runtime.cache._write_atomic", refuse)
        for name in ("write", "replace", "unlink", "rename"):
            monkeypatch.setattr(os, name, refuse)
        for reader in (store, isolated_store(root)):
            assert counted(lambda: reader.get(good)) == (
                result, {"cache.hits": 1})
            assert counted(lambda: reader.get(bad)) == (
                None, {"cache.misses": 1, "cache.corrupt": 1,
                       "cache.evictions": 1})
            assert counted(lambda: reader.get_corners(["ab" * 32])) == (
                {"ab" * 32: {"x": 1}}, {"cache.corner_hits": 1})
            assert reader.stats().entries == 1
        monkeypatch.undo()
        assert tree_bytes(root) == before

    def test_as_cache_forms(self, tmp_path):
        assert as_cache(None) is None
        assert as_cache(False) is None
        assert as_cache(str(tmp_path)).root == tmp_path
        cache = ResultCache(tmp_path)
        assert as_cache(cache) is cache
        with pytest.raises(CacheError):
            as_cache(3.14)


def _corner_key(index):
    return hashlib.sha256(f"corner-{index}".encode()).hexdigest()


def _share_a_store(root, indices, go, report):
    """One of two processes sharing a store: on ``go``, read each corner
    of ``indices`` and write the ones it misses; then put this process's
    own reads and its ``cache.corner_*`` registry counters to
    ``report``."""
    store = ResultCache(root)
    go.wait(60.0)
    reads = {"cache.corner_hits": 0, "cache.corner_misses": 0}

    def work():
        for _ in range(3):
            for index in indices:
                key = _corner_key(index)
                if store.get_corners([key]):
                    reads["cache.corner_hits"] += 1
                else:
                    reads["cache.corner_misses"] += 1
                    store.put_corner(key, {"index": index})

    _, counts = counted(work)
    report.put((reads, {name: value for name, value in counts.items()
                        if not name.endswith("_puts")}))


class TestSharedStore:
    def test_two_processes_share_a_store(self, tmp_path):
        """Two processes read and write overlapping corners of one store:
        nothing is lost or corrupt, the store holds one segment per
        writing process and no temp file, and each process counts exactly
        its own reads."""
        root = tmp_path / "store"
        context = multiprocessing.get_context("spawn")
        go, report = context.Event(), context.Queue()
        workers = [context.Process(target=_share_a_store,
                                   args=(str(root), indices, go, report))
                   for indices in (range(0, 24), range(12, 36))]
        for worker in workers:
            worker.start()
        go.set()
        reports = [report.get(timeout=120.0) for _ in workers]
        for worker in workers:
            worker.join(60.0)
            assert worker.exitcode == 0
        for reads, counts in reports:
            assert sum(reads.values()) == 3 * 24
            assert counts == {name: value for name, value in reads.items()
                              if value}
        keys = [_corner_key(index) for index in range(36)]
        stored, counts = counted(lambda: ResultCache(root).get_corners(keys))
        assert stored == {key: {"index": index}
                          for index, key in enumerate(keys)}
        assert counts == {"cache.corner_hits": 36}
        files = [path.relative_to(root) for path in root.rglob("*")
                 if path.is_file()]
        assert len(files) == len(workers)
        for path in files:
            assert path.parent.name == "corners"
            assert path.suffix == SEGMENT_SUFFIX
            assert len(path.parts) == 2
        assert ResultCache(root).stats().corner_entries == len(keys)


class TestCornerSegments:
    """The corner tier's append-only segments."""

    def test_a_torn_tail_is_skipped_and_the_next_append_starts_a_segment(
            self, tmp_path, monkeypatch):
        store = ResultCache(tmp_path / "store")
        keys = [_corner_key(index) for index in range(3)]
        first = store.put_corner(keys[0], {"index": 0})
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda handle, data: real_write(
            handle, data[:len(data) // 2]))
        with pytest.raises(CacheError, match="short write"):
            store.put_corner(keys[1], {"index": 1})
        monkeypatch.undo()
        torn = first.read_bytes()
        assert not torn.endswith(b"\n")
        second = store.put_corner(keys[2], {"index": 2})
        assert second != first
        assert first.read_bytes() == torn        # the torn segment is retired
        for reader in (store, isolated_store(store.root)):
            found, counts = counted(lambda: reader.get_corners(keys))
            assert found == {keys[0]: {"index": 0}, keys[2]: {"index": 2}}
            assert counts == {"cache.corner_hits": 2,
                              "cache.corner_misses": 1}
        assert store.stats().corner_entries == 2

    def test_a_key_appended_twice_counts_once(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        key = _corner_key(0)
        store.put_corner(key, {"index": 0})
        store.put_corner(key, {"index": 0})
        assert len(segment_records(store.root)) == 2
        assert store.stats().corner_entries == 1
        found, counts = counted(lambda: isolated_store(
            store.root).get_corners([key, key]))
        assert found == {key: {"index": 0}}
        assert counts == {"cache.corner_hits": 2}

    def test_prune_compacts_one_corner_segments_into_one(self, tmp_path):
        root = tmp_path / "store"
        keys = [_corner_key(index) for index in range(4)]
        for index, key in enumerate(keys):          # five writers
            isolated_store(root).put_corner(key, {"index": index})
        isolated_store(root).put_corner(keys[0], {"index": 0})
        store = ResultCache(root)
        assert len(list((root / "corners").iterdir())) == 5
        assert store.prune(max_entries=len(keys)) == 0
        (segment,) = (root / "corners").iterdir()
        assert segment.suffix == SEGMENT_SUFFIX
        assert len(segment_records(root)) == len(keys)
        found, counts = counted(lambda: store.get_corners(keys))
        assert found == {key: {"index": index}
                         for index, key in enumerate(keys)}
        assert counts == {"cache.corner_hits": len(keys)}

    def test_a_second_store_sees_the_first_ones_writes(self, tmp_path):
        root = tmp_path / "store"
        reader, writer = ResultCache(root), isolated_store(root)
        key = _corner_key(0)
        assert reader.get_corners([key]) == {}
        writer.put_corner(key, {"index": 0})
        found, counts = counted(lambda: reader.get_corners([key]))
        assert found == {key: {"index": 0}}
        assert counts == {"cache.corner_hits": 1}

    def test_store_objects_of_one_process_share_one_segment(
            self, tmp_path, monkeypatch):
        """Store objects on one root — however the root is spelled — that
        are open together or follow one another append to one segment and
        read one index, even with a store on another root in between."""
        monkeypatch.chdir(tmp_path)
        keys = [_corner_key(index) for index in range(4)]
        first = ResultCache(tmp_path / "store")
        paths = {first.put_corner(keys[0], {"index": 0}),
                 ResultCache("store").put_corner(keys[1], {"index": 1})}
        ResultCache(tmp_path / "other").put_corner(keys[0], {"index": 0})
        paths.add(as_cache(str(tmp_path / "." / "store")).put_corner(
            keys[2], {"index": 2}))
        del first
        paths.add(ResultCache("store").put_corner(keys[3], {"index": 3}))
        assert len(paths) == 1
        assert list((tmp_path / "store" / "corners").iterdir()) == [
            path.resolve() for path in paths]
        found, counts = counted(lambda: ResultCache("store").get_corners(
            keys))
        assert found == {key: {"index": index}
                         for index, key in enumerate(keys)}
        assert counts == {"cache.corner_hits": 4}

    def test_threads_share_one_segment_and_lose_no_record(self, tmp_path):
        """Worker threads (more than cores, switching often) append to
        and read one store: one segment, every record indexed once."""
        store = ResultCache(tmp_path / "store")
        keys = [_corner_key(index) for index in range(64)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda part=part: [
                (store.put_corner(key, {"key": key}),
                 store.get_corners(keys[:8]))
                for key in keys[part::4]]) for part in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(list((store.root / "corners").iterdir())) == 1
        for reader in (store, isolated_store(store.root)):
            assert reader.get_corners(keys) == {key: {"key": key}
                                                for key in keys}
        assert len(segment_records(store.root)) == len(keys)

    def test_a_forked_child_appends_to_its_own_segment(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        keys = [_corner_key(index) for index in range(3)]
        parent = store.put_corner(keys[0], {"index": 0})
        child = multiprocessing.get_context("fork").Process(
            target=store.put_corner, args=(keys[1], {"index": 1}))
        child.start()
        child.join(60.0)
        assert child.exitcode == 0
        assert store.put_corner(keys[2], {"index": 2}) == parent
        segments = sorted((store.root / "corners").iterdir())
        assert len(segments) == 2 and parent in segments
        for reader in (store, isolated_store(store.root)):
            assert reader.get_corners(keys) == {
                key: {"index": index} for index, key in enumerate(keys)}

    def test_the_older_per_file_layout_is_not_read_and_prune_removes_it(
            self, tmp_path):
        """Neither log reads the per-file tree of the older layout, not
        even a study entry file that the older layout would serve."""
        from repro.runtime.cache import CACHE_SCHEMA, _entry_text

        store = ResultCache(tmp_path / "store")
        key = _corner_key(0)
        study, corner = (store.root / tier / key[:2] / f"{key}.json"
                         for tier in ("objects", "corners"))
        for path in (study, corner):
            path.parent.mkdir(parents=True)
        study.write_text(_entry_text(
            key, CACHE_SCHEMA, "result",
            experiments.run_fig3_nand3().to_json_dict(), study="fig3"))
        corner.write_text("{}")
        assert store.get(key) is None
        assert store.get_corners([key]) == {}
        stats = store.stats()
        assert (stats.entries, stats.corner_entries) == (0, 0)
        assert store.prune() == 0
        assert not study.parent.exists() and not corner.parent.exists()


class TestCachedRunStudy:
    def test_warm_run_skips_engine_and_is_identical(self, tmp_path,
                                                    monkeypatch):
        cache = ResultCache(tmp_path / "store")
        cold = run_study("fig3", cache=cache)
        assert cold.provenance.cache == "miss"

        def boom(**kwargs):
            raise AssertionError("engine re-invoked on a warm cache")

        monkeypatch.setattr(experiments, "run_fig3_nand3", boom)
        warm = run_study("fig3", cache=cache)
        assert warm.provenance.cache == "hit"
        assert warm == cold
        assert warm.to_dict() == cold.to_dict()

    def test_param_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        run_study("fig3", cache=cache)
        other = run_study("fig3", cache=cache, unit_width=6.0)
        assert other.provenance.cache == "miss"

    def test_uncached_run_has_no_cache_provenance(self):
        assert run_study("fig3").provenance.cache is None

    def test_jobs_forwarded_to_workers_param(self, monkeypatch):
        """``run_study(jobs=)`` reaches the runner's own ``jobs``
        parameter, the one parallelism keyword of every runner."""
        seen = {}
        real = experiments.run_immunity_sweep

        def spy(jobs=None):
            seen["jobs"] = jobs
            return real(cnts_per_trial=(2,), max_angle_deg=(15.0,),
                        metallic_fraction=(0.0,), trials=5)

        monkeypatch.setattr(experiments, "run_immunity_sweep", spy)
        run_study("immunity_sweep", jobs=2)
        assert seen.get("jobs") == 2

    def test_jobs_rejected_for_serial_study(self):
        with pytest.raises(StudyError, match="no parallel runner"):
            run_study("fig3", jobs=2)

    def test_cached_sweep_hit_returns_identical_typed_result(self, tmp_path):
        spec = SweepSpec.from_mapping({"cnts_per_trial": (2, 4)})
        cache = ResultCache(tmp_path / "store")
        cold = run_sweep_study(spec, engine="immunity", trials=20, seed=7,
                               cache=cache)
        warm = run_sweep_study(spec, engine="immunity", trials=20, seed=7,
                               cache=cache)
        assert cold.provenance.cache == "miss"
        assert warm.provenance.cache == "hit"
        assert warm == cold
        assert [r.metrics["failure_rate"] for r in warm.records] == \
            [r.metrics["failure_rate"] for r in cold.records]

    def test_jobs_do_not_change_the_cache_key(self, tmp_path):
        spec = SweepSpec.from_mapping({"technique": ("vulnerable", "compact")})
        cache = ResultCache(tmp_path / "store")
        run_sweep_study(spec, engine="immunity", trials=10, seed=3,
                        cache=cache)
        warm = run_sweep_study(spec, engine="immunity", trials=10, seed=3,
                               jobs=2, cache=cache)
        assert warm.provenance.cache == "hit"

    def test_seed_none_bypasses_the_cache(self, tmp_path):
        """seed=None asks for fresh OS entropy; caching it would serve a
        stale random draw as a hit, so the cache must stay out of it."""
        spec = SweepSpec.from_mapping({"technique": ("vulnerable",)})
        cache = ResultCache(tmp_path / "store")
        result = run_sweep_study(spec, engine="immunity", trials=10,
                                 seed=None, cache=cache)
        assert result.provenance.cache is None
        assert cache.stats().entries == 0
        study = run_study("fig2", trials=10, seed=None, cache=cache)
        assert study.provenance.cache is None
        assert cache.stats().entries == 0

    def test_with_cache_status_excluded_from_equality(self):
        result = experiments.run_fig3_nand3()
        assert with_cache_status(result, "hit") == \
            with_cache_status(result, "miss") == result

    def test_cache_status_survives_the_json_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        cold = run_study("fig3", cache=cache)
        restored = StudyResult.from_json(cold.to_json())
        assert restored.provenance.cache == "miss"


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

def _manifest_entries():
    return [
        {"study": "fig3"},
        {"study": "nand3"},                      # alias of fig3 -> dedup
        {"study": "fig3", "params": {"unit_width": 6}},
        {"study": "sweep", "engine": "immunity",
         "axes": {"cnts_per_trial": [2, 4]},
         "params": {"trials": 10, "seed": 7}},
    ]


class TestManifest:
    def test_dedup_without_cache(self):
        result = run_manifest(_manifest_entries())
        statuses = [outcome.status for outcome in result.outcomes]
        assert statuses == ["computed", "dedup", "computed", "computed"]
        assert result.results[0] is result.results[1]
        assert result.results[0]["unit_width"] == 4.0
        assert result.results[2]["unit_width"] == 6

    def test_cache_turns_reruns_into_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        first = run_manifest(_manifest_entries(), cache=cache)
        assert [o.status for o in first.outcomes] == \
            ["miss", "dedup", "miss", "miss"]
        second = run_manifest(_manifest_entries(), cache=cache)
        assert [o.status for o in second.outcomes] == \
            ["hit", "dedup", "hit", "hit"]
        for a, b in zip(first.results, second.results):
            assert a == b

    def test_cross_study_dedup_through_cache(self, tmp_path):
        """A single `repro run` warms the store for later manifests."""
        cache = ResultCache(tmp_path / "store")
        run_study("fig3", cache=cache)
        result = run_manifest([{"study": "fig3"}], cache=cache)
        assert result.outcomes[0].status == "hit"

    def test_manifest_file_source(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"studies": [{"study": "fig3"}]}))
        result = run_manifest(path)
        assert result.outcomes[0].study == "fig3"

    def test_result_serializes(self):
        result = run_manifest([{"study": "fig3"}])
        restored = StudyResult.from_json(result.to_json())
        assert isinstance(restored, ManifestResult)
        assert restored.outcomes == result.outcomes
        assert restored.results is None        # live results don't persist
        assert str(result).splitlines()[-1].startswith("1 entries")

    @pytest.mark.parametrize("bad, message", [
        ([], "no entries"),
        ([{"params": {}}], "needs a 'study'"),
        ([{"study": "fig3", "axes": {"x": [1]}}], "only apply"),
        ([{"study": "fig3", "frobnicate": 1}], "unknown keys"),
        ([{"study": "sweep"}], "non-empty 'axes'"),
        ("not-a-list", "JSON list"),
        ([{"study": "fig3", "mode": "zip"}], "only apply"),
    ])
    def test_malformed_manifests_fail_cleanly(self, bad, message, tmp_path):
        if isinstance(bad, str):
            source = tmp_path / "manifest.json"
            source.write_text(json.dumps(bad))
        else:
            source = bad
        with pytest.raises(RuntimeLayerError, match=message):
            run_manifest(source)

    def test_missing_manifest_file(self, tmp_path):
        with pytest.raises(RuntimeLayerError, match="Cannot read"):
            run_manifest(tmp_path / "absent.json")

    def test_fresh_entropy_entries_never_dedup_or_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        entry = {"study": "fig2", "params": {"trials": 10, "seed": None}}
        result = run_manifest([entry, entry], cache=cache)
        assert [o.status for o in result.outcomes] == ["computed", "computed"]
        assert cache.stats().entries == 0

    @pytest.mark.parametrize("axes, fixed", [
        ({"vdd": [0.9, 1.0]}, {}),                     # unknown axis
        ({"cnts_per_trial": [2, 4]}, {"bogus": 3}),    # unknown fixed
        ({"cnts_per_trial": [2, 4]}, {"cnts_per_trial": 8}),  # both
    ])
    def test_bad_sweep_axes_fail_before_any_entry_runs(self, axes, fixed,
                                                       monkeypatch):
        calls = []
        real = experiments.run_fig3_nand3

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_fig3_nand3", counting)
        with pytest.raises(StudyError):
            run_manifest([{"study": "fig3"},
                          {"study": "sweep", "engine": "immunity",
                           "axes": axes,
                           "params": {"trials": 5, "seed": 1, **fixed}}])
        assert calls == []


# ---------------------------------------------------------------------------
# Provenance plumbing
# ---------------------------------------------------------------------------

class TestProvenanceCacheField:
    def test_field_defaults_none_and_not_compared(self):
        result = experiments.run_fig3_nand3()
        assert result.provenance.cache is None
        marked = dataclasses.replace(result.provenance, cache="hit")
        assert marked == result.provenance

    def test_old_envelopes_without_cache_field_still_load(self):
        document = json.loads(experiments.run_fig3_nand3().to_json())
        del document["provenance"]["cache"]
        restored = StudyResult.from_json_dict(document)
        assert restored.provenance.cache is None
