"""The runtime layer: scheduler determinism, result cache, manifests."""

import dataclasses
import hashlib
import json
import multiprocessing
import os
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
    plan_shards,
    resolve_backend,
    resolve_jobs,
    run_manifest,
    run_tasks,
    shard_indices,
    study_fingerprint,
    sweep_fingerprint,
    with_cache_status,
)
from repro.runtime.cache import STALE_TEMP_S
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
            study_fingerprint("immunity_sweep", {"backend": "thread"})

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

    def test_resolve_backend(self):
        assert resolve_backend(None, 1) == "serial"
        assert resolve_backend(None, 4) == "process"
        assert resolve_backend("thread", 4) == "thread"
        with pytest.raises(RuntimeLayerError):
            resolve_backend("cluster", 4)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_run_tasks_ordered_on_every_backend(self, backend):
        tasks = list(range(13))
        assert run_tasks(_square, tasks, jobs=3, backend=backend) == \
            [x * x for x in tasks]

    def test_shard_indices_partition(self):
        for n in (0, 1, 2, 5, 16, 17):
            for shards in (1, 2, 3, 8, 40):
                slices = shard_indices(n, shards)
                flat = [i for start, stop in slices for i in range(start, stop)]
                assert flat == list(range(n))
                if n:
                    sizes = [stop - start for start, stop in slices]
                    assert max(sizes) - min(sizes) <= 1

    def test_plan_shards_serial_is_one_shard(self):
        assert plan_shards(10, None) == [(0, 10)]
        assert len(plan_shards(100, 2)) <= 8


class TestShardedSweepBitIdentity:
    """Acceptance: jobs>1 is bit-identical to jobs=1 on both engines."""

    def test_immunity_grid(self):
        spec = SweepSpec.from_mapping({
            "cnts_per_trial": (2, 4),
            "technique": ("vulnerable", "compact"),
        })
        serial = run_sweep_study(spec, engine="immunity", trials=25, seed=7)
        for jobs, backend in ((2, "thread"), (3, "thread"), (2, "serial")):
            sharded = run_sweep_study(spec, engine="immunity", trials=25,
                                      seed=7, jobs=jobs, backend=backend)
            assert sharded == serial

    def test_immunity_grid_process_pool(self):
        spec = SweepSpec.from_mapping({"technique": ("vulnerable", "compact")})
        serial = run_sweep_study(spec, engine="immunity", trials=10, seed=3)
        sharded = run_sweep_study(spec, engine="immunity", trials=10, seed=3,
                                  jobs=2, backend="process")
        assert sharded == serial

    def test_immunity_zip(self):
        spec = SweepSpec.from_mapping(
            {"cnts_per_trial": (2, 4, 8),
             "technique": ("vulnerable", "compact", "compact")},
            mode="zip",
        )
        serial = run_sweep_study(spec, engine="immunity", trials=25, seed=7)
        sharded = run_sweep_study(spec, engine="immunity", trials=25, seed=7,
                                  jobs=2, backend="thread")
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
                                  jobs=4, backend="thread")
        assert sharded == serial

    def test_transient_grid(self):
        """Satellite: the transient engine's sharded path has the same
        bit-identity guarantee the immunity engine always had."""
        spec = SweepSpec.from_mapping({
            "vdd": (0.9, 1.0),
            "cell": ("INV", "NAND2"),
        })
        serial = run_sweep_study(spec, engine="transient")
        sharded = run_sweep_study(spec, engine="transient", jobs=3,
                                  backend="thread")
        assert sharded == serial
        assert [r.corner for r in sharded.records] == \
            [r.corner for r in serial.records]

    def test_transient_zip(self):
        spec = SweepSpec.from_mapping(
            {"vdd": (0.9, 1.0, 1.0), "pitch_nm": (5.0, 5.0, 4.5)},
            mode="zip",
        )
        serial = run_sweep_study(spec, engine="transient")
        sharded = run_sweep_study(spec, engine="transient", jobs=2,
                                  backend="thread")
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
    def test_roundtrip_and_counters(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        result = experiments.run_fig3_nand3()
        key = study_fingerprint("fig3")
        assert counted(lambda: cache.get(key)) == (None, {"cache.misses": 1})
        cache.put(key, result)
        restored, counts = counted(lambda: cache.get(key))
        assert counts == {"cache.hits": 1}
        assert restored == result
        assert restored.to_dict() == result.to_dict()
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.by_study == {"fig3": 1}
        assert stats.total_bytes > 0
        assert sorted(path.name for path in cache.root.iterdir()) \
            == ["objects"]                     # entries, no counter file

    def test_corrupt_entry_is_evicted_not_served(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        key = study_fingerprint("fig3")
        path = cache.put(key, experiments.run_fig3_nand3())
        path.write_text(path.read_text().replace("compact", "c0rrupt"))
        value, counts = counted(lambda: cache.get(key))
        assert value is None                   # digest mismatch -> miss
        assert not path.exists()               # and the entry is evicted
        assert counts == {"cache.misses": 1, "cache.corrupt": 1,
                          "cache.evictions": 1}

    def test_digest_valid_but_undecodable_entry_is_evicted(self, tmp_path):
        """A stale entry whose digest still matches (e.g. a result class
        reshaped without a version bump) must degrade to recomputation,
        not crash or serve garbage."""
        from repro.runtime.cache import _envelope_digest

        cache = ResultCache(tmp_path / "store")
        key = study_fingerprint("fig3")
        path = cache.put(key, experiments.run_fig3_nand3())
        wrapper = json.loads(path.read_text())
        wrapper["result"]["payload"] = "not-a-mapping"
        wrapper["sha256"] = _envelope_digest(wrapper["result"])
        path.write_text(json.dumps(wrapper))
        value, counts = counted(lambda: cache.get(key))
        assert value is None
        assert not path.exists()
        assert counts["cache.corrupt"] == 1

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        key = study_fingerprint("fig3")
        path = cache.put(key, experiments.run_fig3_nand3())
        path.write_text(path.read_text()[:40])
        assert cache.get(key) is None

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        cache.put(study_fingerprint("fig3"), experiments.run_fig3_nand3())
        leftovers = [p for p in (tmp_path / "store").rglob(".tmp-*")]
        assert leftovers == []

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
        cache = ResultCache(tmp_path / "store")
        entry = cache.put(study_fingerprint("fig3"),
                          experiments.run_fig3_nand3())
        corner = cache.put_corner("ab" * 32, {"x": 1})
        stale = [entry.parent / ".tmp-killed.json",
                 corner.parent / ".tmp-killed.json"]
        killed_at = time.time() - STALE_TEMP_S - 60.0
        for path in stale:
            path.write_text('{"study": "fig3", "cre')
            os.utime(path, (killed_at, killed_at))
        stats = cache.stats()
        assert (stats.entries, stats.by_study, stats.corner_entries) \
            == (1, {"fig3": 1}, 1)
        assert stats.total_bytes == entry.stat().st_size
        assert cache.prune(study="table1") == 0   # sweeps, counts entries
        assert not any(path.exists() for path in stale)
        assert entry.exists() and corner.exists()

    def test_prune_spares_a_live_writers_temp_file(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        entry = cache.put(study_fingerprint("fig3"),
                          experiments.run_fig3_nand3())
        corner = cache.put_corner("ab" * 32, {"x": 1})
        live = [entry.parent / ".tmp-writing.json",
                corner.parent / ".tmp-writing.json"]
        for path in live:
            path.write_text('{"study": "fig3", "cre')
        assert cache.stats().entries == 1
        assert cache.prune(study="fig3") == 1
        assert all(path.exists() for path in live)
        assert cache.prune() == 1
        assert all(path.exists() for path in live)
        assert cache.stats().corner_entries == 0

    def test_malformed_key_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(CacheError):
            cache.path_for("../escape")

    def test_env_var_names_default_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envstore"))
        assert ResultCache().root == tmp_path / "envstore"
        assert as_cache(True).root == tmp_path / "envstore"

    def test_unwritable_counters_do_not_break_a_hit(self, tmp_path,
                                                    monkeypatch):
        """Counters are telemetry: a store whose stats.json cannot be
        written (read-only mount) must still serve valid hits."""
        cache = ResultCache(tmp_path / "store")
        key = study_fingerprint("fig3")
        result = experiments.run_fig3_nand3()
        cache.put(key, result)
        monkeypatch.setattr(
            ResultCache, "_write_atomic",
            lambda self, path, text: (_ for _ in ()).throw(OSError("read-only")),
        )
        assert cache.get(key) == result

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
        nothing is lost or corrupt, the store holds entry files only, and
        each process counts exactly its own reads."""
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
        assert sorted(files) == sorted(
            ResultCache(root).corner_path_for(key).relative_to(root)
            for key in keys)
        assert not (root / "stats.json").exists()


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
                               jobs=2, backend="thread", cache=cache)
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
