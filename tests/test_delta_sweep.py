"""Corner-level content addressing: delta-only sweep recompute.

The contract under test (PR 6): with a cache attached, a sweep is diffed
against the persistent **corner store** and only the missing corners
execute — while the merged :class:`SweepStudyResult` stays bit-identical
to a cold serial run, on both engines, in grid and zip modes.
"""

import json

import numpy as np
import pytest

import repro.cells.characterize as characterize
import repro.immunity.montecarlo as montecarlo
from repro.errors import CacheError
from repro.runtime import (
    ResultCache,
    corner_fingerprint,
    plan_delta,
)
from repro.study import SweepSpec, run_sweep_study
from test_runtime import counted
from test_sweep_engines import planned_keys


# ---------------------------------------------------------------------------
# Engine-invocation counters
# ---------------------------------------------------------------------------

@pytest.fixture
def immunity_counter(monkeypatch):
    """Count per-corner immunity engine invocations (serial/thread)."""
    calls = []
    real = montecarlo.run_immunity_trials

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "run_immunity_trials", counting)
    return calls


@pytest.fixture
def transient_counter(monkeypatch):
    """Count transient cases actually integrated (serial/thread)."""
    integrated = []
    real = characterize.run_transient_batch

    def counting(cases, **kwargs):
        integrated.extend(cases)
        return real(cases, **kwargs)

    monkeypatch.setattr(characterize, "run_transient_batch", counting)
    return integrated


# ---------------------------------------------------------------------------
# Corner fingerprint stability
# ---------------------------------------------------------------------------

class TestCornerFingerprint:
    def test_stable_and_dict_order_invariant(self):
        a = corner_fingerprint(
            "immunity", {"gate": "NAND2", "cnts_per_trial": 4}, trials=20)
        b = corner_fingerprint(
            "immunity", {"cnts_per_trial": 4, "gate": "NAND2"}, trials=20)
        assert a == b

    def test_numpy_scalars_hash_like_python_scalars(self):
        assert corner_fingerprint(
            "transient", {"vdd": np.float64(0.9), "drive": np.int64(2)},
        ) == corner_fingerprint("transient", {"vdd": 0.9, "drive": 2})

    def test_sensitive_to_params_seed_trials_and_context(self):
        base = corner_fingerprint("immunity", {"gate": "NAND2"}, trials=20)
        assert corner_fingerprint(
            "immunity", {"gate": "NAND3"}, trials=20) != base
        assert corner_fingerprint(
            "immunity", {"gate": "NAND2"}, trials=21) != base
        assert corner_fingerprint(
            "immunity", {"gate": "NAND2"}, trials=20,
            seed=np.random.SeedSequence(7)) != base
        assert corner_fingerprint(
            "immunity", {"gate": "NAND2"}, trials=20,
            context=(1.0, 2.0)) != base

    def test_seed_hashes_by_value(self):
        a = corner_fingerprint("immunity", {"gate": "INV"},
                               seed=np.random.SeedSequence(7), trials=10)
        b = corner_fingerprint("immunity", {"gate": "INV"},
                               seed=np.random.SeedSequence(7), trials=10)
        c = corner_fingerprint("immunity", {"gate": "INV"},
                               seed=np.random.SeedSequence(8), trials=10)
        assert a == b != c

    def test_execution_params_excluded(self):
        assert corner_fingerprint(
            "immunity", {"gate": "INV", "jobs": 4, "backend": "thread"},
        ) == corner_fingerprint("immunity", {"gate": "INV"})

    def test_engines_never_collide(self):
        params = {"gate": "INV"}
        assert corner_fingerprint("immunity", params) != \
            corner_fingerprint("transient", params)


class TestCornerKeyInvariance:
    """The per-corner addresses the sweep driver actually computes."""

    def test_axis_declaration_order_grid_mode(self):
        spec_a = SweepSpec.from_mapping(
            {"technique": ("compact", "vulnerable"),
             "cnts_per_trial": (2, 4)})
        spec_b = SweepSpec.from_mapping(
            {"cnts_per_trial": (2, 4),
             "technique": ("compact", "vulnerable")})
        keys_a, _ = planned_keys(spec_a, "immunity", 20, 7, {})
        keys_b, _ = planned_keys(spec_b, "immunity", 20, 7, {})
        # Different corner order, identical address *set*: the address
        # hashes the resolved binding, not the declaration order.
        assert sorted(keys_a) == sorted(keys_b)
        assert keys_a != keys_b

    def test_swept_vs_fixed_spelling(self):
        # A one-value axis and a fixed override resolve to the same
        # corner, so they share the address.
        swept = SweepSpec.from_mapping(
            {"cnts_per_trial": (2, 4), "gate": ("NAND3",)})
        fixed = SweepSpec.from_mapping({"cnts_per_trial": (2, 4)})
        keys_swept, _ = planned_keys(swept, "immunity", 20, 7, {})
        keys_fixed, _ = planned_keys(
            fixed, "immunity", 20, 7, {"gate": "NAND3"})
        assert keys_swept == keys_fixed

    def test_numpy_axis_values_grid_and_transient(self):
        np_spec = SweepSpec.from_mapping(
            {"vdd": tuple(np.linspace(0.9, 1.0, 2))})
        py_spec = SweepSpec.from_mapping({"vdd": (0.9, 1.0)})
        np_keys, _ = planned_keys(np_spec, "transient", 0, None, {})
        py_keys, _ = planned_keys(py_spec, "transient", 0, None, {})
        assert np_keys == py_keys

    def test_jobs_and_backend_never_enter_the_address(self, tmp_path):
        """Corner addresses are spawned in the parent, so a store written
        by a jobs=4 thread run serves a jobs=1 serial re-run (and the
        extension executes only the new corner)."""
        store = ResultCache(tmp_path / "store")
        spec = SweepSpec.from_mapping({"cnts_per_trial": (2, 4)})
        cold = run_sweep_study(spec, engine="immunity", trials=20, seed=7,
                               jobs=4, backend="thread", cache=store)
        assert cold.provenance.cache == "miss"

        wider = SweepSpec.from_mapping({"cnts_per_trial": (2, 4, 8)})
        delta = run_sweep_study(wider, engine="immunity", trials=20, seed=7,
                                jobs=1, cache=store)
        assert delta.provenance.cache == "partial:2/3"
        assert delta == run_sweep_study(wider, engine="immunity", trials=20,
                                        seed=7)

    def test_process_backend_shares_the_store(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        spec = SweepSpec.from_mapping({"cnts_per_trial": (2, 4)})
        run_sweep_study(spec, engine="immunity", trials=20, seed=7,
                        jobs=2, backend="process", cache=store)
        wider = SweepSpec.from_mapping({"cnts_per_trial": (2, 4, 8)})
        delta = run_sweep_study(wider, engine="immunity", trials=20, seed=7,
                                cache=store)
        assert delta.provenance.cache == "partial:2/3"


# ---------------------------------------------------------------------------
# The delta contract, end to end
# ---------------------------------------------------------------------------

class TestDeltaRecompute:
    def test_immunity_grid_runs_only_missing_corners(
            self, tmp_path, immunity_counter):
        store = ResultCache(tmp_path / "store")
        spec = SweepSpec.from_mapping(
            {"technique": ("vulnerable", "compact"),
             "cnts_per_trial": (2, 4)})
        cold = run_sweep_study(spec, engine="immunity", trials=20, seed=7,
                               cache=store)
        assert cold.provenance.cache == "miss"
        assert len(immunity_counter) == 4

        wider = SweepSpec.from_mapping(
            {"technique": ("vulnerable", "compact"),
             "cnts_per_trial": (2, 4, 8)})
        del immunity_counter[:]
        delta = run_sweep_study(wider, engine="immunity", trials=20, seed=7,
                                cache=store)
        assert len(immunity_counter) == 2          # only the cnts=8 corners
        assert delta.provenance.cache == "partial:4/6"
        assert delta == run_sweep_study(wider, engine="immunity", trials=20,
                                        seed=7)

    def test_immunity_zip_runs_only_missing_corners(
            self, tmp_path, immunity_counter):
        store = ResultCache(tmp_path / "store")
        spec = SweepSpec.from_mapping(
            {"cnts_per_trial": (2, 4), "max_angle_deg": (10.0, 20.0)},
            mode="zip")
        run_sweep_study(spec, engine="immunity", trials=20, seed=7,
                        cache=store)
        wider = SweepSpec.from_mapping(
            {"cnts_per_trial": (2, 4, 8),
             "max_angle_deg": (10.0, 20.0, 30.0)}, mode="zip")
        del immunity_counter[:]
        delta = run_sweep_study(wider, engine="immunity", trials=20, seed=7,
                                cache=store)
        assert len(immunity_counter) == 1
        assert delta.provenance.cache == "partial:2/3"
        assert delta == run_sweep_study(wider, engine="immunity", trials=20,
                                        seed=7)

    def test_transient_grid_runs_only_missing_cells(
            self, tmp_path, transient_counter):
        store = ResultCache(tmp_path / "store")
        spec = SweepSpec.from_mapping(
            {"cell": ("INV",), "vdd": (0.9, 1.0)})
        run_sweep_study(spec, engine="transient", cache=store)
        assert len(transient_counter) == 2

        wider = SweepSpec.from_mapping(
            {"cell": ("INV", "NAND2"), "vdd": (0.9, 1.0)})
        del transient_counter[:]
        delta = run_sweep_study(wider, engine="transient", cache=store)
        assert len(transient_counter) == 2         # only the NAND2 corners
        assert delta.provenance.cache == "partial:2/4"
        assert delta == run_sweep_study(wider, engine="transient")

    def test_transient_interior_extension_keeps_the_time_base(
            self, tmp_path, transient_counter):
        """Appending an *interior* vdd leaves the per-cell analytical
        envelope — and therefore the shared time base and the stored
        corners' addresses — untouched."""
        store = ResultCache(tmp_path / "store")
        spec = SweepSpec.from_mapping({"vdd": (0.9, 1.0)})
        run_sweep_study(spec, engine="transient", cache=store)
        wider = SweepSpec.from_mapping({"vdd": (0.9, 1.0, 0.95)})
        del transient_counter[:]
        delta = run_sweep_study(wider, engine="transient", cache=store)
        assert len(transient_counter) == 1
        assert delta.provenance.cache == "partial:2/3"
        assert delta == run_sweep_study(wider, engine="transient")

    def test_transient_envelope_shift_recomputes_but_stays_identical(
            self, tmp_path):
        """Extending vdd *below* the cached range slows the analytical
        envelope, moving the shared time base: every address changes, the
        whole grid recomputes, and the result still equals the cold full
        run — conservative, never wrong."""
        store = ResultCache(tmp_path / "store")
        run_sweep_study(SweepSpec.from_mapping({"vdd": (0.9, 1.0)}),
                        engine="transient", cache=store)
        wider = SweepSpec.from_mapping({"vdd": (0.9, 1.0, 0.7)})
        delta = run_sweep_study(wider, engine="transient", cache=store)
        assert delta.provenance.cache == "miss"
        assert delta == run_sweep_study(wider, engine="transient")

    def test_transient_zip_runs_only_missing_corners(
            self, tmp_path, transient_counter):
        store = ResultCache(tmp_path / "store")
        spec = SweepSpec.from_mapping(
            {"vdd": (0.9, 1.0), "pitch_nm": (5.0, 6.0)}, mode="zip")
        run_sweep_study(spec, engine="transient", cache=store)
        wider = SweepSpec.from_mapping(
            {"vdd": (0.9, 1.0, 0.8), "pitch_nm": (5.0, 6.0, 7.0)},
            mode="zip")
        del transient_counter[:]
        delta = run_sweep_study(wider, engine="transient", cache=store)
        assert len(transient_counter) == 1
        assert delta.provenance.cache == "partial:2/3"
        assert delta == run_sweep_study(wider, engine="transient")

    def test_full_corner_coverage_is_a_hit_without_study_envelope(
            self, tmp_path, immunity_counter):
        """Every corner cached but no study envelope (e.g. the grid was
        filled by other sweeps): zero engine work, status 'hit'."""
        store = ResultCache(tmp_path / "store")
        spec = SweepSpec.from_mapping({"cnts_per_trial": (2, 4)})
        run_sweep_study(spec, engine="immunity", trials=20, seed=7,
                        cache=store)
        store.prune(study="sweep")                 # drop the envelope only
        del immunity_counter[:]
        warm = run_sweep_study(spec, engine="immunity", trials=20, seed=7,
                               cache=store)
        assert immunity_counter == []
        assert warm.provenance.cache == "hit"
        assert warm == run_sweep_study(spec, engine="immunity", trials=20,
                                       seed=7)

    def test_cross_spec_overlap_dedups_through_the_corner_store(
            self, tmp_path, transient_counter):
        """Different study-level fingerprints, overlapping grids: the
        overlap is served from the corner store — even with the axis
        values reordered, because transient corners address by resolved
        value (there is no seed)."""
        store = ResultCache(tmp_path / "store")
        run_sweep_study(SweepSpec.from_mapping({"vdd": (0.9, 1.0)}),
                        engine="transient", cache=store)
        del transient_counter[:]
        other = run_sweep_study(
            SweepSpec.from_mapping({"vdd": (1.0, 0.9, 0.95)}),
            engine="transient", cache=store)
        assert len(transient_counter) == 1
        assert other.provenance.cache == "partial:2/3"
        assert other == run_sweep_study(
            SweepSpec.from_mapping({"vdd": (1.0, 0.9, 0.95)}),
            engine="transient")

    def test_immunity_value_reorder_is_a_conservative_miss(
            self, tmp_path, immunity_counter):
        """Reordering an immunity axis's values reassigns the spawn
        positions, so every corner's child seed — and therefore its
        address — changes: the store misses rather than serving metrics
        computed under different entropy.  Spurious miss, never a wrong
        hit."""
        store = ResultCache(tmp_path / "store")
        run_sweep_study(SweepSpec.from_mapping({"cnts_per_trial": (2, 4)}),
                        engine="immunity", trials=20, seed=7, cache=store)
        del immunity_counter[:]
        reordered = run_sweep_study(
            SweepSpec.from_mapping({"cnts_per_trial": (4, 2)}),
            engine="immunity", trials=20, seed=7, cache=store)
        assert len(immunity_counter) == 2
        assert reordered.provenance.cache == "miss"
        assert reordered == run_sweep_study(
            SweepSpec.from_mapping({"cnts_per_trial": (4, 2)}),
            engine="immunity", trials=20, seed=7)

    def test_seed_none_still_bypasses_corner_store(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        spec = SweepSpec.from_mapping({"cnts_per_trial": (2,)})
        result = run_sweep_study(spec, engine="immunity", trials=10,
                                 seed=None, cache=store)
        assert result.provenance.cache is None
        assert store.stats().corner_entries == 0


# ---------------------------------------------------------------------------
# Corner-store integrity
# ---------------------------------------------------------------------------

class TestCornerIntegrity:
    def _poison_one_corner(self, store):
        paths = list(store._corner_entries())
        assert paths
        path = paths[0]
        wrapper = json.loads(path.read_text())
        wrapper["payload"] = {"tampered": True}
        path.write_text(json.dumps(wrapper))
        return path

    def test_poisoned_corner_is_evicted_counted_and_recomputed(
            self, tmp_path):
        store = ResultCache(tmp_path / "store")
        spec = SweepSpec.from_mapping({"cnts_per_trial": (2, 4)})
        cold = run_sweep_study(spec, engine="immunity", trials=20, seed=7,
                               cache=store)
        store.prune(study="sweep")                 # force the corner path
        poisoned = self._poison_one_corner(store)

        again, counts = counted(lambda: run_sweep_study(
            spec, engine="immunity", trials=20, seed=7, cache=store))
        assert again == cold                       # recomputed, not served
        assert again.provenance.cache == "partial:1/2"
        assert counts["cache.corner_corrupt"] >= 1
        assert poisoned.exists()                   # rewritten by the rerun

    def test_truncated_corner_counts_as_corrupt(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        spec = SweepSpec.from_mapping({"cnts_per_trial": (2,)})
        run_sweep_study(spec, engine="immunity", trials=10, seed=7,
                        cache=store)
        path = next(iter(store._corner_entries()))
        path.write_text(path.read_text()[:20])
        found, counts = counted(lambda: store.get_corners([path.stem]))
        assert found == {}
        assert not path.exists()                   # evicted
        assert counts["cache.corner_corrupt"] == 1

    def test_stats_surface_corner_counters(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        spec = SweepSpec.from_mapping({"cnts_per_trial": (2, 4)})
        _, counts = counted(lambda: run_sweep_study(
            spec, engine="immunity", trials=10, seed=7, cache=store))
        assert counts["cache.corner_misses"] == 2
        stats = store.stats()
        assert stats.corner_entries == 2
        assert stats.corner_bytes > 0
        rendered = str(stats)
        assert "corner entries : 2" in rendered
        assert set(stats.as_dict()) == {
            "root", "entries", "total_bytes", "by_study",
            "corner_entries", "corner_bytes"}


# ---------------------------------------------------------------------------
# plan_delta
# ---------------------------------------------------------------------------

class TestPlanDelta:
    def test_partitions_in_corner_order(self):
        plan = plan_delta(["aa", "bb", "cc", "dd"], {"bb", "dd"})
        assert plan.hit_indices == (1, 3)
        assert plan.miss_indices == (0, 2)
        assert (plan.total, plan.hits, plan.misses) == (4, 2, 2)
        assert plan.status == "partial:2/4"

    def test_status_extremes(self):
        assert plan_delta(["aa"], {"aa"}).status == "hit"
        assert plan_delta(["aa"], set()).status == "miss"


# ---------------------------------------------------------------------------
# Bounded prune
# ---------------------------------------------------------------------------

class TestBoundedPrune:
    def _fill(self, store, n=3):
        for cnts in range(2, 2 + n):
            run_sweep_study(
                SweepSpec.from_mapping({"cnts_per_trial": (cnts,)}),
                engine="immunity", trials=10, seed=7, cache=store)

    def test_max_age_keeps_fresh_entries(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        self._fill(store, n=2)
        assert store.prune(max_age_s=3600.0) == 0
        before = store.stats()
        assert before.entries == 2 and before.corner_entries == 2
        assert store.prune(max_age_s=0.0) == 4
        after = store.stats()
        assert after.entries == 0 and after.corner_entries == 0

    def test_max_entries_bounds_each_granularity(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        self._fill(store, n=3)
        removed = store.prune(max_entries=1)
        assert removed == 4                        # 2 studies + 2 corners
        stats = store.stats()
        assert stats.entries == 1 and stats.corner_entries == 1

    def test_max_entries_keeps_the_newest(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        self._fill(store, n=2)
        newest = max(
            ((json.loads(p.read_text())["created"], p)
             for p in store._entries()),
        )[1]
        store.prune(max_entries=1)
        assert newest.exists()

    def test_study_filter_composes_with_bounds(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        self._fill(store, n=2)
        # Only corner envelopes match the pseudo-study, and age 0 drops
        # them all; study entries survive.
        removed = store.prune(study="corner", max_age_s=0.0)
        assert removed == 2
        stats = store.stats()
        assert stats.entries == 2 and stats.corner_entries == 0

    def test_negative_bounds_raise(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        with pytest.raises(CacheError):
            store.prune(max_age_s=-1.0)
        with pytest.raises(CacheError):
            store.prune(max_entries=-1)
