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
from repro.errors import CacheError, StudyError
from repro.runtime import (
    ResultCache,
    corner_fingerprint,
    plan_delta,
)
from repro.study import SweepSpec, run_sweep_study
from test_runtime import (counted, isolated_store, segment_records,
                          tree_bytes)
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
            "immunity", {"gate": "INV", "jobs": 4, "workers": 2},
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
        extension executes only the new corner).  There is no backend
        option: the sweep driver refuses ``backend`` like any unknown
        fixed value, so it cannot reach an address either."""
        store = ResultCache(tmp_path / "store")
        spec = SweepSpec.from_mapping({"cnts_per_trial": (2, 4)})
        with pytest.raises(StudyError):
            run_sweep_study(spec, engine="immunity", trials=20, seed=7,
                            jobs=4, backend="thread", cache=store)
        cold = run_sweep_study(spec, engine="immunity", trials=20, seed=7,
                               jobs=4, cache=store)
        assert cold.provenance.cache == "miss"

        wider = SweepSpec.from_mapping({"cnts_per_trial": (2, 4, 8)})
        delta = run_sweep_study(wider, engine="immunity", trials=20, seed=7,
                                jobs=1, cache=store)
        assert delta.provenance.cache == "partial:2/3"
        assert delta == run_sweep_study(wider, engine="immunity", trials=20,
                                        seed=7)


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
        """Tamper with one stored corner's payload in place (one digit,
        so the segment keeps its length); returns the corner's key."""
        records = segment_records(store.root)
        assert records
        path, offset, line = records[0]
        at = line.index(b'"payload": ')
        at += next(index for index, byte in enumerate(line[at:])
                   if chr(byte).isdigit())
        with open(path, "r+b") as stream:
            stream.seek(offset + at)
            stream.write(str((int(chr(line[at])) + 1) % 10).encode())
        return json.loads(line)["fingerprint"]

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
        assert counts["cache.corner_corrupt"] == 1
        # The rerun appended a fresh record, which a new reader serves
        # ahead of the poisoned one.
        found, counts = counted(
            lambda: isolated_store(store.root).get_corners([poisoned]))
        assert list(found) == [poisoned]
        assert counts == {"cache.corner_hits": 1}

    def test_truncated_corner_counts_as_corrupt(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        spec = SweepSpec.from_mapping({"cnts_per_trial": (2,)})
        run_sweep_study(spec, engine="immunity", trials=10, seed=7,
                        cache=store)
        ((path, _, line),) = segment_records(store.root)
        key = json.loads(line)["fingerprint"]
        path.write_bytes(line[:20])
        found, counts = counted(lambda: store.get_corners([key]))
        assert found == {}
        assert counts == {"cache.corner_misses": 1,
                          "cache.corner_corrupt": 1, "cache.evictions": 1}
        # Dropped from the index: the next read is a plain miss, and a
        # new reader never indexes the torn tail.
        for reader in (store, isolated_store(store.root)):
            found, counts = counted(lambda: reader.get_corners([key]))
            assert found == {}
            assert counts == {"cache.corner_misses": 1}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_shard_that_raises_stores_nothing(self, tmp_path, monkeypatch,
                                                jobs):
        """A sweep whose second shard raises propagates the engine's own
        exception and appends no corner record and no study record."""
        import repro.study.sweeps as sweeps

        store = ResultCache(tmp_path / "store")
        run_sweep_study(SweepSpec.from_mapping({"cnts_per_trial": (2,)}),
                        engine="immunity", trials=10, seed=7, cache=store)
        before = (store.stats(), tree_bytes(store.root))
        assert before[0].entries == before[0].corner_entries == 1
        failure = RuntimeError("engine failed")
        real = sweeps._immunity_shard
        shards = []

        def second_shard_raises(values, seeds, trials):
            shards.append(values[0]["technique"])
            if values[0]["technique"] == "compact":
                raise failure
            return real(values, seeds, trials)

        monkeypatch.setattr(sweeps, "_immunity_shard", second_shard_raises)
        spec = SweepSpec.from_mapping({"technique": ("vulnerable", "compact"),
                                       "cnts_per_trial": (2, 4)})
        with pytest.raises(RuntimeError) as raised:
            run_sweep_study(spec, engine="immunity", trials=10, seed=7,
                            jobs=jobs, cache=store)
        assert raised.value is failure
        assert set(shards) == {"compact", "vulnerable"}
        assert (store.stats(), tree_bytes(store.root)) == before

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
# Per-cell immunity state: prepared once per sweep, only for corners that run
# ---------------------------------------------------------------------------

@pytest.fixture
def preparation_counter(monkeypatch):
    """Count the immunity engine's per-cell preparations (checker,
    nominal state, expected codes) and the cells the sweep assembles."""
    import repro.core.standard_cell as standard_cell

    counts = {"prepared": [], "assembled": []}
    real_prepare = montecarlo.prepare_cell
    real_assemble = standard_cell.assemble_cell

    def preparing(cell):
        counts["prepared"].append((cell.gate.name, cell.technique))
        return real_prepare(cell)

    def assembling(gate, *args, **kwargs):
        counts["assembled"].append(gate.name)
        return real_assemble(gate, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "prepare_cell", preparing)
    monkeypatch.setattr(standard_cell, "assemble_cell", assembling)
    return counts


class TestSharedCellState:
    GRID = SweepSpec.from_mapping({"gate": ("NAND2", "NOR2"),
                                   "technique": ("vulnerable", "compact"),
                                   "cnts_per_trial": (2, 4)})

    def test_cold_grid_prepares_each_cell_once(
            self, tmp_path, immunity_counter, preparation_counter):
        run_sweep_study(self.GRID, engine="immunity", trials=20, seed=7,
                        cache=ResultCache(tmp_path / "store"))
        assert len(immunity_counter) == 8
        prepared = preparation_counter["prepared"]
        assert sorted(prepared) == sorted(
            {(gate, technique) for gate in ("NAND2", "NOR2")
             for technique in ("vulnerable", "compact")})
        assert len(preparation_counter["assembled"]) == 4

    def test_full_hit_prepares_nothing(self, tmp_path, immunity_counter,
                                       preparation_counter):
        store = ResultCache(tmp_path / "store")
        cold = run_sweep_study(self.GRID, engine="immunity", trials=20,
                               seed=7, cache=store)
        for drop_envelope in (False, True):
            if drop_envelope:
                store.prune(study="sweep")     # corner hits, not a study hit
            for counts in (immunity_counter, *preparation_counter.values()):
                del counts[:]
            warm = run_sweep_study(self.GRID, engine="immunity", trials=20,
                                   seed=7, cache=store)
            assert warm.provenance.cache == "hit"
            assert warm.records == cold.records
            assert immunity_counter == []
            assert preparation_counter == {"prepared": [], "assembled": []}

    def test_one_corner_delta_prepares_one_cell(
            self, tmp_path, immunity_counter, preparation_counter):
        store = ResultCache(tmp_path / "store")
        run_sweep_study(SweepSpec.from_mapping({"cnts_per_trial": (2, 4)}),
                        engine="immunity", trials=20, seed=7, cache=store)
        for counts in (immunity_counter, *preparation_counter.values()):
            del counts[:]
        wider = SweepSpec.from_mapping({"cnts_per_trial": (2, 4, 8)})
        delta = run_sweep_study(wider, engine="immunity", trials=20, seed=7,
                                cache=store)
        assert delta.provenance.cache == "partial:2/3"
        assert len(immunity_counter) == 1
        assert preparation_counter == {"prepared": [("NAND2", "compact")],
                                       "assembled": ["NAND2"]}

    def test_parallel_grid_prepares_each_cell_per_shard(
            self, immunity_counter, preparation_counter):
        """A ``jobs=3`` sweep shards each cell's corners into at most 3
        shards, each preparing the cell once, and runs each corner once."""
        serial = run_sweep_study(self.GRID, engine="immunity", trials=20,
                                 seed=7)
        for counts in (immunity_counter, *preparation_counter.values()):
            del counts[:]
        sharded = run_sweep_study(self.GRID, engine="immunity", trials=20,
                                  seed=7, jobs=3)
        assert sharded == serial
        assert len(immunity_counter) == 8
        prepared = preparation_counter["prepared"]
        assert set(prepared) == {(gate, technique)
                                 for gate in ("NAND2", "NOR2")
                                 for technique in ("vulnerable", "compact")}
        assert all(prepared.count(cell) <= 3 for cell in prepared)

    def test_prepared_state_goes_with_the_sweep(self, immunity_counter,
                                                preparation_counter):
        """Prepared cells live as long as one sweep: two uncached runs of
        one grid each prepare every cell once."""
        cells = sorted({(gate, technique) for gate in ("NAND2", "NOR2")
                        for technique in ("vulnerable", "compact")})
        for _ in range(2):
            for counts in (immunity_counter, *preparation_counter.values()):
                del counts[:]
            run_sweep_study(self.GRID, engine="immunity", trials=20, seed=7)
            assert len(immunity_counter) == 8
            assert sorted(preparation_counter["prepared"]) == cells
            assert len(preparation_counter["assembled"]) == 4


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

    #: Nine corners in three groups; the hits at 1 and 5 leave misses
    #: 0, 2, 3, 4, 6, 7, 8, whose groups are first seen as b, c, a.
    GROUPS = ["b", "a", "b", "c", "a", "b", "b", "a", "b"]

    def _plan(self):
        return plan_delta([f"k{i}" for i in range(len(self.GROUPS))],
                          {"k1", "k5"})

    def test_shards_without_misses_is_empty(self):
        assert plan_delta(["aa", "bb"], {"aa", "bb"}).shards(["g", "h"],
                                                             3) == []

    def test_shards_pin(self):
        assert self._plan().shards(self.GROUPS, 1) == [
            (0, 2, 6, 8), (3,), (4, 7)]
        assert self._plan().shards(self.GROUPS, 2) == [
            (0, 2), (6, 8), (3,), (4,), (7,)]

    @pytest.mark.parametrize("jobs", [1, 2, 3, 8])
    def test_shards_cut_each_group_of_misses(self, jobs):
        plan = self._plan()
        shards = plan.shards(self.GROUPS, jobs)
        order = [self.GROUPS[shard[0]] for shard in shards]
        # The groups come in first-seen order among the misses, each
        # group's shards together, at most ``jobs`` of them.
        assert order == sorted(order, key="bca".index)
        for group in "bca":
            assert 1 <= order.count(group) <= jobs
            # A group's shards are its misses, in corner order, once each.
            assert [index for shard in shards
                    if self.GROUPS[shard[0]] == group for index in shard] \
                == [index for index in plan.miss_indices
                    if self.GROUPS[index] == group]
        for shard in shards:
            assert {self.GROUPS[index] for index in shard} == \
                {self.GROUPS[shard[0]]}

    class _RecordingStore:
        def __init__(self):
            self.writes = []

        def put_corner(self, key, payload, engine):
            self.writes.append((key, payload, engine))

    def _merge(self, store):
        """Merge a plan whose shards run its misses out of corner order:
        groups a, b, a over misses 0, 2, 3 shard as (0, 3), (2,)."""
        plan = plan_delta(["k0", "k1", "k2", "k3", "k4"], {"k1", "k4"})
        shards = plan.shards(["a", "b", "b", "a", "a"], 1)
        assert shards == [(0, 3), (2,)]
        outputs = [[f"run{index}" for index in shard] for shard in shards]
        return plan.merge({"k1": "hit1", "k4": "hit4"}, shards, outputs,
                          store, [f"tag{index}" for index in range(5)])

    def test_merge_returns_payloads_in_key_order(self):
        assert self._merge(self._RecordingStore()) == [
            "run0", "hit1", "run2", "run3", "hit4"]

    def test_merge_writes_each_miss_once_in_corner_order(self):
        store = self._RecordingStore()
        self._merge(store)
        # Hits are never rewritten; each miss carries its own tag.
        assert store.writes == [("k0", "run0", "tag0"),
                                ("k2", "run2", "tag2"),
                                ("k3", "run3", "tag3")]

    def test_merge_without_store_writes_nothing(self):
        assert self._merge(None) == ["run0", "hit1", "run2", "run3", "hit4"]


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

        def studies():
            return sorted((wrapper["created"], wrapper["fingerprint"])
                          for wrapper in (json.loads(line) for _, _, line in
                                          segment_records(store.root,
                                                          "objects")))

        (_, oldest), (_, newest) = studies()
        store.prune(max_entries=1)
        assert [key for _, key in studies()] == [newest]
        fresh = isolated_store(store.root)
        assert fresh.get(newest) is not None and fresh.get(oldest) is None

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
