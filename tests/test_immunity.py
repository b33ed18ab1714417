"""Tests for the mispositioned-CNT immunity analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.immunity.montecarlo as montecarlo
from repro.analysis import run_immunity_sweep
from repro.core import assemble_cell, get_annotations
from repro.errors import ImmunityAnalysisError
from repro.geometry import Point, Rect
from repro.immunity import (
    CNTBatch,
    CNTInstance,
    ImmunityChecker,
    compare_techniques,
    nominal_cnts,
    random_mispositioned_cnts,
    run_immunity_trials,
    sample_mispositioned_batch,
)
from repro.immunity.montecarlo import reference_immunity_trials
from repro.logic import standard_gate
from repro.study import SweepSpec, run_sweep_study


class TestCNTInstance:
    def test_interval_of_vertical_tube_through_rect(self):
        cnt = CNTInstance(Point(1.0, 0.0), Point(1.0, 10.0))
        interval = cnt.intersection_interval(Rect(0, 4, 2, 6))
        assert interval == pytest.approx((0.4, 0.6))

    def test_interval_missing_rect(self):
        cnt = CNTInstance(Point(1.0, 0.0), Point(1.0, 10.0))
        assert cnt.intersection_interval(Rect(5, 0, 6, 10)) is None

    def test_diagonal_tube(self):
        cnt = CNTInstance(Point(0.0, 0.0), Point(10.0, 10.0))
        interval = cnt.intersection_interval(Rect(4, 0, 6, 10))
        assert interval == pytest.approx((0.4, 0.6))

    def test_length_and_points(self):
        cnt = CNTInstance(Point(0, 0), Point(3, 4))
        assert cnt.length == pytest.approx(5.0)
        mid = cnt.point_at(0.5)
        assert (mid.x, mid.y) == (1.5, 2.0)


class TestNominalPopulation:
    def test_nominal_cnts_reproduce_cell_function(self):
        for name in ("INV", "NAND2", "NAND3", "NOR2", "AOI21"):
            gate = standard_gate(name)
            cell = assemble_cell(gate, technique="compact", scheme=1)
            checker = ImmunityChecker(cell.annotations())
            nominal = nominal_cnts(cell.annotations(), pitch=1.0, axis="x")
            table = checker.truth_table(nominal)
            assert table.equivalent_to(gate.expected_truth_table()), name

    def test_nominal_cnts_in_vulnerable_layout_also_work(self):
        gate = standard_gate("NAND2")
        cell = assemble_cell(gate, technique="vulnerable", scheme=1)
        checker = ImmunityChecker(cell.annotations())
        nominal = nominal_cnts(cell.annotations(), axis="x")
        assert checker.truth_table(nominal).equivalent_to(gate.expected_truth_table())

    def test_nominal_generation_requires_gates(self):
        from repro.core.spec import CellAnnotations

        with pytest.raises(ImmunityAnalysisError):
            nominal_cnts(CellAnnotations(cell_name="empty"), axis="y")

    def test_invalid_pitch_rejected(self):
        gate = standard_gate("INV")
        cell = assemble_cell(gate)
        with pytest.raises(ImmunityAnalysisError):
            nominal_cnts(cell.annotations(), pitch=0.0)


class TestMispositionedGeneration:
    def test_reproducible_with_seed(self):
        cell = assemble_cell(standard_gate("NAND2"))
        annotations = cell.annotations()
        first = random_mispositioned_cnts(annotations, 5, np.random.default_rng(7), axis="x")
        second = random_mispositioned_cnts(annotations, 5, np.random.default_rng(7), axis="x")
        assert [(c.start, c.end) for c in first] == [(c.start, c.end) for c in second]

    def test_tubes_span_the_cell(self):
        cell = assemble_cell(standard_gate("NAND2"))
        annotations = cell.annotations()
        tubes = random_mispositioned_cnts(annotations, 3, np.random.default_rng(1), axis="x")
        extent = cell.cell.boundary()
        for tube in tubes:
            assert tube.mispositioned
            assert tube.length > extent.width

    def test_negative_count_rejected(self):
        cell = assemble_cell(standard_gate("INV"))
        with pytest.raises(ImmunityAnalysisError):
            random_mispositioned_cnts(cell.annotations(), -1, np.random.default_rng(0))


class TestImmunityChecker:
    def test_vulnerable_nand2_fails_with_a_bridging_tube(self):
        gate = standard_gate("NAND2")
        cell = assemble_cell(gate, technique="vulnerable", scheme=1)
        annotations = cell.annotations()
        checker = ImmunityChecker(annotations)
        nominal = nominal_cnts(annotations, axis="x")
        # Build a tube that runs through the pull-up strip in the gap
        # between the two gate columns, connecting vdd directly to out.
        pun_active = next(a for a in annotations.actives if a.doping == "p")
        gate_rects = [g.rect for g in annotations.gates if g.device == "pfet"]
        gate_rects.sort(key=lambda r: r.x1)
        gap_x = (gate_rects[0].x2 + gate_rects[1].x1) / 2.0
        mid_y = (pun_active.rect.y1 + pun_active.rect.y2) / 2.0
        bridging = CNTInstance(
            Point(pun_active.rect.x1 - 1.0, mid_y),
            Point(pun_active.rect.x2 + 1.0, mid_y),
            mispositioned=True,
        )
        report = checker.check(nominal, [bridging], expected=gate.expected_truth_table())
        assert not report.immune
        assert report.failure_count > 0

    def test_compact_nand2_survives_the_same_attack(self):
        gate = standard_gate("NAND2")
        cell = assemble_cell(gate, technique="compact", scheme=1)
        annotations = cell.annotations()
        checker = ImmunityChecker(annotations)
        nominal = nominal_cnts(annotations, axis="x")
        extent = cell.cell.boundary()
        horizontal = CNTInstance(
            Point(extent.x1 - 1.0, extent.center.y),
            Point(extent.x2 + 1.0, extent.center.y),
            mispositioned=True,
        )
        report = checker.check(nominal, [horizontal], expected=gate.expected_truth_table())
        assert report.immune

    def test_checker_requires_contacts(self):
        from repro.core.spec import CellAnnotations

        with pytest.raises(ImmunityAnalysisError):
            ImmunityChecker(CellAnnotations(cell_name="empty"))


class TestMonteCarlo:
    def test_figure2_comparison(self):
        results = compare_techniques("NAND2", trials=60, cnts_per_trial=4, seed=11)
        assert results["compact"].immune
        assert results["baseline"].immune
        assert not results["vulnerable"].immune
        assert results["vulnerable"].failure_rate > 0.05

    def test_compact_cells_are_fully_immune(self):
        for name in ("NAND3", "NOR2", "AOI21"):
            cell = assemble_cell(standard_gate(name), technique="compact", scheme=1)
            result = run_immunity_trials(cell, trials=40, cnts_per_trial=5, seed=3)
            assert result.immune, name
            assert result.failure_rate == 0.0

    def test_scheme2_compact_cells_are_also_immune(self):
        cell = assemble_cell(standard_gate("NAND2"), technique="compact", scheme=2)
        result = run_immunity_trials(cell, trials=40, cnts_per_trial=5, seed=5)
        assert result.immune

    def test_result_accounting(self):
        cell = assemble_cell(standard_gate("INV"), technique="compact")
        result = run_immunity_trials(cell, trials=10, cnts_per_trial=2, seed=1)
        assert result.trials == 10
        assert result.cnts_per_trial == 2
        assert 0.0 <= result.failure_rate <= 1.0

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_compact_nand2_immune_for_any_seed(self, seed):
        cell = assemble_cell(standard_gate("NAND2"), technique="compact", scheme=1)
        result = run_immunity_trials(cell, trials=15, cnts_per_trial=6, seed=seed)
        assert result.immune


class TestBatchedEngine:
    """The vectorized engine must be indistinguishable from the scalar
    reference walk: identical truth tables, identical Monte Carlo results,
    regardless of chunking."""

    def test_batch_sampling_matches_historical_loop(self):
        """Independent oracle for the seed contract: re-draw the same tubes
        with the seed-era one-uniform-at-a-time loop and demand bitwise
        equality (``random_mispositioned_cnts`` is now a wrapper over the
        batch sampler, so comparing the two public entry points would be
        tautological)."""
        import math

        from repro.immunity.cnts import _cell_extent

        annotations = assemble_cell(standard_gate("NAND2")).annotations()
        max_angle_deg = 15.0
        batch = sample_mispositioned_batch(
            annotations, 6, np.random.default_rng(3), axis="x",
            max_angle_deg=max_angle_deg, metallic_fraction=0.5,
        )

        rng = np.random.default_rng(3)
        region = _cell_extent(annotations)
        span = math.hypot(region.width, region.height) * 1.2
        half = span / 2.0
        for i in range(6):
            x = rng.uniform(region.x1, region.x2)
            y = rng.uniform(region.y1, region.y2)
            angle = math.radians(rng.uniform(-max_angle_deg, max_angle_deg))
            direction = (math.cos(angle), math.sin(angle))  # axis="x"
            metallic = bool(rng.uniform() < 0.5)
            # The draws themselves are bit-identical; the trig-derived
            # endpoints get a tight tolerance because vectorized
            # np.sin/np.cos may differ from libm by a ULP on some builds.
            assert batch.starts[i, 0] == pytest.approx(
                x - direction[0] * half, rel=1e-12, abs=1e-12)
            assert batch.starts[i, 1] == pytest.approx(
                y - direction[1] * half, rel=1e-12, abs=1e-12)
            assert batch.ends[i, 0] == pytest.approx(
                x + direction[0] * half, rel=1e-12, abs=1e-12)
            assert batch.ends[i, 1] == pytest.approx(
                y + direction[1] * half, rel=1e-12, abs=1e-12)
            assert bool(batch.metallic[i]) == metallic

    def test_cnt_batch_round_trip(self):
        # Mixed nominal + mispositioned + metallic flags must survive the
        # array round trip per tube.
        tubes = [
            CNTInstance(Point(0.0, 1.0), Point(5.0, 2.0), mispositioned=True),
            CNTInstance(Point(1.0, -1.0), Point(2.0, 7.0), mispositioned=True,
                        metallic=True),
            CNTInstance(Point(3.0, 0.0), Point(3.0, 9.0)),
        ]
        batch = CNTBatch.from_instances(tubes)
        assert len(batch) == 3
        assert batch.to_instances() == tubes

    def test_output_codes_does_not_mutate_adjacency(self):
        annotations = assemble_cell(standard_gate("NAND2")).annotations()
        checker = ImmunityChecker(annotations)
        batch = CNTBatch.from_instances(nominal_cnts(annotations, axis="x"))
        adjacency = checker.adjacency_matrices(checker.pair_conduction(batch))
        before = adjacency.copy()
        checker.output_codes(adjacency)
        assert (adjacency == before).all()

    def test_cnt_batch_equality_is_elementwise(self):
        tubes = [
            CNTInstance(Point(0.0, 1.0), Point(5.0, 2.0), mispositioned=True),
            CNTInstance(Point(1.0, -1.0), Point(2.0, 7.0), mispositioned=True,
                        metallic=True),
        ]
        batch = CNTBatch.from_instances(tubes)
        assert batch == CNTBatch.from_instances(tubes)
        assert batch != CNTBatch.from_instances(tubes[:1])
        assert batch != CNTBatch.from_instances(list(reversed(tubes)))
        assert batch != "not a batch"
        with pytest.raises(TypeError):
            hash(batch)

    def test_cnt_batch_shape_validation(self):
        with pytest.raises(ImmunityAnalysisError):
            CNTBatch(np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(3, dtype=bool))
        with pytest.raises(ImmunityAnalysisError):
            CNTBatch(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(2, dtype=bool))

    def test_cnt_batch_scalar_flags_broadcast(self):
        batch = CNTBatch(np.zeros((3, 2)), np.ones((3, 2)), metallic=True,
                         mispositioned=False)
        assert batch.metallic.shape == (3,) and batch.metallic.all()
        assert batch.mispositioned.shape == (3,) \
            and not batch.mispositioned.any()

    @pytest.mark.parametrize("technique", ["vulnerable", "baseline", "compact"])
    def test_truth_table_matches_reference(self, technique):
        cell = assemble_cell(standard_gate("NAND3"), technique=technique, scheme=1)
        annotations = cell.annotations()
        checker = ImmunityChecker(annotations)
        nominal = nominal_cnts(annotations, axis="x")
        rng = np.random.default_rng(17)
        for _ in range(25):
            strays = random_mispositioned_cnts(
                annotations, 5, rng, axis="x", metallic_fraction=0.25
            )
            batched = checker.truth_table(nominal + strays)
            reference = checker.truth_table_reference(nominal + strays)
            assert batched.inputs == reference.inputs
            assert batched.outputs == reference.outputs

    def test_engines_identical_for_fixed_seed(self):
        cell = assemble_cell(standard_gate("NAND2"), technique="vulnerable",
                             scheme=1)
        loop = reference_immunity_trials(cell, trials=120, cnts_per_trial=4,
                                         seed=2009)
        batch = run_immunity_trials(cell, trials=120, cnts_per_trial=4,
                                    seed=2009)
        assert loop == batch
        assert loop.failures > 0

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        cell = assemble_cell(standard_gate("NAND2"), technique="vulnerable",
                             scheme=1)
        results = []
        for chunk in (1, 7, 50, 1000):
            monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK_SIZE", chunk)
            results.append(run_immunity_trials(cell, trials=50,
                                               cnts_per_trial=4, seed=13))
        assert all(result == results[0] for result in results)

    def test_same_seed_same_result_across_runs(self):
        cell = assemble_cell(standard_gate("NAND3"), technique="vulnerable",
                             scheme=1)
        first = run_immunity_trials(cell, trials=80, cnts_per_trial=4, seed=99)
        second = run_immunity_trials(cell, trials=80, cnts_per_trial=4, seed=99)
        assert first == second

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_engine_parity_for_any_seed(self, seed):
        cell = assemble_cell(standard_gate("NAND2"), technique="vulnerable",
                             scheme=1)
        loop = reference_immunity_trials(cell, trials=20, cnts_per_trial=5,
                                         seed=seed, metallic_fraction=0.2)
        batch = run_immunity_trials(cell, trials=20, cnts_per_trial=5,
                                    seed=seed, metallic_fraction=0.2)
        assert loop == batch


class TestSeedSharing:
    """compare_techniques must attack every technique with the same defect
    populations (the Figure 2 apples-to-apples contract)."""

    def test_each_technique_sees_the_shared_seed(self):
        results = compare_techniques("NAND2", trials=60, cnts_per_trial=4,
                                     seed=21)
        for technique, result in results.items():
            cell = assemble_cell(standard_gate("NAND2"), technique=technique,
                                 scheme=1)
            direct = run_immunity_trials(cell, trials=60, cnts_per_trial=4,
                                         seed=21)
            assert result == direct, technique

    def test_comparison_reproducible(self):
        first = compare_techniques("NAND2", trials=40, seed=5)
        second = compare_techniques("NAND2", trials=40, seed=5)
        assert first == second

    def test_comparison_engines_agree(self):
        """Every technique of the comparison equals the reference loop on
        the shared seed sequence."""
        batch = compare_techniques("NAND2", trials=40, seed=5)
        for technique, result in batch.items():
            cell = assemble_cell(standard_gate("NAND2"), technique=technique,
                                 scheme=1)
            assert result == reference_immunity_trials(
                cell, trials=40, seed=np.random.SeedSequence(5)), technique


class TestSweep:
    """The immunity sweep engine behind ``run_immunity_sweep`` and
    ``run_sweep_study(engine="immunity")``."""

    def test_cartesian_coverage_and_order(self):
        points = run_immunity_sweep(
            gates=("NAND2",), techniques=("vulnerable", "compact"),
            cnts_per_trial=(2, 4), trials=20, seed=3).points
        assert len(points) == 4
        assert [(p.technique, p.cnts_per_trial) for p in points] == [
            ("vulnerable", 2), ("compact", 2), ("vulnerable", 4), ("compact", 4),
        ]

    def test_techniques_share_populations_per_point(self):
        """Points differing only in technique must reuse one child seed:
        running the sweep twice (and with different technique subsets) gives
        identical results for the shared points."""
        both = run_immunity_sweep(
            gates=("NAND2",), techniques=("vulnerable", "compact"),
            cnts_per_trial=(3,), trials=30, seed=8).points
        compact_only = run_immunity_sweep(
            gates=("NAND2",), techniques=("compact",),
            cnts_per_trial=(3,), trials=30, seed=8).points
        assert both[1].result == compact_only[0].result

    def test_seed_sequence_argument_not_mutated(self):
        """A sweep must not advance a caller-supplied SeedSequence's spawn
        counter: identical back-to-back calls give identical results."""
        seed_sequence = np.random.SeedSequence(8)
        spec = SweepSpec.from_mapping({"cnts_per_trial": (3,)})
        kwargs = dict(engine="immunity", technique="vulnerable", trials=30,
                      seed=seed_sequence)
        first = run_sweep_study(spec, **kwargs)
        second = run_sweep_study(spec, **kwargs)
        assert first.metric("result") == second.metric("result")
        assert seed_sequence.n_children_spawned == 0

    def test_sweep_children_do_not_alias_caller_spawns(self):
        """A sweep derives its children under a reserved spawn key, so a
        caller who spawns their own children from the same SeedSequence gets
        independent defect populations, not the sweep's."""
        root = np.random.SeedSequence(2009)
        child = root.spawn(1)[0]
        cell = assemble_cell(standard_gate("NAND2"), technique="vulnerable",
                             scheme=1)
        own = run_immunity_trials(cell, trials=40, seed=child)
        point = run_immunity_sweep(
            gates=("NAND2",), techniques=("vulnerable",), cnts_per_trial=(4,),
            trials=40, seed=np.random.SeedSequence(2009)).points[0]
        assert own != point.result

    def test_process_pool_matches_serial(self):
        kwargs = dict(gates=("NAND2",), techniques=("vulnerable", "compact"),
                      cnts_per_trial=(2, 4), trials=25, seed=4)
        assert run_immunity_sweep(**kwargs) == run_immunity_sweep(jobs=2,
                                                                  **kwargs)

    def test_metallic_fraction_dimension(self):
        points = run_immunity_sweep(
            gates=("NAND2",), techniques=("compact",), cnts_per_trial=(4,),
            metallic_fraction=(0.0, 0.5), trials=40, seed=9).points
        clean, dirty = points
        assert clean.result.immune
        assert dirty.result.failure_rate > clean.result.failure_rate


class TestMetallicCNTExtension:
    """The paper assumes metallic CNTs are removed during processing
    (Section II); the checker exposes a hook to stress-test that assumption."""

    def test_metallic_tube_ignores_gates(self):
        gate = standard_gate("INV")
        cell = assemble_cell(gate, technique="compact", scheme=1)
        annotations = cell.annotations()
        checker = ImmunityChecker(annotations)
        nominal = nominal_cnts(annotations, axis="x")
        pun_active = next(a for a in annotations.actives if a.doping == "p")
        mid_y = (pun_active.rect.y1 + pun_active.rect.y2) / 2.0
        metallic = CNTInstance(
            Point(pun_active.rect.x1 - 1.0, mid_y),
            Point(pun_active.rect.x2 + 1.0, mid_y),
            mispositioned=True,
            metallic=True,
        )
        report = checker.check(nominal, [metallic], expected=gate.expected_truth_table())
        # A metallic tube across the pull-up strip shorts Vdd to the output
        # no matter what the gates do, so even the immune layout fails.
        assert not report.immune

    def test_semiconducting_twin_of_same_tube_is_harmless(self):
        gate = standard_gate("INV")
        cell = assemble_cell(gate, technique="compact", scheme=1)
        annotations = cell.annotations()
        checker = ImmunityChecker(annotations)
        nominal = nominal_cnts(annotations, axis="x")
        pun_active = next(a for a in annotations.actives if a.doping == "p")
        mid_y = (pun_active.rect.y1 + pun_active.rect.y2) / 2.0
        semiconducting = CNTInstance(
            Point(pun_active.rect.x1 - 1.0, mid_y),
            Point(pun_active.rect.x2 + 1.0, mid_y),
            mispositioned=True,
            metallic=False,
        )
        report = checker.check(nominal, [semiconducting],
                               expected=gate.expected_truth_table())
        assert report.immune

    def test_metallic_fraction_breaks_even_immune_layouts(self):
        cell = assemble_cell(standard_gate("NAND2"), technique="compact", scheme=1)
        clean = run_immunity_trials(cell, trials=40, cnts_per_trial=4, seed=9,
                                    metallic_fraction=0.0)
        dirty = run_immunity_trials(cell, trials=40, cnts_per_trial=4, seed=9,
                                    metallic_fraction=0.5)
        assert clean.immune
        assert dirty.failure_rate > clean.failure_rate

    def test_metallic_fraction_validation(self):
        cell = assemble_cell(standard_gate("INV"))
        with pytest.raises(ImmunityAnalysisError):
            random_mispositioned_cnts(cell.annotations(), 2,
                                      np.random.default_rng(0),
                                      metallic_fraction=1.5)
