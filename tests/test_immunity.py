"""Tests for the mispositioned-CNT immunity analysis."""

import dataclasses
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.immunity.montecarlo as montecarlo
from repro.analysis import run_immunity_sweep
from repro.core import assemble_cell
from repro.errors import ImmunityAnalysisError
from repro.geometry import Point, Rect
from repro.immunity import (
    CNTBatch,
    CNTInstance,
    ImmunityChecker,
    compare_techniques,
    nominal_cnts,
    prepare_cell,
    random_mispositioned_cnts,
    run_immunity_trials,
    sample_mispositioned_batch,
)
from repro.logic import standard_gate
from repro.study import SweepSpec, run_sweep_study

from reference import (
    analyse_tube,
    check_reference,
    intersection_interval,
    reference_immunity_trials,
    truth_table_reference,
)


class TestCNTInstance:
    def test_interval_of_vertical_tube_through_rect(self):
        cnt = CNTInstance(Point(1.0, 0.0), Point(1.0, 10.0))
        interval = intersection_interval(cnt, Rect(0, 4, 2, 6))
        assert interval == pytest.approx((0.4, 0.6))

    def test_interval_missing_rect(self):
        cnt = CNTInstance(Point(1.0, 0.0), Point(1.0, 10.0))
        assert intersection_interval(cnt, Rect(5, 0, 6, 10)) is None

    def test_diagonal_tube(self):
        cnt = CNTInstance(Point(0.0, 0.0), Point(10.0, 10.0))
        interval = intersection_interval(cnt, Rect(4, 0, 6, 10))
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
            nominal = nominal_cnts(cell.annotations(), pitch=1.0)
            table = checker.truth_table(nominal)
            assert table.equivalent_to(gate.expected_truth_table()), name

    def test_nominal_cnts_in_vulnerable_layout_also_work(self):
        gate = standard_gate("NAND2")
        cell = assemble_cell(gate, technique="vulnerable", scheme=1)
        checker = ImmunityChecker(cell.annotations())
        nominal = nominal_cnts(cell.annotations())
        assert checker.truth_table(nominal).equivalent_to(gate.expected_truth_table())

    def test_nominal_generation_requires_gates(self):
        from repro.core.spec import CellAnnotations

        with pytest.raises(ImmunityAnalysisError):
            nominal_cnts(CellAnnotations(cell_name="empty"))

    def test_invalid_pitch_rejected(self):
        gate = standard_gate("INV")
        cell = assemble_cell(gate)
        with pytest.raises(ImmunityAnalysisError):
            nominal_cnts(cell.annotations(), pitch=0.0)


class TestMispositionedGeneration:
    def test_reproducible_with_seed(self):
        cell = assemble_cell(standard_gate("NAND2"))
        annotations = cell.annotations()
        first = random_mispositioned_cnts(annotations, 5, np.random.default_rng(7))
        second = random_mispositioned_cnts(annotations, 5, np.random.default_rng(7))
        assert [(c.start, c.end) for c in first] == [(c.start, c.end) for c in second]

    def test_tubes_span_the_cell(self):
        cell = assemble_cell(standard_gate("NAND2"))
        annotations = cell.annotations()
        tubes = random_mispositioned_cnts(annotations, 3, np.random.default_rng(1))
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
        nominal = nominal_cnts(annotations)
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
        nominal = nominal_cnts(annotations)
        extent = cell.cell.boundary()
        horizontal = CNTInstance(
            Point(extent.x1 - 1.0, extent.center.y),
            Point(extent.x2 + 1.0, extent.center.y),
            mispositioned=True,
        )
        report = checker.check(nominal, [horizontal], expected=gate.expected_truth_table())
        assert report.immune

    def test_missing_input_value_raises(self):
        """A semiconducting tube under a gate whose signal is not an input
        cannot be evaluated; a metallic tube ignores the gate."""
        cell = assemble_cell(standard_gate("NAND2"), technique="compact",
                             scheme=1)
        annotations = dataclasses.replace(cell.annotations(), inputs=("A",))
        checker = ImmunityChecker(annotations)
        gate_b = next(g for g in annotations.gates if g.signal == "B")
        extent = cell.cell.boundary()
        y = gate_b.rect.center.y

        def tube(metallic):
            return CNTInstance(Point(extent.x1 - 1.0, y),
                               Point(extent.x2 + 1.0, y),
                               mispositioned=True, metallic=metallic)

        for check in (checker.check, partial(check_reference, checker)):
            with pytest.raises(ImmunityAnalysisError,
                               match="No value provided for input 'B'"):
                check([], [tube(metallic=False)])
            check([], [tube(metallic=True)])

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

    def test_replaced_gate_or_annotations_prepare_again(self):
        """The per-cell state is memoised, but a cell whose gate or
        annotations object was replaced is evaluated as it now is."""
        from repro.core.spec import attach_annotations

        cell = assemble_cell(standard_gate("NAND2"), technique="vulnerable")
        compact = assemble_cell(standard_gate("NAND2"), technique="compact")
        run = partial(run_immunity_trials, trials=60, cnts_per_trial=4,
                      seed=11)
        assert run(cell).failures > 0
        attach_annotations(cell.cell, compact.annotations())
        assert run(cell).failures == run(compact).failures == 0
        cell.gate = standard_gate("NOR2")
        assert not run(cell).nominal_matches

    def test_in_place_edits_are_seen(self):
        """Each run prepares the cell as it is then: annotations edited in
        place after a first run are what the next run evaluates."""
        cell = assemble_cell(standard_gate("NAND2"), technique="vulnerable")
        compact = assemble_cell(standard_gate("NAND2"),
                                technique="compact").annotations()
        run = partial(run_immunity_trials, cell, trials=60, cnts_per_trial=4,
                      seed=11)
        assert run().failures > 0
        annotations = cell.annotations()
        for name in ("gates", "contacts", "actives", "etches"):
            getattr(annotations, name)[:] = getattr(compact, name)
        assert cell.annotations() is annotations
        result = run()
        assert result.failures == 0 and result.nominal_matches

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
            annotations, 6, np.random.default_rng(3),
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
            direction = (math.cos(angle), math.sin(angle))  # along x
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
        batch = CNTBatch.from_instances(nominal_cnts(annotations))
        adjacency = checker._adjacency_matrices(
            checker._pair_conduction(batch))
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
        nominal = nominal_cnts(annotations)
        expected = cell.gate.expected_truth_table()
        rng = np.random.default_rng(17)
        for _ in range(25):
            strays = random_mispositioned_cnts(
                annotations, 5, rng, metallic_fraction=0.25
            )
            batched = checker.truth_table(nominal + strays)
            reference = truth_table_reference(checker, nominal + strays)
            assert batched.inputs == reference.inputs
            assert batched.outputs == reference.outputs
            assert checker.check(nominal, strays, expected) == \
                check_reference(checker, nominal, strays, expected)

    def test_engines_identical_for_fixed_seed(self):
        cell = assemble_cell(standard_gate("NAND2"), technique="vulnerable",
                             scheme=1)
        loop = reference_immunity_trials(cell, trials=120, cnts_per_trial=4,
                                         seed=2009)
        batch = run_immunity_trials(cell, trials=120, cnts_per_trial=4,
                                    seed=2009)
        assert loop == batch
        assert loop.failures > 0

    def test_prepared_cell_runs_like_the_cell(self):
        """A prepared cell, reused across seeds, gives the result its cell
        gives, field for field, on every cell of the benchmark grid."""
        for gate, technique in SWEEP_CELLS:
            cell = assemble_cell(standard_gate(gate), technique=technique)
            prepared = prepare_cell(cell)
            for seed in (5, 2009):
                run = partial(run_immunity_trials, trials=40,
                              cnts_per_trial=4, seed=seed,
                              metallic_fraction=0.1)
                assert dataclasses.asdict(run(prepared)) == \
                    dataclasses.asdict(run(cell)), (gate, technique, seed)

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


def _tie_cell_annotations():
    """Two horizontal strips whose blockers share a contact's midpoint.

    Along a tube from ``x = -1`` to ``x = 15`` every ``t`` below is a
    dyadic fraction, so the ties are exact.  Strip 1 (``y`` in 0..4):
    vdd, out and gnd contacts; the p gate of ``A`` is centred on the vdd
    contact and the n gate of ``A`` on the out contact.  Strip 2 (``y``
    in 6..10): gnd, the n gate of ``B``, out, an etch centred on the out
    contact, then vdd.  A contact sorts before a blocker at its own
    midpoint, so strip 1 is an inverter of ``A`` and strip 2 pulls out
    low through ``B`` while its etch isolates vdd.
    """
    from repro.core.spec import (CellAnnotations, ContactRegion, EtchRegion,
                                 GateRegion)

    def contact(x1, x2, y1, net):
        return ContactRegion(Rect(x1, y1, x2, y1 + 4.0), net)

    def gate(x1, x2, y1, signal, device):
        return GateRegion(Rect(x1, y1, x2, y1 + 4.0), signal, device)

    return CellAnnotations(
        cell_name="tie",
        contacts=[contact(0.0, 2.0, 0.0, "vdd"), contact(6.0, 8.0, 0.0, "out"),
                  contact(12.0, 14.0, 0.0, "gnd"),
                  contact(0.0, 2.0, 6.0, "gnd"), contact(6.0, 8.0, 6.0, "out"),
                  contact(12.0, 14.0, 6.0, "vdd")],
        gates=[gate(0.5, 1.5, 0.0, "A", "pfet"),
               gate(6.5, 7.5, 0.0, "A", "nfet"),
               gate(3.0, 5.0, 6.0, "B", "nfet")],
        etches=[EtchRegion(Rect(6.75, 6.0, 7.25, 10.0))],
        inputs=("A", "B"),
    )


def _random_annotations(rng, count):
    """``count`` contacts, gates and etches each, on random quarter-unit
    rectangles of a 64 x 16 field (so tubes often cross several)."""
    from repro.core.spec import (CellAnnotations, ContactRegion, EtchRegion,
                                 GateRegion)

    def rect():
        x, y = rng.integers(0, 256), rng.integers(0, 64)
        width, height = rng.integers(1, 9, size=2)
        return Rect(x / 4, y / 4, (x + width) / 4, (y + height) / 4)

    return CellAnnotations(
        cell_name="random",
        contacts=[ContactRegion(rect(), f"n{rng.integers(16)}")
                  for _ in range(count)],
        gates=[GateRegion(rect(), str(rng.choice(["A", "B"])),
                          str(rng.choice(["nfet", "pfet"])))
               for _ in range(count)],
        etches=[EtchRegion(rect()) for _ in range(count)],
        inputs=("A", "B"),
    )


def _closure(adjacency):
    """Reflexive-transitive closure of a boolean net adjacency matrix."""
    reached = adjacency.copy()
    for _ in range(len(adjacency)):
        reached = (reached.astype(int) @ reached.astype(int)) > 0
    return reached


def _strip_tube(y, metallic=False):
    return CNTInstance(Point(-1.0, y), Point(15.0, y), mispositioned=True,
                       metallic=metallic)


#: The cells of the ``sweep_cold`` benchmark's immunity grid.
SWEEP_CELLS = [(gate, technique)
               for gate in ("NAND2", "NOR2", "NAND3", "AOI31")
               for technique in ("baseline", "compact", "vulnerable")]


class TestBlockerTieOrder:
    """The batched blocking rule against the scalar walk where blocker
    and contact midpoints tie exactly, on tubes parallel to a slab and on
    metallic tubes: a blocker at a contact's midpoint lies after that
    contact, so it separates the contact from the next one only."""

    def _assert_matches_reference(self, checker, tubes):
        batched = checker.truth_table(tubes)
        reference = truth_table_reference(checker, tubes)
        assert batched.inputs == reference.inputs
        assert batched.outputs == reference.outputs
        return batched

    def test_ties_follow_the_contact_first_order(self):
        checker = ImmunityChecker(_tie_cell_annotations())
        # Rows (A, B) = 00, 01, 10, 11: a pulled-up A = 0 meets strip 2's
        # pull-down when B = 1.
        table = self._assert_matches_reference(
            checker, [_strip_tube(2.0), _strip_tube(8.0)])
        assert table.outputs == (True, None, False, False)
        assert self._assert_matches_reference(
            checker, [_strip_tube(2.0)]).outputs == (True, True, False, False)
        assert self._assert_matches_reference(
            checker, [_strip_tube(8.0)]).outputs == (None, False, None, False)
        # A metallic tube ignores the gates but not the etch.
        assert self._assert_matches_reference(
            checker, [_strip_tube(2.0, metallic=True)]).outputs == (None,) * 4
        assert self._assert_matches_reference(
            checker, [_strip_tube(8.0, metallic=True)]).outputs == \
            (False,) * 4

    def test_random_populations_on_the_tie_grid(self):
        """Tubes on a dyadic grid, horizontal (parallel to the y slab),
        vertical (parallel to the x slab) and slanted, some metallic."""
        checker = ImmunityChecker(_tie_cell_annotations())
        rng = np.random.default_rng(2024)
        levels = np.arange(-1.0, 11.5, 0.5)
        columns = np.arange(-1.0, 15.5, 0.25)
        for _ in range(60):
            tubes = []
            for _ in range(rng.integers(1, 6)):
                kind = rng.integers(3)
                metallic = bool(rng.random() < 0.3)
                if kind == 0:
                    tube = _strip_tube(float(rng.choice(levels)), metallic)
                elif kind == 1:
                    x = float(rng.choice(columns))
                    tube = CNTInstance(Point(x, -1.0), Point(x, 11.0),
                                       mispositioned=True, metallic=metallic)
                else:
                    y1, y2 = rng.choice(levels, size=2)
                    tube = CNTInstance(Point(-1.0, float(y1)),
                                       Point(15.0, float(y2)),
                                       mispositioned=True, metallic=metallic)
                tubes.append(tube)
            self._assert_matches_reference(checker, tubes)

    def test_random_layouts_match_the_walk(self):
        """255 contacts, gates and etches, so keys reach 256 ** 3 * 256.
        Per tube and assignment, the nets the batched pairs join are the
        nets the reference walk's adjacent-contact pairs join."""
        rng = np.random.default_rng(255)
        checker = ImmunityChecker(_random_annotations(rng, 255))
        geometry = checker.geometry
        index = {net: i for i, net in enumerate(geometry.nets)}
        joined = 0
        for _ in range(24):
            y1, y2 = rng.integers(-4, 68, size=2) / 4
            tube = CNTInstance(Point(-1.0, float(y1)), Point(65.0, float(y2)),
                               mispositioned=True,
                               metallic=bool(rng.random() < 0.25))
            adjacency = checker._adjacency_matrices(checker._pair_conduction(
                CNTBatch.from_instances([tube])))[..., 0]
            walk = analyse_tube(checker, tube)
            for k, bits in enumerate(geometry.assignment_bits):
                assignment = dict(zip(checker.inputs, map(bool, bits)))
                reference = np.eye(len(index), dtype=bool)
                for net_a, net_b in walk.conducting_pairs(assignment):
                    reference[index[net_a], index[net_b]] = True
                    reference[index[net_b], index[net_a]] = True
                batched = adjacency[:, :, k] | np.eye(len(index), dtype=bool)
                assert (_closure(batched) == _closure(reference)).all()
                joined += int(_closure(batched).sum()) - len(index)
        assert joined  # some tube joins some nets

    @pytest.mark.parametrize("gate,technique", SWEEP_CELLS)
    def test_random_populations_on_the_sweep_cells(self, gate, technique):
        """Nominal plus random strays on every cell of the benchmark grid,
        one population at a time and as trial groups of one batch."""
        annotations = assemble_cell(standard_gate(gate),
                                    technique=technique).annotations()
        checker = ImmunityChecker(annotations)
        nominal = nominal_cnts(annotations)
        rng = np.random.default_rng(11)
        populations = [
            random_mispositioned_cnts(annotations, 4, rng,
                                      max_angle_deg=25.0,
                                      metallic_fraction=0.25)
            for _ in range(12)
        ]
        expected = []
        for strays in populations:
            table = self._assert_matches_reference(checker, nominal + strays)
            expected.append(checker.truth_table_codes(table))
        base_adjacency, _ = checker.base_state(
            CNTBatch.from_instances(nominal))
        grouped = checker.evaluate_batch(
            CNTBatch.from_instances([t for p in populations for t in p]),
            groups=len(populations), base_adjacency=base_adjacency)
        assert (grouped == np.array(expected)).all()


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
        nominal = nominal_cnts(annotations)
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
        nominal = nominal_cnts(annotations)
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
