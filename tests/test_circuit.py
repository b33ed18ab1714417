"""Tests for repro.circuit: netlists, FO4, transient simulation, timing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import (
    GateNetlist,
    Inverter,
    ParasiticExtractor,
    PiecewiseLinearSource,
    SimulationCase,
    TimingLibrary,
    TransistorNetlist,
    analyse_netlist,
    build_inverter_chain,
    cmos_inverter,
    cnfet_inverter,
    compare_fo4,
    fo4_load_capacitance,
    fo4_metrics,
    fo4_transient_sweep,
    pulse_source,
    run_transient_batch,
    step_source,
    write_spice,
)
from repro.circuit.logical_effort import CellTimingModel
from repro.devices import FO4_GATE_WIDTH_NM, calibrated_cnfet_parameters
from repro.errors import NetlistError, SimulationError


def _calibrated_cnfet_inverter(tubes=6):
    return cnfet_inverter(tubes, FO4_GATE_WIDTH_NM,
                          parameters=calibrated_cnfet_parameters())


class TestInverter:
    def test_polarity_validation(self):
        from repro.devices import MOSFET

        with pytest.raises(Exception):
            Inverter(pull_down=MOSFET("p", 100), pull_up=MOSFET("p", 100))

    def test_cmos_inverter_default_ratio(self):
        inverter = cmos_inverter(200.0)
        assert inverter.pull_up.width_nm == pytest.approx(280.0)

    def test_scaling(self):
        inverter = _calibrated_cnfet_inverter()
        double = inverter.scaled(2.0)
        assert double.input_capacitance() > inverter.input_capacitance()


class TestFO4Analytical:
    def test_load_is_self_plus_four_inputs(self):
        inverter = cmos_inverter()
        load = fo4_load_capacitance(inverter)
        expected = inverter.output_capacitance() + 4 * inverter.input_capacitance()
        assert load == pytest.approx(expected)

    def test_cmos_fo4_in_expected_range(self):
        metrics = fo4_metrics(cmos_inverter())
        assert 10e-12 < metrics.delay_s < 40e-12
        assert 1e-15 < metrics.energy_per_cycle_j < 5e-15

    def test_cnfet_beats_cmos(self):
        comparison = compare_fo4(_calibrated_cnfet_inverter(), cmos_inverter())
        assert comparison.delay_gain > 3.0
        assert comparison.energy_gain > 1.5
        assert comparison.edp_gain > 6.0

    def test_invalid_supply_rejected(self):
        with pytest.raises(SimulationError):
            fo4_metrics(cmos_inverter(), vdd=0.0)

    @given(st.floats(min_value=0.8, max_value=1.2))
    def test_energy_scales_with_vdd_squared(self, vdd):
        inverter = cmos_inverter()
        base = fo4_metrics(inverter, vdd=1.0).energy_per_cycle_j
        scaled = fo4_metrics(inverter, vdd=vdd).energy_per_cycle_j
        assert scaled == pytest.approx(base * vdd * vdd, rel=1e-9)


class TestSources:
    def test_pwl_interpolation(self):
        source = PiecewiseLinearSource([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)])
        assert source.value(-1.0) == 0.0
        assert source.value(0.5) == pytest.approx(0.5)
        assert source.value(5.0) == 1.0

    def test_pwl_ordering_enforced(self):
        with pytest.raises(SimulationError):
            PiecewiseLinearSource([(1.0, 0.0), (0.5, 1.0)])

    def test_step_and_pulse_shapes(self):
        step = step_source(1.0, delay=1e-12, rise_time=1e-13)
        assert step.value(0.0) == 0.0
        assert step.value(2e-12) == pytest.approx(1.0)
        pulse = pulse_source(1.0, delay=1e-12, rise_time=1e-13, width=5e-12)
        assert pulse.value(3e-12) == pytest.approx(1.0)
        assert pulse.value(1e-9) == pytest.approx(0.0)


class TestTransistorNetlist:
    def test_chain_construction(self):
        netlist = build_inverter_chain(cmos_inverter(), stages=3, fanout=4, vdd=1.0)
        assert len(netlist) == 6
        assert netlist.inputs == ["in"]
        assert "n3" in netlist.outputs
        assert len(netlist.capacitors) == 3

    def test_duplicate_transistor_rejected(self):
        netlist = TransistorNetlist("t", vdd=1.0)
        inverter = cmos_inverter()
        netlist.add_transistor("M1", inverter.pull_down, "a", "y", "gnd")
        with pytest.raises(NetlistError):
            netlist.add_transistor("M1", inverter.pull_up, "a", "y", "vdd")

    def test_node_capacitance_accounts_for_devices(self):
        netlist = build_inverter_chain(cmos_inverter(), stages=2, fanout=4, vdd=1.0)
        assert netlist.node_capacitance("n1") > 0

    def test_spice_export_mentions_devices(self):
        cnfet_chain = build_inverter_chain(_calibrated_cnfet_inverter(), 2, 4, 1.0)
        text = write_spice(cnfet_chain, title="chain")
        assert "ncnfet" in text
        assert ".end" in text
        cmos_chain = build_inverter_chain(cmos_inverter(), 2, 4, 1.0)
        text = write_spice(cmos_chain)
        assert "nmos65" in text and "pmos65" in text


class TestTransientSimulation:
    def test_inverter_switches(self):
        inverter = cmos_inverter()
        netlist = build_inverter_chain(inverter, stages=1, fanout=1, vdd=1.0)
        source = step_source(1.0, delay=5e-12, rise_time=1e-12)
        case = SimulationCase(netlist, {"in": source},
                              initial_conditions={"n1": 1.0})
        [result] = run_transient_batch([case], stop_time=100e-12,
                                       time_step=0.5e-12)
        final = result.voltage("n1")[-1]
        assert final < 0.1

    def test_missing_source_rejected(self):
        netlist = build_inverter_chain(cmos_inverter(), stages=1, fanout=1, vdd=1.0)
        with pytest.raises(SimulationError, match="No source"):
            run_transient_batch([SimulationCase(netlist, {})], 1e-12, 1e-13)

    def test_transient_fo4_close_to_analytical(self):
        inverter = _calibrated_cnfet_inverter()
        analytic = fo4_metrics(inverter)
        [transient] = fo4_transient_sweep([inverter])
        assert transient.delay_s == pytest.approx(analytic.delay_s, rel=0.45)
        assert transient.energy_per_cycle_j == pytest.approx(
            analytic.energy_per_cycle_j, rel=0.45
        )

    def test_transient_gain_ratio_matches_paper_direction(self):
        [cnfet] = fo4_transient_sweep([_calibrated_cnfet_inverter()])
        [cmos] = fo4_transient_sweep([cmos_inverter()])
        assert cmos.delay_s / cnfet.delay_s > 3.0


class TestCrossingTime:
    """Regressions for TransientResult.crossing_time, in particular the
    ``after`` clamping that propagation_delay's FO4 numbers depend on."""

    @staticmethod
    def _result(times, volts):
        import numpy as np

        from repro.circuit.simulator import TransientResult

        return TransientResult(
            time=np.asarray(times, dtype=float),
            waveforms={"n": np.asarray(volts, dtype=float)},
            supply_charge=0.0,
            vdd=1.0,
        )

    def test_simple_rising_interpolation(self):
        result = self._result([0.0, 1.0, 2.0], [0.0, 0.0, 1.0])
        assert result.crossing_time("n", 0.5) == pytest.approx(1.5)

    def test_crossing_never_earlier_than_after(self):
        # The ramp crosses 0.5 at t=0.5; with after=0.75 inside the same
        # segment the crossing must be re-evaluated from t=0.75, where the
        # net is already above the level -> the *next* crossing counts.
        result = self._result(
            [0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 0.0]
        )
        unclamped = result.crossing_time("n", 0.5)
        assert unclamped == pytest.approx(0.5)
        crossing = result.crossing_time("n", 0.5, after=0.75)
        assert crossing >= 0.75
        assert crossing == pytest.approx(2.5)  # the falling edge

    def test_after_mid_segment_before_level(self):
        # after=0.25 lands mid-segment but before the crossing: the
        # interpolated crossing inside the straddling segment is unchanged.
        result = self._result([0.0, 1.0], [0.0, 1.0])
        assert result.crossing_time("n", 0.5, after=0.25) == pytest.approx(0.5)

    def test_crossing_exactly_at_after_counts(self):
        # The net reaches the level exactly at ``after`` (here a sample
        # point): the crossing belongs to the window.
        result = self._result([0.0, 1.0, 2.0], [0.0, 0.5, 1.0])
        assert result.crossing_time("n", 0.5, after=1.0) == pytest.approx(1.0)
        # Same when ``after`` lands mid-segment on the crossing instant.
        ramp = self._result([0.0, 2.0], [0.0, 1.0])
        assert ramp.crossing_time("n", 0.5, after=1.0) == pytest.approx(1.0)

    def test_falling_edge_with_after(self):
        result = self._result([0.0, 1.0, 2.0], [1.0, 1.0, 0.0])
        crossing = result.crossing_time("n", 0.5, rising=False, after=1.5)
        assert crossing >= 1.5
        assert crossing == pytest.approx(1.5)

    def test_flat_segments_are_not_crossings(self):
        result = self._result([0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 0.5, 1.0])
        # The crossing completes on the segment that *arrives* at the level;
        # the flat stretch and the departure from it do not cross again.
        assert result.crossing_time("n", 0.5) == pytest.approx(1.0)
        with pytest.raises(SimulationError):
            result.crossing_time("n", 0.5, after=1.5)
        # A flat stretch strictly below the level is skipped entirely.
        staircase = self._result([0.0, 1.0, 2.0, 3.0], [0.0, 0.4, 0.4, 1.0])
        assert staircase.crossing_time("n", 0.5, after=1.5) == pytest.approx(
            2.0 + (0.5 - 0.4) / (1.0 - 0.4)
        )

    def test_direction_filter(self):
        result = self._result([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert result.crossing_time("n", 0.5, rising=True) == pytest.approx(0.5)
        assert result.crossing_time("n", 0.5, rising=False) == pytest.approx(1.5)

    def test_never_crossing_raises(self):
        result = self._result([0.0, 1.0], [0.0, 0.1])
        with pytest.raises(SimulationError):
            result.crossing_time("n", 0.5)
        with pytest.raises(SimulationError):
            # Crosses before ``after`` but never after it.
            self._result([0.0, 1.0, 2.0], [0.0, 1.0, 1.0]).crossing_time(
                "n", 0.5, after=1.5
            )

    def test_propagation_delay_non_negative_on_steep_edges(self):
        # Output crossing lands in the segment straddling the input
        # crossing; without clamping this used to go negative.
        result = self._result([0.0, 1.0, 2.0], [0.0, 0.6, 1.0])
        delayed = self._result([0.0, 1.0, 2.0], [0.0, 0.4, 1.0])
        result.waveforms["out"] = delayed.waveforms["n"]
        assert result.propagation_delay("n", "out") >= 0.0


class TestSupplyChargeAccounting:
    def test_backdriven_supply_not_overcounted(self):
        """A rail-to-rail pulse through one inverter: the supply charge must
        stay close to the switched capacitance (CV), not accumulate clamped
        per-device contributions."""
        inverter = cmos_inverter()
        netlist = build_inverter_chain(inverter, stages=1, fanout=4, vdd=1.0)
        source = pulse_source(1.0, delay=20e-12, rise_time=2e-12, width=200e-12)
        case = SimulationCase(netlist, {"in": source},
                              initial_conditions={"n1": 1.0})
        [result] = run_transient_batch([case], stop_time=450e-12,
                                       time_step=1e-12)
        load = netlist.node_capacitance("n1")
        # One full cycle charges the load once (plus short-circuit current
        # during the edges) -> the same order of magnitude as CV.
        assert 0.5 * load < result.supply_charge < 4.0 * load


class TestGateNetlist:
    def _simple_netlist(self):
        netlist = GateNetlist("pair")
        netlist.add_gate("g1", "NAND2", {"A": "a", "B": "b", "out": "n1"})
        netlist.add_gate("g2", "INV", {"A": "n1", "out": "y"})
        netlist.declare_io(["a", "b"], ["y"])
        return netlist

    def test_validation_passes(self):
        self._simple_netlist().validate()

    def test_topological_order(self):
        order = [g.name for g in self._simple_netlist().topological_order()]
        assert order.index("g1") < order.index("g2")

    def test_undriven_output_rejected(self):
        netlist = GateNetlist("bad")
        netlist.add_gate("g1", "INV", {"A": "a", "out": "n1"})
        netlist.declare_io(["a"], ["missing"])
        with pytest.raises(NetlistError):
            netlist.validate()

    def test_multiple_drivers_rejected(self):
        netlist = GateNetlist("bad")
        netlist.add_gate("g1", "INV", {"A": "a", "out": "y"})
        netlist.add_gate("g2", "INV", {"A": "b", "out": "y"})
        netlist.declare_io(["a", "b"], ["y"])
        with pytest.raises(NetlistError):
            netlist.drivers()

    def test_combinational_loop_detected(self):
        netlist = GateNetlist("loop")
        netlist.add_gate("g1", "INV", {"A": "y", "out": "n1"})
        netlist.add_gate("g2", "INV", {"A": "n1", "out": "y"})
        netlist.declare_io([], ["y"])
        with pytest.raises(NetlistError):
            netlist.topological_order()

    def test_gate_without_output_rejected(self):
        with pytest.raises(NetlistError):
            GateNetlist("bad").add_gate("g1", "INV", {"A": "a", "Y": "y"})


class TestLogicalEffortAnalysis:
    def _library(self):
        library = TimingLibrary("unit", vdd=1.0)
        library.add(CellTimingModel("INV", 1.0, 1e-15, 1e4, 0.5e-15))
        library.add(CellTimingModel("NAND2", 1.0, 1.5e-15, 1.2e4, 0.8e-15))
        return library

    def test_path_delay_accumulates(self):
        netlist = GateNetlist("pair")
        netlist.add_gate("g1", "NAND2", {"A": "a", "B": "b", "out": "n1"})
        netlist.add_gate("g2", "INV", {"A": "n1", "out": "y"})
        netlist.declare_io(["a", "b"], ["y"])
        result = analyse_netlist(netlist, self._library(), output_load=2e-15)
        expected_stage1 = 1.2e4 * (0.8e-15 + 1e-15)
        expected_stage2 = 1e4 * (0.5e-15 + 2e-15)
        assert result.critical_path_delay == pytest.approx(expected_stage1 + expected_stage2)
        assert result.critical_path == ("g1", "g2")
        assert result.total_energy_per_cycle > 0

    def test_drive_strength_interpolation(self):
        library = self._library()
        model = library.lookup("INV", 4.0)
        assert model.drive_resistance == pytest.approx(1e4 / 4.0)
        assert model.input_capacitance == pytest.approx(4e-15)

    def test_unknown_cell_rejected(self):
        with pytest.raises(Exception):
            self._library().lookup("XOR2")


class TestExtraction:
    def test_extraction_of_generated_cell(self):
        from repro.core import assemble_cell
        from repro.logic import standard_gate

        cell = assemble_cell(standard_gate("NAND2"))
        report = ParasiticExtractor().extract(cell.cell)
        assert report.total_capacitance > 0
        assert report.capacitance("out") > 0
        assert report.resistance("out") > 0

    def test_wire_estimates_scale_with_length(self):
        extractor = ParasiticExtractor()
        assert extractor.wire_capacitance(100.0) > extractor.wire_capacitance(10.0)
        assert extractor.wire_resistance(100.0) > extractor.wire_resistance(10.0)
        with pytest.raises(NetlistError):
            extractor.wire_capacitance(-1.0)
