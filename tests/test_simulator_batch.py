"""Regressions for the batch transient engine and the characterisation
sweep: the bit-identity contract against the scalar reference integrator
(``run_reference`` in ``tests/reference.py``) on both sub-step implementations
(the compiled C stepper and the NumPy stepper), measurement parity under
back-drive, the vectorized PWL evaluator, and the sweep grid."""

import math
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.cells.characterize as characterize
from repro.cells import (
    characterize_sweep,
    cmos_technology,
    cnfet_technology,
    gate_transistor_netlist,
    measured_timing_models,
    sensitizing_assignment,
)
from repro.circuit import (
    GND,
    VDD,
    CompiledTransientBatch,
    PiecewiseLinearSource,
    SimulationCase,
    TransientResult,
    TransistorNetlist,
    build_inverter_chain,
    cmos_inverter,
    cnfet_inverter,
    constant_source,
    first_crossings,
    pulse_source,
    fo4_transient_sweep,
    run_transient_batch,
    step_source,
    simulator,
    stepper,
    waveform_block,
)
from repro.circuit.simulator import stability_substep
from repro.devices import FO4_GATE_WIDTH_NM, calibrated_cnfet_parameters
from repro.errors import CharacterizationError, SimulationError
from repro.logic import standard_gate
from repro.logic.functions import STANDARD_GATES

from reference import run_reference, source_schedule_reference

STOP = 20e-12
STEP = 0.5e-12

STEPPERS = {"numpy": stepper.NumpyStepper, "c": stepper.CStepper}


def pin_stepper(monkeypatch, name):
    """Make every integration use the named stepper.  The C stepper
    skips only when no compiler is on ``PATH``; with one, its library
    must build and load, and NumPy's power loop must bind."""
    if name == "c":
        if stepper.find_compiler() is None:
            pytest.skip("no C compiler on PATH")
        assert stepper.load_library() is not None
        assert stepper.power_loop() is not None
    monkeypatch.setattr(stepper, "resolve_stepper", lambda: STEPPERS[name])


class OnStepper:
    """Runs a test class on ``STEPPER``; each oracle class below is
    subclassed once more with ``STEPPER = "numpy"``."""

    STEPPER = "c"

    @pytest.fixture(autouse=True)
    def _pinned_stepper(self, monkeypatch):
        pin_stepper(monkeypatch, self.STEPPER)


def _cnfet_chain_case(tubes=6, vdd=1.0, stages=3):
    inverter = cnfet_inverter(tubes, FO4_GATE_WIDTH_NM,
                              parameters=calibrated_cnfet_parameters())
    netlist = build_inverter_chain(inverter, stages=stages, fanout=4, vdd=vdd)
    initial = {f"n{i + 1}": vdd if i % 2 == 0 else 0.0 for i in range(stages)}
    source = pulse_source(vdd, delay=3e-12, rise_time=1e-12, width=8e-12)
    return SimulationCase(netlist, {"in": source}, initial)


def _loop(case, stop=STOP, step=STEP):
    return run_reference(case, stop, step)


def _assert_identical(loop, batch):
    assert set(loop.waveforms) == set(batch.waveforms)
    for net in loop.waveforms:
        assert np.array_equal(loop.waveforms[net], batch.waveforms[net]), net
    assert loop.supply_charge == batch.supply_charge
    assert loop.vdd == batch.vdd


class TestBitIdentity(OnStepper):
    def test_inverter_chain_batch_matches_loop(self):
        """CNFET chain corners: every waveform sample of every corner is
        byte-identical across the engines."""
        cases = [_cnfet_chain_case(tubes) for tubes in (1, 4, 6, 12)]
        batch = run_transient_batch(cases, STOP, STEP)
        for case, result in zip(cases, batch):
            _assert_identical(_loop(case), result)

    def test_mixed_technology_batch(self):
        """A CMOS corner rides in the same batch as CNFET corners."""
        cnfet = _cnfet_chain_case(6)
        cmos_net = build_inverter_chain(cmos_inverter(), stages=3, fanout=4,
                                        vdd=1.0)
        cmos = SimulationCase(cmos_net, cnfet.sources,
                              cnfet.initial_conditions)
        batch = run_transient_batch([cnfet, cmos], STOP, STEP)
        _assert_identical(_loop(cnfet), batch[0])
        _assert_identical(_loop(cmos), batch[1])

    @pytest.mark.parametrize("gate_name", ["NAND3", "AOI31"])
    def test_gate_netlist_matches_loop(self, gate_name):
        """Cell netlists with internal nodes — NAND3 (stacked PDN,
        parallel PUN) and the AOI31 complex gate (series/parallel PUN and
        PDN): batch == reference bit for bit."""
        gate = standard_gate(gate_name)
        tech = cnfet_technology()
        netlist = gate_transistor_netlist(gate, tech, drive_strength=2.0,
                                          load_capacitance=2e-15)
        sides = sensitizing_assignment(gate, gate.inputs[0])
        sources = {gate.inputs[0]: pulse_source(1.0, 3e-12, 2e-12, 8e-12)}
        for pin, value in sides.items():
            sources[pin] = constant_source(1.0 if value else 0.0)
        case = SimulationCase(netlist, sources, {"out": 1.0})
        batch = run_transient_batch([case], STOP, STEP)[0]
        _assert_identical(_loop(case), batch)

    def test_source_on_unreferenced_net_matches_loop(self):
        """A source driving a net no device references: the reference
        integrator records its waveform without electrical effect, and the batch
        engine must do exactly the same (regression: this used to raise
        KeyError during compilation)."""
        case = _cnfet_chain_case()
        sources = dict(case.sources)
        sources["monitor"] = step_source(1.0, delay=5e-12, rise_time=2e-12)
        augmented = SimulationCase(case.netlist, sources,
                                   case.initial_conditions)
        batch = run_transient_batch([augmented], STOP, STEP)[0]
        loop = _loop(augmented)
        _assert_identical(loop, batch)
        assert "monitor" in batch.waveforms
        assert batch.voltage("monitor")[-1] == 1.0


class TestBitIdentityNumpy(TestBitIdentity):
    STEPPER = "numpy"


class TestRankTableOracle(OnStepper):
    """The zero-padded rank table (every net's contributions, and the
    supply's, folded in loop order with ``+0.0`` padding) against the
    reference integrator, at batch 1 and 7 with a different supply on
    every case."""

    STOP = 10e-12        # 5,000 sub-steps: cheap for the reference
    SUPPLIES = (0.8, 0.85, 0.9, 0.95, 1.0, 1.05, 1.1)

    @staticmethod
    def _nand3(vdd):
        """NAND3's output takes 3 parallel PUN drains plus the PDN top
        device: 4 contributions on one net.  Staggered input edges give
        the 4 currents different magnitudes, so the order they are
        summed in shows in the last bits."""
        gate = standard_gate("NAND3")
        netlist = gate_transistor_netlist(gate, cnfet_technology(vdd=vdd),
                                          drive_strength=2.0,
                                          load_capacitance=2e-15)
        sources = {
            pin: pulse_source(vdd, delay, rise, 4e-12)
            for pin, delay, rise in zip(gate.inputs, (1e-12, 1.5e-12, 2e-12),
                                        (1e-12, 2e-12, 3e-12))
        }
        return SimulationCase(netlist, sources, {"out": vdd})

    @staticmethod
    def _devices():
        inverter = cnfet_inverter(6, FO4_GATE_WIDTH_NM,
                                  parameters=calibrated_cnfet_parameters())
        return inverter.pull_down, inverter.pull_up

    @classmethod
    def _two_signed_supply(cls, vdd):
        """An n-device with its drain on Vdd (a source follower, +i_drain
        into the supply column) beside a p-device with its source on Vdd
        (-i_drain into the supply column)."""
        n_device, p_device = cls._devices()
        netlist = TransistorNetlist("two_signed_supply", vdd=vdd)
        netlist.add_transistor("MF", n_device, gate="in", drain=VDD,
                               source="follow")
        netlist.add_transistor("MD", n_device, gate="in", drain="follow",
                               source=GND)
        netlist.add_transistor("MP", p_device, gate="in", drain="out",
                               source=VDD)
        netlist.add_transistor("MN", n_device, gate="in", drain="out",
                               source=GND)
        netlist.add_capacitor("CL", "out", 1e-15)
        netlist.declare_io(["in"], ["out", "follow"])
        source = pulse_source(vdd, 2e-12, 1e-12, 4e-12)
        return SimulationCase(netlist, {"in": source}, {"out": vdd})

    @classmethod
    def _no_supply(cls, vdd):
        """No device touches Vdd: a pass device discharging into a
        pull-down, so the supply column is all padding."""
        n_device, _ = cls._devices()
        netlist = TransistorNetlist("no_supply", vdd=vdd)
        netlist.add_transistor("MS", n_device, gate="in", drain="out",
                               source="mid")
        netlist.add_transistor("MG", n_device, gate="in", drain="mid",
                               source=GND)
        netlist.add_capacitor("CL", "out", 1e-15)
        netlist.declare_io(["in"], ["out"])
        source = pulse_source(vdd, 2e-12, 1e-12, 4e-12)
        return SimulationCase(netlist, {"in": source},
                              {"out": vdd, "mid": 0.5 * vdd})

    def _check(self, build, batch):
        cases = [build(vdd) for vdd in self.SUPPLIES[:batch]]
        compiled = CompiledTransientBatch(cases)
        results = compiled.integrate(self.STOP, STEP)
        for case, result in zip(cases, results):
            _assert_identical(_loop(case, stop=self.STOP), result)
        return compiled, results

    @pytest.mark.parametrize("batch", [1, 7])
    def test_four_contributions_on_one_net(self, batch):
        compiled, _ = self._check(self._nand3, batch)
        assert compiled.rank_table.shape[0] >= 4

    @pytest.mark.parametrize("batch", [1, 7])
    def test_supply_column_takes_both_signs(self, batch):
        compiled, results = self._check(self._two_signed_supply, batch)
        devices = len(compiled.cases[0].netlist.transistors)
        supply = compiled.rank_table[:, -1]
        assert any(slot < devices for slot in supply)
        assert any(devices <= slot < 2 * devices for slot in supply)
        assert all(result.supply_charge != 0.0 for result in results)

    @pytest.mark.parametrize("batch", [1, 7])
    def test_no_device_on_vdd_draws_exactly_zero(self, batch):
        compiled, results = self._check(self._no_supply, batch)
        devices = len(compiled.cases[0].netlist.transistors)
        assert (compiled.rank_table[:, -1] == 2 * devices).all()
        for result in results:
            assert result.supply_charge == 0.0
            assert not np.signbit(result.supply_charge)


class TestRankTableOracleNumpy(TestRankTableOracle):
    STEPPER = "numpy"


class TestMeasurementParity(OnStepper):
    def test_crossing_and_energy_parity_under_backdrive(self):
        """A rail-to-rail pulse through one FO4 inverter back-drives the
        supply during the falling edge; crossing times and supply energy
        must agree exactly across the engines."""
        netlist = build_inverter_chain(cmos_inverter(), stages=1, fanout=4,
                                       vdd=1.0)
        source = pulse_source(1.0, delay=20e-12, rise_time=2e-12,
                              width=200e-12)
        case = SimulationCase(netlist, {"in": source}, {"n1": 1.0})
        loop = _loop(case, stop=450e-12, step=1e-12)
        batch = run_transient_batch([case], 450e-12, 1e-12)[0]
        _assert_identical(loop, batch)
        for rising in (True, False):
            assert loop.crossing_time("n1", 0.5, rising=rising) == \
                batch.crossing_time("n1", 0.5, rising=rising)
        assert loop.propagation_delay("in", "n1") == \
            batch.propagation_delay("in", "n1")
        assert loop.supply_energy == batch.supply_energy
        # The back-drive guard of PR 1 still holds on both engines.
        load = netlist.node_capacitance("n1")
        assert 0.5 * load < batch.supply_charge < 4.0 * load


class TestMeasurementParityNumpy(TestMeasurementParity):
    STEPPER = "numpy"


class TestVectorizedPWL:
    def test_matches_scalar_value_everywhere(self):
        """The padded vectorized PWL evaluator against the scalar oracle,
        including breakpoints, duplicate time points, the pre-first-point
        region and the hold-last-value tail."""
        sources = [
            PiecewiseLinearSource([(0.0, 0.2)]),
            step_source(1.0, delay=1e-12, rise_time=2e-12),
            pulse_source(0.9, delay=2e-12, rise_time=1e-12, width=3e-12),
            PiecewiseLinearSource([(0.0, 0.0), (1e-12, 1.0), (1e-12, 0.5),
                                   (4e-12, 0.5)]),
        ]
        inverter = cmos_inverter()
        netlist = build_inverter_chain(inverter, stages=1, fanout=1, vdd=1.0)
        # One case per source, all driving "in".
        cases = [SimulationCase(netlist, {"in": source}, {"n1": 1.0})
                 for source in sources]
        compiled = CompiledTransientBatch(cases)
        probe = np.array(
            [0.0, 0.5e-12, 1e-12, 1.5e-12, 2e-12, 3e-12, 4e-12, 5e-12,
             6e-12, 7e-12, 1e-9]
        )
        for case_i, source in enumerate(sources):
            values = compiled._evaluate_pwl(case_i, 0, probe)
            for time_i, time in enumerate(probe):
                assert values[time_i] == source.value(float(time)), (
                    case_i, time)

    def test_deduplicated_schedule_matches_per_pair_oracle(self):
        """Each distinct stimulus is evaluated once per group and
        scattered: the ``changed`` mask and source rows equal the
        per-pair loop's byte for byte.  The batch repeats stimuli within
        and across two groups, mixes a one-source and a two-source block,
        and drives a source that steps from -0.0 to +0.0 beside its twin
        that holds +0.0 (equal levels, distinct bytes)."""
        signed_zero = PiecewiseLinearSource([(0.0, -0.0), (3e-12, 0.0)])
        stimuli = [step_source(1.0, delay=1e-12, rise_time=2e-12),
                   signed_zero,
                   PiecewiseLinearSource([(0.0, 0.0), (3e-12, 0.0)]),
                   pulse_source(1.0, delay=2e-12, rise_time=1e-12,
                                width=2e-12),
                   step_source(1.0, delay=1e-12, rise_time=2e-12)]
        chain = build_inverter_chain(cmos_inverter(), stages=1, fanout=1,
                                     vdd=1.0)
        nand = gate_transistor_netlist(standard_gate("NAND2"),
                                       cnfet_technology())
        cases = []
        for base in ((10e-12, 1e-12), (6e-12, 0.5e-12)):
            for stimulus in stimuli:
                cases.append(SimulationCase(chain, {"in": stimulus},
                                            {"n1": 1.0}, time_base=base))
                cases.append(SimulationCase(
                    nand, {"A": stimulus, "B": signed_zero},
                    {"out": 1.0}, time_base=base))
        compiled = CompiledTransientBatch(cases)
        # 2 groups x (step, signed zero, its twin, pulse) stimuli.
        assert len(compiled._stimuli) == 8
        *_, changed, source_rows = compiled._schedule(10e-12, 1e-12)
        expected_changed, expected_rows = source_schedule_reference(
            compiled, 10e-12, 1e-12)
        # -0.0 -> +0.0 on the first sub-step is a change, and only the
        # signed-zero stimulus moves there.
        assert expected_changed[1]
        assert changed.tobytes() == expected_changed.tobytes()
        assert source_rows.shape == expected_rows.shape
        assert source_rows.tobytes() == expected_rows.tobytes()


class TestPackedBatch(OnStepper):
    """One call packs cases of different topologies and time bases:
    every case is byte-equal, waveform by waveform and in supply charge,
    to the reference integrator run alone on its own time base."""

    @staticmethod
    def _gate_case(gate_name, vdd, time_base):
        gate = standard_gate(gate_name)
        netlist = gate_transistor_netlist(gate, cnfet_technology(vdd=vdd),
                                          drive_strength=2.0,
                                          load_capacitance=2e-15)
        sides = sensitizing_assignment(gate, gate.inputs[0])
        sources = {gate.inputs[0]: pulse_source(vdd, 1e-12, 1e-12, 3e-12)}
        for pin, value in sides.items():
            sources[pin] = constant_source(vdd if value else 0.0)
        return SimulationCase(netlist, sources, {"out": vdd},
                              time_base=time_base)

    @staticmethod
    def _back_driving_case(time_base):
        """An inverter whose heavily loaded output starts above the
        rail: the on p-device returns charge to Vdd for the whole
        (short) run, so its schedule ends on a negative supply current
        and its padding steps add ``-0.0`` to the supply charge."""
        inverter = cnfet_inverter(6, FO4_GATE_WIDTH_NM,
                                  parameters=calibrated_cnfet_parameters())
        netlist = TransistorNetlist("back_drive", vdd=1.0)
        netlist.add_transistor("MP", inverter.pull_up, gate="in",
                               drain="out", source=VDD)
        netlist.add_transistor("MN", inverter.pull_down, gate="in",
                               drain="out", source=GND)
        netlist.add_capacitor("CL", "out", 50e-15)
        netlist.declare_io(["in"], ["out"])
        return SimulationCase(netlist, {"in": constant_source(0.0)},
                              {"out": 1.09}, time_base=time_base)

    @staticmethod
    def _assert_bytes_equal(loop, batch):
        assert set(loop.waveforms) == set(batch.waveforms)
        assert loop.time.tobytes() == batch.time.tobytes()
        for net, wave in loop.waveforms.items():
            assert wave.tobytes() == batch.waveforms[net].tobytes(), net
        assert (np.float64(loop.supply_charge).tobytes()
                == np.float64(batch.supply_charge).tobytes())
        assert loop.vdd == batch.vdd

    def test_topologies_and_time_bases_in_one_call(self):
        chain = _cnfet_chain_case()                   # the call's time base
        cases = [
            self._gate_case("NAND3", 1.0, (10e-12, 0.5e-12)),
            self._gate_case("AOI31", 0.9, (8e-12, 0.4e-12)),
            chain,
            self._gate_case("NAND3", 1.1, (6e-12, 0.25e-12)),
            self._back_driving_case((2e-12, 0.1e-12)),
        ]
        compiled = CompiledTransientBatch(cases)
        assert len(compiled.block_nets) == 4          # NAND3 twice
        assert len(compiled.group_bases) == 5
        results = compiled.integrate(STOP, STEP)
        for case, result in zip(cases, results):
            stop, step = case.time_base or (STOP, STEP)
            self._assert_bytes_equal(_loop(case, stop, step), result)
        back_drive = results[-1]
        assert back_drive.voltage("out")[-1] > back_drive.vdd
        assert back_drive.supply_charge < 0.0

    def test_one_topology_on_two_time_bases(self):
        cases = [self._gate_case("NAND2", vdd, base) for vdd, base in
                 ((1.0, (6e-12, 0.5e-12)), (0.9, (9e-12, 0.3e-12)))]
        for case, result in zip(cases, run_transient_batch(cases, STOP, STEP)):
            self._assert_bytes_equal(_loop(case, *case.time_base), result)


class TestPackedBatchNumpy(TestPackedBatch):
    STEPPER = "numpy"


@st.composite
def _pwl(draw, vdd, stop):
    """A PWL source over ``[0, stop]``: sorted breakpoints (duplicates
    make vertical edges), levels on or between the rails, ``-0.0``
    included."""
    times = sorted(draw(st.lists(
        st.sampled_from([0.0, 0.1 * stop, 0.25 * stop, 0.5 * stop, stop]),
        min_size=1, max_size=5)))
    levels = st.one_of(st.sampled_from([-0.0, 0.0, vdd]),
                       st.floats(0.0, vdd, allow_subnormal=False))
    return PiecewiseLinearSource([(t, draw(levels)) for t in times])


@st.composite
def _random_case(draw):
    """One random standard-gate corner on its own (or the call's) time
    base.  Its output may start above the rail (the on pull-up then
    returns charge to Vdd) and may be a back-driven net: a source holds
    ``out`` while the gate's devices drive current into it."""
    vdd = draw(st.sampled_from([0.8, 0.9, 1.0, 1.1]))
    technology = draw(st.sampled_from([cnfet_technology, cmos_technology]))
    gate = standard_gate(draw(st.sampled_from(sorted(STANDARD_GATES))))
    netlist = gate_transistor_netlist(
        gate, technology(vdd=vdd),
        drive_strength=draw(st.sampled_from([1.0, 2.0, 4.0])),
        load_capacitance=draw(st.sampled_from([0.0, 1e-15, 4e-15])))
    time_base = draw(st.sampled_from(
        [None, (1e-12, 0.1e-12), (2e-12, 0.25e-12), (3e-12, 0.5e-12)]))
    stop = (time_base or TestDifferential.TIME_BASE)[0]
    sources = {pin: draw(_pwl(vdd, stop)) for pin in gate.inputs}
    if draw(st.booleans()):
        sources["out"] = draw(_pwl(vdd, stop))
    initial = {"out": draw(st.sampled_from([-0.0, 0.0, 0.5 * vdd, vdd,
                                            1.09 * vdd]))}
    return SimulationCase(netlist, sources, initial, time_base=time_base)


class TestDifferential:
    """Random packed calls: the C stepper, the NumPy stepper and the
    reference integrator agree byte for byte on every case."""

    TIME_BASE = (2e-12, 0.2e-12)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cases=st.lists(_random_case(), min_size=1, max_size=4))
    def test_c_numpy_and_reference_agree(self, monkeypatch, cases):
        runs = {}
        for name in ("numpy", "c"):
            pin_stepper(monkeypatch, name)
            runs[name] = run_transient_batch(cases, *self.TIME_BASE)
        for index, case in enumerate(cases):
            reference = _loop(case, *(case.time_base or self.TIME_BASE))
            for name, results in runs.items():
                TestPackedBatch._assert_bytes_equal(reference,
                                                    results[index])


class TestCrossingTime:
    """The vectorized ``crossing_time`` against the per-sample loop it
    replaced, on seeded random waveforms."""

    @staticmethod
    def _reference(result, net, level, rising=None, after=0.0):
        voltages, times = result.voltage(net), result.time
        for index in range(1, len(times)):
            if times[index] < after:
                continue
            previous, current = voltages[index - 1], voltages[index]
            crossed_up = previous < level <= current
            crossed_down = previous > level >= current
            if rising is True and not crossed_up:
                continue
            if rising is False and not crossed_down:
                continue
            if crossed_up or crossed_down:
                fraction = (level - previous) / (current - previous)
                crossing = times[index - 1] + fraction * (
                    times[index] - times[index - 1])
                if crossing >= after:
                    return crossing
        raise SimulationError("no crossing")

    @staticmethod
    def _outcome(find):
        try:
            return np.float64(find()).tobytes()
        except SimulationError:
            return None

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(2009)
        found = missing = 0
        for _ in range(300):
            samples = int(rng.integers(2, 30))
            times = np.cumsum(rng.uniform(0.1e-12, 2e-12, samples))
            # Quarter-volt levels put plateaus exactly on ``level``.
            voltages = rng.integers(0, 5, samples) * 0.25
            if rng.random() < 0.5:
                voltages = voltages + rng.normal(0.0, 0.05, samples)
            result = TransientResult(times, {"x": voltages}, 0.0, 1.0)
            segment = int(rng.integers(0, samples - 1))
            afters = (0.0, times[segment],
                      0.5 * (times[segment] + times[segment + 1]))
            for level in (0.5, 0.3):
                for rising in (None, True, False):
                    for after in afters:
                        expected = self._outcome(lambda: self._reference(
                            result, "x", level, rising, after))
                        assert self._outcome(lambda: result.crossing_time(
                            "x", level, rising, after)) == expected
                        found += expected is not None
                        missing += expected is None
        assert found and missing

    def test_no_crossing_raises(self):
        flat = TransientResult(np.linspace(0.0, 1e-12, 5),
                               {"x": np.full(5, 0.5)}, 0.0, 1.0)
        with pytest.raises(SimulationError):
            flat.crossing_time("x", 0.5)

    def test_batched_matches_reference_per_column(self):
        """``first_crossings`` on random ``(samples, B)`` blocks, with a
        level and an ``after`` per column, against the per-sample loop
        on each column: plateaus exactly on the level, ``after`` on a
        sample or straddled by a segment, and columns that never cross,
        which make the whole call raise."""
        rng = np.random.default_rng(2027)
        found = missing = 0
        for _ in range(120):
            samples = int(rng.integers(2, 30))
            width = int(rng.integers(1, 9))
            times = np.cumsum(rng.uniform(0.1e-12, 2e-12, samples))
            block = rng.integers(0, 5, (samples, width)) * 0.25
            if rng.random() < 0.5:
                block = block + rng.normal(0.0, 0.05, block.shape)
            level = rng.choice([0.5, 0.3], width)
            segment = rng.integers(0, samples - 1, width)
            after = np.choose(rng.integers(0, 3, width), [
                np.zeros(width), times[segment],
                0.5 * (times[segment] + times[segment + 1])])
            for rising in (None, True, False):
                expected = [self._outcome(lambda: self._reference(
                    TransientResult(times, {"x": block[:, k]}, 0.0, 1.0),
                    "x", level[k], rising, after[k])) for k in range(width)]
                crossing = [k for k in range(width)
                            if expected[k] is not None]
                if len(crossing) < width:
                    missing += 1
                    with pytest.raises(SimulationError):
                        first_crossings(times, block, level, rising, after)
                if crossing:
                    found += 1
                    got = first_crossings(times, block[:, crossing],
                                          level[crossing], rising,
                                          after[crossing])
                    assert [value.tobytes() for value in got] == \
                        [expected[k] for k in crossing]
        assert found and missing

    def test_waveform_block_views_the_kernel_columns(self):
        """The kernel's cases of one group come back as a view of its
        sample block; hand-built results are stacked.  Either way the
        block's columns are the waveforms."""
        netlist = build_inverter_chain(cmos_inverter(), stages=1, fanout=1,
                                       vdd=1.0)
        cases = [SimulationCase(netlist,
                                {"in": step_source(1.0, 2e-12, slew)},
                                {"n1": 1.0})
                 for slew in (1e-12, 2e-12, 4e-12)]
        results = run_transient_batch(cases, STOP, STEP)
        block = waveform_block(results, "n1")
        assert not block.flags.writeable
        assert np.shares_memory(block, results[0].voltage("n1"))
        copies = [TransientResult(result.time,
                                  {"n1": result.voltage("n1").copy()},
                                  result.supply_charge, result.vdd)
                  for result in results]
        stacked = waveform_block(copies, "n1")
        for k, result in enumerate(results):
            assert block[:, k].tobytes() == result.voltage("n1").tobytes()
            assert stacked[:, k].tobytes() == result.voltage("n1").tobytes()


class TestSubstepSchedule:
    """The vectorized sub-step schedule against the per-sub-step loop it
    replaced, byte for byte: sample times, sub-step start times and
    sizes, and sample boundaries."""

    @staticmethod
    def _reference(stop_time, time_step):
        sample_count = int(math.ceil(stop_time / time_step)) + 1
        times = np.linspace(0.0, stop_time, sample_count)
        substep = stability_substep(stop_time, time_step)
        step_times, step_sizes = array("d"), array("d")
        boundaries = [0]
        edges = times.tolist()
        for time, segment_end in zip(edges, edges[1:]):
            while time < segment_end - 1e-21:
                dt = min(substep, segment_end - time)
                step_times.append(time)
                step_sizes.append(dt)
                time += dt
            boundaries.append(len(step_sizes))
        return (times, np.frombuffer(step_times), np.frombuffer(step_sizes),
                np.array(boundaries, dtype=np.intp))

    def _assert_matches(self, stop_time, time_step):
        expected = self._reference(stop_time, time_step)
        schedule = simulator._substep_schedule(stop_time, time_step)
        for name, want, got in zip(("times", "starts", "sizes", "bounds"),
                                   expected, schedule):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), (name, stop_time,
                                                     time_step)

    @settings(max_examples=150, deadline=None)
    @given(stop_time=st.floats(1e-14, 2e-9),
           samples=st.floats(0.5, 3000.0))
    def test_random_time_bases(self, stop_time, samples):
        self._assert_matches(stop_time, stop_time / samples)

    @settings(max_examples=40, deadline=None)
    @given(stop_time=st.floats(1e-15, 8e-11),
           samples=st.floats(1.0, 40.0))
    def test_two_femtosecond_floor(self, stop_time, samples):
        time_step = stop_time / samples
        assert stability_substep(stop_time, time_step) in (
            simulator.MINIMUM_SUBSTEP_S, time_step)
        self._assert_matches(stop_time, time_step)

    @pytest.mark.parametrize("stop_time,time_step", [
        (4e-12, 4e-12), (4e-12, 5e-12), (1e-9, 1e-9), (1e-15, 1e-12),
        (3e-12, 1e-3)])
    def test_time_step_at_or_past_stop_time(self, stop_time, time_step):
        self._assert_matches(stop_time, time_step)

    def test_default_characterization_grids(self):
        loads, slew = characterize.MEASURED_LOADS_F, \
            characterize.MEASURED_SLEW_S
        for gate in sorted(STANDARD_GATES):
            grid = characterize.CellGrid(
                gate, (1.0, 2.0), loads, (slew,),
                (("nominal", cnfet_technology()),))
            self._assert_matches(*grid.time_base()[3:])


class TestBatchValidation:
    def test_missing_source_rejected(self):
        case = _cnfet_chain_case()
        with pytest.raises(SimulationError):
            run_transient_batch(
                [SimulationCase(case.netlist, {}, None)], STOP, STEP
            )

    def test_empty_batch_rejected(self):
        with pytest.raises(SimulationError):
            run_transient_batch([], STOP, STEP)

    def test_invalid_time_base_rejected(self):
        case = _cnfet_chain_case()
        with pytest.raises(SimulationError):
            run_transient_batch([case], -1.0, STEP)
        own = SimulationCase(case.netlist, case.sources,
                             case.initial_conditions, time_base=(STOP, 0.0))
        with pytest.raises(SimulationError):
            run_transient_batch([case, own], STOP, STEP)


class TestCharacterizationSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return characterize_sweep(
            gate_names=("INV", "NAND2"),
            drive_strengths=(1.0, 2.0),
            load_capacitances_f=(1e-15, 4e-15),
            input_slews_s=(5e-12,),
            corners={"tt": cnfet_technology(),
                     "lv": cnfet_technology(vdd=0.9)},
        )

    def test_grid_shape(self, sweep):
        assert sweep.shape == (2, 2, 2, 1, 2)
        assert len(sweep.points) == 16
        assert sweep.grid().shape == sweep.shape
        assert sweep.grid("energy_per_cycle_j").shape == sweep.shape

    def test_delay_monotone_in_load(self, sweep):
        grid = sweep.grid("worst_delay_s")
        assert np.all(np.diff(grid, axis=2) > 0.0)

    def test_stronger_drive_is_faster(self, sweep):
        grid = sweep.grid("worst_delay_s")
        assert np.all(np.diff(grid, axis=1) < 0.0)

    def test_low_voltage_corner_is_slower(self, sweep):
        grid = sweep.grid("worst_delay_s")
        assert np.all(grid[..., 1] > grid[..., 0])

    def test_point_lookup(self, sweep):
        point = sweep.point("NAND2", 2.0, 4e-15, 5e-12, "lv")
        assert point.cell == "NAND2"
        assert point.vdd == 0.9
        with pytest.raises(Exception):
            sweep.point("NAND2", 3.0, 4e-15, 5e-12, "lv")

    def test_all_positive(self, sweep):
        for point in sweep.points:
            assert point.delay_rise_s > 0
            assert point.delay_fall_s > 0
            assert point.energy_per_cycle_j > 0

    def test_per_cell_drive_axes_match_separate_sweeps(self):
        """Cells on their own drive axes (a circuit's NAND2_2X and
        NAND2_4X) share one call, and each cell's points are bit-equal
        to a sweep of that cell alone."""
        packed = characterize_sweep(gate_names=("NAND2", "NAND2"),
                                    drive_strengths=((2.0,), (4.0,)))
        assert packed.shape == (2, 1, 2, 1, 1)
        assert packed.drive_strengths == ((2.0,), (4.0,))
        for drive in (2.0, 4.0):
            alone = characterize_sweep(gate_names=("NAND2",),
                                       drive_strengths=(drive,))
            for point in alone.points:
                assert packed.point(point.cell, drive,
                                    point.load_capacitance_f,
                                    point.input_slew_s,
                                    point.corner) == point
        with pytest.raises(CharacterizationError):
            characterize_sweep(gate_names=("INV", "NAND2"),
                               drive_strengths=((1.0,), (1.0, 2.0)))

    def test_measured_models_reproduce_sweep_delays(self):
        gate = standard_gate("INV")
        tech = cnfet_technology()
        loads = (1e-15, 2e-15, 4e-15)
        models, = measured_timing_models([(gate, (1.0,))], tech,
                                         loads=loads)
        model = models[1.0]
        check = characterize_sweep(
            gate_names=("INV",), drive_strengths=(1.0,),
            load_capacitances_f=loads,
            corners={"nominal": tech},
        )
        for load in loads:
            measured = check.point("INV", 1.0, load, 5e-12,
                                   "nominal").worst_delay_s
            assert model.stage_delay(load) == pytest.approx(measured,
                                                            rel=0.25)


class TestCellGrid:
    """The contract of one cell's grid: non-empty axes, in-range case
    indices, and subsets that build only their own netlists and land on
    the full sweep's points."""

    CORNERS = (("tt", cnfet_technology()), ("lv", cnfet_technology(vdd=0.9)))

    def _grid(self, **overrides):
        axes = dict(gate="NAND2", drives=(1.0, 2.0), loads=(1e-15, 4e-15),
                    slews=(5e-12,), corners=self.CORNERS)
        return characterize.CellGrid(**{**axes, **overrides})

    @pytest.mark.parametrize("axis", ["drives", "loads", "slews", "corners"])
    def test_empty_axis_rejected(self, axis):
        with pytest.raises(CharacterizationError):
            self._grid(**{axis: ()})

    @pytest.mark.parametrize("index", [-1, 8])
    def test_out_of_range_index_rejected(self, index):
        grid = self._grid()
        assert len(grid) == 8
        with pytest.raises(CharacterizationError):
            characterize.characterize_cases(grid, [0, index])

    def test_value_semantics(self):
        grid = self._grid()
        assert grid == self._grid() and hash(grid) == hash(self._grid())
        assert grid.time_base() is grid.time_base()
        assert grid.time_base() == self._grid().time_base()

    def test_cases_subset_matches_the_sweep(self, monkeypatch):
        grid = self._grid()
        built = []
        real = characterize.gate_transistor_netlist

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(characterize, "gate_transistor_netlist", counting)
        subset = characterize.characterize_cases(grid, [6, 1])
        assert len(built) == 2
        monkeypatch.undo()
        full = characterize_sweep(gate_names=("NAND2",),
                                  drive_strengths=grid.drives,
                                  load_capacitances_f=grid.loads,
                                  input_slews_s=grid.slews,
                                  corners=dict(grid.corners))
        assert subset == [full.points[6], full.points[1]]
