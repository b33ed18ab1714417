"""The circuit-study subsystem: Verilog/generator → techmap → per-unique-cell
Monte Carlo + measured timing → circuit yield/delay/energy.

The contracts under test are the ISSUE-9 acceptance criteria:

* per-unique-cell evaluation — the immunity and timing engines run exactly
  once per **distinct** mapped cell, never per instance (counter tests);
* bit-identity — serial, thread and process backends, and cold vs warm
  corner stores, produce equal results, with ``provenance.cache``
  recording ``miss`` / ``hit`` / ``partial:<h>/<n>``;
* lossless serialization — ``to_json()``/``from_json()`` round-trips and
  the envelope validates against ``docs/repro_result.schema.json``;
* typed errors — malformed specs, unknown gate types and bad CLI usage
  raise :class:`StudyError`/:class:`MappingError` (CLI exit 2).
"""

import io
import json
import os
import subprocess
import sys

import pytest

import repro.cells.characterize as characterize
import repro.immunity.montecarlo as montecarlo
from repro.circuit.netlist import GateNetlist
from repro.circuit_study import generate_circuit, resolve_circuit, run_circuit_study
from repro.errors import MappingError, StudyError
from repro.flow.verilog import full_adder_verilog, ripple_carry_adder_netlist
from repro.runtime.cache import ResultCache
from repro.study import (
    CircuitStudyResult,
    StudyResult,
    SweepSpec,
    get_study,
    run_study,
    run_sweep_study,
)
from repro.study.cli import main as cli_main
from repro.study.results import RESULT_SCHEMA
from test_sweep_engines import planned_keys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA_PATH = os.path.join(REPO_ROOT, "docs", "repro_result.schema.json")
VALIDATOR_PATH = os.path.join(REPO_ROOT, "tools", "validate_repro_json.py")

#: One small configuration shared by most tests, so the module-scoped corner
#: store turns every run after the first into near-free cache hits.
FAST = dict(circuit="adder:2", trials=16, seed=2009, draws=128)


def run_fast(**overrides):
    return run_circuit_study(**{**FAST, **overrides})


@pytest.fixture(scope="module")
def shared_store(tmp_path_factory):
    """A corner store shared across this module's tests (warm after the
    first cold run; every test stays correct when run in isolation)."""
    return ResultCache(tmp_path_factory.mktemp("circuit-store"))


@pytest.fixture
def immunity_counter(monkeypatch):
    calls = []
    real = montecarlo.run_immunity_trials

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "run_immunity_trials", counting)
    return calls


@pytest.fixture
def timing_counter(monkeypatch):
    """Every cell passed to ``measured_timing_models`` as ``(gate,
    drives)`` — one entry per cell characterised, however many cells a
    call carries."""
    cells = []
    real = characterize.measured_timing_models

    def counting(cell_grids, *args, **kwargs):
        cells.extend((gate.name, tuple(drives)) for gate, drives in cell_grids)
        return real(cell_grids, *args, **kwargs)

    monkeypatch.setattr(characterize, "measured_timing_models", counting)
    return cells


@pytest.fixture
def kernel_counter(monkeypatch):
    """The batch size of every transient kernel call."""
    calls = []
    real = characterize.run_transient_batch

    def counting(cases, *args, **kwargs):
        calls.append(len(cases))
        return real(cases, *args, **kwargs)

    monkeypatch.setattr(characterize, "run_transient_batch", counting)
    return calls


def run_cli(*argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = cli_main(list(argv), stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


class TestCircuitResolution:
    def test_generator_families(self):
        assert generate_circuit("adder:2").name == "rca2"
        assert generate_circuit("rca:8").name == "rca8"
        assert generate_circuit("comparator").name == "cmp4"
        assert generate_circuit("cmp:3").name == "cmp3"
        assert generate_circuit("mac:2").name == "mac2"
        assert generate_circuit("fulladder").name == "full_adder"

    def test_generated_netlists_validate(self):
        for spec in ("adder:3", "comparator:1", "comparator:2", "mac:3"):
            netlist = generate_circuit(spec)
            netlist.validate()
            assert netlist.gates

    @pytest.mark.parametrize("spec", ["", "adder:0", "warp:4", "adder:4:2",
                                      "adder:x"])
    def test_bad_specs_raise_study_error(self, spec):
        with pytest.raises(StudyError):
            generate_circuit(spec)

    def test_resolve_all_three_spellings(self):
        netlist, source = resolve_circuit(ripple_carry_adder_netlist(2))
        assert (netlist.name, source) == ("rca2", "netlist:rca2")
        netlist, source = resolve_circuit(full_adder_verilog())
        assert (netlist.name, source) == ("full_adder", "verilog:full_adder")
        netlist, source = resolve_circuit("  Adder:2 ")
        assert (netlist.name, source) == ("rca2", "adder:2")

    def test_resolve_rejects_other_types(self):
        with pytest.raises(StudyError):
            resolve_circuit(42)

    def test_out_of_library_gate_type_is_a_mapping_error(self):
        netlist = GateNetlist("exotic")
        netlist.add_gate("g0", "XOR9", {"a": "a", "b": "b", "out": "y"})
        netlist.declare_io(["a", "b"], ["y"])
        with pytest.raises(MappingError, match="XOR9"):
            run_circuit_study(netlist, trials=4, draws=4)


class TestPerUniqueCell:
    def test_engines_run_once_per_unique_cell(self, immunity_counter,
                                              timing_counter):
        """An adder:2 has 18 instances but exactly two unique cells — the
        engines must be invoked per cell, never per instance."""
        result = run_fast()
        assert result.instances == 18
        assert result.unique_cells == 2
        assert [cell.cell for cell in result.cells] == ["NAND2_2X", "NAND2_4X"]
        assert len(immunity_counter) == 2
        # Each unique cell is characterised exactly once, at its drive.
        assert sorted(timing_counter) == [("NAND2", (2.0,)),
                                          ("NAND2", (4.0,))]
        assert sum(cell.instances for cell in result.cells) == 18

    def test_one_kernel_call_per_cold_circuit(self, kernel_counter):
        """Every timing miss of a cold circuit rides in one kernel call
        (two cells x two loads); with ``jobs=2`` each timing shard makes
        one call, and the result does not move."""
        serial = run_fast()
        assert kernel_counter == [4]
        kernel_counter.clear()
        sharded = run_fast(jobs=2, backend="thread")
        assert kernel_counter == [2, 2]
        assert sharded == serial

    def test_timing_address_names_the_integrated_time_base(self,
                                                          monkeypatch):
        """The ``circuit-timing`` address of each cell carries the time
        base its cases are integrated on: the context's ``(stop, step)``
        equals the ``time_base`` of that cell's cases in the kernel call."""
        from repro.circuit_study import study as circuit_engine

        contexts, integrated = {}, {}
        real_fingerprint = circuit_engine.corner_fingerprint
        real_kernel = characterize.run_transient_batch

        def recording_fingerprint(engine, params, *args, **kwargs):
            if engine == "circuit-timing":
                contexts[params["cell"]] = kwargs["context"]
            return real_fingerprint(engine, params, *args, **kwargs)

        def recording_kernel(cases, *args, **kwargs):
            for case in cases:
                integrated.setdefault(case.netlist.name, set()).add(
                    case.time_base)
            return real_kernel(cases, *args, **kwargs)

        monkeypatch.setattr(circuit_engine, "corner_fingerprint",
                            recording_fingerprint)
        monkeypatch.setattr(characterize, "run_transient_batch",
                            recording_kernel)
        run_fast()
        assert sorted(contexts) == sorted(integrated) == ["NAND2_2X",
                                                          "NAND2_4X"]
        for cell, context in contexts.items():
            assert integrated[cell] == {tuple(context[3:5])}

    def test_instance_count_scales_but_cell_work_does_not(self):
        """adder:8 is 4x the instances of adder:2 with identical unique
        cells, so its per-cell corner keys are the same addresses."""
        for circuit in ("adder:2", "adder:8"):
            netlist, _ = resolve_circuit(circuit)
            assert {gate.cell_type for gate in netlist.gates} == {"NAND2"}
        assert len(resolve_circuit("adder:8")[0].gates) == 72

    def test_cell_reports_carry_both_engines(self, shared_store):
        result = run_fast(cache=shared_store)
        for cell in result.cells:
            assert cell.trials == FAST["trials"]
            assert 0.0 <= cell.failure_rate <= 1.0
            assert cell.input_capacitance_f > 0
            assert cell.drive_resistance_ohm > 0
            assert cell.parasitic_capacitance_f >= 0


class TestAggregation:
    def test_compact_layout_is_immune_at_defaults(self, shared_store):
        """The paper's compact technique tolerates mispositioned CNTs, so
        with no metallic residue the whole circuit yields."""
        result = run_fast(cache=shared_store)
        assert result.functional_yield == 1.0
        assert result.monte_carlo_yield == 1.0
        assert result.defect_histogram == ((0, FAST["draws"]),)
        assert all(cell.immune for cell in result.cells)

    def test_metallic_residue_degrades_yield(self, shared_store):
        clean = run_fast(cache=shared_store)
        dirty = run_fast(cache=shared_store, metallic_fraction=0.05)
        assert dirty.functional_yield < clean.functional_yield
        assert 0.0 <= dirty.monte_carlo_yield < 1.0
        # The analytic product and the Monte Carlo estimate agree loosely.
        assert abs(dirty.monte_carlo_yield - dirty.functional_yield) < 0.15
        assert sum(freq for _count, freq in dirty.defect_histogram) == \
            FAST["draws"]

    def test_timing_and_energy_are_positive_and_anchored(self, shared_store):
        result = run_fast(cache=shared_store)
        assert result.critical_path_delay_s > 0
        assert result.total_energy_per_cycle_j > 0
        assert result.total_cell_area_lambda2 > 0
        assert set(result.output_arrivals_s) == \
            set(resolve_circuit("adder:2")[0].outputs)
        # The worst output's arrival IS the critical-path delay.
        assert max(result.output_arrivals_s.values()) == \
            pytest.approx(result.critical_path_delay_s)
        assert result.critical_path[-1] in \
            {gate.name for gate in resolve_circuit("adder:2")[0].gates}


class TestCacheContracts:
    def test_cold_miss_then_warm_hit_bit_identical(self, tmp_path,
                                                   immunity_counter,
                                                   timing_counter):
        store = ResultCache(tmp_path / "store")
        cold = run_fast(cache=store)
        assert cold.provenance.cache == "miss"
        cold_calls = (len(immunity_counter), len(timing_counter))
        assert cold_calls == (2, 2)

        warm = run_fast(cache=store)
        assert warm.provenance.cache == "hit"
        # No engine ran on the warm pass...
        assert (len(immunity_counter), len(timing_counter)) == cold_calls
        # ...and the result is bit-identical (cache status is excluded
        # from equality by the runtime layer's contract).
        assert warm == cold

    def test_partial_reuse_across_circuits(self, shared_store,
                                           immunity_counter):
        """A comparator reuses the adder's NAND2 corners from the store and
        computes only its own INV cells — cell identity, not circuit
        identity, addresses the corner."""
        adder = run_fast(cache=shared_store)  # ensure the adder cells are warm
        adder_cells = {cell.cell for cell in adder.cells}
        immunity_counter.clear()

        comparator = run_fast(cache=shared_store, circuit="comparator:2")
        new_cells = {cell.cell for cell in comparator.cells} - adder_cells
        assert new_cells  # the comparator really does add INV cells
        hits = 2 * (comparator.unique_cells - len(new_cells))
        total = 2 * comparator.unique_cells
        assert comparator.provenance.cache == f"partial:{hits}/{total}"
        assert len(immunity_counter) == len(new_cells)

    def test_changed_trials_miss_immunity_but_keep_timing(self, shared_store,
                                                          timing_counter):
        """Timing corners don't depend on the Monte Carlo trial count, so
        only the immunity half of the grid recomputes."""
        run_fast(cache=shared_store)
        timing_counter.clear()
        bumped = run_fast(cache=shared_store, trials=FAST["trials"] + 1)
        assert bumped.provenance.cache == "partial:2/4"
        assert len(timing_counter) == 0

    def test_run_study_forwards_the_corner_store(self, tmp_path,
                                                 monkeypatch):
        """``run_study("circuit", cache=store)`` hands the store to the
        runner: a rerun that changes only ``draws`` misses at study level
        but reuses every cell's timing corners, so the kernel never runs."""
        calls = []
        real = characterize.run_transient_batch

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(characterize, "run_transient_batch", counting)
        store = ResultCache(tmp_path / "store")
        params = dict(circuit="adder:2", trials=16, seed=2009)
        run_study("circuit", cache=store, draws=128, **params)
        assert calls
        calls.clear()
        rerun = run_study("circuit", cache=store, draws=256, **params)
        assert rerun.provenance.cache == "hit"
        assert rerun.draws == 256
        assert calls == []

    def test_stored_envelopes_record_no_read_outcome(self, tmp_path):
        """A study-level miss served from the corner store reports "hit",
        but the study entry it writes holds the result, not that read."""
        store = ResultCache(tmp_path / "store")
        params = dict(circuit="adder:2", trials=4, seed=2009)
        assert run_study("circuit", cache=store, draws=8,
                         **params).provenance.cache == "miss"
        assert run_study("circuit", cache=store, draws=16,
                         **params).provenance.cache == "hit"
        entries = sorted((tmp_path / "store" / "objects").glob("*/*.json"))
        assert len(entries) == 2
        for path in entries:
            wrapper = json.loads(path.read_text(encoding="utf-8"))
            assert wrapper["result"]["provenance"].get("cache") is None

    def test_no_cache_records_no_status(self):
        # A single-gate netlist keeps this cheap: we only need provenance
        # — the uncached path must leave provenance.cache unset.
        netlist = GateNetlist("single")
        netlist.add_gate("g0", "NAND2", {"a": "a", "b": "b", "out": "y"})
        netlist.declare_io(["a", "b"], ["y"])
        result = run_circuit_study(netlist, trials=2, draws=8)
        assert result.provenance.cache is None
        assert result.source == "netlist:single"


@pytest.fixture(scope="module")
def serial_result():
    return run_fast(jobs=1, backend="serial")


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_backends_match_serial(self, backend, serial_result):
        parallel = run_fast(jobs=2, backend=backend)
        assert parallel == serial_result
        assert parallel.provenance == serial_result.provenance

    @pytest.mark.parametrize("via", ["manifest", "cli"])
    def test_jobs_and_backend_reach_the_scheduler(self, via, monkeypatch):
        """Both registry front doors forward ``jobs`` *and* ``backend``
        to the circuit runner — neither falls back to the default pool."""
        import repro.circuit_study.study as circuit_engine
        from repro.runtime.manifest import run_manifest

        seen = []
        real = circuit_engine.run_tasks

        def spy(*args, **kwargs):
            seen.append((kwargs.get("jobs"), kwargs.get("backend")))
            return real(*args, **kwargs)

        monkeypatch.setattr(circuit_engine, "run_tasks", spy)
        if via == "manifest":
            run_manifest([{"study": "circuit", "params": FAST}],
                         jobs=2, backend="thread")
        else:
            code, _, _ = run_cli(
                "circuit", "--generate", FAST["circuit"],
                "--trials", str(FAST["trials"]), "--seed", str(FAST["seed"]),
                "--param", f"draws={FAST['draws']}",
                "--jobs", "2", "--backend", "thread", "--no-cache",
            )
            assert code == 0
        assert seen == [(2, "thread")]

    def test_scheduling_never_enters_provenance(self, shared_store):
        a = run_fast(cache=shared_store)
        b = run_fast(cache=shared_store, jobs=2, backend="thread")
        assert a.provenance.config_hash == b.provenance.config_hash
        for key in ("jobs", "backend", "cache"):
            assert key not in a.provenance.params


class TestSerialization:
    def test_json_round_trip_is_lossless(self, shared_store):
        result = run_fast(cache=shared_store)
        restored = StudyResult.from_json(result.to_json())
        assert isinstance(restored, CircuitStudyResult)
        assert restored == result
        assert restored.to_dict() == result.to_dict()
        assert restored.cells == result.cells
        assert restored.defect_histogram == result.defect_histogram

    def test_envelope_matches_checked_in_schema(self, shared_store):
        result = run_fast(cache=shared_store)
        document = result.to_json()
        process = subprocess.run(
            [sys.executable, VALIDATOR_PATH, SCHEMA_PATH, "-"],
            input=document, capture_output=True, text=True,
        )
        assert process.returncode == 0, process.stderr
        envelope = json.loads(document)
        assert envelope["schema"] == RESULT_SCHEMA
        assert envelope["study"] == "circuit"
        assert envelope["provenance"]["engine"] == "circuit"

    def test_provenance_hashes_structure_not_spelling(self, shared_store):
        """Verilog text is fingerprinted by its parsed structure, so two
        modules sharing a name but wired differently never collide."""
        by_spec = run_fast(cache=shared_store, circuit="fulladder")
        by_verilog = run_fast(cache=shared_store,
                              circuit=full_adder_verilog())
        assert by_spec.provenance.params["circuit"] == "fulladder"
        structure = by_verilog.provenance.params["circuit"]
        assert isinstance(structure, dict)
        assert structure["name"] == "full_adder"
        assert structure["gates"]

    def test_text_rendering_names_the_cells(self, shared_store):
        rendering = str(run_fast(cache=shared_store))
        for needle in ("NAND2_2X", "yield", "rca2"):
            assert needle in rendering


class TestRegistry:
    def test_circuit_is_registered_with_aliases(self):
        definition = get_study("circuit")
        assert definition.name == "circuit"
        assert get_study("circuit_study") is not None
        assert "jobs" in definition.parameters()

    def test_unknown_parameters_fail_fast(self):
        with pytest.raises(StudyError, match="does not accept"):
            run_study("circuit", volts=3)

    def test_run_study_envelope_caching(self, tmp_path):
        store = ResultCache(tmp_path / "envelope")
        cold = run_study("circuit", cache=store, **FAST)
        warm = run_study("circuit", cache=store, **FAST)
        assert isinstance(cold, CircuitStudyResult)
        assert cold.provenance.cache == "miss"
        assert warm.provenance.cache == "hit"
        assert warm == cold


class TestSweepEngine:
    def test_sweep_addresses_ignore_circuit_spelling(self):
        """A generator spec and the Verilog it round-trips through resolve
        to the same netlist structure, hence the same corner addresses."""
        spec = SweepSpec.from_mapping({"metallic_fraction": (0.0, 0.05)})
        by_spec, _ = planned_keys(
            spec, "circuit", 8, 7, {"circuit": "fulladder", "draws": 32})
        by_verilog, _ = planned_keys(
            spec, "circuit", 8, 7,
            {"circuit": full_adder_verilog(), "draws": 32})
        assert by_spec == by_verilog
        rewired, _ = planned_keys(
            spec, "circuit", 8, 7, {"circuit": "adder:2", "draws": 32})
        assert set(rewired).isdisjoint(by_spec)

    def test_electrical_corners_share_defect_seeds(self):
        """vdd/pitch sweeps share per-corner seeds (the Figure-2 contract:
        same defect population, different electrical corner) — the keys
        still differ because vdd enters the resolved binding."""
        spec = SweepSpec.from_mapping({"vdd": (0.9, 1.0)})
        keys, seeds = planned_keys(
            spec, "circuit", 8, 7, {"circuit": "fulladder"})
        assert len(set(keys)) == 2
        assert seeds[0].entropy == seeds[1].entropy
        assert tuple(seeds[0].spawn_key) == tuple(seeds[1].spawn_key)

    def test_axis_extension_recomputes_only_the_delta(self, tmp_path,
                                                      immunity_counter):
        store = ResultCache(tmp_path / "sweep-store")
        base = SweepSpec.from_mapping({"metallic_fraction": (0.0, 0.05)})
        cold = run_sweep_study(base, engine="circuit", trials=8, seed=7,
                               cache=store, circuit="adder:2", draws=64)
        assert cold.provenance.cache == "miss"
        assert [r.metrics["functional_yield"] for r in cold.records][0] == 1.0
        assert cold.records[1].metrics["functional_yield"] < 1.0
        immunity_counter.clear()

        wider = SweepSpec.from_mapping({"metallic_fraction": (0.0, 0.05, 0.1)})
        delta = run_sweep_study(wider, engine="circuit", trials=8, seed=7,
                                cache=store, circuit="adder:2", draws=64)
        assert delta.provenance.cache == "partial:2/3"
        # Only the one new corner executed: two unique cells' immunity.
        assert len(immunity_counter) == 2
        assert [r.metrics for r in delta.records[:2]] == \
            [r.metrics for r in cold.records]

        again = run_sweep_study(wider, engine="circuit", trials=8, seed=7,
                                cache=store, circuit="adder:2", draws=64)
        assert again.provenance.cache == "hit"
        assert again == delta

    def test_sweep_rejects_unknown_circuit_axes(self):
        spec = SweepSpec.from_mapping({"volts": (0.9, 1.0)})
        with pytest.raises(StudyError):
            run_sweep_study(spec, engine="circuit", trials=4, seed=7)


class TestCli:
    def test_generate_json_envelope(self, shared_store):
        code, out, _ = run_cli(
            "circuit", "--generate", "adder:2", "--trials", str(FAST["trials"]),
            "--seed", str(FAST["seed"]), "--param", f"draws={FAST['draws']}",
            "--cache", str(shared_store.root), "--json", "-",
        )
        assert code == 0
        document = json.loads(out)
        assert document["study"] == "circuit"
        restored = StudyResult.from_json_dict(document)
        assert isinstance(restored, CircuitStudyResult)
        assert restored == run_fast(cache=shared_store)

    def test_verilog_file_input(self, tmp_path, shared_store):
        source = tmp_path / "fa.v"
        source.write_text(full_adder_verilog(), encoding="utf-8")
        code, out, _ = run_cli(
            "circuit", str(source), "--trials", str(FAST["trials"]),
            "--seed", str(FAST["seed"]), "--param", f"draws={FAST['draws']}",
            "--cache", str(shared_store.root), "--json", "-",
        )
        assert code == 0
        assert json.loads(out)["payload"]["source"] == "verilog:full_adder"

    def test_circuit_and_run_circuit_share_one_address(self, tmp_path):
        """``repro circuit --generate X`` is a spelling of ``repro run
        circuit --param circuit=X``: the second run is a study-level hit
        on the envelope the first one stored."""
        store = ResultCache(tmp_path / "store")
        flags = ("--trials", str(FAST["trials"]), "--seed", str(FAST["seed"]),
                 "--param", f"draws={FAST['draws']}",
                 "--cache", str(store.root), "--json", "-")
        code, first, err = run_cli("circuit", "--generate", "adder:2", *flags)
        assert code == 0 and "cache miss" in err
        code, second, err = run_cli("run", "circuit",
                                    "--param", "circuit=adder:2", *flags)
        assert code == 0 and "cache hit" in err
        assert store.stats().entries == 1
        assert (json.loads(first)["payload"]
                == json.loads(second)["payload"])

    def test_needs_exactly_one_input(self, tmp_path):
        code, _, err = run_cli("circuit")
        assert code == 2 and "error:" in err
        source = tmp_path / "fa.v"
        source.write_text(full_adder_verilog(), encoding="utf-8")
        code, _, err = run_cli("circuit", str(source), "--generate", "adder:2")
        assert code == 2 and "not both" in err

    def test_unknown_family_exits_2(self):
        code, _, err = run_cli("circuit", "--generate", "warp:9")
        assert code == 2
        assert "warp" in err

    def test_missing_file_exits_2(self, tmp_path):
        code, _, err = run_cli("circuit", str(tmp_path / "absent.v"))
        assert code == 2
        assert "error:" in err

    def test_parse_error_reports_line_and_column(self, tmp_path):
        source = tmp_path / "bad.v"
        source.write_text(
            "module bad (a, y);\n"
            "  input a;\n"
            "  output y;\n"
            "  XOR9_2X g0 (.a(a), .out(y));\n"
            "endmodule\n",
            encoding="utf-8",
        )
        code, _, err = run_cli("circuit", str(source))
        assert code == 2
        assert "line 4" in err and "column" in err
