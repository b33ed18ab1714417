"""The Study layer: typed results, serialization, sweeps, provenance.

Covers the redesign's acceptance criteria:

* every ``run_*`` runner returns a typed, Mapping-compatible result whose
  subscription, keys and length agree with its ``to_dict()`` payload;
* every result dataclass survives a lossless JSON round-trip, NumPy
  scalar/array fields included;
* :class:`~repro.study.spec.SweepSpec` expands grids/zips and honours the
  PR-1 seed-spawning contract;
* :class:`~repro.flow.designkit.FlowReport` raises ``FlowError`` on
  degenerate placements instead of returning silent infinities.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.experiments import (
    run_characterization,
    run_edp_summary,
    run_fig2_immunity,
    run_fig3_nand3,
    run_fig4_aoi31,
    run_fig7_fo4,
    run_fo4_transient_sweep,
    run_fulladder_case_study,
    run_immunity_sweep,
    run_pitch_sensitivity,
    run_table1,
)
from repro.circuit_study import run_circuit_study
from repro.errors import FlowError, StudyError
from repro.flow.designkit import FlowReport, FlowSummary
from repro.flow.placement import PlacementResult
from repro.circuit.logical_effort import PathTimingResult
from repro.runtime import run_manifest
from repro.study import (
    Fig3Result,
    Fig7Result,
    FullAdderResult,
    Provenance,
    StudyResult,
    SweepSpec,
    decode,
    encode,
    get_study,
    list_studies,
    parse_axis,
    run_study,
    run_sweep_study,
)


def _deep_equal(left, right) -> bool:
    """Bit-exact structural equality across dicts/lists/dataclasses."""
    if type(left) is not type(right) and not (
        isinstance(left, (list, tuple)) and isinstance(right, (list, tuple))
    ):
        return left == right
    if isinstance(left, dict):
        return (left.keys() == right.keys()
                and all(_deep_equal(left[k], right[k]) for k in left))
    if isinstance(left, (list, tuple)):
        return (len(left) == len(right)
                and all(_deep_equal(a, b) for a, b in zip(left, right)))
    return left == right


#: Pinned wire-format skeletons of the ``TestJsonRoundTrip`` payloads.
WIRE_GOLDEN = Path(__file__).parent / "fixtures" / "wire_format.json"


def _wire_skeleton(node):
    """A JSON tree reduced to its shape: scalars become their type names
    and each list becomes the sorted set of its distinct element
    skeletons, so no float value (nor any machine dependence) remains."""
    if isinstance(node, dict):
        return {key: _wire_skeleton(value) for key, value in node.items()}
    if isinstance(node, list):
        distinct = {json.dumps(skeleton, sort_keys=True): skeleton
                    for skeleton in map(_wire_skeleton, node)}
        return [distinct[key] for key in sorted(distinct)]
    return type(node).__name__


# ---------------------------------------------------------------------------
# Tagged serialization
# ---------------------------------------------------------------------------

class TestSerialize:
    def test_numpy_scalars_roundtrip_bit_identical(self):
        values = [np.float64(0.1), np.float32(3.5), np.int64(-7),
                  np.int32(12), np.bool_(True)]
        for value in values:
            restored = decode(encode(value))
            assert type(restored) is type(value)
            assert restored == value
        # float64 payloads are bit-exact through JSON text too.
        import json
        tricky = np.float64(0.1) + np.float64(0.2)
        assert decode(json.loads(json.dumps(encode(tricky)))) == tricky

    def test_arrays_tuples_bytes_and_intkey_dicts(self):
        payload = {
            "grid": np.arange(6, dtype=np.float64).reshape(2, 3),
            "shape": (2, 3),
            "blob": b"\x00\x01\xff",
            1: "scheme one",
        }
        restored = decode(encode(payload))
        assert isinstance(restored["grid"], np.ndarray)
        assert restored["grid"].dtype == np.float64
        assert (restored["grid"] == payload["grid"]).all()
        assert restored["shape"] == (2, 3)
        assert isinstance(restored["shape"], tuple)
        assert restored["blob"] == b"\x00\x01\xff"
        assert restored[1] == "scheme one"

    def test_tag_collision_escapes(self):
        payload = {"__tuple__": "not actually a tuple"}
        assert decode(encode(payload)) == payload

    def test_seed_sequence_roundtrip(self):
        seed = np.random.SeedSequence(2009, spawn_key=(3,))
        restored = decode(encode(seed))
        assert restored.entropy == seed.entropy
        assert restored.spawn_key == seed.spawn_key

    def test_non_repro_dataclass_rejected(self):
        @dataclasses.dataclass
        class Foreign:
            value: int = 1

        Foreign.__module__ = "somewhere.else"
        with pytest.raises(StudyError):
            encode(Foreign())


# ---------------------------------------------------------------------------
# SweepSpec / Corner
# ---------------------------------------------------------------------------

class TestSweepSpec:
    def test_grid_expansion_order(self):
        spec = SweepSpec.from_mapping({"a": (1, 2), "b": ("x", "y")})
        assert [c.as_dict() for c in spec.corners()] == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
            {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
        ]
        assert spec.shape == (2, 2)
        assert len(spec) == 4

    def test_zip_expansion(self):
        spec = SweepSpec.from_mapping({"a": (1, 2), "b": (10, 20)}, mode="zip")
        assert [c.as_dict() for c in spec.corners()] == [
            {"a": 1, "b": 10}, {"a": 2, "b": 20},
        ]
        with pytest.raises(StudyError):
            SweepSpec.from_mapping({"a": (1, 2), "b": (10,)}, mode="zip")

    def test_grid_axis_rejects_repeated_values(self):
        """A repeated grid value would name one corner twice, and the
        engines resolve seeds and cases by value (a duplicate immunity
        corner got the later child seed, a duplicate transient drive the
        first case), so grid mode refuses it; zip mode keeps repeats."""
        with pytest.raises(StudyError, match="repeats"):
            SweepSpec.from_mapping({"cnts_per_trial": (6, 6)})
        with pytest.raises(StudyError, match="repeats"):
            SweepSpec.parse(["technique=compact", "drive=1,2,1.0"])
        zipped = SweepSpec.from_mapping(
            {"cnts_per_trial": (6, 6), "technique": ("vulnerable", "compact")},
            mode="zip")
        assert len(zipped) == 2

    def test_parse_axis_forms(self):
        assert parse_axis("vdd=0.8:1.0:5").values == pytest.approx(
            (0.8, 0.85, 0.9, 0.95, 1.0))
        assert parse_axis("vdd=0.8:1.0:5").values[0] == 0.8
        assert parse_axis("vdd=0.8:1.0:5").values[-1] == 1.0
        assert parse_axis("cnts=2,4,8").values == (2, 4, 8)
        assert parse_axis("technique=compact").values == ("compact",)
        with pytest.raises(StudyError):
            parse_axis("novalue")
        with pytest.raises(StudyError):
            parse_axis("bad=1:2")

    def test_seed_contract_sharing_and_independence(self):
        spec = SweepSpec.from_mapping({
            "cnts_per_trial": (2, 4),
            "technique": ("vulnerable", "compact"),
        })
        seeds = spec.seeds(2009, share_axes=("technique",))
        corners = spec.corners()
        by_binding = {c.as_dict()["cnts_per_trial"]: [] for c in corners}
        for corner, child in zip(corners, seeds):
            by_binding[corner.as_dict()["cnts_per_trial"]].append(child)
        # Same non-shared binding -> identical child; different -> distinct.
        for children in by_binding.values():
            states = {tuple(c.generate_state(4)) for c in children}
            assert len(states) == 1
        assert (tuple(by_binding[2][0].generate_state(4))
                != tuple(by_binding[4][0].generate_state(4)))

    def test_seeds_do_not_mutate_caller_sequence(self):
        root = np.random.SeedSequence(7)
        spec = SweepSpec.from_mapping({"a": (1, 2, 3)})
        spec.seeds(root)
        assert root.n_children_spawned == 0
        first = [tuple(s.generate_state(2)) for s in spec.seeds(root)]
        second = [tuple(s.generate_state(2)) for s in spec.seeds(root)]
        assert first == second


# ---------------------------------------------------------------------------
# Mapping compatibility: typed results still read like the old dicts
# ---------------------------------------------------------------------------

class TestMappingCompatibility:
    def test_mapping_compatibility(self):
        result = run_fig7_fo4(max_tubes=4)
        assert result["optimal"]["delay_gain"] == result.optimal.delay_gain
        assert "sweep" in result
        assert set(result.keys()) == set(result.to_dict().keys())
        assert len(result) == len(result.to_dict())
        assert dict(result) == result.to_dict()


# ---------------------------------------------------------------------------
# JSON round-trip of every result dataclass
# ---------------------------------------------------------------------------

class TestJsonRoundTrip:
    @pytest.fixture(scope="class")
    def results(self):
        return {
            "table1": run_table1(),
            "fig2": run_fig2_immunity(trials=20, seed=7),
            "immunity_sweep": run_immunity_sweep(
                gates=("NAND2",), cnts_per_trial=(2, 4), trials=20, seed=7
            ),
            "fig3": run_fig3_nand3(),
            "fig4": run_fig4_aoi31(),
            "fig7": run_fig7_fo4(max_tubes=5),
            "fo4_transient": run_fo4_transient_sweep(tube_counts=(1, 4)),
            "characterization": run_characterization(
                gates=("INV",), drive_strengths=(1.0,),
            ),
            "pitch": run_pitch_sensitivity(steps=3),
            "fig8": run_fulladder_case_study(),
            "edp": run_edp_summary(),
            "sweep": run_sweep_study(
                SweepSpec.from_mapping(
                    {"cnts_per_trial": (2, 4), "technique": ("vulnerable", "compact")}
                ),
                engine="immunity", trials=20, seed=7,
            ),
            "circuit": run_circuit_study("adder:2", trials=20, draws=50),
            "manifest": run_manifest([{"study": "fig3"}, {"study": "fig3"}]),
        }

    def test_every_result_roundtrips_losslessly(self, results):
        for name, result in results.items():
            restored = StudyResult.from_json(result.to_json())
            assert type(restored) is type(result), name
            assert restored == result, name
            assert restored.provenance == result.provenance, name

    def test_wire_format_matches_golden(self, results):
        """The encoded payload of every study keeps its pinned shape.

        ``WIRE_GOLDEN`` stores, per study, the skeleton of
        ``to_json_dict()["payload"]``: every key, tag and container kind,
        with scalars replaced by their type names, so a change to how a
        result encodes its fields fails here even when ``to_dict`` and
        ``from_payload`` drift together.  Re-pin only on purpose (a new
        envelope schema): dump ``_wire_skeleton`` of each payload.
        """
        golden = json.loads(WIRE_GOLDEN.read_text(encoding="utf-8"))
        assert sorted(golden) == sorted(results)
        for name, result in results.items():
            payload = json.loads(result.to_json())["payload"]
            assert _wire_skeleton(payload) == golden[name], name

    def test_characterization_numpy_fields_survive(self, results):
        result = results["characterization"]
        restored = StudyResult.from_json(result.to_json())
        for new, old in zip(restored.sweep.points, result.sweep.points):
            assert new.delay_rise_s == old.delay_rise_s
            assert new.energy_per_cycle_j == old.energy_per_cycle_j
        assert (restored.sweep.grid("worst_delay_s")
                == result.sweep.grid("worst_delay_s")).all()

    def test_json_text_deterministic(self):
        assert run_fig3_nand3().to_json() == run_fig3_nand3().to_json()

    def test_fulladder_serializes_summaries_not_artifacts(self, results):
        result = results["fig8"]
        assert result.flow_results is not None
        restored = StudyResult.from_json(result.to_json())
        assert restored.flow_results is None
        assert restored.flow_summaries == result.flow_summaries
        assert isinstance(restored.flow_summaries[1], FlowSummary)
        assert restored.flow_summaries[1].gds_sha256 \
            == result.flow_results[1].summarize().gds_sha256
        # to_dict() of a deserialized result exposes the summaries instead.
        assert restored.to_dict()["flow_results"] == result.flow_summaries

    def test_from_dict_accepts_live_payloads(self):
        result = run_fig3_nand3()
        rebuilt = Fig3Result.from_dict(result.to_dict())
        assert rebuilt.to_dict() == result.to_dict()

    def test_from_json_dispatch_rejects_wrong_type(self):
        text = run_fig3_nand3().to_json()
        assert isinstance(Fig3Result.from_json(text), Fig3Result)
        with pytest.raises(StudyError):
            Fig7Result.from_json(text)

    def test_forward_compatible_provenance(self):
        """Unknown provenance fields (newer writers) are tolerated; broken
        provenance blocks raise StudyError, never a raw TypeError."""
        import json

        document = json.loads(run_fig3_nand3().to_json())
        document["provenance"]["added_in_v2"] = "future"
        restored = StudyResult.from_json_dict(document)
        assert restored.provenance.study == "fig3"
        document["provenance"] = {"params": {}}  # missing required 'study'
        with pytest.raises(StudyError):
            StudyResult.from_json_dict(document)
        document["provenance"] = "not an object"
        with pytest.raises(StudyError):
            StudyResult.from_json_dict(document)

    def test_cli_payload_matches_to_dict(self, results):
        """`--json` emits exactly the encoded legacy payload."""
        import json

        result = results["fig7"]
        document = json.loads(result.to_json())
        assert _deep_equal(decode(document["payload"]), result.to_dict())


# ---------------------------------------------------------------------------
# Registry + provenance
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_all_studies_listed(self):
        names = {definition.name for definition in list_studies()}
        assert {"table1", "fig2", "fig3", "fig4", "fig7", "fig8", "edp"} <= names

    def test_aliases_resolve(self):
        assert get_study("fulladder").name == "fig8"
        assert get_study("FIG7").name == "fig7"

    def test_run_study_typed_and_validated(self):
        result = run_study("fig3", unit_width=4.0)
        assert isinstance(result, Fig3Result)
        with pytest.raises(StudyError):
            run_study("fig3", bogus_parameter=1)
        with pytest.raises(StudyError):
            run_study("does_not_exist")

    @pytest.mark.parametrize("study, params, message", [
        ("fig7", {"max_tubes": 0}, "max_tubes"),
        ("pitch", {"steps": 1}, "steps"),
        ("fo4_transient", {"tube_counts": ()}, "tube_counts"),
    ])
    def test_out_of_range_parameters_raise_study_error(self, study, params,
                                                       message):
        with pytest.raises(StudyError, match=message):
            run_study(study, **params)

    def test_provenance_config_hash(self):
        first = run_study("fig3")
        second = run_study("fig3")
        different = run_study("fig3", unit_width=6.0)
        assert first.provenance.config_hash == second.provenance.config_hash
        assert first.provenance.config_hash != different.provenance.config_hash
        assert first.provenance.study == "fig3"
        assert first.provenance.package_version

    def test_provenance_records_seed_and_engine(self):
        result = run_fig2_immunity(trials=10, seed=123)
        assert result.provenance.seed == 123
        assert result.provenance.engine == "batch"
        assert result.provenance.params["trials"] == 10
        assert "engine" not in result.provenance.params


# ---------------------------------------------------------------------------
# The unified sweep over both engines
# ---------------------------------------------------------------------------

class TestUnifiedSweep:
    def test_immunity_grid_matches_canonical_sweep(self):
        """Grid corners follow the canonical seed contract: one child of
        ``sweep_seed_root(seed)`` per cnts value, shared by techniques."""
        from repro.core.standard_cell import assemble_cell
        from repro.immunity.montecarlo import (run_immunity_trials,
                                               sweep_seed_root)
        from repro.logic.functions import standard_gate

        spec = SweepSpec.from_mapping({
            "cnts_per_trial": (2, 4),
            "technique": ("vulnerable", "compact"),
        })
        study = run_sweep_study(spec, engine="immunity", trials=30, seed=7)
        canonical_rates = {
            (cnts, technique): run_immunity_trials(
                assemble_cell(standard_gate("NAND2"), technique=technique),
                trials=30, cnts_per_trial=cnts, seed=child,
            ).failure_rate
            for cnts, child in zip((2, 4), sweep_seed_root(7).spawn(2))
            for technique in ("vulnerable", "compact")
        }
        assert len(study.records) == 4
        for record in study.records:
            corner = record.corner.as_dict()
            assert record.metrics["failure_rate"] == canonical_rates[
                (corner["cnts_per_trial"], corner["technique"])
            ]

    def test_immunity_zip_shares_populations_across_techniques(self):
        spec = SweepSpec.from_mapping(
            {"technique": ("vulnerable", "compact")}, mode="zip"
        )
        study = run_sweep_study(spec, engine="immunity", trials=30, seed=7)
        assert len(study.records) == 2
        vulnerable, compact = study.records
        assert vulnerable.metrics["failure_rate"] > 0.0
        assert compact.metrics["immune"] is True

    def test_transient_grid(self):
        spec = SweepSpec.from_mapping({"vdd": (0.9, 1.0)})
        study = run_sweep_study(spec, engine="transient", cell="INV")
        assert len(study.records) == 2
        for record in study.records:
            assert record.metrics["worst_delay_s"] > 0.0
            assert record.metrics["energy_per_cycle_j"] > 0.0
        # Lower supply is slower for the same cell/load.
        assert (study.records[0].metrics["worst_delay_s"]
                > study.records[1].metrics["worst_delay_s"])

    def test_unknown_axis_rejected(self):
        with pytest.raises(StudyError):
            run_sweep_study(
                SweepSpec.from_mapping({"nonsense": (1,)}), engine="immunity"
            )
        with pytest.raises(StudyError):
            run_sweep_study(
                SweepSpec.from_mapping({"vdd": (1.0,)}), engine="immunity"
            )

    def test_swept_and_fixed_axis_rejected(self, tmp_path):
        """A fixed value for a swept axis would be dropped from every
        corner yet still enter the fingerprint and provenance; it is
        rejected before the store is read."""
        spec = SweepSpec.from_mapping({"cnts_per_trial": (2, 4)})
        store = tmp_path / "store"
        with pytest.raises(StudyError, match=r"\['cnts_per_trial'\] are "
                                             r"both swept and fixed"):
            run_sweep_study(spec, engine="immunity", trials=5, seed=1,
                            cache=store, cnts_per_trial=8)
        assert not store.exists()

    def test_sweep_str_renders_scalar_columns(self):
        spec = SweepSpec.from_mapping({"cnts_per_trial": (2,)})
        study = run_sweep_study(spec, engine="immunity", trials=10, seed=7)
        text = str(study)
        assert "failure_rate" in text
        assert "MonteCarloResult" not in text


# ---------------------------------------------------------------------------
# FlowReport hardening (satellite)
# ---------------------------------------------------------------------------

def _degenerate_report() -> FlowReport:
    empty_placement = PlacementResult(
        design_name="broken", style="row", placed=[],
        core_width=0.0, core_height=0.0,
    )
    timing = PathTimingResult(
        critical_path_delay=0.0, critical_path=(),
        total_energy_per_cycle=0.0, arrival_times={},
    )
    return FlowReport(
        design_name="broken", scheme=1, gate_count=0, cell_usage={},
        placement=empty_placement, timing=timing,
        cmos_placement=empty_placement, cmos_timing=timing,
    )


class TestFlowReportHardening:
    def test_degenerate_core_area_raises(self):
        report = _degenerate_report()
        with pytest.raises(FlowError, match="degenerate CNFET placement"):
            report.area_gain_vs_cmos

    def test_degenerate_timing_raises(self):
        report = _degenerate_report()
        with pytest.raises(FlowError, match="critical-path delay"):
            report.delay_gain_vs_cmos
        with pytest.raises(FlowError, match="energy per cycle"):
            report.energy_gain_vs_cmos

    def test_summary_propagates_the_error(self):
        with pytest.raises(FlowError):
            _degenerate_report().summary()

    def test_healthy_flow_unaffected(self):
        from repro.flow import CNFETDesignKit, full_adder_netlist

        kit = CNFETDesignKit(gate_set=("INV", "NAND2"),
                             drive_strengths=(1.0, 2.0, 4.0))
        report = kit.run_flow(full_adder_netlist()).report
        assert report.area_gain_vs_cmos > 1.0
        assert report.delay_gain_vs_cmos > 1.0
        assert "area gain" in report.summary()
