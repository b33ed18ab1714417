"""The ``python -m repro`` CLI: list/run/sweep, JSON envelope, schema."""

import io
import json
import os
import subprocess
import sys

import pytest

from repro.analysis.experiments import run_fig3_nand3
from repro.errors import StudyError
from repro.obs import trace_counters
from repro.study import StudyResult, decode
from repro.study.cli import _parse_assignment, main
from repro.study.results import RESULT_SCHEMA

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA_PATH = os.path.join(REPO_ROOT, "docs", "repro_result.schema.json")
VALIDATOR_PATH = os.path.join(REPO_ROOT, "tools", "validate_repro_json.py")


def run_cli(*argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


class TestListCommand:
    def test_lists_every_figure(self):
        code, out, _ = run_cli("list")
        assert code == 0
        for name in ("table1", "fig2", "fig3", "fig4", "fig7", "fig8", "edp"):
            assert name in out

    def test_json_listing(self):
        code, out, _ = run_cli("list", "--json")
        assert code == 0
        studies = json.loads(out)
        assert {"name", "figure", "description", "aliases"} <= set(studies[0])


class TestRunCommand:
    def test_text_output_default(self):
        code, out, _ = run_cli("run", "fig3")
        assert code == 0
        assert "NAND3 compaction" in out

    def test_json_to_stdout_roundtrips(self):
        code, out, _ = run_cli("run", "fig3", "--json", "-")
        assert code == 0
        document = json.loads(out)
        assert document["schema"] == RESULT_SCHEMA
        assert document["study"] == "fig3"
        restored = StudyResult.from_json_dict(document)
        assert restored.to_dict() == run_fig3_nand3().to_dict()

    def test_json_payload_equals_legacy_dict(self):
        """Acceptance: the CLI emits the exact pre-redesign payload."""
        code, out, _ = run_cli("run", "fig3", "--json", "-")
        assert code == 0
        payload = decode(json.loads(out)["payload"])
        assert payload == run_fig3_nand3().to_dict()

    def test_json_to_file(self, tmp_path):
        target = tmp_path / "fig4.json"
        code, out, _ = run_cli("run", "fig4", "--json", str(target))
        assert code == 0
        document = json.loads(target.read_text())
        assert document["study"] == "fig4"

    def test_seed_and_trials_forwarded(self):
        code, out, _ = run_cli("run", "fig2", "--seed", "7", "--trials", "20",
                               "--json", "-")
        assert code == 0
        document = json.loads(out)
        assert document["provenance"]["seed"] == 7
        assert document["provenance"]["params"]["trials"] == 20

    def test_param_overrides(self):
        code, out, _ = run_cli("run", "fig3", "--param", "unit_width=6",
                               "--json", "-")
        assert code == 0
        assert json.loads(out)["provenance"]["params"]["unit_width"] == 6

    def test_alias_resolution(self):
        code, out, _ = run_cli("run", "nand3")
        assert code == 0
        assert "NAND3" in out

    def test_trailing_comma_makes_single_element_sequence(self):
        code, out, _ = run_cli("run", "fo4_transient",
                               "--param", "tube_counts=4,", "--json", "-")
        assert code == 0
        document = json.loads(out)
        assert document["provenance"]["params"]["tube_counts"] == {
            "__tuple__": [4]
        }
        restored = StudyResult.from_json_dict(document)
        assert restored.provenance.params["tube_counts"] == (4,)
        assert len(restored.sweep) == 1
        assert restored.sweep[0].num_tubes == 4

    def test_unknown_study_fails_cleanly(self):
        code, _, err = run_cli("run", "not_a_figure")
        assert code == 2
        assert "Unknown study" in err

    @pytest.mark.parametrize("study, param", [
        ("fig7", "max_tubes=0"), ("pitch", "steps=1"),
    ])
    def test_out_of_range_param_exits_2(self, study, param):
        code, _, err = run_cli("run", study, "--param", param)
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_seed_rejected_for_unseeded_study(self):
        code, _, err = run_cli("run", "fig3", "--seed", "1")
        assert code == 2
        assert "does not accept ['seed']" in err


class TestAssignmentParsing:
    @pytest.mark.parametrize("text, expected", [
        ("flag=true", True),
        ("flag=FALSE", False),
        ("opt=none", None),
        ("opt=Null", None),
        ("n=4", 4),
        ("x=0.5", 0.5),
        ("name=compact", "compact"),
        ("seq=4,", (4,)),
        ("seq=1,2.5,abc", (1, 2.5, "abc")),
        ("flags=true,false", (True, False)),
        ("mixed=1,none,TRUE", (1, None, True)),
    ])
    def test_literal_coercion(self, text, expected):
        key, value = _parse_assignment(text)
        assert value == expected
        assert type(value) is type(expected)

    @pytest.mark.parametrize("text", ["nonsense", "=3", "x=", "  =  ", ","])
    def test_malformed_raises_study_error(self, text):
        with pytest.raises(StudyError):
            _parse_assignment(text)

    @pytest.mark.parametrize("argv", [
        ("run", "fig3", "--param", "nonsense"),
        ("run", "fig3", "--param", "x="),
        ("run", "fig3", "--param", "=3"),
        ("sweep", "--axis", "cnts_per_trial=2", "--set", "nonsense"),
        ("sweep", "--axis", "cnts_per_trial=2", "--set", "x="),
    ])
    def test_malformed_values_exit_2_without_traceback(self, argv):
        """Satellite: malformed --param/--set values are a one-line
        `error:` message and exit code 2, never a traceback."""
        code, out, err = run_cli(*argv)
        assert code == 2
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_flag_named_in_message(self):
        _, _, err_param = run_cli("run", "fig3", "--param", "bad")
        assert "--param" in err_param
        _, _, err_set = run_cli("sweep", "--axis", "cnts_per_trial=2",
                                "--set", "bad")
        assert "--set" in err_set

    def test_none_literal_reaches_the_runner(self):
        code, out, _ = run_cli(
            "run", "characterization", "--param", "corners=none",
            "--param", "gates=INV,", "--param", "drive_strengths=1,",
            "--param", "load_capacitances_f=1e-15,", "--json", "-",
        )
        assert code == 0
        params = json.loads(out)["provenance"]["params"]
        # The literal was coerced to Python None, so the runner resolved
        # its default corner map instead of choking on the string "none".
        assert params["corners"] != "none"
        assert params["gates"] == {"__tuple__": ["INV"]}


class TestRuntimeFlags:
    def test_cache_miss_then_hit(self, tmp_path):
        store = str(tmp_path / "store")
        code, out, err = run_cli("run", "fig3", "--json", "-",
                                 "--cache", store)
        assert code == 0
        first = json.loads(out)
        assert first["provenance"]["cache"] == "miss"
        assert "cache miss" in err
        code, out, err = run_cli("run", "fig3", "--json", "-",
                                 "--cache", store)
        assert code == 0
        second = json.loads(out)
        assert second["provenance"]["cache"] == "hit"
        assert "cache hit" in err
        assert first["payload"] == second["payload"]

    def test_env_var_enables_and_no_cache_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envstore"))
        code, out, _ = run_cli("run", "fig3", "--json", "-")
        assert json.loads(out)["provenance"]["cache"] == "miss"
        code, out, _ = run_cli("run", "fig3", "--json", "-", "--no-cache")
        assert json.loads(out)["provenance"]["cache"] is None

    def test_cache_stats_reports_the_hit(self, tmp_path):
        store = str(tmp_path / "store")
        counters = []
        for run in ("cold", "warm"):
            trace = str(tmp_path / f"{run}.json")
            run_cli("run", "fig3", "--json", "-", "--cache", store,
                    "--trace", trace)
            with open(trace, encoding="utf-8") as stream:
                counters.append(trace_counters(json.load(stream)))
        assert counters == [{"cache.misses": 1, "cache.puts": 1},
                            {"cache.hits": 1}]
        code, out, _ = run_cli("cache", "stats", "--cache", store)
        assert code == 0
        assert "entries      : 1" in out
        assert "hits" not in out
        code, out, _ = run_cli("cache", "stats", "--cache", store, "--json")
        stats = json.loads(out)
        assert stats["entries"] == 1 and stats["by_study"] == {"fig3": 1}

    def test_cache_prune(self, tmp_path):
        store = str(tmp_path / "store")
        run_cli("run", "fig3", "--json", "-", "--cache", store)
        code, out, _ = run_cli("cache", "prune", "--cache", store)
        assert code == 0
        assert "pruned 1 entry" in out

    def test_incremental_sweep_is_the_default_with_a_cache(self, tmp_path):
        store = str(tmp_path / "store")
        base = ("sweep", "--engine", "immunity",
                "--trials", "15", "--seed", "7", "--json", "-",
                "--cache", store)
        code, _, err = run_cli(*base, "--axis", "cnts_per_trial=2,4")
        assert code == 0
        assert "cache miss" in err
        code, out, err = run_cli(*base, "--axis", "cnts_per_trial=2,4,8")
        assert code == 0
        assert "cache partial:2/3" in err
        merged = json.loads(out)
        merged["provenance"]["cache"] = None
        code, cold, _ = run_cli(
            "sweep", "--engine", "immunity", "--trials", "15",
            "--seed", "7", "--json", "-",
            "--axis", "cnts_per_trial=2,4,8")
        assert code == 0
        assert merged["payload"] == json.loads(cold)["payload"]

    def test_cache_stats_reports_corner_counters(self, tmp_path):
        store = str(tmp_path / "store")
        trace = str(tmp_path / "trace.json")
        run_cli("sweep", "--engine", "immunity",
                "--axis", "cnts_per_trial=2,4",
                "--trials", "15", "--seed", "7", "--json", "-",
                "--cache", store, "--trace", trace)
        with open(trace, encoding="utf-8") as stream:
            assert trace_counters(json.load(stream))[
                "cache.corner_misses"] == 2
        code, out, _ = run_cli("cache", "stats", "--cache", store)
        assert code == 0
        assert "corner entries : 2" in out
        code, out, _ = run_cli("cache", "stats", "--cache", store, "--json")
        stats = json.loads(out)
        assert stats["corner_entries"] == 2
        assert set(stats) == {"root", "entries", "total_bytes", "by_study",
                              "corner_entries", "corner_bytes"}

    def test_cache_prune_bounds(self, tmp_path):
        store = str(tmp_path / "store")
        run_cli("sweep", "--engine", "immunity",
                "--axis", "cnts_per_trial=2,4",
                "--trials", "15", "--seed", "7", "--json", "-",
                "--cache", store)
        code, out, _ = run_cli("cache", "prune", "--cache", store,
                               "--max-age", "3600")
        assert code == 0
        assert "pruned 0 entries" in out
        code, out, _ = run_cli("cache", "prune", "--cache", store,
                               "--max-entries", "1")
        assert code == 0
        assert "pruned 1 entry" in out     # 1 study kept, 1 of 2 corners cut
        code, out, _ = run_cli("cache", "prune", "--cache", store,
                               "--max-age", "0")
        assert code == 0
        assert "pruned 2 entries" in out

    def test_cache_prune_rejects_negative_bounds(self, tmp_path):
        store = str(tmp_path / "store")
        for flag, value in (("--max-age", "-1"), ("--max-entries", "-5")):
            code, _, err = run_cli("cache", "prune", "--cache", store,
                                   flag, value)
            assert code == 2
            assert err.startswith("error:")
            assert flag in err

    def test_sweep_jobs_matches_serial_output(self):
        argv = ("sweep", "--engine", "immunity",
                "--axis", "technique=vulnerable,compact",
                "--trials", "15", "--seed", "7", "--json", "-")
        _, serial, _ = run_cli(*argv)
        _, sharded, _ = run_cli(*argv, "--jobs", "2")
        assert json.loads(serial)["payload"] == json.loads(sharded)["payload"]

    def test_sweep_backend_flag_exits_2(self, capsys):
        """There is no backend option: ``--backend`` is an unknown flag,
        refused before anything runs."""
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--engine", "immunity",
                  "--axis", "technique=vulnerable,compact",
                  "--trials", "15", "--seed", "7", "--jobs", "2",
                  "--backend", "thread"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "--backend" in captured.err
        assert captured.out == ""

    def test_batch_command_dedups_and_hits(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([
            {"study": "fig3"},
            {"study": "fig3"},
        ]))
        store = str(tmp_path / "store")
        code, out, _ = run_cli("batch", str(manifest), "--cache", store)
        assert code == 0
        assert "dedup" in out and "miss" in out
        code, out, _ = run_cli("batch", str(manifest), "--cache", store)
        assert code == 0
        assert "1 hits" in out
        code, out, _ = run_cli("batch", str(manifest), "--cache", store,
                               "--json", "-")
        document = json.loads(out)
        assert document["study"] == "manifest"

    def test_batch_missing_manifest_fails_cleanly(self, tmp_path):
        code, _, err = run_cli("batch", str(tmp_path / "absent.json"))
        assert code == 2
        assert err.startswith("error: ")


class TestSweepCommand:
    def test_immunity_sweep_json(self):
        code, out, _ = run_cli(
            "sweep", "--engine", "immunity",
            "--axis", "cnts_per_trial=2,4",
            "--axis", "technique=vulnerable,compact",
            "--trials", "20", "--seed", "7", "--json", "-",
        )
        assert code == 0
        document = json.loads(out)
        assert document["study"] == "sweep"
        restored = StudyResult.from_json_dict(document)
        assert len(restored.records) == 4
        assert restored.engine == "immunity"

    def test_transient_sweep_with_fixed_values(self):
        code, out, _ = run_cli(
            "sweep", "--engine", "transient",
            "--axis", "vdd=0.9,1.0", "--set", "cell=INV", "--json", "-",
        )
        assert code == 0
        restored = StudyResult.from_json_dict(json.loads(out))
        assert len(restored.records) == 2
        assert all(r.metrics["worst_delay_s"] > 0 for r in restored.records)

    def test_bad_axis_fails_cleanly(self):
        code, _, err = run_cli("sweep", "--axis", "nonsense=1,2")
        assert code == 2
        assert "does not understand axes" in err

    def test_swept_and_fixed_axis_fails_cleanly(self):
        code, out, err = run_cli(
            "sweep", "--axis", "cnts_per_trial=2,4",
            "--set", "cnts_per_trial=8", "--trials", "5", "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "both swept and fixed" in err

    def test_transient_sweep_rejects_seed_and_trials(self):
        code, _, err = run_cli(
            "sweep", "--engine", "transient", "--axis", "vdd=0.9,1.0",
            "--seed", "42",
        )
        assert code == 2
        assert "takes no --seed/--trials" in err


class TestSchemaValidation:
    @pytest.mark.parametrize("study", ["fig3", "table1"])
    def test_cli_output_validates_against_checked_in_schema(self, study):
        _, out, _ = run_cli("run", study, "--json", "-")
        process = subprocess.run(
            [sys.executable, VALIDATOR_PATH, SCHEMA_PATH, "-"],
            input=out, capture_output=True, text=True,
        )
        assert process.returncode == 0, process.stderr

    def test_validator_rejects_broken_documents(self):
        process = subprocess.run(
            [sys.executable, VALIDATOR_PATH, SCHEMA_PATH, "-"],
            input=json.dumps({"schema": "wrong", "study": "fig3"}),
            capture_output=True, text=True,
        )
        assert process.returncode == 1
        assert "invalid" in process.stderr

    def test_module_entry_point(self):
        """`python -m repro list` works headlessly."""
        env = dict(os.environ)
        src = os.path.join(REPO_ROOT, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        )
        assert process.returncode == 0, process.stderr
        assert "fig7" in process.stdout
