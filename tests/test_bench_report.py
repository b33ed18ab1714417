"""``tools/bench_report.py``: the snapshot diff and its floor gate.

The tool is a standalone script, so it is loaded by path.  A relative
change is printed only between runs of one set of ``params``; the exit
status is the current run's floor verdict either way.
"""

import importlib.util
import io
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL_PATH = os.path.join(REPO_ROOT, "tools", "bench_report.py")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("_bench_report", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def envelope(params, cold, floor=None, speedup=4.0):
    return {
        "schema": "repro-bench/v1",
        "name": "circuit_study",
        "params": params,
        "wall_seconds": {"cold": cold},
        "ns_per_unit": {"unit": "instance", "cold": cold * 1e9},
        "floor": floor,
        "speedup": speedup,
    }


def report(tool, current, snapshot):
    out = io.StringIO()
    return tool.report(current, snapshot, out), out.getvalue()


FULL = {"circuit": "adder:8", "trials": 150}
SMOKE = {"circuit": "adder:2", "trials": 16}


def test_equal_params_show_the_change(tool):
    code, text = report(tool, envelope(FULL, 0.12), envelope(FULL, 0.10))
    assert code == 0
    assert "(+20.0%)" in text
    assert "not compared" not in text


def test_different_params_show_no_percentage(tool):
    code, text = report(tool, envelope(SMOKE, 0.02), envelope(FULL, 0.10))
    assert code == 0
    assert "%" not in text
    assert text.count("params differ; not compared") == 2
    assert "snapshot=0.1s current=0.02s" in text


@pytest.mark.parametrize("params", [FULL, SMOKE])
@pytest.mark.parametrize("speedup, expected", [(4.0, 0), (2.0, 1)])
def test_floor_sets_the_exit_status(tool, params, speedup, expected):
    current = envelope(params, 0.1, floor=3.0, speedup=speedup)
    code, text = report(tool, current, envelope(FULL, 0.1))
    assert code == expected
    assert ("REGRESSION" in text) == bool(expected)
