"""Value golden: the SHA-256 of a fixed set of study envelopes.

``GOLDEN`` in ``test_sweep_engines.py`` pins cache addresses and
``fixtures/wire_format.json`` pins payload shapes; this file pins the
*values*.  Each case runs one study uncached and hashes its
``to_json_dict()`` with the provenance ``cache`` field removed (the read
outcome, not the result), serialised as compact, key-sorted JSON — the
same rule as the benchmark's ``digest``.  A refactor that means to keep
every number must leave every digest unchanged; a change that means to
move a number re-pins the fixture on purpose and says why:

    PYTHONPATH=src python tests/test_value_golden.py

Floating-point results may differ in the last bit across NumPy builds and
CPU architectures, so the fixture records the ``numpy.__version__`` and
``platform.machine()`` it was pinned on and the test skips elsewhere.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy
import pytest

from repro.study import run_study, run_sweep_study
from test_sweep_engines import SCENARIOS

FIXTURE = Path(__file__).parent / "fixtures" / "value_golden.json"


def _sweep(name):
    spec, engine, trials, seed, fixed = SCENARIOS[name]
    return run_sweep_study(spec, engine=engine, trials=trials, seed=seed,
                           **fixed)


#: ``name -> zero-argument callable`` producing one uncached result.
CASES = {
    "fig2": lambda: run_study("fig2", seed=7, trials=100),
    "fig7": lambda: run_study("fig7"),
    "transient-grid": lambda: _sweep("transient-grid"),
    "transient-zip": lambda: _sweep("transient-zip"),
    "immunity-zip": lambda: _sweep("immunity-zip"),
    "circuit": lambda: run_study("circuit", circuit="adder:2", trials=50,
                                 seed=7, draws=200),
}


def envelope_digest(result) -> str:
    """SHA-256 of ``result``'s envelope without ``provenance.cache``."""
    document = result.to_json_dict()
    document["provenance"] = {key: value for key, value
                              in document["provenance"].items()
                              if key != "cache"}
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _platform():
    return {"numpy": numpy.__version__, "machine": platform.machine()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_envelope_digest_is_pinned(name):
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    if golden["platform"] != _platform():
        pytest.skip(f"digests pinned on numpy {golden['platform']['numpy']} "
                    f"/ {golden['platform']['machine']}; this is numpy "
                    f"{numpy.__version__} / {platform.machine()}")
    assert sorted(golden["digests"]) == sorted(CASES)
    found = envelope_digest(CASES[name]())
    assert found == golden["digests"][name], (
        f"study {name!r} no longer reproduces its pinned envelope")


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {"platform": _platform(),
         "digests": {name: envelope_digest(run()) for name, run
                     in sorted(CASES.items())}},
        indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(FIXTURE.read_text(encoding="utf-8"))
