"""repro — reproduction of "Design of Compact Imperfection-Immune CNFET
Layouts for Standard-Cell-Based Logic Synthesis" (Bobba et al., DATE 2009).

The package is organised as:

* :mod:`repro.core` — the paper's contribution: Euler-path compact
  misaligned-CNT-immune layouts, the baseline/vulnerable references, area
  models and standard-cell assembly (schemes 1 and 2);
* :mod:`repro.immunity` — the mispositioned-CNT Monte Carlo analysis;
* :mod:`repro.devices` / :mod:`repro.circuit` — CNFET and 65 nm MOSFET
  compact models, transient simulation, FO4 analysis, gate-level timing;
* :mod:`repro.cells` / :mod:`repro.flow` — the CNFET Design Kit: standard
  cell library, Liberty export, technology mapping, placement and GDSII;
* :mod:`repro.tech` / :mod:`repro.geometry` / :mod:`repro.logic` /
  :mod:`repro.euler` — the supporting substrates;
* :mod:`repro.analysis` — the experiment runners that regenerate every
  table and figure of the paper's evaluation.

* :mod:`repro.study` — the typed Study layer: one sweep abstraction over
  both engines, frozen serializable results with provenance, the study
  registry and the ``python -m repro`` CLI;

* :mod:`repro.runtime` — the runtime layer: the deterministic parallel
  scheduler (``jobs=``/``workers=`` everywhere lower onto one pool), the
  content-addressed on-disk result cache, and the ``repro batch``
  manifest runner with cross-study dedup;

* :mod:`repro.lint` — reprolint, the dependency-free AST linter that
  machine-checks the repo's determinism/seeding/runtime contracts
  (``python -m repro.lint src``);

* :mod:`repro.service` — the async study service: ``python -m repro
  serve`` exposes an HTTP job API (submit/poll/fetch/cancel) over the
  runtime layer, deduplicating identical concurrent submissions onto
  one engine run by content fingerprint.  Stdlib only.

The package root resolves its re-exports **lazily** (PEP 562): merely
importing :mod:`repro` pulls in no NumPy and no engine code, so
stdlib-only surfaces — ``python -m repro.lint`` above all — work in a
bare interpreter.  ``from repro import run_study`` still works exactly
as before; the submodule import simply happens at first attribute use.

Quickstart::

    from repro import assemble_cell, standard_gate, CNFETDesignKit
    from repro.flow import full_adder_netlist

    cell = assemble_cell(standard_gate("NAND3"), scheme=2)
    kit = CNFETDesignKit(scheme=1)
    result = kit.run_flow(full_adder_netlist())
    print(result.report.summary())

Study API::

    from repro import run_study, SweepSpec, run_sweep_study

    fig7 = run_study("fig7")            # typed Fig7Result
    print(fig7)                         # renders the paper's table
    fig7.to_json("fig7.json")           # lossless round-trip
    spec = SweepSpec.parse(["cnts_per_trial=2,4,8"])
    sweep = run_sweep_study(spec, engine="immunity", trials=500)

Runtime layer::

    from repro import ResultCache, run_sweep_study, run_manifest

    cache = ResultCache(".repro-cache")
    fast = run_sweep_study(spec, trials=500, jobs=4, cache=cache)  # sharded
    warm = run_sweep_study(spec, trials=500, jobs=4, cache=cache)  # cache hit
    assert warm == fast and warm.provenance.cache == "hit"
    batch = run_manifest("manifest.json", cache=cache, jobs=4)
"""

import importlib

from .errors import ReproError, StudyError

__version__ = "0.2.0"

#: Re-exported name -> the submodule that defines it.  Resolution is
#: lazy (module ``__getattr__`` below), so ``import repro`` stays free
#: of NumPy and engine code until a name is actually used.
_EXPORTS = {
    # experiment runners (typed results)
    "run_fig7_fo4": ".analysis",
    "run_fulladder_case_study": ".analysis",
    "run_table1": ".analysis",
    # cells / circuit
    "StandardCellLibrary": ".cells",
    "build_library": ".cells",
    "cmos_inverter": ".circuit",
    "cnfet_inverter": ".circuit",
    "compare_fo4": ".circuit",
    "fo4_metrics": ".circuit",
    # core layouts
    "StandardCell": ".core",
    "assemble_cell": ".core",
    "baseline_network_layout": ".core",
    "compact_network_layout": ".core",
    "inverter_area_gain": ".core",
    "table1": ".core",
    "vulnerable_network_layout": ".core",
    # devices
    "CNFET": ".devices",
    "MOSFET": ".devices",
    "calibrated_cnfet_parameters": ".devices",
    "paper_anchors": ".devices",
    # flow
    "CNFETDesignKit": ".flow",
    "full_adder_netlist": ".flow",
    "parse_structural_verilog": ".flow",
    # immunity
    "compare_techniques": ".immunity",
    "run_immunity_trials": ".immunity",
    # logic
    "GateNetworks": ".logic",
    "parse_expression": ".logic",
    "standard_gate": ".logic",
    # the runtime layer
    "ResultCache": ".runtime",
    "run_manifest": ".runtime",
    # the service layer
    "JobManager": ".service",
    "JobSubmission": ".service",
    "ReproService": ".service",
    # the Study layer
    "Corner": ".study",
    "Provenance": ".study",
    "StudyResult": ".study",
    "SweepSpec": ".study",
    "get_study": ".study",
    "list_studies": ".study",
    "parse_axis": ".study",
    "run_study": ".study",
    "run_sweep_study": ".study",
    # tech
    "CMOS_RULES": ".tech",
    "CNFET_RULES": ".tech",
    "cmos65_node": ".tech",
    "cnfet65_node": ".tech",
}

__all__ = sorted(_EXPORTS) + ["ReproError", "StudyError", "__version__"]


def __getattr__(name):
    """PEP 562 lazy re-export: import the defining submodule on first use."""
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    module = importlib.import_module(module_name, __name__)
    value = getattr(module, name)
    globals()[name] = value          # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
