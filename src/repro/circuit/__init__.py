"""Circuit substrate: netlists, simulation, FO4 analysis, timing models."""

from .extraction import (
    ExtractionParameters,
    ExtractionReport,
    NetParasitics,
    ParasiticExtractor,
)
from .fo4 import (
    DELAY_FIT_CONSTANT,
    FO4Comparison,
    FO4Metrics,
    compare_fo4,
    fo4_load_capacitance,
    fo4_metrics,
    fo4_transient_sweep,
)
from .inverter import Inverter, cmos_inverter, cnfet_inverter
from .logical_effort import (
    CellTimingModel,
    PathTimingResult,
    TimingLibrary,
    analyse_netlist,
)
from .netlist import (
    GND,
    VDD,
    CapacitorInstance,
    GateInstance,
    GateNetlist,
    TransistorInstance,
    TransistorNetlist,
)
from .simulator import (
    CompiledTransientBatch,
    PiecewiseLinearSource,
    SimulationCase,
    TransientResult,
    build_inverter_chain,
    constant_source,
    first_crossings,
    pulse_source,
    run_transient_batch,
    stability_substep,
    step_source,
    waveform_block,
)
from .spice_writer import save_spice, write_spice

__all__ = [
    "ExtractionParameters", "ExtractionReport", "NetParasitics", "ParasiticExtractor",
    "DELAY_FIT_CONSTANT", "FO4Comparison", "FO4Metrics", "compare_fo4",
    "fo4_load_capacitance", "fo4_metrics", "fo4_transient_sweep",
    "Inverter", "cmos_inverter", "cnfet_inverter",
    "CellTimingModel", "PathTimingResult", "TimingLibrary", "analyse_netlist",
    "GND", "VDD", "CapacitorInstance", "GateInstance", "GateNetlist",
    "TransistorInstance", "TransistorNetlist",
    "CompiledTransientBatch", "PiecewiseLinearSource",
    "SimulationCase", "TransientResult",
    "build_inverter_chain", "constant_source", "first_crossings",
    "pulse_source", "run_transient_batch", "stability_substep",
    "step_source", "waveform_block",
    "save_spice", "write_spice",
]
