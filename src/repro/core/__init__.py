"""The paper's core contribution: compact imperfection-immune CNFET layouts."""

from .area import (
    PAPER_TABLE1,
    TABLE1_CELLS,
    TABLE1_WIDTHS,
    AreaComparisonRow,
    CellAreaGain,
    NetworkAreas,
    area_saving,
    baseline_network_areas,
    compact_network_areas,
    format_table1,
    inverter_area_gain,
    table1,
)
from .column import (
    ColumnElement,
    ContactElement,
    EtchElement,
    GateElement,
    build_column,
    column_stack_height,
)
from .compact import (
    CompactPlan,
    compact_network_height,
    compact_network_layout,
    plan_compact_network,
)
from .grid import baseline_network_layout, vulnerable_network_layout
from .sizing import (
    CellSizing,
    leaf_width_factors,
    series_depth,
    size_gate,
    width_map_for_network,
)
from .spec import (
    ActiveRegion,
    CellAnnotations,
    ContactRegion,
    EtchRegion,
    GateRegion,
    NetworkLayoutResult,
    attach_annotations,
    get_annotations,
)
from .standard_cell import (
    SCHEME_SIDE_BY_SIDE,
    SCHEME_STACKED,
    CMOSCellArea,
    StandardCell,
    assemble_cell,
    cmos_cell_area,
)

__all__ = [
    "PAPER_TABLE1", "TABLE1_CELLS", "TABLE1_WIDTHS",
    "AreaComparisonRow", "CellAreaGain", "NetworkAreas",
    "area_saving", "baseline_network_areas",
    "compact_network_areas", "format_table1", "inverter_area_gain", "table1",
    "ColumnElement", "ContactElement", "EtchElement", "GateElement",
    "build_column", "column_stack_height",
    "CompactPlan", "compact_network_height", "compact_network_layout",
    "plan_compact_network",
    "baseline_network_layout", "vulnerable_network_layout",
    "CellSizing", "leaf_width_factors", "series_depth",
    "size_gate", "width_map_for_network",
    "ActiveRegion", "CellAnnotations", "ContactRegion", "EtchRegion",
    "GateRegion", "NetworkLayoutResult", "attach_annotations", "get_annotations",
    "SCHEME_SIDE_BY_SIDE", "SCHEME_STACKED", "CMOSCellArea", "StandardCell",
    "assemble_cell", "cmos_cell_area",
]
