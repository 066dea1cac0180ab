"""``repro.eval`` — regeneration of the paper's tables, figures and ablations."""

from .workloads import (
    TABLE1_WIDTHS,
    Workload,
    make_workload,
    table1_workload,
    table2_workloads,
)
from .runner import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_TIME_BUDGET,
    CellSpec,
    Measurement,
    Row,
    render_table,
    run_cell,
    run_cells,
    run_rows,
)
from .scenarios import (
    Scenario,
    available_scenarios,
    build_scenario,
    get_scenario,
    register_scenario,
    unregister_scenario,
)
from . import ablations, scenarios, table1, table2

__all__ = [name for name in dir() if not name.startswith("_")]
