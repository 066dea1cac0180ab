"""``repro.retiming`` — conventional retiming: graphs, algorithms, netlist rewriting."""

from .graph import HOST, Edge, RetimingGraph, RetimingGraphError, graph_from_netlist, lags_from_cut
from .leiserson_saxe import RetimingInfeasible, feasible_clock_period, min_period_retiming
from .apply import RetimingApplyError, apply_forward_retiming, forward_retimable_cells
from .cuts import maximal_forward_cut, sized_forward_cut

__all__ = [name for name in dir() if not name.startswith("_")]
