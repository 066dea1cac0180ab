"""``repro.circuits`` — netlists, the AIG IR, simulation, bit-blasting and
generators."""

from .aig import (
    Aig,
    AigError,
    NetlistAig,
    aig_to_netlist,
    lower_combinational,
    netlist_to_aig,
)
from .cells import CellError, CellType, cell_type
from .netlist import Cell, Net, Netlist, NetlistError, Register
from .simulate import (
    SimulationError,
    Simulator,
    Trace,
    find_mismatch,
    outputs_equal,
    random_input_sequence,
    simulate,
)
from .bitblast import BitblastError, BitblastResult, bit_name, bitblast
from . import generators

__all__ = [name for name in dir() if not name.startswith("_")]
