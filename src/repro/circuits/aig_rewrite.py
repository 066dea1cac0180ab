"""A placeholder for the deleted DAG-aware AIG rewriting pass.

Lowering is structural hashing plus pattern emission
(:func:`repro.circuits.bitblast.bitblast`); nothing in ``repro`` imports
this module.  It stays until the repository benchmark (``perfbench/``)
stops naming it: its cold-start probe calls :func:`load_library` and its
tracer wraps :func:`optimize_netlist_aig`.
"""


def load_library() -> dict:
    """There is no resynthesis library: an empty mapping."""
    return {}


def optimize_netlist_aig(lowered, stats=None):
    """The identity: ``lowered`` is returned unchanged."""
    return lowered
