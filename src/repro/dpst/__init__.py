"""Dynamic Program Structure Tree (DPST).

The DPST (Raman et al., PLDI 2012 -- the SPD3 race detector) is an ordered
tree that captures the series-parallel structure of a task parallel
execution:

* **step** nodes are maximal instruction sequences without task-management
  constructs; they are always leaves and every memory access belongs to one;
* **async** nodes represent spawned tasks that run asynchronously with the
  remainder of their parent;
* **finish** nodes represent scopes that wait for all spawned descendants.

Two step nodes can logically execute in parallel iff the immediate child of
their least common ancestor that is an ancestor of the *left* step is an
async node (see :mod:`repro.dpst.relation`).

Two interchangeable implementations are provided, mirroring the paper's
Figure 14 ablation:

* :class:`~repro.dpst.linked.LinkedDPST` -- classic pointer-based nodes;
* :class:`~repro.dpst.array.ArrayDPST`   -- the paper's optimized layout, a
  linear array of nodes with parent *indices* instead of pointers.

Both satisfy the :class:`~repro.dpst.base.DPSTBase` interface, and three
registered parallelism engines answer (optionally cached) series-parallel
queries over either -- see :mod:`repro.dpst.engines` for the
:class:`~repro.dpst.engines.ParallelismEngine` protocol and the
``register_engine`` / ``available_engines`` / ``make_engine`` registry.
"""

from repro.dpst.nodes import NodeKind, ROOT_ID, NULL_ID
from repro.dpst.base import DPSTBase
from repro.dpst.linked import LinkedDPST
from repro.dpst.array import ArrayDPST
from repro.dpst.stats import EngineStats
from repro.dpst.engines import (
    ParallelismEngine,
    UnknownEngineError,
    available_engines,
    engine_name_of,
    make_engine,
    register_engine,
)
from repro.dpst.lca import LCAEngine
from repro.dpst.vclock import VectorClockEngine
from repro.dpst.depa import DePaEngine
from repro.dpst.relation import lca, parallel, precedes, left_of

__all__ = [
    "EngineStats",
    "NodeKind",
    "ROOT_ID",
    "NULL_ID",
    "DPSTBase",
    "DePaEngine",
    "LinkedDPST",
    "ArrayDPST",
    "LCAEngine",
    "ParallelismEngine",
    "UnknownEngineError",
    "VectorClockEngine",
    "available_engines",
    "engine_name_of",
    "lca",
    "make_engine",
    "parallel",
    "precedes",
    "left_of",
    "register_engine",
]


def make_dpst(layout: str = "array") -> DPSTBase:
    """Create a DPST with the requested *layout* (``"array"`` | ``"linked"``)."""
    if layout == "array":
        return ArrayDPST()
    if layout == "linked":
        return LinkedDPST()
    raise ValueError(f"unknown DPST layout: {layout!r} (expected 'array' or 'linked')")
