"""Static instrumentation for Kremlin.

The paper implements this stage as LLVM passes (§3, *Static
Instrumentation*): region instrumentation uncovers the program's loop and
function structure, and critical-path instrumentation inserts the calls that
drive shadow-memory timestamp propagation. Here, lowering from MiniC emits
``region_enter``/``region_exit`` markers directly (it knows the loop
structure exactly), and :func:`instrument_module` attaches per-instruction
costs, control-dependence sources, and the analyzer's induction/reduction
flags — the static metadata the KremLib runtime consumes.
"""

from repro.instrument.compile import CompiledProgram, kremlin_cc
from repro.instrument.costs import CostModel, DEFAULT_COST_MODEL
from repro.instrument.passes import instrument_module
from repro.instrument.regions import RegionKind, StaticRegion, StaticRegionTree

__all__ = [
    "CompiledProgram",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "RegionKind",
    "StaticRegion",
    "StaticRegionTree",
    "instrument_module",
    "kremlin_cc",
]
