"""Lowering from the MiniC AST to the register IR.

This stage also performs the front-end half of Kremlin's static
instrumentation: it builds the static region tree (one region per function,
loop, and loop body) and emits ``region_enter``/``region_exit`` markers.
The induction and reduction marks of the dependence-breaking shadow rule
(paper §4.1) are put on the IR later, by the analyzer
(:func:`repro.analysis.dependence.mark_dependence_breaks`).
"""

from repro.lowering.lower import lower_program

__all__ = ["lower_program"]
