"""Static analyses over the IR.

These passes play the role of LLVM's analyses in the paper's toolchain:
dominators and natural loops (region structure validation), postdominators
and control dependence (the static half of Kremlin's control-dependence
tracking, §4.1). Induction and reduction detection over the IR lives in
the dependence analyzer (:mod:`~repro.analysis.dependence`); the
dependence-breaking marks HCPA consumes come from lowering
(:mod:`repro.lowering.dep_break`).

On top of that scaffolding sits the static loop-dependence analyzer
(:mod:`~repro.analysis.dataflow`, :mod:`~repro.analysis.dependence`,
:mod:`~repro.analysis.verdict`) and the lint framework
(:mod:`~repro.analysis.lint`), driven per-module by
:func:`~repro.analysis.driver.analyze_module`. The analyzer confirms,
refutes, or qualifies every region the dynamic planner ranks — see
docs/ANALYSIS.md.
"""

from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.cfg import (
    postorder,
    predecessor_map,
    reachable_blocks,
    reverse_postorder,
)
from repro.analysis.control_dependence import (
    ControlDependenceInfo,
    compute_control_dependence,
)
from repro.analysis.dataflow import (
    Definition,
    ReachingDefinitions,
    definitions_in_loop,
    upward_exposed_registers,
)
from repro.analysis.dependence import (
    DepClass,
    LoopDependenceInfo,
    analyze_function_dependences,
    may_alias,
)
from repro.analysis.dominators import (
    DominatorTree,
    dominator_tree,
    postdominator_tree,
)
from repro.analysis.driver import (
    FunctionAnalysis,
    ModuleAnalysis,
    analyze_module,
    analyze_program,
)
from repro.analysis.lint import (
    RULES,
    Diagnostic,
    LintContext,
    Severity,
    rule,
    run_lint,
)
from repro.analysis.loops import Loop, LoopForest, find_natural_loops
from repro.analysis.static_cost import (
    Interval,
    RegionCost,
    compute_static_costs,
    costs_to_json,
    trip_interval,
)
from repro.analysis.summaries import (
    AccessRecord,
    FunctionSummary,
    ParamAffine,
    compute_module_summaries,
    summaries_to_json,
)
from repro.analysis.verdict import (
    UNKNOWN_TAG,
    DependenceWitness,
    RegionVerdict,
    Verdict,
    tag_is_safe,
    tag_rank,
    tag_reduction_vars,
    tag_refutes_doall,
    tag_verdict,
)

__all__ = [
    "RULES",
    "UNKNOWN_TAG",
    "AccessRecord",
    "CallGraph",
    "ControlDependenceInfo",
    "Definition",
    "DepClass",
    "DependenceWitness",
    "Diagnostic",
    "DominatorTree",
    "FunctionAnalysis",
    "FunctionSummary",
    "Interval",
    "LintContext",
    "Loop",
    "LoopDependenceInfo",
    "LoopForest",
    "ModuleAnalysis",
    "ParamAffine",
    "ReachingDefinitions",
    "RegionCost",
    "RegionVerdict",
    "Severity",
    "Verdict",
    "analyze_function_dependences",
    "analyze_module",
    "analyze_program",
    "build_call_graph",
    "compute_control_dependence",
    "compute_module_summaries",
    "compute_static_costs",
    "costs_to_json",
    "definitions_in_loop",
    "dominator_tree",
    "find_natural_loops",
    "may_alias",
    "postdominator_tree",
    "postorder",
    "predecessor_map",
    "reachable_blocks",
    "reverse_postorder",
    "rule",
    "run_lint",
    "summaries_to_json",
    "tag_is_safe",
    "tag_rank",
    "tag_reduction_vars",
    "tag_refutes_doall",
    "tag_verdict",
    "trip_interval",
    "upward_exposed_registers",
]
