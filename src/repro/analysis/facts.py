"""The analysis facts of one compile, built once and shared.

Per function: reaching definitions, the natural-loop forest (with its
dominator tree), the registers each loop writes and each loop's induction
variables; per module: the call graph and the mod/ref summaries. The
dependence-breaking marks, the instrumentation pass and the static
analyzer all read this one copy. Instrumentation only annotates
instructions, so the facts stay valid through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.dataflow import (
    Definition,
    ReachingDefinitions,
    definitions_in_loop,
)
from repro.analysis.dependence import (
    InductionVar,
    detect_load_invariant_inductions,
    detect_loop_inductions,
)
from repro.analysis.loops import Loop, LoopForest, find_natural_loops
from repro.analysis.summaries import FunctionSummary, compute_module_summaries
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.values import Register
from repro.obs.trace import get_tracer


@dataclass
class FunctionFacts:
    function: Function
    reaching: ReachingDefinitions
    forest: LoopForest
    #: registers written in each loop, with their in-loop definitions
    loop_defs: dict[Loop, dict[Register, list[Definition]]]
    inductions: dict[Loop, dict[Register, InductionVar]]
    #: each loop's scalar classes, filled in on first use
    scalar_classes: dict[Loop, dict] = field(default_factory=dict)


@dataclass
class ModuleFacts:
    functions: dict[str, FunctionFacts]
    graph: CallGraph
    summaries: dict[str, FunctionSummary]


def function_facts(
    function: Function, summaries: dict | None = None
) -> FunctionFacts:
    """The facts of one function; inductions whose step is invariant only
    through memory are added when the module's ``summaries`` are given."""
    reaching = ReachingDefinitions(function)
    forest = find_natural_loops(function)
    loop_defs = {loop: definitions_in_loop(reaching, loop) for loop in forest.loops}
    inductions = detect_loop_inductions(forest, reaching, loop_defs)
    facts = FunctionFacts(function, reaching, forest, loop_defs, inductions)
    if summaries is not None:
        detect_load_invariant_inductions(facts, summaries)
    return facts


def build_module_facts(module: Module) -> ModuleFacts:
    """Build every fact of ``module`` once, under ``dataflow`` and
    ``summaries`` spans. The summaries take the inductions' value
    intervals; inductions whose step is invariant only through memory
    need the summaries in turn, so they come last."""
    tracer = get_tracer()
    with tracer.span("dataflow"):
        functions = {
            name: function_facts(function)
            for name, function in module.functions.items()
        }
    with tracer.span("summaries") as span:
        graph = build_call_graph(module)
        summaries = compute_module_summaries(
            module,
            graph,
            reaching={name: f.reaching for name, f in functions.items()},
            inductions={name: f.inductions for name, f in functions.items()},
        )
        span.args["functions"] = len(summaries)
        for facts in functions.values():
            detect_load_invariant_inductions(facts, summaries)
    return ModuleFacts(functions, graph, summaries)
