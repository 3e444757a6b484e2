"""``kremlin-cc``: the one-call compile-and-instrument driver.

``kremlin_cc(source)`` is the library equivalent of the paper's
``make CC=kremlin-cc``: parse → lower (regions) → verify → analysis facts
→ instrument (dependence-breaking marks, costs, control dependence) →
static analysis. The facts — reaching definitions, loop forests,
induction variables, mod/ref summaries — are built once and shared by
the marks, the instrumentation and the analyzer. The result bundles
everything the interpreter and the KremLib runtime need to execute and
profile the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import typing

from repro.analysis.facts import build_module_facts
from repro.frontend.parser import parse_program
from repro.instrument.costs import DEFAULT_COST_MODEL, CostModel
from repro.instrument.passes import ModuleInstrumentation, instrument_module
from repro.instrument.regions import StaticRegionTree
from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.lowering.lower import lower_program
from repro.obs.trace import get_tracer

if typing.TYPE_CHECKING:
    from repro.analysis.driver import ModuleAnalysis


@dataclass
class CompiledProgram:
    """An instrumented program, ready to run (with or without profiling)."""

    module: Module
    instrumentation: ModuleInstrumentation
    source: str
    filename: str
    #: static dependence analysis (verdicts + lint); None only when
    #: compiled with ``analyze=False``
    analysis: "ModuleAnalysis | None" = None

    @property
    def regions(self) -> StaticRegionTree:
        assert self.module.regions is not None
        return self.module.regions

    @property
    def cost_model(self) -> CostModel:
        return self.instrumentation.cost_model


def kremlin_cc(
    source: str,
    filename: str = "<input>",
    cost_model: CostModel = DEFAULT_COST_MODEL,
    analyze: bool = True,
) -> CompiledProgram:
    """Compile MiniC source into an instrumented, verified program.

    With ``analyze=True`` (the default) the static dependence analyzer
    runs after instrumentation and stamps DOALL-safety verdict tags onto
    the region tree; ``analyze=False`` skips it (e.g. for perf-sensitive
    callers that only execute the program).
    """
    from repro.analysis.driver import analyze_module

    tracer = get_tracer()
    with tracer.span("compile", file=filename):
        program = parse_program(source, filename)
        with tracer.span("lower"):
            module = lower_program(program)
        with tracer.span("verify"):
            verify_module(module)
        facts = build_module_facts(module)
        with tracer.span("instrument") as span:
            instrumentation = instrument_module(module, cost_model, facts)
            span.args["regions"] = len(module.regions)
        analysis = analyze_module(module, facts=facts) if analyze else None
    return CompiledProgram(
        module=module,
        instrumentation=instrumentation,
        source=source,
        filename=filename,
        analysis=analysis,
    )
