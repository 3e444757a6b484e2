"""The static-analysis driver: one call analyzes a whole module.

:func:`analyze_module` runs reaching definitions, the loop dependence
classifier, and (optionally) lint over every function, then maps each
natural loop's verdict onto the static region tree: the loop header's
``region_id`` names the innermost region containing the header — the LOOP
region itself for ``while``/``for`` loops, or the BODY region for
``do``-style rotated loops, in which case the driver walks ``parent_id``
up to the enclosing LOOP. The resulting verdict *tags* are stamped onto
:class:`~repro.instrument.regions.StaticRegion.verdict` so they travel
with the profile (serialization, merging, planning, reports).

Every fact is built once per compile, by
:func:`~repro.analysis.facts.build_module_facts` — reaching definitions,
the natural-loop forest (with the dominator tree it was found with), the
induction variables of each loop, the call graph and the mod/ref
summaries — and handed to the dependence classifier, static cost and
lint. ``kremlin_cc`` builds them before instrumentation (the
dependence-breaking marks need them) and passes them in; called alone,
:func:`analyze_module` builds them itself.

Observability: the whole pass runs under a ``static-analysis`` span with
``dependence`` / ``static-cost`` / ``lint`` children (plus the facts'
``dataflow`` / ``summaries`` spans first, when it builds them), and feeds
``analysis.*`` counters when metrics collection is on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis.dataflow import ReachingDefinitions
from repro.analysis.dependence import (
    LoopDependenceInfo,
    analyze_function_dependences,
)
from repro.analysis.facts import ModuleFacts, build_module_facts
from repro.analysis.lint import Diagnostic, LintContext, run_lint
from repro.analysis.static_cost import RegionCost, compute_static_costs
from repro.analysis.summaries import FunctionSummary
from repro.analysis.verdict import RegionVerdict, Verdict
from repro.instrument.regions import StaticRegionTree
from repro.ir.module import Module
from repro.obs.metrics import get_metrics, metrics_enabled
from repro.obs.trace import get_tracer


@dataclass
class FunctionAnalysis:
    """Per-function analysis artifacts."""

    name: str
    reaching: ReachingDefinitions
    loops: list[LoopDependenceInfo] = field(default_factory=list)


@dataclass
class ModuleAnalysis:
    """Everything the static analyzer learned about one module."""

    functions: dict[str, FunctionAnalysis] = field(default_factory=dict)
    #: LOOP region id -> verdict (only loops the analyzer resolved)
    verdicts: dict[int, RegionVerdict] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: interprocedural mod/ref summaries (function name -> summary)
    summaries: dict[str, FunctionSummary] = field(default_factory=dict)
    #: static cost bounds (LOOP region id -> RegionCost)
    costs: dict[int, RegionCost] = field(default_factory=dict)
    #: analyzer wall time in seconds (bench_suite records this)
    elapsed: float = 0.0

    def verdict_for(self, region_id: int) -> RegionVerdict | None:
        return self.verdicts.get(region_id)

    def loop_infos(self) -> list[LoopDependenceInfo]:
        out: list[LoopDependenceInfo] = []
        for analysis in self.functions.values():
            out.extend(analysis.loops)
        return out


def resolve_loop_region(
    regions: StaticRegionTree | None, info: LoopDependenceInfo
) -> int | None:
    """Resolve a natural loop to its LOOP region id, walking BODY regions
    up to their loop (rotated do-while headers live in the body region)."""
    if regions is None or info.region_id < 0:
        return None
    if info.region_id >= len(regions):
        return None
    region = regions.region(info.region_id)
    while region is not None and not region.is_loop:
        if region.parent_id is None:
            return None
        region = regions.region(region.parent_id)
    return region.id if region is not None else None


def analyze_module(
    module: Module, lint: bool = True, facts: ModuleFacts | None = None
) -> ModuleAnalysis:
    """Run the full static-analysis stack over ``module``.

    ``facts`` are the module's :class:`~repro.analysis.facts.ModuleFacts`
    when the caller already built them. Stamps verdict tags onto the
    module's region tree as a side effect and returns the detailed
    :class:`ModuleAnalysis`.
    """
    tracer = get_tracer()
    start = time.perf_counter()
    analysis = ModuleAnalysis()
    with tracer.span("static-analysis", functions=len(module.functions)):
        if facts is None:
            facts = build_module_facts(module)
        analysis.summaries = facts.summaries
        with tracer.span("dependence") as span:
            loop_count = 0
            for name, function in module.functions.items():
                function_facts = facts.functions[name]
                infos = analyze_function_dependences(
                    function, module, analysis.summaries, function_facts
                )
                loop_count += len(infos)
                analysis.functions[name] = FunctionAnalysis(
                    name=name, reaching=function_facts.reaching, loops=infos
                )
            span.args["loops"] = loop_count
        _stamp_verdicts(module.regions, analysis)
        with tracer.span("static-cost") as span:
            analysis.costs = compute_static_costs(
                module,
                {
                    name: fa.loops
                    for name, fa in analysis.functions.items()
                },
                regions=module.regions,
                graph=facts.graph,
                doms={
                    name: function_facts.forest.dom
                    for name, function_facts in facts.functions.items()
                },
            )
            span.args["regions"] = len(analysis.costs)
            if module.regions is not None:
                for region_id, cost in analysis.costs.items():
                    module.regions.region(region_id).static_cost = cost
        if lint:
            with tracer.span("lint") as span:
                context = LintContext(
                    module=module,
                    reaching={
                        name: fa.reaching
                        for name, fa in analysis.functions.items()
                    },
                    dependences={
                        name: fa.loops
                        for name, fa in analysis.functions.items()
                    },
                    summaries=analysis.summaries,
                )
                analysis.diagnostics = run_lint(context)
                span.args["diagnostics"] = len(analysis.diagnostics)
    analysis.elapsed = time.perf_counter() - start

    if metrics_enabled():
        metrics = get_metrics()
        metrics.counter("analysis.functions").inc(len(analysis.functions))
        metrics.counter("analysis.loops").inc(
            sum(len(fa.loops) for fa in analysis.functions.values())
        )
        for verdict in analysis.verdicts.values():
            name = verdict.verdict.value.lower()
            metrics.counter(f"analysis.verdicts.{name}").inc()
        metrics.counter("analysis.diagnostics").inc(
            len(analysis.diagnostics)
        )
        metrics.histogram("analysis.seconds").record(analysis.elapsed)
    return analysis


def _stamp_verdicts(
    regions: StaticRegionTree | None, analysis: ModuleAnalysis
) -> None:
    for info in analysis.loop_infos():
        region_id = resolve_loop_region(regions, info)
        if region_id is None:
            continue
        verdict = info.verdict
        existing = analysis.verdicts.get(region_id)
        if existing is not None and existing.rank <= verdict.rank:
            continue  # keep the least-safe verdict for shared regions
        analysis.verdicts[region_id] = verdict
        if regions is not None:
            regions.region(region_id).verdict = verdict.tag


def analyze_program(program) -> ModuleAnalysis:
    """Convenience wrapper for a :class:`CompiledProgram`."""
    return analyze_module(program.module)


def unknown_verdict() -> RegionVerdict:
    return RegionVerdict(Verdict.UNKNOWN)
