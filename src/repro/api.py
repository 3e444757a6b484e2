"""Stable public API: the :class:`KremlinSession` facade.

Pipeline options live in three small **frozen** option dataclasses — one
per pipeline phase — and a session object owns them plus (optionally)
session-scoped observability::

    from repro.api import KremlinSession, PlanOptions
    from repro.obs import Tracer, MetricsRegistry

    session = KremlinSession(
        plan_options=PlanOptions(personality="cilk"),
        tracer=Tracer(),                 # optional: trace the pipeline
        metrics=MetricsRegistry(),       # optional: hot-path counters
    )
    report = session.analyze(source)
    print(report.render_plan())
    print(render_tree(session.tracer))   # where did the wall-clock go?

``repro.analyze(source)`` is the same as ``KremlinSession().analyze``.

Observability scoping: a session created with ``tracer=``/``metrics=``
installs them for the duration of each pipeline call and restores the
previous globals afterwards, so two sessions never bleed spans or
counters into each other. A session created without them inherits
whatever tracer/registry is globally installed (the no-op defaults unless
:func:`repro.obs.tracing`/:func:`repro.obs.collecting_metrics` are
active).
"""

from __future__ import annotations

import dataclasses
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field

from repro.api_types import (
    CheckRequest,
    CompileRequest,
    check_result_for,
    compile_result_for,
    source_digest,
)
from repro.hcpa.aggregate import AggregatedProfile, aggregate_profile
from repro.hcpa.compression import CompressionStats, compression_stats
from repro.hcpa.summaries import ParallelismProfile
from repro.instrument.compile import CompiledProgram, kremlin_cc
from repro.instrument.costs import DEFAULT_COST_MODEL, CostModel
from repro.interp.interpreter import RunResult
from repro.kremlib.profiler import profile_program
from repro.obs.metrics import MetricsRegistry, collecting_metrics, get_metrics
from repro.obs.trace import Tracer, get_tracer, tracing
from repro.parallel.executor import ParallelOptions
from repro.planner.plan import ParallelismPlan
from repro.planner.registry import create_planner
from repro.service.cache import LRUCache

#: compiled programs kept per session before LRU eviction; service
#: workers reuse sessions indefinitely, so the cache must be bounded
DEFAULT_COMPILE_CACHE_CAPACITY = 64


@dataclass(frozen=True)
class CompileOptions:
    """Options for the compile/instrument phase (``kremlin-cc``)."""

    filename: str = "<input>"
    cost_model: CostModel = field(
        default_factory=lambda: DEFAULT_COST_MODEL, repr=False
    )


@dataclass(frozen=True)
class ProfileOptions:
    """Options for the execute/profile phase (KremLib HCPA)."""

    entry: str = "main"
    args: tuple = ()
    #: limit the profiled region depth (the paper's depth window flag)
    max_depth: int | None = None
    #: abort the run past this many retired instructions
    max_instructions: int | None = None
    #: execution engine: "compiled" (AOT codegen, the default) or "tree"
    #: (the reference interpreter)
    engine: str = "compiled"


@dataclass(frozen=True)
class PlanOptions:
    """Options for the planning phase."""

    personality: str = "openmp"
    #: static region ids excluded before planning (§3's exclusion list)
    exclude: frozenset[int] = frozenset()


@dataclass
class KremlinReport:
    """Everything one ``analyze`` call produces."""

    program: CompiledProgram
    profile: ParallelismProfile
    aggregated: AggregatedProfile
    plan: ParallelismPlan
    run: RunResult

    def render_plan(self, limit: int | None = None) -> str:
        from repro.report import format_plan

        return format_plan(self.plan, limit)

    def render_regions(self) -> str:
        from repro.report import format_region_table

        return format_region_table(self.aggregated)

    @property
    def compression(self) -> CompressionStats:
        return compression_stats(self.profile)

    def replan(
        self, personality: str | None = None, exclude: set[int] | None = None
    ) -> ParallelismPlan:
        """Re-run planning, optionally with a different personality or an
        exclusion list (the paper's §3 workflow)."""
        planner = create_planner(personality or self.plan.personality)
        excluded = frozenset(self.plan.excluded | (exclude or set()))
        new_plan = planner.plan(self.aggregated, excluded)
        new_plan.program_name = self.plan.program_name
        return new_plan


@dataclass
class ExecutionReport:
    """Everything one ``execute`` call produces: the analysis report
    plus the parallel execution outcome and the measured-vs-predicted
    comparison."""

    report: KremlinReport
    outcome: "ExecutionOutcome"
    comparison: "SpeedupComparison"

    @property
    def plan(self) -> ParallelismPlan:
        return self.report.plan

    def render(self) -> str:
        lines = [self.comparison.render()]
        outcome = self.outcome
        if outcome.fallback:
            lines.append(f"serial fallback: {outcome.fallback_reason}")
        if outcome.mismatch:
            lines.append(f"STATE MISMATCH: {outcome.mismatch}")
        for stats in outcome.site_stats:
            lines.append(
                f"site {stats.spec.region_name} [{stats.spec.verdict}] "
                f"{stats.spec.location}: {stats.entries} entries, "
                f"{stats.dispatched_chunks} worker chunks, "
                f"{stats.worker_seconds * 1000.0:.1f}ms worker time"
            )
        for refused in outcome.refused:
            lines.append(
                f"refused {refused.region_name} {refused.location}: "
                f"{refused.reason}"
            )
        return "\n".join(lines)


class KremlinSession:
    """The stable facade over the whole pipeline.

    Construct once with frozen option bundles, then call the phase
    methods (:meth:`compile`, :meth:`profile`, :meth:`aggregate`,
    :meth:`plan`) or the one-shot :meth:`analyze`. Sessions are cheap;
    make a new one rather than mutating options.
    """

    def __init__(
        self,
        compile_options: CompileOptions | None = None,
        profile_options: ProfileOptions | None = None,
        plan_options: PlanOptions | None = None,
        execute_options: ParallelOptions | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        compile_cache_capacity: int = DEFAULT_COMPILE_CACHE_CAPACITY,
    ):
        self.compile_options = compile_options or CompileOptions()
        self.profile_options = profile_options or ProfileOptions()
        self.plan_options = plan_options or PlanOptions()
        self.execute_options = execute_options or ParallelOptions()
        #: session-scoped tracer; None = use the globally installed one
        self.tracer = tracer
        #: session-scoped metric registry; None = use the global one
        self.metrics = metrics
        #: bounded compile cache: (source digest, filename, analyze) ->
        #: CompiledProgram. Generated engine code objects hang off the
        #: program (codegen_unit caches them per program), so a hit skips
        #: recompilation AND codegen. Both the instrumented source and
        #: the executor's transformed-source recompile route through it.
        self._compile_cache = LRUCache(
            compile_cache_capacity, metric_prefix="session.compile_cache"
        )

    # ------------------------------------------------------------------
    # Observability scoping
    # ------------------------------------------------------------------

    @contextmanager
    def _observed(self):
        """Install session-scoped tracer/metrics around one phase call."""
        with ExitStack() as stack:
            if self.tracer is not None:
                stack.enter_context(tracing(self.tracer))
            if self.metrics is not None:
                stack.enter_context(collecting_metrics(self.metrics))
            yield

    # ------------------------------------------------------------------
    # Pipeline phases
    # ------------------------------------------------------------------

    def compile(self, source: str) -> CompiledProgram:
        """Compile + instrument MiniC source (the ``kremlin-cc`` step).

        Results are cached by source hash: repeat compile/profile calls on
        the same session reuse the CompiledProgram — and with it every
        code object the execution engines generated for it."""
        return self.compile_named(source, self.compile_options.filename)

    def compile_named(
        self, source: str, filename: str, analyze: bool = True
    ) -> CompiledProgram:
        """:meth:`compile` with an explicit filename (service endpoints
        carry the filename per-request rather than per-session). The
        cache key includes the filename and the analyze flag, so the
        executor's ``analyze=False`` recompiles never shadow a fully
        analyzed program."""
        key = (source_digest(source), filename, analyze)
        with self._observed():
            cached = self._compile_cache.get(key)
            if cached is not None:
                return cached
            program = kremlin_cc(
                source,
                filename,
                cost_model=self.compile_options.cost_model,
                analyze=analyze,
            )
            self._compile_cache.put(key, program)
            return program

    def _compile_transformed(
        self, source: str, filename: str
    ) -> CompiledProgram:
        """Compiler hook handed to :class:`ParallelExecutor`: transformed
        sources go through the session cache too, so re-executing a plan
        (or executing the same plan from many service requests) compiles
        each rewritten source once."""
        return self.compile_named(source, filename, analyze=False)

    def check(self, source: str):
        """Static analysis only: compile (no execution) and return the
        :class:`~repro.analysis.driver.ModuleAnalysis` with per-loop
        DOALL-safety verdicts and lint diagnostics."""
        program = self.compile(source)
        assert program.analysis is not None
        return program.analysis

    def serve(self, request):
        """Answer one typed API request (:mod:`repro.api_types`).

        The session speaks the same versioned payloads as the wire
        protocol, so the server's worker threads, the CLI, and in-process
        embedders all go through this one dispatch. Currently handles the
        session-local methods — :class:`CompileRequest` and
        :class:`CheckRequest`; store-backed methods (submit/plan/summary)
        live on the server, which owns the store."""
        if isinstance(request, CompileRequest):
            digest = source_digest(request.source)
            cached = (digest, request.filename, True) in self._compile_cache
            program = self.compile_named(request.source, request.filename)
            return compile_result_for(program, digest, cached=cached)
        if isinstance(request, CheckRequest):
            digest = source_digest(request.source)
            cached = (digest, request.filename, True) in self._compile_cache
            program = self.compile_named(request.source, request.filename)
            assert program.analysis is not None
            return check_result_for(
                program, digest, request.source, cached=cached
            )
        raise TypeError(
            f"KremlinSession.serve cannot handle "
            f"{type(request).__name__}; expected CompileRequest or "
            f"CheckRequest"
        )

    def profile(
        self, program: CompiledProgram
    ) -> tuple[ParallelismProfile, RunResult]:
        """Execute under the KremLib HCPA runtime."""
        options = self.profile_options
        with self._observed():
            return profile_program(
                program,
                entry=options.entry,
                args=options.args,
                max_depth=options.max_depth,
                max_instructions=options.max_instructions,
                engine=options.engine,
            )

    def aggregate(self, profile: ParallelismProfile) -> AggregatedProfile:
        """Per-region aggregation on the compressed dictionary."""
        with self._observed():
            tracer = get_tracer()
            with tracer.span("aggregate"):
                aggregated = aggregate_profile(profile)
            with tracer.span("compress"):
                stats = compression_stats(profile)
                tracer.annotate(
                    dictionary_entries=stats.dictionary_entries,
                    ratio=round(stats.ratio, 2),
                )
            return aggregated

    def plan(
        self,
        aggregated: AggregatedProfile,
        exclude: frozenset[int] | set[int] | None = None,
    ) -> ParallelismPlan:
        """Rank regions under the session's planner personality."""
        options = self.plan_options
        excluded = frozenset(options.exclude | set(exclude or ()))
        with self._observed():
            tracer = get_tracer()
            with tracer.span("plan", personality=options.personality):
                plan = create_planner(options.personality).plan(
                    aggregated, excluded
                )
                tracer.annotate(regions=len(plan.items))
            return plan

    def analyze(self, source: str) -> KremlinReport:
        """One-shot pipeline: compile, profile, aggregate, and plan."""
        with self._observed():
            tracer = get_tracer()
            with tracer.span("analyze", file=self.compile_options.filename):
                program = self.compile(source)
                profile, run = self.profile(program)
                aggregated = self.aggregate(profile)
                plan = self.plan(aggregated)
                plan.program_name = self.compile_options.filename
                self._record_run_metrics(run)
            return KremlinReport(
                program=program,
                profile=profile,
                aggregated=aggregated,
                plan=plan,
                run=run,
            )

    def execute(self, source: str) -> ExecutionReport:
        """Close the loop: analyze, then *run* the plan's safe loops on
        the parallel backend and compare measured vs predicted speedup.

        The serial run is ground truth: any parallel divergence or
        failure falls back to it (``outcome.fallback``/``mismatch``).
        """
        from repro.exec_model.compare import compare_measured_predicted
        from repro.parallel.executor import ParallelExecutor

        report = self.analyze(source)
        # The profile phase owns engine/entry/instruction budget; overlay
        # them so the measured run executes exactly what was profiled.
        options = dataclasses.replace(
            self.execute_options,
            engine=self.profile_options.engine,
            entry=self.profile_options.entry,
            max_instructions=self.profile_options.max_instructions,
        )
        with self._observed():
            tracer = get_tracer()
            with tracer.span(
                "parallel.execute",
                workers=options.workers,
                mode=options.mode,
            ):
                with ParallelExecutor(
                    options, compiler=self._compile_transformed
                ) as executor:
                    outcome = executor.execute(report.program, report.plan)
                comparison = compare_measured_predicted(
                    report.aggregated,
                    outcome,
                    program_name=self.compile_options.filename,
                )
        return ExecutionReport(
            report=report, outcome=outcome, comparison=comparison
        )

    def _record_run_metrics(self, run: RunResult) -> None:
        from repro.obs.metrics import metrics_enabled

        if not metrics_enabled():
            return
        registry = get_metrics()
        registry.counter("session.analyses").inc()
        registry.counter(
            f"interp.instructions.{self.profile_options.engine}"
        ).inc(run.instructions_retired)


def analyze_with_options(
    source: str,
    compile_options: CompileOptions | None = None,
    profile_options: ProfileOptions | None = None,
    plan_options: PlanOptions | None = None,
) -> KremlinReport:
    """Functional one-shot form of :meth:`KremlinSession.analyze`."""
    return KremlinSession(
        compile_options=compile_options,
        profile_options=profile_options,
        plan_options=plan_options,
    ).analyze(source)


__all__ = [
    "CompileOptions",
    "DEFAULT_COMPILE_CACHE_CAPACITY",
    "ExecutionReport",
    "KremlinReport",
    "KremlinSession",
    "ParallelOptions",
    "PlanOptions",
    "ProfileOptions",
    "analyze_with_options",
]
