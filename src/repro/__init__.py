"""Kremlin reproduction: hierarchical critical path analysis,
self-parallelism, and parallelism planning for serial programs.

Reproduces *Kremlin: Rethinking and Rebooting gprof for the Multicore Age*
(Garcia, Jeon, Louie, Taylor — PLDI 2011).

Quickstart::

    from repro import KremlinSession, PlanOptions

    session = KremlinSession(plan_options=PlanOptions(personality="openmp"))
    report = session.analyze(source_code)
    print(report.render_plan())        # the Figure 3 table
    for item in report.plan:           # ranked regions to parallelize
        print(item.region.name, item.self_parallelism)

(``repro.analyze(source)`` is the one-shot form with every option at
its default.)

The pipeline underneath: ``kremlin_cc`` compiles MiniC source to
instrumented IR; ``profile_program`` executes it under the KremLib HCPA
runtime, producing a compressed parallelism profile; ``aggregate_profile``
turns that into per-region work/coverage/self-parallelism; a planner
personality (OpenMP, Cilk++, or the gprof baseline) selects and ranks the
regions worth parallelizing; and ``simulate_plan`` evaluates any plan on a
model multicore.
"""

from __future__ import annotations

from repro.api import (
    CompileOptions,
    ExecutionReport,
    KremlinReport,
    KremlinSession,
    ParallelOptions,
    PlanOptions,
    ProfileOptions,
    analyze_with_options,
)
from repro.api_types import (
    API_SCHEMA_VERSION,
    ApiPayloadError,
    CheckRequest,
    CheckResult,
    CompileRequest,
    CompileResult,
    PlanRequest,
    PlanResponse,
    ProfileAck,
    ProfileSubmit,
    SchemaVersionError,
    SummaryRequest,
    SummaryResponse,
)
from repro.exec_model import (
    DEFAULT_MACHINE,
    MachineModel,
    SimulationResult,
    best_configuration,
    simulate_plan,
)
from repro.hcpa import (
    CompressionStats,
    ParallelismProfile,
    RegionProfile,
    aggregate_profile,
    compression_stats,
    self_parallelism,
    total_parallelism,
)
from repro.hcpa import (
    ProfileVersionError,
    load_profile,
    merge_profiles,
    save_profile,
)
from repro.hcpa.aggregate import AggregatedProfile
from repro.instrument import CompiledProgram, StaticRegionTree, kremlin_cc
from repro.interp import Interpreter, RunResult
from repro.kremlib import KremlinProfiler, profile_program
from repro.planner import (
    CilkPlanner,
    GprofPlanner,
    OpenMPPlanner,
    ParallelismPlan,
    PlanItem,
    Planner,
    PlannerPersonality,
    SelfParallelismFilterPlanner,
    available_personalities,
    create_planner,
    register_personality,
)
from repro.report import format_flat_profile, format_plan, format_region_table

__version__ = "1.1.0"


def make_planner(personality: str) -> Planner:
    """Instantiate a planner by personality name (registry lookup)."""
    return create_planner(personality)


def analyze(source: str) -> KremlinReport:
    """One-shot pipeline with default options: compile, profile,
    aggregate, and plan. Build a :class:`~repro.api.KremlinSession` for
    anything else."""
    return KremlinSession().analyze(source)


__all__ = [
    "API_SCHEMA_VERSION",
    "AggregatedProfile",
    "ApiPayloadError",
    "CheckRequest",
    "CheckResult",
    "CilkPlanner",
    "CompileOptions",
    "CompileRequest",
    "CompileResult",
    "CompiledProgram",
    "CompressionStats",
    "DEFAULT_MACHINE",
    "ExecutionReport",
    "GprofPlanner",
    "Interpreter",
    "KremlinProfiler",
    "KremlinReport",
    "KremlinSession",
    "MachineModel",
    "OpenMPPlanner",
    "ParallelOptions",
    "ParallelismPlan",
    "ParallelismProfile",
    "PlanItem",
    "PlanOptions",
    "PlanRequest",
    "PlanResponse",
    "ProfileAck",
    "ProfileSubmit",
    "SchemaVersionError",
    "SummaryRequest",
    "SummaryResponse",
    "Planner",
    "PlannerPersonality",
    "ProfileOptions",
    "ProfileVersionError",
    "RegionProfile",
    "RunResult",
    "SelfParallelismFilterPlanner",
    "SimulationResult",
    "StaticRegionTree",
    "aggregate_profile",
    "analyze",
    "analyze_with_options",
    "available_personalities",
    "best_configuration",
    "compression_stats",
    "create_planner",
    "format_flat_profile",
    "format_plan",
    "format_region_table",
    "kremlin_cc",
    "load_profile",
    "merge_profiles",
    "save_profile",
    "make_planner",
    "profile_program",
    "register_personality",
    "self_parallelism",
    "simulate_plan",
    "total_parallelism",
]
