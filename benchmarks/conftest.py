"""Shared fixtures for the experiment-regeneration benchmarks.

Each ``test_fig*``/``test_sec*`` module regenerates one table or figure from
the paper's evaluation (the mapping lives in DESIGN.md). Profiling all 12
benchmark programs takes ~1 minute and is done once per session; the
``benchmark`` fixture then times the *analysis* stage being exercised
(planning, aggregation, simulation) on top of the shared profiles.

Regenerated tables are also written to ``benchmarks/results/<id>.txt`` so a
full run leaves the paper-shaped artifacts on disk. The checked-in tables are
goldens: a regenerated table that differs from its checked-in file fails its
test, after the new text is written so ``git diff`` shows what moved. Tables
that hold timings (``UNGATED``) are written but not compared.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.bench_suite import evaluation_benchmarks, run_benchmark
from repro.exec_model import best_configuration
from repro.planner import OpenMPPlanner

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: paper evaluation order (Figure 6)
EVAL_ORDER = ["ammp", "art", "equake", "bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"]


@pytest.fixture(scope="session")
def suite():
    """name -> BenchmarkResult for the 11 evaluation programs."""
    return {b.name: run_benchmark(b.name) for b in evaluation_benchmarks()}


@pytest.fixture(scope="session")
def tracking():
    return run_benchmark("tracking")


@pytest.fixture(scope="session")
def kremlin_plans(suite):
    """name -> OpenMP plan for every evaluation benchmark."""
    planner = OpenMPPlanner()
    return {name: planner.plan(result.aggregated) for name, result in suite.items()}


@pytest.fixture(scope="session")
def best_speedups(suite, kremlin_plans):
    """name -> (kremlin SimulationResult, manual SimulationResult)."""
    out = {}
    for name, result in suite.items():
        kremlin = best_configuration(result.profile, kremlin_plans[name].region_ids)
        manual = best_configuration(result.profile, result.manual_plan)
        out[name] = (kremlin, manual)
    return out


#: tables whose numbers are wall-clock timings, different on every run
UNGATED = frozenset({"sec44_overhead"})


def write_result(experiment_id: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{experiment_id}.txt"
    golden = path.read_text(encoding="utf-8") if path.exists() else None
    path.write_text(text + "\n", encoding="utf-8")
    if experiment_id not in UNGATED and golden != text + "\n":
        pytest.fail(
            f"{path.name} differs from its checked-in golden; "
            f"see git diff {path}"
        )
