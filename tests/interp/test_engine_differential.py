"""Differential test: tree vs. the AOT-compiled engine.

The compiled engine is a performance reimplementation of the interpreter;
the tree-walking engine is the reference. This file runs every benchmark
in the suite under both engines — plain and under the KremLib profiler,
and on the compiled engine once more with metrics collection on — and
asserts bit-identical results: the program's return value and output,
the instruction accounting, and (for profiled runs) the serialized
parallelism profile, byte for byte.
"""

from __future__ import annotations

import json
from contextlib import nullcontext

import pytest

from repro.bench_suite.registry import all_benchmarks, get_benchmark
from repro.hcpa.serialize import profile_to_json
from repro.interp.interpreter import Interpreter
from repro.kremlib.profiler import KremlinProfiler
from repro.obs import collecting_metrics

NAMES = [benchmark.name for benchmark in all_benchmarks()]

_programs: dict = {}


def _program(name: str):
    if name not in _programs:
        _programs[name] = get_benchmark(name).compile()
    return _programs[name]


def _run(name: str, engine: str, profiled: bool):
    """Run one benchmark; returns (RunResult, serialized profile or None).

    Engine ``compiled-metrics`` is the compiled engine run under a fresh
    metrics registry, so its fused units carry the counter increments."""
    program = _program(name)
    metrics = engine == "compiled-metrics"
    with collecting_metrics() if metrics else nullcontext():
        observer = KremlinProfiler(program) if profiled else None
        result = Interpreter(
            program,
            observer=observer,
            engine="compiled" if metrics else engine,
        ).run("main")
    if not profiled:
        return result, None
    serialized = json.dumps(profile_to_json(observer.profile), sort_keys=True)
    return result, serialized


def _assert_same_result(a, b):
    assert a.value == b.value
    assert a.output == b.output
    assert a.instructions_retired == b.instructions_retired
    assert a.total_cost == b.total_cost


FAST_ENGINES = ("compiled", "compiled-metrics")


@pytest.mark.parametrize("engine", FAST_ENGINES)
@pytest.mark.parametrize("name", NAMES)
def test_plain_runs_identical(name, engine):
    tree, _ = _run(name, "tree", profiled=False)
    fast, _ = _run(name, engine, profiled=False)
    _assert_same_result(tree, fast)


@pytest.mark.parametrize("engine", FAST_ENGINES)
@pytest.mark.parametrize("name", NAMES)
def test_profiled_runs_identical(name, engine):
    tree, tree_profile = _run(name, "tree", profiled=True)
    fast, fast_profile = _run(name, engine, profiled=True)
    _assert_same_result(tree, fast)
    assert tree_profile == fast_profile


@pytest.mark.parametrize("engine", FAST_ENGINES)
@pytest.mark.parametrize("name", NAMES)
def test_profiler_does_not_perturb_execution(name, engine):
    """observer=None and KremlinProfiler see the same program execution."""
    plain, _ = _run(name, engine, profiled=False)
    profiled, _ = _run(name, engine, profiled=True)
    _assert_same_result(plain, profiled)


@pytest.mark.parametrize("engine", FAST_ENGINES)
def test_expected_results_hold(engine):
    """The suite's own self-checks pass under the fast engines."""
    for benchmark in all_benchmarks():
        if benchmark.expected_result is None:
            continue
        result, _ = _run(benchmark.name, engine, profiled=True)
        assert result.value == benchmark.expected_result, benchmark.name
