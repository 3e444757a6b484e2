"""The four workloads of the pipeline benchmark.

Each workload owns its inputs, a set-up step, the timed operation (the
public call a user makes), a *staged* copy of that operation that calls
each layer's public functions under a span of a benchmark-local
:class:`repro.obs.Tracer`, and the checks that every result is correct.
The tracer is never installed globally, so the program's own spans stay
on the null tracer and the measured code path is the one users run.

* ``first-run``   -- ``KremlinSession().analyze`` with an empty codegen
  disk cache every pass: compile, static analysis, cold codegen, run;
* ``profile-hot`` -- the same call on run-dominated programs with the disk
  cache primed: the profiled run and the cache-read path;
* ``check``       -- ``KremlinSession().check``: compile and static
  analysis only, nothing executes;
* ``replan``      -- stored profiles decoded, merged, aggregated, planned
  under every personality and simulated: the profile-once/plan-many path.

Why each workload and program set was chosen is in README.md. This module
is imported only by benchmark worker processes, after ``src`` is on
``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
from time import perf_counter

from repro.analysis.driver import analyze_module
from repro.api import (
    CompileOptions,
    KremlinReport,
    KremlinSession,
    ProfileOptions,
)
from repro.bench_suite.registry import all_benchmarks, get_benchmark
from repro.exec_model.simulate import best_configuration
from repro.frontend.lexer import tokenize
from repro.frontend.parser import parse_program
from repro.hcpa.aggregate import aggregate_profile
from repro.hcpa.compression import compression_stats
from repro.hcpa.merge import merge_profiles
from repro.hcpa.serialize import profile_from_json, profile_to_json
from repro.instrument.compile import CompiledProgram, kremlin_cc
from repro.instrument.costs import DEFAULT_COST_MODEL
from repro.instrument.passes import instrument_module
from repro.interp import diskcache
from repro.interp.interpreter import Interpreter
from repro.ir.verifier import verify_module
from repro.kremlib.profiler import KremlinProfiler
from repro.lowering.lower import lower_program
from repro.obs.trace import NULL_TRACER
from repro.planner.registry import available_personalities, create_planner
from repro.report.export import plan_to_csv

#: counts a staged pass records; each must repeat exactly across passes
COUNTS = (
    "frontend.tokens",
    "lowering.ir_instructions",
    "instrument.regions",
    "analysis.loops",
    "interp.disk_hits",
    "interp.disk_misses",
    "kremlib.instructions",
    "hcpa.dict_entries",
    "planner.plan_items",
)


class PassRecord:
    """What one staged pass measured besides its spans."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTS, 0)
        #: per program: profiled run seconds / plain run seconds
        self.overheads: list[float] = []
        #: per profile: raw / compressed bytes
        self.compression: list[float] = []
        #: per program: profiled run seconds
        self.run_s: dict[str, float] = {}


def _digest(*parts: str) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def _profile_text(profile) -> str:
    return json.dumps(profile_to_json(profile), sort_keys=True)


class Workload:
    """One workload: inputs, set-up, the timed op, its staged twin, checks.

    ``run`` and ``staged`` return a result that ``verify`` checks outside
    the timed region. The first result per input (from the set-up pass)
    fixes the digest every later result must reproduce byte for byte.
    """

    name = ""

    def __init__(self, expected: dict, work_dir: str):
        #: tree-engine reference results (``expected.json``)
        self.expected = expected
        self.work_dir = work_dir
        #: input key -> digest of its serialized outputs
        self.reference: dict[str, str] = {}

    def inputs(self) -> list[str]:
        raise NotImplementedError

    def setup(self) -> None:
        """Build inputs and prime what the timed passes assume."""

    def begin_pass(self) -> None:
        """Per-pass state reset (first-run empties the codegen cache)."""

    def end_pass(self) -> None:
        """Undo :meth:`begin_pass`."""

    def run(self, key: str):
        raise NotImplementedError

    def staged(self, key: str, tracer, record: PassRecord):
        raise NotImplementedError

    def digest(self, key: str, result) -> str:
        raise NotImplementedError

    def check_result(self, key: str, result) -> list[str]:
        return []

    def extras(self, key: str, result, record: PassRecord) -> None:
        """Untimed measurements after a staged op: counts, and the plain
        run behind ``kremlib.overhead_x``."""

    def verify(self, key: str, result) -> list[str]:
        """Failed checks for ``result`` (empty when correct)."""
        failures = self.check_result(key, result)
        digest = self.digest(key, result)
        if self.reference.setdefault(key, digest) != digest:
            failures.append(f"{key}: output differs from the first pass")
        return failures

    def _fresh_cache(self) -> str:
        directory = tempfile.mkdtemp(prefix="codegen-", dir=self.work_dir)
        diskcache.configure(directory=directory, enabled=True)
        return directory


def _check_value(key: str, run, want: dict) -> list[str]:
    failures = []
    if run.value != want["value"]:
        failures.append(
            f"{key}: main() returned {run.value!r}, reference {want['value']!r}"
        )
    if run.instructions_retired != want["instructions"]:
        failures.append(
            f"{key}: {run.instructions_retired} instructions retired, "
            f"reference {want['instructions']}"
        )
    return failures


# ----------------------------------------------------------------------
# Compile-side stages shared by the analyze and check workloads
# ----------------------------------------------------------------------


def _staged_compile(key: str, tracer) -> CompiledProgram:
    """``kremlin_cc`` split at its layer boundaries."""
    source, filename = get_benchmark(key).source, f"{key}.c"
    with tracer.span("frontend.parse"):
        ast = parse_program(source, filename)
    with tracer.span("lowering.lower"):
        module = lower_program(ast)
    with tracer.span("ir.verify"):
        verify_module(module)
    with tracer.span("instrument.instrument"):
        instrumentation = instrument_module(module, DEFAULT_COST_MODEL)
    with tracer.span("analysis.analyze"):
        analysis = analyze_module(module)
    return CompiledProgram(
        module=module,
        instrumentation=instrumentation,
        source=source,
        filename=filename,
        analysis=analysis,
    )


def _count_compile(program: CompiledProgram, record: PassRecord) -> None:
    counts = record.counts
    counts["frontend.tokens"] += len(tokenize(program.source, program.filename))
    counts["lowering.ir_instructions"] += sum(
        1
        for function in program.module.functions.values()
        for _ in function.instructions()
    )
    counts["instrument.regions"] += len(program.regions)
    counts["analysis.loops"] += len(program.analysis.verdicts)


# ----------------------------------------------------------------------
# Analyze workloads: first-run and profile-hot
# ----------------------------------------------------------------------


class _AnalyzeWorkload(Workload):
    programs: tuple[str, ...] = ()

    def inputs(self) -> list[str]:
        return list(self.programs)

    def run(self, key: str) -> KremlinReport:
        session = KremlinSession(
            compile_options=CompileOptions(filename=f"{key}.c")
        )
        return session.analyze(get_benchmark(key).source)

    def staged(self, key: str, tracer, record: PassRecord) -> KremlinReport:
        program = _staged_compile(key, tracer)
        profiler = KremlinProfiler(program)
        interp = Interpreter(program, observer=profiler)
        before = diskcache.stats()
        with tracer.span("interp.prepare"):
            interp.prepare()
        after = diskcache.stats()
        with tracer.span("kremlib.run") as run_span:
            run = interp.run("main")
        profile = profiler.profile
        with tracer.span("hcpa.aggregate"):
            aggregated = aggregate_profile(profile)
        with tracer.span("hcpa.compress"):
            stats = compression_stats(profile)
        with tracer.span("planner.plan"):
            plan = create_planner("openmp").plan(aggregated, frozenset())
        plan.program_name = program.filename
        counts = record.counts
        counts["interp.disk_hits"] += after["hits"] - before["hits"]
        counts["interp.disk_misses"] += after["misses"] - before["misses"]
        counts["kremlib.instructions"] += run.instructions_retired
        counts["hcpa.dict_entries"] += stats.dictionary_entries
        counts["planner.plan_items"] += len(plan.items)
        record.compression.append(stats.ratio)
        record.run_s[key] = run_span.duration
        return KremlinReport(program, profile, aggregated, plan, run)

    def digest(self, key: str, result: KremlinReport) -> str:
        return _digest(_profile_text(result.profile), plan_to_csv(result.plan))

    def check_result(self, key: str, result: KremlinReport) -> list[str]:
        return _check_value(key, result.run, self.expected[key])

    def extras(self, key: str, result: KremlinReport, record: PassRecord):
        _count_compile(result.program, record)
        plain = Interpreter(result.program)
        plain.prepare()
        started = perf_counter()
        run = plain.run("main")
        plain_s = perf_counter() - started
        failures = _check_value(key, run, self.expected[key])
        if failures:
            raise AssertionError("plain run: " + "; ".join(failures))
        record.overheads.append(record.run_s[key] / plain_s)


class FirstRun(_AnalyzeWorkload):
    """A developer's first ``kremlin prog.c``: every pass starts from an
    empty codegen disk cache, so codegen is cold and every unit is
    written (the cache-write side)."""

    name = "first-run"
    programs = ("bt", "sp", "mg", "lu", "ammp")

    def __init__(self, expected: dict, work_dir: str):
        super().__init__(expected, work_dir)
        self._pass_cache: str | None = None

    def begin_pass(self) -> None:
        self._pass_cache = self._fresh_cache()

    def end_pass(self) -> None:
        shutil.rmtree(self._pass_cache, ignore_errors=True)
        self._pass_cache = None


class ProfileHot(_AnalyzeWorkload):
    """Run-dominated programs on a codegen cache primed by the set-up pass
    (the cache-read side): the profiled run is nearly the whole pass."""

    name = "profile-hot"
    programs = ("is", "cg", "art")

    def setup(self) -> None:
        self._fresh_cache()


# ----------------------------------------------------------------------
# check: compile + static analysis only
# ----------------------------------------------------------------------


class _Checked:
    __slots__ = ("analysis", "program")

    def __init__(self, analysis, program=None):
        self.analysis = analysis
        #: the compiled program (staged op only, for counting)
        self.program = program


class Check(Workload):
    """``kremlin check`` over every bench program; nothing executes."""

    name = "check"

    def inputs(self) -> list[str]:
        return [benchmark.name for benchmark in all_benchmarks()]

    def run(self, key: str) -> _Checked:
        session = KremlinSession(
            compile_options=CompileOptions(filename=f"{key}.c")
        )
        return _Checked(session.check(get_benchmark(key).source))

    def staged(self, key: str, tracer, record: PassRecord) -> _Checked:
        program = _staged_compile(key, tracer)
        return _Checked(program.analysis, program)

    def digest(self, key: str, result: _Checked) -> str:
        analysis = result.analysis
        verdicts = sorted(
            (region_id, verdict.tag)
            for region_id, verdict in analysis.verdicts.items()
        )
        return _digest(
            json.dumps(verdicts),
            *(diagnostic.render() for diagnostic in analysis.diagnostics),
        )

    def check_result(self, key: str, result: _Checked) -> list[str]:
        if not result.analysis.verdicts:
            return [f"{key}: the analyzer reached no loop verdict"]
        return []

    def extras(self, key: str, result: _Checked, record: PassRecord) -> None:
        _count_compile(result.program, record)


# ----------------------------------------------------------------------
# replan: profile once, plan many
# ----------------------------------------------------------------------


class _Replanned:
    __slots__ = ("merged", "plans", "best")

    def __init__(self, merged, plans, best):
        self.merged = merged
        self.plans = plans
        self.best = best


class Replan(Workload):
    """Stored profile documents merged k at a time, replanned under every
    personality and simulated: the service's plan path. Set-up profiles
    each program under three depth windows (unlimited, 2, 3)."""

    name = "replan"
    programs = ("bt", "sp", "mg", "lu", "ammp")
    depths = (None, 2, 3)
    merge_sizes = (1, 3)

    def __init__(self, expected: dict, work_dir: str):
        super().__init__(expected, work_dir)
        #: program -> serialized profile documents, one per depth window
        self.docs: dict[str, list[dict]] = {}
        #: program -> CSV of the openmp plan ``analyze`` produced directly
        self.direct_plans: dict[str, str] = {}

    def inputs(self) -> list[str]:
        return [f"{p}/k{k}" for p in self.programs for k in self.merge_sizes]

    def setup(self) -> None:
        self._fresh_cache()
        for name in self.programs:
            session = KremlinSession(
                compile_options=CompileOptions(filename=f"{name}.c")
            )
            report = session.analyze(get_benchmark(name).source)
            failures = _check_value(name, report.run, self.expected[name])
            if failures:
                raise AssertionError("; ".join(failures))
            self.direct_plans[name] = plan_to_csv(report.plan)
            docs = [profile_to_json(report.profile)]
            for depth in self.depths[1:]:
                windowed = KremlinSession(
                    profile_options=ProfileOptions(max_depth=depth)
                )
                profile, _ = windowed.profile(report.program)
                docs.append(profile_to_json(profile))
            self.docs[name] = docs

    def _docs(self, key: str) -> list[dict]:
        name, k = key.split("/k")
        return self.docs[name][: int(k)]

    def run(self, key: str) -> _Replanned:
        # No session call covers this path; the op is the staged sequence
        # of public calls, with spans that cost nothing.
        return self.staged(key, NULL_TRACER, PassRecord())

    def staged(self, key: str, tracer, record: PassRecord) -> _Replanned:
        docs = self._docs(key)
        with tracer.span("hcpa.from_json"):
            profiles = [profile_from_json(doc) for doc in docs]
        with tracer.span("hcpa.merge"):
            merged = merge_profiles(profiles)
        with tracer.span("hcpa.aggregate"):
            aggregated = aggregate_profile(merged)
        plans = {}
        for personality in available_personalities():
            with tracer.span("planner.plan"):
                plans[personality] = create_planner(personality).plan(
                    aggregated, frozenset()
                )
        with tracer.span("exec_model.simulate"):
            best = best_configuration(merged, plans["openmp"].region_ids)
        record.counts["hcpa.dict_entries"] += len(merged.dictionary.entries)
        record.counts["planner.plan_items"] += sum(
            len(plan.items) for plan in plans.values()
        )
        return _Replanned(merged, plans, best)

    def digest(self, key: str, result: _Replanned) -> str:
        return _digest(
            _profile_text(result.merged),
            *(
                f"{name}\n{plan_to_csv(plan)}"
                for name, plan in sorted(result.plans.items())
            ),
            repr((result.best.time, result.best.machine.cores)),
        )

    def check_result(self, key: str, result: _Replanned) -> list[str]:
        failures = []
        docs = self._docs(key)
        if result.merged.total_work != sum(doc["total_work"] for doc in docs):
            failures.append(f"{key}: merged work is not the sum of its runs")
        name = key.split("/k")[0]
        if len(docs) == 1 and (
            plan_to_csv(result.plans["openmp"]) != self.direct_plans[name]
        ):
            failures.append(
                f"{key}: the plan from the stored profile differs from the "
                f"plan analyze produced"
            )
        if not (math.isfinite(result.best.time) and result.best.time > 0):
            failures.append(f"{key}: simulated time {result.best.time!r}")
        return failures


WORKLOADS = {cls.name: cls for cls in (FirstRun, ProfileHot, Check, Replan)}


def reference_results() -> dict:
    """main() value and retired-instruction count of every bench program
    on the tree engine: the reference interpreter, independent of the
    codegen engine the workloads run."""
    out = {}
    for benchmark in all_benchmarks():
        program = kremlin_cc(benchmark.source, f"{benchmark.name}.c")
        run = Interpreter(program, engine="tree").run("main")
        out[benchmark.name] = {
            "value": run.value,
            "instructions": run.instructions_retired,
        }
    return out
