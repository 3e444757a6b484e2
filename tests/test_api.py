"""The repro.api session facade, the one-shot ``repro.analyze``, and the
planner registry."""

import dataclasses
import json
import os
import subprocess
import sys
import unittest
import warnings

import repro
from repro import (
    CompileOptions,
    KremlinSession,
    PlanOptions,
    ProfileOptions,
    analyze,
    analyze_with_options,
    available_personalities,
    create_planner,
    register_personality,
)
from repro.hcpa.serialize import profile_to_json
from repro.planner.openmp import OpenMPPlanner
from repro.planner.registry import planner_class, unregister_personality

SOURCE = """
int main() {
  int s = 0;
  for (int i = 0; i < 12; i = i + 1) {
    s = s + i;
  }
  return s;
}
"""


class TestFrozenOptions(unittest.TestCase):
    def test_options_are_frozen(self):
        for options in (CompileOptions(), ProfileOptions(), PlanOptions()):
            with self.assertRaises(dataclasses.FrozenInstanceError):
                options.anything = 1

    def test_defaults(self):
        self.assertEqual(CompileOptions().filename, "<input>")
        profile = ProfileOptions()
        self.assertEqual(profile.entry, "main")
        self.assertEqual(profile.engine, "compiled")
        self.assertIsNone(profile.max_depth)
        plan = PlanOptions()
        self.assertEqual(plan.personality, "openmp")
        self.assertEqual(plan.exclude, frozenset())


class TestKremlinSession(unittest.TestCase):
    def test_session_analyze_matches_legacy_analyze(self):
        session_report = KremlinSession(
            compile_options=CompileOptions(),
            profile_options=ProfileOptions(),
            plan_options=PlanOptions(),
        ).analyze(SOURCE)
        legacy_report = analyze(SOURCE)
        self.assertEqual(
            json.dumps(profile_to_json(session_report.profile)),
            json.dumps(profile_to_json(legacy_report.profile)),
        )
        self.assertEqual(
            session_report.plan.program_name, legacy_report.plan.program_name
        )
        self.assertEqual(session_report.run.value, legacy_report.run.value)

    def test_phase_methods_compose(self):
        session = KremlinSession()
        program = session.compile(SOURCE)
        profile, run = session.profile(program)
        aggregated = session.aggregate(profile)
        plan = session.plan(aggregated)
        self.assertEqual(run.value, sum(range(12)))
        self.assertGreater(profile.instructions_retired, 0)
        self.assertIsNotNone(plan)

    def test_tree_engine_via_options(self):
        report = KremlinSession(
            profile_options=ProfileOptions(engine="tree")
        ).analyze(SOURCE)
        baseline = KremlinSession().analyze(SOURCE)
        self.assertEqual(
            json.dumps(profile_to_json(report.profile)),
            json.dumps(profile_to_json(baseline.profile)),
        )

    def test_compile_cache_reuses_program_object(self):
        session = KremlinSession()
        first = session.compile(SOURCE)
        second = session.compile(SOURCE)
        self.assertIs(first, second)
        other = session.compile(SOURCE + "\n// changed")
        self.assertIsNot(first, other)

    def test_compile_cache_counts_hits_and_misses(self):
        from repro.obs.metrics import collecting_metrics

        session = KremlinSession()
        with collecting_metrics() as registry:
            session.compile(SOURCE)
            session.compile(SOURCE)
        self.assertEqual(
            registry.counter("session.compile_cache.misses").value, 1
        )
        self.assertEqual(
            registry.counter("session.compile_cache.hits").value, 1
        )

    def test_analyze_with_options(self):
        report = analyze_with_options(
            SOURCE, plan_options=PlanOptions(personality="gprof")
        )
        self.assertEqual(report.plan.personality, "gprof")

    def test_replan_switches_personality_without_rerunning(self):
        report = KremlinSession().analyze(SOURCE)
        cilk_plan = report.replan(personality="cilk")
        self.assertEqual(cilk_plan.personality, "cilk")
        self.assertEqual(report.plan.personality, "openmp")


REDUCTION_SOURCE = """
float a[32];
float acc;
int main() {
  float s = 0.0;
  for (int i = 0; i < 32; i++) { a[i] = (float) i; }
  for (int i = 0; i < 32; i++) { s += a[i]; }
  acc = s;
  return (int) acc;
}
"""


class TestSessionCheck(unittest.TestCase):
    def test_check_returns_module_analysis(self):
        analysis = KremlinSession().check(REDUCTION_SOURCE)
        tags = sorted(v.tag for v in analysis.verdicts.values())
        self.assertEqual(tags, ["doall", "reduction(s)"])
        self.assertEqual(analysis.diagnostics, [])
        self.assertGreater(analysis.elapsed, 0.0)

    def test_check_does_not_execute(self):
        # An infinite loop would hang if check() ever ran the program.
        analysis = KremlinSession().check(
            "int main() { while (1) { } return 0; }"
        )
        self.assertTrue(analysis.functions)


PARALLEL_SOURCE = """
int a[1024];
int main() {
  for (int i = 0; i < 1024; i = i + 1) {
    a[i] = i * 3;
  }
  int s = 0;
  for (int i = 0; i < 1024; i = i + 1) {
    s = s + a[i];
  }
  return s;
}
"""


class TestUnifiedExecuteOptions(unittest.TestCase):
    def test_parallel_options_fields(self):
        from repro import ParallelOptions

        options = ParallelOptions(workers=3, mode="inline")
        self.assertEqual(options.workers, 3)
        self.assertEqual(options.mode, "inline")
        self.assertEqual(options.engine, "compiled")
        self.assertEqual(options.entry, "main")
        with self.assertRaises(dataclasses.FrozenInstanceError):
            options.workers = 9

    def test_execute_options_shim_removed(self):
        # The PR-7 deprecation shim had its one release of warning;
        # ParallelOptions is the only execute-options type now.
        import repro.api as api

        self.assertFalse(hasattr(api, "ExecuteOptions"))
        self.assertFalse(hasattr(repro, "ExecuteOptions"))
        self.assertNotIn("ExecuteOptions", api.__all__)
        self.assertNotIn("ExecuteOptions", repro.__all__)

    def test_parallel_options_accepted_directly(self):
        from repro import ParallelOptions

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session = KremlinSession(
                execute_options=ParallelOptions(workers=1, mode="inline")
            )
        self.assertEqual(session.execute_options.mode, "inline")

    def test_parallel_options_drive_execute(self):
        from repro import ParallelOptions

        options = ParallelOptions(workers=1, mode="inline")
        report = KremlinSession(execute_options=options).execute(SOURCE)
        self.assertEqual(
            report.outcome.serial_result.value, sum(range(12))
        )


class TestExecuteTrace(unittest.TestCase):
    def test_parallel_run_has_its_own_span_name(self):
        # the profiled run owns `prepare` and `run` (under `analyze`); the
        # parallel backend's run is a separate root, `parallel.execute`
        from repro import ParallelOptions
        from repro.obs.trace import Tracer

        tracer = Tracer()
        report = KremlinSession(
            execute_options=ParallelOptions(workers=2, mode="inline"),
            tracer=tracer,
        ).execute(PARALLEL_SOURCE)
        self.assertTrue(report.outcome.executed)
        spans = tracer.spans
        names = {span.index: span.name for span in spans}
        roots = [span.name for span in spans if span.parent is None]
        self.assertEqual(roots, ["analyze", "parallel.execute"])
        for name in ("prepare", "run"):
            self.assertEqual(
                [names[s.parent] for s in spans if s.name == name],
                ["analyze"],
            )
        children = [
            span.name
            for span in spans
            if span.parent is not None
            and names[span.parent] == "parallel.execute"
        ]
        self.assertIn("parallel.serial", children)
        self.assertIn("parallel.run", children)
        self.assertNotIn("run", children)

    def test_inline_chunks_reuse_the_compiled_transformed_program(self):
        # the master and the inline chunk interpreter share the session's
        # one compile of the transformed source
        from repro import ParallelOptions
        from repro.obs.trace import Tracer

        tracer = Tracer()
        report = KremlinSession(
            execute_options=ParallelOptions(workers=2, mode="inline"),
            tracer=tracer,
        ).execute(PARALLEL_SOURCE)
        self.assertTrue(report.outcome.executed)
        spans = tracer.spans
        by_index = {span.index: span for span in spans}

        def under_parallel_execute(span):
            while span.parent is not None:
                span = by_index[span.parent]
            return span.name == "parallel.execute"

        compiles = [
            span
            for span in spans
            if span.name == "compile" and under_parallel_execute(span)
        ]
        self.assertEqual(len(compiles), 1)


class TestParallelPathCompileCache(unittest.TestCase):
    def test_execute_routes_transformed_compile_through_cache(self):
        from repro import ParallelOptions
        from repro.obs.metrics import collecting_metrics

        session = KremlinSession(
            execute_options=ParallelOptions(workers=2, mode="inline")
        )
        with collecting_metrics() as registry:
            first = session.execute(PARALLEL_SOURCE)
            misses_after_first = registry.counter(
                "session.compile_cache.misses"
            ).value
            second = session.execute(PARALLEL_SOURCE)
        self.assertFalse(first.outcome.fallback)
        self.assertTrue(first.outcome.executed)
        self.assertEqual(
            first.outcome.serial_result.value,
            second.outcome.serial_result.value,
        )
        # First run misses twice: the analyzed source and the transformed
        # source. The second run compiles nothing new.
        self.assertEqual(misses_after_first, 2)
        self.assertEqual(
            registry.counter("session.compile_cache.misses").value, 2
        )
        self.assertGreaterEqual(
            registry.counter("session.compile_cache.hits").value, 2
        )

    def test_transformed_and_analyzed_programs_do_not_collide(self):
        # Same digest+filename but different analyze flag must cache
        # under different keys.
        session = KremlinSession()
        analyzed = session.compile_named(SOURCE, "x.c", analyze=True)
        bare = session.compile_named(SOURCE, "x.c", analyze=False)
        self.assertIsNot(analyzed, bare)
        self.assertIsNotNone(analyzed.analysis)
        self.assertIsNone(bare.analysis)

    def test_cache_is_bounded(self):
        session = KremlinSession(compile_cache_capacity=2)
        programs = [
            session.compile(SOURCE + f"\n// v{i}") for i in range(4)
        ]
        self.assertEqual(len(session._compile_cache), 2)
        # Most recent entry still cached; the oldest was evicted.
        self.assertIs(
            session.compile(SOURCE + "\n// v3"), programs[3]
        )


class TestSessionServe(unittest.TestCase):
    def test_serve_compile_request(self):
        from repro.api_types import CompileRequest, CompileResult

        session = KremlinSession()
        result = session.serve(
            CompileRequest(source=SOURCE, filename="served.c")
        )
        self.assertIsInstance(result, CompileResult)
        self.assertEqual(result.filename, "served.c")
        self.assertFalse(result.cached)
        again = session.serve(
            CompileRequest(source=SOURCE, filename="served.c")
        )
        self.assertTrue(again.cached)

    def test_serve_check_request(self):
        from repro.api_types import CheckRequest, CheckResult

        session = KremlinSession()
        result = session.serve(
            CheckRequest(source=SOURCE, filename="served.c")
        )
        self.assertIsInstance(result, CheckResult)
        self.assertEqual(result.errors, 0)
        self.assertEqual(len(result.verdicts), 1)

    def test_serve_rejects_other_payloads(self):
        from repro.api_types import SummaryRequest

        with self.assertRaises(TypeError):
            KremlinSession().serve(SummaryRequest())


class TestDeprecationShim(unittest.TestCase):
    """The package-root one-shot helpers: ``analyze(source)`` only; the
    deprecated option kwargs are gone in favour of KremlinSession."""

    def test_plain_analyze_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = analyze(SOURCE)
        self.assertEqual(report.run.value, sum(range(12)))

    def test_legacy_kwargs_are_rejected(self):
        with self.assertRaises(TypeError):
            analyze(SOURCE, filename="old.c")

    def test_make_planner_still_exported(self):
        self.assertIsInstance(repro.make_planner("openmp"), OpenMPPlanner)


class TestStandaloneImports(unittest.TestCase):
    def test_analyze_imports_only_the_standard_library(self):
        """The pipeline pulls in no third-party package; modules the
        interpreter loaded at startup (site hooks) are not counted."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        script = (
            "import sys\n"
            "startup = set(sys.modules)\n"
            "import repro\n"
            f"repro.analyze({SOURCE!r})\n"
            # multiprocessing aliases __main__ as __mp_main__
            "stdlib = set(sys.stdlib_module_names) | {'repro', '__mp_main__'}\n"
            "print(sorted({name.partition('.')[0] for name in sys.modules\n"
            "    if name not in startup} - stdlib))\n"
        )
        env = dict(os.environ, PYTHONPATH=src, KREMLIN_CODEGEN_CACHE="0")
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertEqual(done.stdout.strip(), "[]")


class TestPlannerRegistry(unittest.TestCase):
    def test_builtins_are_registered(self):
        self.assertEqual(
            available_personalities(),
            sorted(["openmp", "cilk", "gprof", "sp-filter", "static"]),
        )

    def test_lookup_and_create(self):
        self.assertIs(planner_class("openmp"), OpenMPPlanner)
        self.assertIsInstance(create_planner("openmp"), OpenMPPlanner)

    def test_unknown_personality_lists_choices(self):
        with self.assertRaises(ValueError) as caught:
            create_planner("nope")
        self.assertIn("unknown personality 'nope'", str(caught.exception))
        self.assertIn("openmp", str(caught.exception))

    def test_register_custom_personality(self):
        class EverythingPlanner(OpenMPPlanner):
            pass

        register_personality("everything", EverythingPlanner)
        try:
            self.assertIn("everything", available_personalities())
            report = KremlinSession(
                plan_options=PlanOptions(personality="everything")
            ).analyze(SOURCE)
            self.assertIsNotNone(report.plan)
        finally:
            unregister_personality("everything")
        self.assertNotIn("everything", available_personalities())

    def test_duplicate_registration_rejected(self):
        with self.assertRaises(ValueError):
            register_personality("openmp", OpenMPPlanner)
        # ... unless replace is explicit.
        register_personality("openmp", OpenMPPlanner, replace=True)
        self.assertIs(planner_class("openmp"), OpenMPPlanner)

    def test_non_planner_rejected(self):
        with self.assertRaises(TypeError):
            register_personality("bogus", dict)


if __name__ == "__main__":
    unittest.main()
