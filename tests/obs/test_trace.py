"""Span nesting, timing determinism, and the null tracer."""

import unittest

from repro.obs import (
    NULL_TRACER,
    FakeClock,
    NullTracer,
    Tracer,
    get_tracer,
    set_tracer,
    tracing,
)


class TestSpanNesting(unittest.TestCase):
    def test_nested_spans_record_parent_and_depth(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        outer, inner, sibling = tracer.spans
        self.assertEqual(outer.name, "outer")
        self.assertIsNone(outer.parent)
        self.assertEqual(outer.depth, 0)
        self.assertEqual(inner.parent, outer.index)
        self.assertEqual(inner.depth, 1)
        self.assertEqual(sibling.parent, outer.index)
        self.assertEqual(sibling.depth, 1)

    def test_fake_clock_timing_is_deterministic(self):
        def run_once():
            tracer = Tracer(clock=FakeClock())
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
            return [
                (s.name, s.index, s.start, s.end) for s in tracer.spans
            ]

        first, second = run_once(), run_once()
        self.assertEqual(first, second)
        # FakeClock ticks once per start/stop: a opens at 0, b spans 1-2,
        # a closes at 3.
        self.assertEqual(first, [("a", 0, 0.0, 3.0), ("b", 1, 1.0, 2.0)])

    def test_duration_and_finished_spans(self):
        tracer = Tracer(clock=FakeClock(step=2.0))
        context = tracer.span("open-ended")
        context.__enter__()
        with tracer.span("closed"):
            pass
        self.assertEqual([s.name for s in tracer.finished_spans()], ["closed"])
        self.assertEqual(tracer.spans[1].duration, 2.0)

    def test_exception_is_recorded_on_the_span(self):
        tracer = Tracer(clock=FakeClock())
        with self.assertRaises(ValueError):
            with tracer.span("bad"):
                raise ValueError("boom")
        (span,) = tracer.spans
        self.assertIsNotNone(span.end)
        self.assertEqual(span.args["error"], "ValueError: boom")

    def test_annotate_targets_innermost_open_span(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.annotate(rows=7)
        outer, inner = tracer.spans
        self.assertNotIn("rows", outer.args)
        self.assertEqual(inner.args["rows"], 7)

    def test_span_args_kwargs(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("stage", file="x.c") as span:
            span.args["count"] = 3
        self.assertEqual(tracer.spans[0].args, {"file": "x.c", "count": 3})


class TestNullTracer(unittest.TestCase):
    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        with tracer.span("anything", key="value") as span:
            tracer.annotate(ignored=True)
            span.args["dropped"] = 1  # swallowed by design
        self.assertEqual(tracer.finished_spans(), [])
        self.assertFalse(tracer.enabled)

    def test_null_span_context_is_cached(self):
        self.assertIs(
            NULL_TRACER.span("a"), NULL_TRACER.span("b"),
            "disabled tracing must reuse one no-op context manager",
        )


class TestGlobalInstallation(unittest.TestCase):
    def test_default_is_the_null_tracer(self):
        self.assertIs(get_tracer(), NULL_TRACER)

    def test_tracing_context_installs_and_restores(self):
        with tracing(clock=FakeClock()) as tracer:
            self.assertIs(get_tracer(), tracer)
            with get_tracer().span("seen"):
                pass
        self.assertIs(get_tracer(), NULL_TRACER)
        self.assertEqual([s.name for s in tracer.spans], ["seen"])

    def test_set_tracer_returns_previous(self):
        tracer = Tracer(clock=FakeClock())
        previous = set_tracer(tracer)
        try:
            self.assertIs(previous, NULL_TRACER)
            self.assertIs(get_tracer(), tracer)
        finally:
            set_tracer(previous)
        self.assertIs(get_tracer(), NULL_TRACER)


class TestProductSpans(unittest.TestCase):
    """The profiled run's spans time what their names say."""

    # A source no other test compiles, so its first codegen is a miss.
    SOURCE = (
        "int main() { int s = 0;"
        " for (int i = 0; i < 7; i++) { s = s + i * 3; } return s; }"
    )

    def _spans(self, program, engine="compiled"):
        from repro.kremlib.profiler import profile_program

        with tracing(clock=FakeClock()) as tracer:
            profile_program(program, engine=engine)
        return tracer.spans

    def test_prepare_and_run_are_separate_spans(self):
        from repro.instrument.compile import kremlin_cc

        program = kremlin_cc(self.SOURCE, "product_spans.c")
        first = self._spans(program)
        second = self._spans(program)
        names = {span.index: span.name for span in first}
        self.assertEqual(
            [(span.name, span.parent) for span in first],
            [("prepare", None), ("run", None), ("hcpa-finalize", 1)],
        )
        self.assertEqual(first[0].args["cache"], "miss")
        self.assertEqual(second[0].args["cache"], "hit")
        run = first[1]
        self.assertEqual(run.args["entry"], "main")
        self.assertGreater(run.args["instructions"], 0)
        self.assertEqual(names[first[2].parent], "run")

    def test_tree_engine_prepare_has_no_cache(self):
        from repro.instrument.compile import kremlin_cc

        spans = self._spans(kremlin_cc(self.SOURCE, "t.c"), engine="tree")
        self.assertEqual(spans[0].name, "prepare")
        self.assertNotIn("cache", spans[0].args)

    def test_best_configuration_opens_simulate(self):
        from repro.exec_model.simulate import best_configuration
        from repro.instrument.compile import kremlin_cc
        from repro.kremlib.profiler import profile_program

        profile, _ = profile_program(kremlin_cc(self.SOURCE, "s.c"))
        with tracing(clock=FakeClock()) as tracer:
            best = best_configuration(profile, [], core_sweep=(1, 2, 4))
        (span,) = tracer.spans
        self.assertEqual(span.name, "simulate")
        self.assertEqual(span.args["configurations"], 3)
        self.assertEqual(span.args["best_cores"], best.machine.cores)


if __name__ == "__main__":
    unittest.main()
