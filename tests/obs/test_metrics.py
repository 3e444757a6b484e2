"""Metric registry semantics, exact hot-path counts, and the byte-identity
contract: observability must never perturb the profile itself."""

import json
import re
import unittest

from repro import CompileOptions, KremlinSession, ProfileOptions
from repro.bench_suite.registry import get_benchmark
from repro.fuzz.differential import run_differential
from repro.hcpa.serialize import profile_to_json
from repro.obs import (
    MetricsRegistry,
    collecting_metrics,
    get_metrics,
    metrics_enabled,
)

COUNTING_SOURCE = """
int main() {
  int s = 0;
  for (int i = 0; i < 10; i = i + 1) {
    s = s + i;
  }
  return s;
}
"""


class TestRegistryBasics(unittest.TestCase):
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        histogram = registry.histogram("h")
        histogram.record(1.0)
        histogram.record(3.0)
        snapshot = registry.to_dict()
        self.assertEqual(snapshot["counters"], {"c": 5})
        self.assertEqual(snapshot["gauges"], {"g": 2.5})
        self.assertEqual(
            snapshot["histograms"]["h"],
            {"count": 2, "total": 4.0, "mean": 2.0, "min": 1.0, "max": 3.0},
        )
        self.assertEqual(len(registry), 3)

    def test_metric_creation_is_idempotent(self):
        registry = MetricsRegistry()
        self.assertIs(registry.counter("x"), registry.counter("x"))
        self.assertIs(registry.gauge("y"), registry.gauge("y"))
        self.assertIs(registry.histogram("z"), registry.histogram("z"))

    def test_counter_cell_is_shared_with_registry(self):
        registry = MetricsRegistry()
        cell = registry.counter("boxed").cell
        cell[0] += 7  # what generated compiled-engine code does
        self.assertEqual(registry.counter("boxed").value, 7)

    def test_reset_zeroes_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.0)
        registry.histogram("h").record(5.0)
        registry.reset()
        snapshot = registry.to_dict()
        self.assertEqual(snapshot["counters"], {"c": 0})
        self.assertEqual(snapshot["gauges"], {"g": 0.0})
        self.assertEqual(snapshot["histograms"]["h"]["count"], 0)

    def test_to_dict_is_json_serializable_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        snapshot = registry.to_dict()
        json.dumps(snapshot)
        self.assertEqual(list(snapshot["counters"]), ["a", "b"])

    def test_collecting_metrics_installs_and_restores(self):
        self.assertFalse(metrics_enabled())
        outer = get_metrics()
        with collecting_metrics() as registry:
            self.assertTrue(metrics_enabled())
            self.assertIs(get_metrics(), registry)
        self.assertFalse(metrics_enabled())
        self.assertIs(get_metrics(), outer)


class TestExactHotPathCounts(unittest.TestCase):
    """The compiled engine's counter emission is deterministic: the same
    program must always produce the same exact counts."""

    def _analyze_counts(self) -> dict:
        with collecting_metrics() as registry:
            KremlinSession(
                compile_options=CompileOptions(filename="count.c")
            ).analyze(COUNTING_SOURCE)
        counters = registry.to_dict()["counters"]
        # The persistent codegen cache's traffic counters are stateful by
        # design (first analyze writes the entry, the next one hits it);
        # everything else must reproduce exactly.
        return {
            name: value
            for name, value in counters.items()
            if not name.startswith("codegen.disk_cache.")
        }

    def test_counts_are_reproducible(self):
        self.assertEqual(self._analyze_counts(), self._analyze_counts())

    def test_hot_path_counts_are_pinned(self):
        # main never pushes a control entry (its only branch is the loop
        # test), so no control-top read is resolved or counted: like the
        # tree profiler, which resolves the control top only when the
        # stack is non-empty.
        counters = self._analyze_counts()
        self.assertEqual(
            {
                name: counters[name]
                for name in (
                    "fastpath.known_hits",
                    "fastpath.entry_resolutions",
                    "shadow.stale_evictions",
                    "shadow.cell_writes",
                    "shadow.frames",
                )
            },
            {
                "fastpath.known_hits": 31,
                "fastpath.entry_resolutions": 22,
                "shadow.stale_evictions": 1,
                "shadow.cell_writes": 0,
                "shadow.frames": 1,
            },
        )

    def test_expected_counters_are_present_and_sane(self):
        counters = self._analyze_counts()
        # One top-level frame (main), no user calls.
        self.assertEqual(counters["shadow.frames"], 1)
        # Pure register program: no array/global stores.
        self.assertEqual(counters["shadow.cell_writes"], 0)
        # The loop body runs 10 times; plenty of fused activity.
        self.assertGreater(counters["fastpath.known_hits"], 0)
        self.assertGreater(counters["fastpath.entry_resolutions"], 0)
        self.assertGreater(counters["interp.instructions.compiled"], 0)
        self.assertEqual(counters["session.analyses"], 1)
        # Compression identity: hits = raw records - dictionary entries.
        self.assertEqual(
            counters["compress.hits"],
            counters["compress.raw_records"]
            - counters["compress.dictionary_entries"],
        )

    def test_engines_disagree_on_fastpath_but_agree_on_results(self):
        with collecting_metrics() as registry:
            KremlinSession(
                profile_options=ProfileOptions(engine="tree")
            ).analyze(COUNTING_SOURCE)
        counters = registry.to_dict()["counters"]
        # The tree engine never runs generated code, so the codegen-time
        # fastpath counters must stay absent or zero.
        self.assertEqual(counters.get("fastpath.known_hits", 0), 0)
        self.assertEqual(counters["shadow.frames"], 1)
        self.assertGreater(counters["interp.instructions.tree"], 0)


class TestByteIdentityUnderObservability(unittest.TestCase):
    """Profiles must be byte-identical with metrics/tracing on or off."""

    SOURCE = """
int helper(int n) {
  int acc = 0;
  for (int i = 0; i < n; i = i + 1) {
    acc = acc + i * i;
  }
  return acc;
}
int main() {
  int total = 0;
  for (int j = 0; j < 4; j = j + 1) {
    total = total + helper(8);
  }
  return total;
}
"""

    def _profile_bytes(self, engine: str, observed: bool) -> str:
        session = KremlinSession(
            profile_options=ProfileOptions(engine=engine)
        )
        if observed:
            from repro.obs import Tracer, FakeClock

            session = KremlinSession(
                profile_options=ProfileOptions(engine=engine),
                tracer=Tracer(clock=FakeClock()),
                metrics=MetricsRegistry(),
            )
        report = session.analyze(self.SOURCE)
        return json.dumps(profile_to_json(report.profile), sort_keys=True)

    def test_profiles_identical_with_and_without_observability(self):
        baseline = self._profile_bytes("compiled", observed=False)
        self.assertEqual(baseline, self._profile_bytes("compiled", True))
        self.assertEqual(baseline, self._profile_bytes("tree", False))
        self.assertEqual(baseline, self._profile_bytes("tree", True))

    def test_differential_oracle_passes_under_observability(self):
        # The differential runner is the strongest oracle we have: run it
        # with metrics + tracing installed and it must still see
        # bit-identical profiles from both engines.
        from repro.obs import tracing

        with collecting_metrics():
            with tracing():
                outcome = run_differential(self.SOURCE)
        self.assertGreater(outcome.checks, 0)



# One metrics statement: an optional one-line guard, then a counter bump.
_COUNTER_LINE = re.compile(
    r"^\s*(?:if [^:]+: )?_m(?:fp|res|ev|cell|fr)\[0\] \+= \d+$"
)


class TestMetricsNeverChangeTheCodePath(unittest.TestCase):
    """With metrics on, the fused unit must run the production code: its
    source may differ from the metrics-off unit only by counter lines."""

    def test_metrics_source_differs_only_by_counter_increments(self):
        from repro.interp.codegen import build_unit

        for name in ("is", "mg"):
            program = get_benchmark(name).compile()
            for depth in (1 << 30, 2):
                on = build_unit(
                    program, "fused", max_depth=depth, metrics_on=True
                ).source
                off = build_unit(
                    program, "fused", max_depth=depth, metrics_on=False
                ).source
                counted = [
                    line
                    for line in on.split("\n")
                    if _COUNTER_LINE.match(line)
                ]
                stripped = "\n".join(
                    line
                    for line in on.split("\n")
                    if not _COUNTER_LINE.match(line)
                )
                self.assertTrue(counted, (name, depth))
                self.assertEqual(stripped, off, (name, depth))


if __name__ == "__main__":
    unittest.main()
