"""Module-analysis driver tests: verdict stamping onto the region tree,
and each per-function analysis fact built once."""

import sys
from collections import Counter

import pytest

from repro.analysis.driver import (
    analyze_module,
    analyze_program,
    resolve_loop_region,
    unknown_verdict,
)
from repro.analysis import dominators, loops
from repro.analysis.dataflow import ReachingDefinitions
from repro.analysis.verdict import UNKNOWN_TAG, Verdict
from repro.bench_suite.registry import get_benchmark
from repro.instrument.compile import kremlin_cc
from tests.conftest import compile_source


class TestVerdictStamping:
    def test_loop_regions_get_tags(self):
        program = compile_source(
            """
            float a[64];
            float acc;
            int main() {
              float s = 0.0;
              for (int i = 0; i < 64; i++) { a[i] = 1.0; }
              for (int i = 0; i < 64; i++) { s += a[i]; }
              acc = s;
              return 0;
            }
            """
        )
        analysis = analyze_module(program.module)
        tags = [
            region.verdict
            for region in program.regions
            if region.is_loop
        ]
        assert sorted(tags) == ["doall", "reduction(s)"]
        assert analysis.elapsed > 0.0
        # verdict_for answers by LOOP region id.
        loop_ids = [r.id for r in program.regions if r.is_loop]
        assert all(
            analysis.verdict_for(region_id) is not None
            for region_id in loop_ids
        )

    def test_non_loop_regions_stay_unknown(self):
        program = compile_source("int main() { return 0; }")
        analyze_module(program.module)
        assert all(
            region.verdict == UNKNOWN_TAG for region in program.regions
        )

    def test_do_while_body_walks_up_to_loop_region(self):
        # A do-while's natural-loop header lives in the BODY region; the
        # driver must walk parent links up to the enclosing LOOP region.
        program = compile_source(
            """
            float a[32];
            int main() {
              int i = 0;
              do {
                a[i] = 1.0;
                i = i + 1;
              } while (i < 32);
              return 0;
            }
            """
        )
        analyze_module(program.module)
        loop_tags = [
            region.verdict for region in program.regions if region.is_loop
        ]
        assert loop_tags == ["doall"]

    def test_least_safe_verdict_wins_for_shared_region(self):
        # Both natural loops resolve to distinct regions here, but the
        # helper must pick the least-safe verdict if they ever collide;
        # resolve_loop_region is the seam, so check it directly.
        program = compile_source(
            """
            float a[8];
            int main() {
              for (int i = 0; i < 8; i++) { a[i] = 1.0; }
              return 0;
            }
            """
        )
        analysis = analyze_module(program.module)
        [info] = analysis.loop_infos()
        region_id = resolve_loop_region(program.regions, info)
        assert region_id is not None
        assert program.regions.region(region_id).is_loop

    def test_resolve_rejects_bad_region_ids(self):
        program = compile_source("int main() { return 0; }")
        analysis = analyze_module(program.module)
        assert analysis.loop_infos() == []

        class FakeInfo:
            region_id = -1

        assert resolve_loop_region(program.regions, FakeInfo()) is None
        FakeInfo.region_id = 10_000
        assert resolve_loop_region(program.regions, FakeInfo()) is None
        FakeInfo.region_id = 0
        assert resolve_loop_region(None, FakeInfo()) is None

    def test_unknown_verdict_helper(self):
        verdict = unknown_verdict()
        assert verdict.verdict is Verdict.UNKNOWN
        assert verdict.tag == UNKNOWN_TAG


class TestCompileIntegration:
    def test_kremlin_cc_attaches_analysis(self):
        program = kremlin_cc(
            "int main() { return 0; }", "attach.c"
        )
        assert program.analysis is not None
        assert analyze_program(program).functions.keys() == (
            program.analysis.functions.keys()
        )

    def test_kremlin_cc_analyze_false_skips(self):
        program = kremlin_cc(
            "int main() { return 0; }", "skip.c", analyze=False
        )
        assert program.analysis is None


def count_builds(monkeypatch, owner, name, key) -> Counter:
    """Count calls of ``owner.name`` by ``key(first argument)``.

    Modules import analysis entry points by name, so the counting
    wrapper replaces every ``repro`` module attribute bound to the
    original, not just the defining one.
    """
    original = getattr(owner, name)
    counts: Counter = Counter()

    def counting(*args, **kwargs):
        counts[key(args[0])] += 1
        return original(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, counting)
        return counts
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return counts


class TestFactsBuiltOnce:
    @staticmethod
    def counters(monkeypatch):
        return {
            "ReachingDefinitions": count_builds(
                monkeypatch, ReachingDefinitions, "_compute",
                lambda rd: rd.function.name,
            ),
            "find_natural_loops": count_builds(
                monkeypatch, loops, "find_natural_loops",
                lambda function: function.name,
            ),
            "dominator_tree": count_builds(
                monkeypatch, dominators, "dominator_tree",
                lambda function: function.name,
            ),
        }

    @staticmethod
    def assert_once_per_function(by_name, functions):
        for fact, counts in by_name.items():
            assert set(counts) == functions, fact
            assert max(counts.values()) == 1, (fact, counts)

    @pytest.mark.parametrize("key", ["bt", "mandel", "ammp"])
    def test_analyze_module_builds_each_fact_once_per_function(
        self, monkeypatch, key
    ):
        program = kremlin_cc(get_benchmark(key).source, f"{key}.c")
        by_name = self.counters(monkeypatch)
        analyze_module(program.module)
        self.assert_once_per_function(by_name, set(program.module.functions))

    @pytest.mark.parametrize("key", ["bt", "mandel", "ammp"])
    def test_kremlin_cc_builds_each_fact_once_per_function(
        self, monkeypatch, key
    ):
        # The dependence-breaking marks, the instrumentation pass and the
        # analyzer share one copy of the facts.
        by_name = self.counters(monkeypatch)
        program = kremlin_cc(get_benchmark(key).source, f"{key}.c", analyze=True)
        self.assert_once_per_function(by_name, set(program.module.functions))
