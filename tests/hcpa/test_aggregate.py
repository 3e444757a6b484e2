"""Aggregation tests: per-static-region statistics from the dictionary."""

import pytest

from tests.conftest import profile_source, region_profile


class TestAggregation:
    def test_work_aggregates_across_instances(self):
        _, _, aggregated = profile_source(
            """
            float a[8];
            void kernel() {
              for (int i = 0; i < 8; i++) { a[i] = a[i] + 1.0; }
            }
            int main() { kernel(); kernel(); kernel(); return (int) a[0]; }
            """
        )
        kernel = region_profile(aggregated, "kernel")
        assert kernel.instances == 3
        single_loop = region_profile(aggregated, "kernel#loop1")
        assert single_loop.instances == 3
        # kernel work ≈ 3 × one loop execution (plus enter/exit glue)
        assert kernel.work >= single_loop.work

    def test_coverage_sums_sensibly(self):
        _, _, aggregated = profile_source(
            """
            float a[32];
            void phase1() { for (int i = 0; i < 32; i++) a[i] = a[i] + 1.0; }
            void phase2() { for (int i = 0; i < 32; i++) a[i] = a[i] * 2.0; }
            int main() { phase1(); phase2(); return (int) a[0]; }
            """
        )
        p1 = region_profile(aggregated, "phase1")
        p2 = region_profile(aggregated, "phase2")
        main = region_profile(aggregated, "main")
        assert main.coverage == pytest.approx(1.0)
        assert 0.3 < p1.coverage < 0.7
        assert p1.coverage + p2.coverage < 1.0  # main has self-work too

    def test_sibling_coverages_disjoint(self):
        _, _, aggregated = profile_source(
            """
            float a[16];
            int main() {
              for (int i = 0; i < 16; i++) { a[i] = 1.0; }
              for (int i = 0; i < 16; i++) { a[i] = a[i] * 2.0; }
              return (int) a[5];
            }
            """
        )
        loop1 = region_profile(aggregated, "main#loop1")
        loop2 = region_profile(aggregated, "main#loop2")
        assert loop1.coverage + loop2.coverage <= 1.0

    def test_children_edges_include_call_nesting(self):
        _, _, aggregated = profile_source(
            """
            void callee() { }
            int main() {
              for (int i = 0; i < 3; i++) { callee(); }
              return 0;
            }
            """
        )
        regions = {p.region.name: p for p in aggregated.profiles.values()}
        body = next(
            p for name, p in regions.items() if name == "main#loop1.body"
        )
        callee = regions["callee"]
        assert callee.static_id in aggregated.children_of(body.static_id)

    def test_descendants_transitive(self):
        _, _, aggregated = profile_source(
            """
            void inner() { for (int i = 0; i < 2; i++) { } }
            void outer() { inner(); }
            int main() { outer(); return 0; }
            """
        )
        regions = {p.region.name: p.static_id for p in aggregated.profiles.values()}
        descendants = aggregated.descendants_of(regions["main"])
        assert regions["outer"] in descendants
        assert regions["inner"] in descendants
        assert regions["inner#loop1"] in descendants

    def test_plannable_excludes_bodies(self):
        _, _, aggregated = profile_source(
            "int main() { int s = 0; for (int i = 0; i < 4; i++) s += i; return s; }"
        )
        names = [p.region.name for p in aggregated.plannable()]
        assert "main#loop1" in names
        assert "main" in names
        assert not any(name.endswith(".body") for name in names)

    def test_unexecuted_regions_absent(self):
        _, _, aggregated = profile_source(
            """
            void never_called() { for (int i = 0; i < 4; i++) { } }
            int main() { return 0; }
            """
        )
        names = [p.region.name for p in aggregated.plannable()]
        assert "never_called" not in names

    def test_recursive_function_aggregates_without_looping(self):
        _, _, aggregated = profile_source(
            """
            int fact(int n) { if (n < 2) return 1; return n * fact(n - 1); }
            int main() { return fact(6); }
            """
        )
        fact = region_profile(aggregated, "fact")
        assert fact.instances == 6
        # descendants_of must terminate despite the self-edge
        assert fact.static_id in aggregated.descendants_of(fact.static_id)

