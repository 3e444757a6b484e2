"""Cross-module integration tests: consistency between pipeline stages."""

import pytest

from repro import CompileOptions, KremlinSession, PlanOptions
from repro.analysis.callgraph import build_call_graph
from repro.analysis.loops import find_natural_loops
from repro.bench_suite import run_benchmark
from repro.exec_model import simulate_plan
from repro.planner.speedup import estimate_program_speedup

BENCH_SAMPLE = ["ep", "lu", "mg", "equake"]


@pytest.mark.parametrize("name", BENCH_SAMPLE)
class TestStaticDynamicConsistency:
    def test_natural_loops_match_region_tree(self, name):
        """IR-level loop detection and lowering's region tree must agree on
        every function of every benchmark."""
        result = run_benchmark(name)
        module = result.program.module
        regions = result.program.regions
        for function in module.functions.values():
            forest = find_natural_loops(function)
            tree_loops = [
                r for r in regions.loops() if r.function_name == function.name
            ]
            assert len(forest.loops) == len(tree_loops), function.name
            assert sorted(l.depth for l in forest.loops) == sorted(
                r.loop_depth for r in tree_loops
            ), function.name

    def test_dynamic_children_respect_call_graph(self, name):
        """A function region observed dynamically under another function's
        subtree implies a static call-graph path between them."""
        result = run_benchmark(name)
        graph = build_call_graph(result.program.module)
        aggregated = result.aggregated
        regions = result.program.regions
        for static_id, children in aggregated.children.items():
            parent_region = regions.region(static_id)
            for child_id in children:
                child_region = regions.region(child_id)
                if not child_region.is_function:
                    continue
                caller = parent_region.function_name
                assert graph.calls(caller, child_region.name), (
                    f"{child_region.name} nested under {parent_region.name} "
                    f"but {caller} never calls it"
                )

    def test_instances_match_call_counts_for_functions(self, name):
        """Function-region instance counts = dynamic call counts, which for
        main is exactly 1."""
        result = run_benchmark(name)
        aggregated = result.aggregated
        main_profile = aggregated.profiles[
            result.program.regions.function_region("main").id
        ]
        assert main_profile.instances == 1

    def test_coverage_bounded_by_parent(self, name):
        """A region's work can never exceed the work of any region it only
        ever executes inside of (its lexical function)."""
        result = run_benchmark(name)
        aggregated = result.aggregated
        regions = result.program.regions
        for profile in aggregated.plannable():
            region = profile.region
            if not region.is_loop or region.parent_id is None:
                continue
            ancestors = regions.ancestors(region.id)
            function = next(r for r in ancestors if r.is_function)
            function_profile = aggregated.profiles.get(function.id)
            if function_profile is None:
                continue
            assert profile.work <= function_profile.work + 1


class TestEstimateVsSimulation:
    def test_planner_estimate_is_optimistic_bound(self):
        """The planner's Amdahl estimate ignores overheads, so the simulated
        speedup of a single-region plan can never beat it (on the idealized
        unlimited-core sweep it approaches it)."""
        for name in ("ep", "mg"):
            result = run_benchmark(name)
            from repro.planner import OpenMPPlanner

            plan = OpenMPPlanner().plan(result.aggregated)
            for item in plan.items[:3]:
                estimate = estimate_program_speedup(
                    item.profile, result.aggregated.total_work
                )
                from repro.exec_model import best_configuration

                simulated = best_configuration(
                    result.profile, {item.static_id}
                ).speedup
                assert simulated <= estimate * 1.02, (name, item.region.name)


class TestEndToEndReportConsistency:
    SOURCE = """
    float grid[48][48];
    void sweep() {
      for (int i = 1; i < 47; i++) {
        for (int j = 1; j < 47; j++) {
          grid[i][j] = 0.25 * (grid[i-1][j] + grid[i+1][j]
                             + grid[i][j-1] + grid[i][j+1]);
        }
      }
    }
    int main() {
      for (int t = 0; t < 6; t++) { sweep(); }
      return (int) grid[3][3];
    }
    """

    def test_report_components_agree(self):
        report = KremlinSession(
            compile_options=CompileOptions(filename="consistency.c")
        ).analyze(self.SOURCE)
        # The plan's items all exist in the aggregation.
        for item in report.plan:
            assert item.static_id in report.aggregated.profiles
        # The simulated serial time equals the profile's root work.
        sim = simulate_plan(report.profile, set())
        assert sim.serial_time == report.profile.root_entry.work
        # Rendered outputs mention the same top region.
        if report.plan.items:
            top = report.plan[0].region.name
            assert report.plan[0].location in report.render_plan()
            assert top in report.render_regions()

    def test_analyze_personalities_share_profile(self):
        report = KremlinSession(
            compile_options=CompileOptions(filename="consistency.c"),
            plan_options=PlanOptions(personality="openmp"),
        ).analyze(self.SOURCE)
        gprof_plan = report.replan(personality="gprof")
        assert len(gprof_plan) >= len(report.plan)
        openmp_again = report.replan(personality="openmp")
        assert openmp_again.region_ids == report.plan.region_ids
