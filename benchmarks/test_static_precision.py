"""Static precision — what the analyzer makes of each OpenMP plan.

Kremlin's plan is dynamic: it ranks regions by measured self-parallelism.
The static analyzer annotates every plan item. It *refutes* a DOALL claim
it can witness a cross-iteration dependence for, and marks a loop it
proves safe (doall or reduction) as *executable* by the parallel backend.

One row per bench program: the OpenMP plan's items, how many of them
measured as DOALL, how many of those the analyzer refutes, and how many
items are executable. Any move in the analyzer's precision (an induction
or reduction it starts or stops recognizing, a subscript test that gets
sharper) shows up here as a changed row.
"""

from repro.bench_suite import all_benchmarks, run_benchmark
from repro.planner import OpenMPPlanner
from repro.report.tables import Table

from benchmarks.conftest import write_result


def test_static_precision(suite, tracking, benchmark):
    results = dict(suite, tracking=tracking)
    for bench in all_benchmarks():
        if bench.name not in results:
            results[bench.name] = run_benchmark(bench.name)
    planner = OpenMPPlanner()

    def plan_all():
        return {
            name: planner.plan(result.aggregated)
            for name, result in results.items()
        }

    plans = benchmark(plan_all)

    table = Table(headers=["bench", "plan", "DOALL", "refuted", "executable"])
    totals = [0, 0, 0, 0]
    for bench in all_benchmarks():
        items = plans[bench.name].items
        row = [
            len(items),
            sum(item.classification == "DOALL" for item in items),
            sum(item.refuted for item in items),
            sum(item.executable for item in items),
        ]
        table.add_row(bench.name, *row)
        totals = [total + count for total, count in zip(totals, row)]
    table.add_row("total", *totals)
    write_result("static_precision", table.render())

    plan, doall, refuted, executable = totals
    # Only a DOALL claim can be refuted, and a refuted item is never
    # executable.
    assert refuted <= doall <= plan
    assert refuted + executable <= plan
    # The analyzer keeps at least one genuine refutation (is's histogram
    # needs privatisation) and proves some plan items safe.
    assert refuted >= 1
    assert executable >= 1
