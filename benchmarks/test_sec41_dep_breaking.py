"""§4.1 ablation — induction/reduction dependence breaking switched off.

The paper: easy-to-break dependencies "can create the false impression of
seriality in an otherwise parallel region. Kremlin statically identifies
these dependencies and breaks them with a special shadow memory update
rule". This ablation disables the rule (strips every ``dep_break`` flag
before instrumentation) and re-profiles the suite: reduction-bearing loops
must collapse toward serial, and the plans built from the crippled profiles
must lose most of their value.
"""

from repro.bench_suite import get_benchmark
from repro.exec_model import best_configuration
from repro.hcpa import aggregate_profile
from repro.instrument.compile import CompiledProgram
from repro.instrument.passes import ModuleInstrumentation, instrument_function
from repro.ir.instructions import BinOp
from repro.kremlib import profile_program
from repro.planner import OpenMPPlanner
from repro.report.tables import Table

from benchmarks.conftest import write_result

#: reduction-heavy benchmarks where breaking matters most
ABLATED = ["ep", "cg", "is", "equake"]


def compile_without_breaking(name: str) -> CompiledProgram:
    benchmark = get_benchmark(name)
    program = benchmark.compile()
    for function in program.module.functions.values():
        for instr in function.instructions():
            if isinstance(instr, BinOp) and instr.dep_break is not None:
                instr.dep_break = None
    # Re-instrument every function so the precomputed shadow operands
    # include the previously-broken old-value operands again
    # (``instrument_module`` would put the marks back first).
    program.instrumentation = ModuleInstrumentation(
        cost_model=program.cost_model,
        functions={
            name: instrument_function(function, program.cost_model)
            for name, function in program.module.functions.items()
        },
    )
    return program


def test_sec41_dependence_breaking(suite, kremlin_plans, benchmark):
    def ablate():
        rows = {}
        for name in ABLATED:
            crippled_program = compile_without_breaking(name)
            crippled_profile, _ = profile_program(crippled_program)
            crippled_aggregated = aggregate_profile(crippled_profile)
            crippled_plan = OpenMPPlanner().plan(crippled_aggregated)
            crippled_speedup = best_configuration(
                crippled_profile, crippled_plan.region_ids
            ).speedup
            rows[name] = (len(crippled_plan), crippled_speedup)
        return rows

    rows = benchmark.pedantic(ablate, rounds=1, iterations=1)

    table = Table(
        headers=[
            "bench", "plan (broken)", "speedup (broken)",
            "plan (ablated)", "speedup (ablated)",
        ]
    )
    for name in ABLATED:
        normal_plan = kremlin_plans[name]
        normal_speedup = best_configuration(
            suite[name].profile, normal_plan.region_ids
        ).speedup
        ablated_size, ablated_speedup = rows[name]
        table.add_row(
            name,
            len(normal_plan),
            f"{normal_speedup:.2f}x",
            ablated_size,
            f"{ablated_speedup:.2f}x",
        )
    write_result("sec41_dep_breaking", table.render())

    for name in ("ep", "cg", "equake"):
        normal_speedup = best_configuration(
            suite[name].profile, kremlin_plans[name].region_ids
        ).speedup
        _, ablated_speedup = rows[name]
        # Without dependence breaking the achievable plans lose most of
        # their value on reduction-heavy benchmarks.
        assert ablated_speedup < 0.75 * normal_speedup, name

    # ep is the extreme case: its single region is a giant reduction loop;
    # without breaking, the plan collapses entirely (speedup ~2 from the
    # small accepted-sample fraction only).
    assert rows["ep"][1] < 2.5

    # is, by contrast, must be IMMUNE: its coarse pass-level parallelism
    # comes from the count[] reset, not from any broken dependence — a nice
    # confirmation that HCPA's parallelism sources are what we think.
    assert rows["is"][1] > 0.9 * best_configuration(
        suite["is"].profile, kremlin_plans["is"].region_ids
    ).speedup
