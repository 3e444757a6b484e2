"""The parallel executor: chunked execution, verification, fallbacks."""

import pytest

from repro.parallel.executor import (
    ExecutionOutcome,
    ParallelExecutor,
    ParallelOptions,
)

DOALL_AND_REDUCTION = """
int out[64];
int total;

int main() {
  int i;
  for (i = 0; i < 64; i = i + 1) {
    out[i] = i * 3;
  }
  for (i = 0; i < 64; i = i + 1) {
    total = total + out[i];
  }
  print(total);
  return total;
}
"""

EXPECTED = sum(i * 3 for i in range(64))


def execute(source, filename="test.c", **options):
    with ParallelExecutor(ParallelOptions(mode="inline", **options)) as ex:
        return ex.execute_source(source, filename)


class TestInlineExecution:
    def test_doall_and_reduction_match_serial(self):
        outcome = execute(DOALL_AND_REDUCTION, workers=3)
        assert outcome.executed
        assert outcome.mismatch is None
        assert outcome.parallel_result.value == EXPECTED
        assert outcome.serial_result.value == EXPECTED
        assert outcome.output_identical
        assert outcome.parallel_scalars["total"] == EXPECTED
        assert outcome.parallel_arrays["out"] == outcome.serial_arrays["out"]

    def test_both_sites_dispatch_worker_chunks(self):
        outcome = execute(DOALL_AND_REDUCTION, workers=3)
        stats = {s.spec.region_name: s for s in outcome.site_stats}
        assert stats["main#loop1"].dispatched_chunks == 2
        assert stats["main#loop2"].dispatched_chunks == 2
        assert outcome.dispatched_chunks == 4

    @pytest.mark.parametrize("engine", ["tree", "compiled"])
    def test_every_engine_verifies(self, engine):
        outcome = execute(DOALL_AND_REDUCTION, workers=2, engine=engine)
        assert outcome.executed
        assert outcome.parallel_result.value == EXPECTED

    def test_single_worker_never_dispatches(self):
        outcome = execute(DOALL_AND_REDUCTION, workers=1)
        assert outcome.dispatched_chunks == 0
        assert outcome.mismatch is None


class TestSerialFallback:
    def test_no_executable_sites_falls_back(self):
        outcome = execute(
            """
            int a[8];
            int main() {
              int i;
              i = 0;
              while (i < 8) { a[i] = i * i; i = i + 1; }
              return a[5];
            }
            """
        )
        assert outcome.fallback
        assert outcome.fallback_reason == "no executable sites"
        assert not outcome.executed
        assert outcome.measured_speedup == 1.0
        assert outcome.serial_result.value == 25
        assert [r.reason for r in outcome.refused] == [
            "not a canonical counted for-loop"
        ]

    def test_tiny_trip_counts_stay_on_the_master(self):
        # min_trip: a 1-iteration loop is never worth a chunk ship
        outcome = execute(
            """
            int a[4];
            int main() {
              int i;
              for (i = 0; i < 1; i = i + 1) { a[i] = 7; }
              return a[0];
            }
            """,
            workers=4,
        )
        assert outcome.mismatch is None
        assert outcome.dispatched_chunks == 0

    def test_refused_loop_runs_serially_beside_an_executed_one(self):
        # one program, one accepted site, one refused site: the accepted
        # loop chunks, the refused loop runs unchanged, results agree
        outcome = execute(
            """
            int out[32];
            int chain[32];
            int main() {
              int i;
              for (i = 0; i < 32; i = i + 1) { out[i] = i * 5; }
              for (i = 1; i < 32; i = i + 1) { chain[i] = chain[i - 1] + out[i]; }
              return chain[31];
            }
            """,
            workers=2,
        )
        assert outcome.executed
        assert len(outcome.sites) == 1
        assert outcome.sites[0].region_name == "main#loop1"
        assert outcome.parallel_result.value == outcome.serial_result.value
        assert outcome.parallel_arrays["chain"] == outcome.serial_arrays["chain"]


class TestOutcomeProperties:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            ParallelExecutor(ParallelOptions(mode="threads"))

    def test_measured_speedup_requires_execution(self):
        outcome = execute(DOALL_AND_REDUCTION, workers=2)
        assert outcome.executed
        assert outcome.measured_speedup > 0.0
        assert outcome.parallel_seconds is not None

    def test_transformed_source_is_reported(self):
        outcome = execute(DOALL_AND_REDUCTION, workers=2)
        assert (
            "int __kremlin_hi = __kremlin_fork(0, __kremlin_trip);"
            in outcome.transformed_source
        )


def execute_bench(name, workers):
    from repro.bench_suite.registry import get_benchmark
    from repro.instrument import kremlin_cc

    program = kremlin_cc(get_benchmark(name).source, f"{name}.c")
    with ParallelExecutor(
        ParallelOptions(workers=workers, engine="compiled", mode="inline")
    ) as executor:
        return executor.execute(program)


class TestRendezvousByValue:
    """Chunk bounds reach the master's masked loop through fork's return
    value, so the plain emitter's cache of loop-invariant global scalars
    cannot serve it stale bounds (the corpus seed
    seed-parallel-nested-site.c is the minimal case)."""

    @pytest.mark.parametrize("workers", [2, 3])
    def test_lu_executes_and_matches_serial(self, workers):
        outcome = execute_bench("lu", workers)
        assert outcome.mismatch is None
        assert outcome.executed
        assert outcome.dispatched_chunks > 0


@pytest.mark.slow_parallel
class TestPoolExecution:
    """Real process-pool transport (spawns workers; excluded by default)."""

    def test_fork_pool_matches_serial(self):
        with ParallelExecutor(
            ParallelOptions(workers=2, mode="fork")
        ) as executor:
            outcome = executor.execute_source(DOALL_AND_REDUCTION, "pool.c")
        assert outcome.executed
        assert outcome.parallel_result.value == EXPECTED
        assert outcome.output_identical
        assert outcome.dispatched_chunks > 0

    def test_pool_is_reused_across_programs(self):
        with ParallelExecutor(
            ParallelOptions(workers=2, mode="fork")
        ) as executor:
            first = executor.execute_source(DOALL_AND_REDUCTION, "a.c")
            second = executor.execute_source(DOALL_AND_REDUCTION, "b.c")
        assert first.executed and second.executed
        assert (
            first.parallel_result.value
            == second.parallel_result.value
            == EXPECTED
        )


@pytest.mark.slow_parallel
@pytest.mark.parametrize("workers", [2, 3])
def test_every_bench_program_matches_serial(workers):
    """Inline compiled execution of all 13 bench programs: every program
    with an accepted site executes and matches serial (ep has none)."""
    from repro.bench_suite.registry import all_benchmarks

    idle = []
    for bench in all_benchmarks():
        outcome = execute_bench(bench.name, workers)
        assert outcome.mismatch is None, (bench.name, outcome.mismatch)
        if not outcome.executed:
            assert outcome.fallback_reason == "no executable sites"
            idle.append(bench.name)
    assert idle == ["ep"]
