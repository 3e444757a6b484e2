"""The parallel executor: chunked execution, verification, fallbacks."""

import math
from types import SimpleNamespace

import pytest

from repro.interp.interpreter import ArrayStorage
from repro.parallel import executor as executor_module
from repro.parallel.executor import (
    ExecutionOutcome,
    ParallelAbort,
    ParallelExecutor,
    ParallelOptions,
    _merge,
    _PendingEntry,
    same_value,
)
from repro.parallel.transform import ReductionSpec, SiteSpec
from repro.parallel.worker import ChunkOutcome

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


NAN = float("nan")
INF = float("inf")


class TestSameValue:
    VALUES = [0, 1, -1, 2**70, 0.0, -0.0, 1.0, -1.0, 0.1, INF, -INF, NAN]
    VALUES += [-NAN, None]

    def test_agrees_with_repr_equality(self):
        for left in self.VALUES:
            for right in self.VALUES:
                assert same_value(left, right) == (
                    repr(left) == repr(right)
                ), (left, right)


def merge(live, snapshot, *workers, ship_scalars=None, reductions=()):
    """Run the join's merge of ``workers`` (each ``(arrays, scalars)``)
    into a master state holding ``live`` arrays; return that state."""
    site = SiteSpec(
        index=0,
        region_id=1,
        region_name="main#loop1",
        function="main",
        location="t.c:3",
        verdict="doall",
        reductions=reductions,
        writes=tuple(sorted(snapshot)),
    )
    state = SimpleNamespace(arrays={}, scalars=dict(ship_scalars or {}))
    for name, values in live.items():
        state.arrays[name] = ArrayStorage(len(values), False)
        state.arrays[name].data[:] = values
    entry = _PendingEntry(
        site=site,
        trip=8,
        chunks=[],
        futures=[],
        ship_scalars=dict(ship_scalars or {}),
        snapshot_arrays=snapshot,
        start=0.0,
    )
    outcomes = [
        ChunkOutcome(0, 0, 1, scalars, arrays, 0.0, 0, 0)
        for arrays, scalars in workers
    ]
    _merge(state, entry, outcomes)
    return state


class TestMerge:
    """The join's merge on hand-built worker outcomes."""

    def test_two_workers_writing_different_values_abort(self):
        with pytest.raises(ParallelAbort) as info:
            merge(
                {"a": [0.0, 0.0]},
                {"a": [0.0, 0.0]},
                ({"a": [0.0, 1.5]}, {}),
                ({"a": [0.0, 2.5]}, {}),
            )
        assert str(info.value) == "conflicting writes to a[1] (1.5 vs 2.5)"

    def test_master_and_worker_disagreeing_abort(self):
        with pytest.raises(ParallelAbort) as info:
            merge({"a": [3.0]}, {"a": [0.0]}, ({"a": [4.0]}, {}))
        assert str(info.value) == "conflicting writes to a[0] (3.0 vs 4.0)"

    def test_equal_values_and_nan_over_nan_do_not_abort(self):
        state = merge(
            {"a": [0.0, NAN, 7.0]},
            {"a": [0.0, 0.0, 0.0]},
            ({"a": [5.0, float("nan"), 7.0]}, {}),
            ({"a": [5.0, NAN, 0.0]}, {}),
        )
        data = state.arrays["a"].data
        assert data[0] == 5.0 and data[2] == 7.0
        assert math.isnan(data[1])

    def test_negative_zero_over_zero_is_applied(self):
        state = merge(
            {"a": [0.0, 0.0]}, {"a": [0.0, 0.0]}, ({"a": [-0.0, 0.0]}, {})
        )
        assert repr(state.arrays["a"].data) == "[-0.0, 0.0]"

    def test_stray_scalar_write_aborts(self):
        with pytest.raises(
            ParallelAbort, match="unexpected worker write to scalar 'g'"
        ):
            merge(
                {"a": [0.0]},
                {"a": [0.0]},
                ({"a": [0.0]}, {"g": 1}),
                ship_scalars={"g": 0},
            )

    def test_reduction_partials_fold_into_the_master_cell(self):
        state = merge(
            {"a": [0.0]},
            {"a": [0.0]},
            ({"a": [0.0]}, {"s": 4}),
            ({"a": [0.0]}, {"s": 5}),
            ship_scalars={"s": 3},
            reductions=(ReductionSpec("s", "+", False),),
        )
        assert state.scalars["s"] == 12


SIGNED_ZERO_AND_NAN = """
float a[64];
float b[64];

int main() {
  int i;
  float big;
  float nan;
  big = 1.0;
  for (i = 0; i < 1100; i = i + 1) { big = big * 2.0; }
  nan = big - big;
  for (i = 0; i < 64; i = i + 1) { b[i] = nan; }
  for (i = 0; i < 64; i = i + 1) {
    if (i % 2 == 0) { a[i] = -1.0 * 0.0; b[i] = nan; }
    else { a[i] = nan; b[i] = 0.0 * -1.0; }
  }
  return 0;
}
"""

WRITE_SET = """
int a[32];
int b[32];
int c[32];
int d[32];

void put(int i) { c[i] = b[i] + 1; }

int main() {
  int i;
  for (i = 0; i < 32; i = i + 1) { b[i] = i; }
  for (i = 0; i < 32; i = i + 1) {
    a[i] = b[i] * 2;
    put(i);
  }
  return a[31] + c[31] + d[0];
}
"""


class TestWriteSetMerge:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_signed_zero_and_nan_writes_match_serial(self, workers):
        outcome = execute(SIGNED_ZERO_AND_NAN, workers=workers)
        assert outcome.executed
        assert outcome.mismatch is None
        assert outcome.dispatched_chunks > 0
        assert repr(outcome.parallel_arrays) == repr(outcome.serial_arrays)
        assert repr(outcome.parallel_arrays["a"][:2]) == "[-0.0, nan]"

    def test_chunks_return_exactly_the_site_write_set(self, monkeypatch):
        returned = []
        execute_chunk = executor_module.execute_chunk

        def spy(interp, task):
            outcome = execute_chunk(interp, task)
            returned.append((task.site, sorted(outcome.arrays)))
            return outcome

        monkeypatch.setattr(executor_module, "execute_chunk", spy)
        outcome = execute(WRITE_SET, workers=2)
        assert outcome.executed
        # the callee's store to c counts; reads of b and the untouched d
        # do not travel back
        assert [site.writes for site in outcome.sites] == [("b",), ("a", "c")]
        assert returned == [(0, ["b"]), (1, ["a", "c"])]


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
