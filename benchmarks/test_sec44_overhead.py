"""§4.4 — profiling overhead.

The paper reports that Kremlin-instrumented code runs about 50× slower than
gprof-instrumented code (i.e., heavyweight shadow-memory analysis costs a
constant factor over plain execution). We measure the same quantity for our
substrate: running a program with the KremLib profiler attached versus
running it bare, both on the compiled engine, asserting the slowdown is a
bounded constant factor — heavyweight, but usable.

Method: both interpreters are prepared (codegen done, or served from the
cache) before any clock starts, so only the runs are timed; each run is
repeated ``REPEATS`` times, alternating plain and profiled, and the fastest
of each is kept. The timings go to ``sec44_overhead`` (ungated); the work
both runs do — instructions retired and the profile's dictionary entries —
is deterministic and goes to the ``sec44_work`` golden.
"""

import time

from repro.instrument import kremlin_cc
from repro.interp import Interpreter
from repro.kremlib import KremlinProfiler

from benchmarks.conftest import write_result

REPEATS = 5

WORKLOAD = """
float a[96][96];
int main() {
  for (int it = 0; it < 2; it++) {
    for (int i = 1; i < 95; i++) {
      for (int j = 1; j < 95; j++) {
        a[i][j] = 0.25 * (a[i-1][j] + a[i+1][j] + a[i][j-1] + a[i][j+1]);
      }
    }
  }
  return (int) a[5][5];
}
"""


def _seconds(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def test_sec44_profiling_overhead(benchmark):
    program = kremlin_cc(WORKLOAD, "overhead.c")
    plain_interp = Interpreter(program)
    profiler = KremlinProfiler(program)
    profiled_interp = Interpreter(program, observer=profiler)
    plain_interp.prepare()
    profiled_interp.prepare()

    plain_seconds = profiled_seconds = float("inf")
    for _ in range(REPEATS):
        plain_seconds = min(plain_seconds, _seconds(plain_interp.run))
        profiled_seconds = min(
            profiled_seconds, _seconds(profiled_interp.run)
        )
    plain = plain_interp.run()
    profiled = profiled_interp.run()
    profile = profiler.profile

    slowdown = profiled_seconds / plain_seconds
    write_result(
        "sec44_work",
        (
            f"plain run:    {plain.instructions_retired} instructions\n"
            f"profiled run: {profiled.instructions_retired} instructions\n"
            f"profile:      {len(profile.dictionary.entries)} "
            f"dictionary entries"
        ),
    )
    write_result(
        "sec44_overhead",
        (
            f"plain run:    {plain_seconds * 1000:8.1f} ms "
            f"(compiled engine, best of {REPEATS}, codegen excluded)\n"
            f"profiled run: {profiled_seconds * 1000:8.1f} ms\n"
            f"slowdown:     {slowdown:.1f}x (paper: ~50x over gprof-level "
            f"instrumentation)"
        ),
    )

    # Semantics must be identical, and the overhead a bounded constant.
    assert plain.value == profiled.value
    assert plain.instructions_retired == profiled.instructions_retired
    assert 1.5 < slowdown < 120

    # Benchmark the profiled execution rate for the record.
    benchmark(profiled_interp.run)
