"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro import CompileOptions, KremlinSession
from repro.hcpa.aggregate import aggregate_profile
from repro.instrument.compile import kremlin_cc
from repro.interp.interpreter import Interpreter
from repro.kremlib.profiler import KremlinProfiler, profile_program

@pytest.fixture(scope="session", autouse=True)
def _private_codegen_cache(tmp_path_factory):
    """Route the persistent codegen cache into a session-private directory.

    Keeps the suite hermetic: no test run reads a developer's
    ``~/.cache/kremlin`` (which could mask a codegen regression with a
    stale hit) or leaves entries behind. Tests exercising the cache
    itself re-``configure`` on top of this and restore it after.
    """
    from repro.interp import diskcache

    directory = str(tmp_path_factory.mktemp("kremlin-codegen-cache"))
    diskcache.configure(directory=directory, enabled=True)
    yield
    diskcache.configure()


#: execution configurations behaviour tests can be parametrized over:
#: the tree-walking reference, the compiled engine, and the compiled
#: engine with the KremLib profiler attached (which swaps in the fused
#: codegen flavor — a third code path with identical semantics)
ENGINE_MODES = ("tree", "compiled", "fused")


def compile_source(source: str, filename: str = "test.c"):
    return kremlin_cc(source, filename)


def run_source(
    source: str,
    entry: str = "main",
    args: tuple = (),
    engine_mode: str = "compiled",
):
    """Compile and execute; returns RunResult.

    ``engine_mode`` is one of :data:`ENGINE_MODES`. Mode ``fused`` runs the
    compiled engine under the profiler so the fused generated code
    executes; the run result must still be indistinguishable from an
    unprofiled run.
    """
    program = kremlin_cc(source, "test.c")
    if engine_mode == "fused":
        observer = KremlinProfiler(program)
        interp = Interpreter(program, observer=observer, engine="compiled")
    else:
        interp = Interpreter(program, engine=engine_mode)
    return interp.run(entry=entry, args=args)


def profile_source(source: str):
    """Compile, profile, aggregate. Returns (program, profile, aggregated)."""
    program = kremlin_cc(source, "test.c")
    profile, _run = profile_program(program)
    return program, profile, aggregate_profile(profile)


def region_profile(aggregated, name: str):
    """Find a region profile by region name."""
    for profile in aggregated.profiles.values():
        if profile.region.name == name:
            return profile
    raise KeyError(f"no region named {name!r}")


@pytest.fixture(scope="session")
def canonical_loops_report():
    """One profiled program containing the canonical loop shapes used by
    many HCPA tests: DOALL, serial recurrence, scalar reduction, histogram,
    and wavefront."""
    source = """
    float a[512];
    float b[512];
    int hist[16];
    float acc;

    void doall(int n) {
      for (int i = 0; i < n; i++) {
        a[i] = a[i] * 2.0 + 1.0;
      }
    }

    void serial_chain(int n) {
      float x = 1.0;
      for (int i = 0; i < n; i++) {
        x = x * 0.99 + 0.1;
      }
      b[0] = x;
    }

    void reduction(int n) {
      float s = 0.0;
      for (int i = 0; i < n; i++) {
        s += a[i] * b[i];
      }
      acc = s;
    }

    void histogram(int n) {
      for (int i = 0; i < n; i++) {
        hist[(i * 7 + 3) % 16] += 1;
      }
    }

    void wavefront(int n) {
      for (int i = 1; i < n; i++) {
        a[i] = a[i - 1] * 0.5 + b[i];
      }
    }

    int main() {
      for (int i = 0; i < 512; i++) {
        b[i] = (float) i * 0.25;
      }
      doall(512);
      serial_chain(512);
      reduction(512);
      histogram(512);
      wavefront(512);
      return 0;
    }
    """
    return KremlinSession(
        compile_options=CompileOptions(filename="canonical.c")
    ).analyze(source)
