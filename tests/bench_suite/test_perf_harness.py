"""The engine micro-benchmark harness records one run's instruction count."""

import importlib.util
import os

from repro.instrument.compile import kremlin_cc
from repro.interp.interpreter import Interpreter

_HARNESS = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "perf", "harness.py"
)

_SOURCE = """
int g;
int main() {
  int i;
  for (i = 0; i < 50; i++) { g = g + i; }
  return g;
}
"""


def _load_harness():
    spec = importlib.util.spec_from_file_location("perf_harness", _HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repeated_runs_record_a_single_run_count():
    harness = _load_harness()
    program = kremlin_cc(_SOURCE, "count.c")
    single = Interpreter(program, engine="tree").run("main")
    for mode in harness.MODES:
        row = harness._measure_mode(
            program, lambda: kremlin_cc(_SOURCE, "count.c"), mode, runs=3
        )
        assert row["instructions_retired"] == single.instructions_retired
