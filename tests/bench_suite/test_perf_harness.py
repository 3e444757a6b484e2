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


def test_update_baseline_keeps_each_ratios_median_pass():
    harness = _load_harness()

    def results(ep_plain, ep_hcpa):
        return {"ep": {
            "plain": {"speedup_compiled": ep_plain, "pass": (ep_plain,)},
            "hcpa": {"speedup_compiled": ep_hcpa, "pass": (ep_hcpa,)},
        }}

    passes = [results(15.0, 6.0), results(11.0, 8.0), results(13.0, 7.0)]
    median = harness.median_results(passes)
    assert median["ep"]["plain"] == {"speedup_compiled": 13.0, "pass": (13.0,)}
    assert median["ep"]["hcpa"] == {"speedup_compiled": 7.0, "pass": (7.0,)}
