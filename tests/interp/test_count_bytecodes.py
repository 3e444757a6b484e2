"""``scripts/count_bytecodes.py``: the deterministic cost measure for
changes to the generated code."""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.instrument.compile import kremlin_cc

_ROOT = Path(__file__).resolve().parents[2]
_SCRIPT = _ROOT / "scripts" / "count_bytecodes.py"

_SOURCE = """
int main() {
  int s = 0;
  for (int i = 0; i < %d; i++) {
    s = s + i * 2;
  }
  return s;
}
"""


@pytest.fixture(scope="module")
def count_bytecodes():
    spec = importlib.util.spec_from_file_location("count_bytecodes", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.count_bytecodes


def test_counts_are_deterministic(count_bytecodes):
    first = count_bytecodes(kremlin_cc(_SOURCE % 10, "bc.c"))
    second = count_bytecodes(kremlin_cc(_SOURCE % 10, "bc.c"))
    assert first == second
    bytecodes, lines = first
    assert bytecodes > 0
    assert lines > 0


def test_counts_grow_with_the_work_and_the_tracer_is_restored(
    count_bytecodes,
):
    before = sys.gettrace()
    short, lines = count_bytecodes(kremlin_cc(_SOURCE % 10, "short.c"))
    long, same_lines = count_bytecodes(kremlin_cc(_SOURCE % 40, "long.c"))
    assert sys.gettrace() is before
    # same generated code, four times the iterations
    assert lines == same_lines
    assert 3 * short < long < 5 * short
