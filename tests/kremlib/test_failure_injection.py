"""Failure injection: the runtime must detect corrupted instrumentation.

The KremLib region stack enforces the proper-nesting discipline §2.2
requires; these tests corrupt the markers and assert loud failures rather
than silent garbage profiles.
"""

import pytest

from repro.instrument.compile import kremlin_cc
from repro.interp.interpreter import Interpreter
from repro.ir.instructions import RegionEnter, RegionExit
from repro.kremlib.profiler import KremlinProfiler, ProfilerError

SOURCE = """
int main() {
  int s = 0;
  for (int i = 0; i < 4; i++) { s += i; }
  return s;
}
"""


def run_profiled(program):
    profiler = KremlinProfiler(program)
    Interpreter(program, observer=profiler).run()
    return profiler


class TestMarkerCorruption:
    def test_dropped_exit_detected(self):
        program = kremlin_cc(SOURCE)
        main = program.module.function("main")
        # Remove the loop's region_exit (in loop.exit block).
        exit_block = main.block_by_label("loop.exit3")
        exit_block.instructions = [
            i for i in exit_block.instructions if not isinstance(i, RegionExit)
        ]
        with pytest.raises(ProfilerError):
            run_profiled(program)

    def test_swapped_exit_detected(self):
        program = kremlin_cc(SOURCE)
        main = program.module.function("main")
        exits = [
            i
            for block in main.blocks
            for i in block.instructions
            if isinstance(i, RegionExit)
        ]
        assert len(exits) >= 2
        exits[0].region_id, exits[1].region_id = (
            exits[1].region_id,
            exits[0].region_id,
        )
        with pytest.raises(ProfilerError, match="unbalanced"):
            run_profiled(program)

    def test_spurious_exit_detected(self):
        program = kremlin_cc(SOURCE)
        main = program.module.function("main")
        last = main.blocks[-1]
        # Duplicate the function exit: the second pop hits an empty stack.
        function_exit = next(
            i for i in last.instructions if isinstance(i, RegionExit)
        )
        last.instructions.append(
            RegionExit(function_exit.span, region_id=function_exit.region_id)
        )
        with pytest.raises(ProfilerError, match="empty region stack"):
            run_profiled(program)

    def test_unfinished_run_has_no_profile(self):
        program = kremlin_cc(SOURCE)
        profiler = KremlinProfiler(program)
        with pytest.raises(ProfilerError, match="not completed"):
            _ = profiler.profile


class TestShadowMemoryStructure:
    def test_two_level_lazy_allocation(self):
        """Shadow memory is allocated per storage object on first write —
        the paper's dynamically-allocated two-level table (§4.1)."""
        program = kremlin_cc(
            """
            float touched[16];
            float untouched[16];
            int main() {
              for (int i = 0; i < 16; i++) { touched[i] = 1.0; }
              return 0;
            }
            """
        )
        profiler = KremlinProfiler(program)
        interpreter = Interpreter(program, observer=profiler)
        interpreter.run()
        touched_id = id(interpreter.state.arrays["touched"])
        untouched_id = id(interpreter.state.arrays["untouched"])
        assert touched_id in profiler.mem_shadow
        assert untouched_id not in profiler.mem_shadow
        # one slot per written element
        assert len(profiler.mem_shadow[touched_id]) == 16

    def test_local_arrays_get_distinct_shadow(self):
        program = kremlin_cc(
            """
            void fill() {
              float buf[8];
              for (int i = 0; i < 8; i++) { buf[i] = 1.0; }
            }
            int main() { fill(); fill(); return 0; }
            """
        )
        profiler = KremlinProfiler(program)
        Interpreter(program, observer=profiler).run()
        # two activations allocate two distinct storages (unless Python
        # reuses the id after GC; at least one must exist)
        assert len(profiler.mem_shadow) >= 1
