"""IR-level induction/reduction detection.

The static analyzer's detectors (``analyze_function_dependences``) are the
only induction/reduction model; the ``dep_break`` marks HCPA consumes are
derived from them (see ``tests/lowering/test_dep_break.py``).
"""

from repro.analysis.dependence import DepClass, analyze_function_dependences
from tests.conftest import compile_source


def main_loop(source):
    """The analyzer's facts for the only loop of ``main``."""
    program = compile_source(source)
    [info] = analyze_function_dependences(
        program.module.function("main"), program.module
    )
    return info


class TestInductionDetection:
    def test_for_step_is_induction(self):
        info = main_loop(
            "int main() { int s = 0; for (int i = 0; i < 9; i++) s += 2; return s; }"
        )
        assert info.scalar_class("i") is DepClass.INDUCTION

    def test_while_manual_increment_is_induction(self):
        info = main_loop(
            "int main() { int i = 0; int w = 0; while (i < 5) { w += 3; i = i + 1; } return w; }"
        )
        assert info.scalar_class("i") is DepClass.INDUCTION

    def test_downward_induction(self):
        info = main_loop(
            "int main() { int s = 0; for (int i = 9; i >= 0; i--) s += i; return s; }"
        )
        assert info.scalar_class("i") is DepClass.INDUCTION
        [induction] = info.inductions.values()
        assert induction.step == -1

    def test_variable_stride_with_invariant_step(self):
        info = main_loop(
            """
            int main() {
              int s = 0;
              int step = 3;
              for (int i = 0; i < 30; i += step) s += 1;
              return s;
            }
            """
        )
        assert info.scalar_class("i") is DepClass.INDUCTION

    def test_multiplicative_update_is_not_induction(self):
        info = main_loop(
            """
            int main() {
              float x = 1.0;
              int guard = 0;
              for (int i = 0; i < 5; i++) { x = x * 2.0; guard += (int) x; }
              return guard;
            }
            """
        )
        # x = x * 2 is read by guard's update, so it is neither an
        # induction nor a reduction; i++ is the induction.
        assert info.scalar_class("x") is DepClass.CROSS_ITERATION
        assert info.scalar_class("i") is DepClass.INDUCTION


class TestReductionDetection:
    def test_sum_reduction(self):
        info = main_loop(
            "int main() { int s = 0; for (int i = 0; i < 9; i++) s += i * 2; return s; }"
        )
        assert info.scalar_class("s") is DepClass.REDUCTION

    def test_accumulator_read_in_loop_is_not_reduction(self):
        info = main_loop(
            """
            int main() {
              float x = 1.0;
              float y = 0.0;
              for (int i = 0; i < 5; i++) {
                x = x * 0.5 + 1.0;
                y = y + x;
              }
              return (int) (x + y);
            }
            """
        )
        # y = y + x is a genuine reduction of y; x is read by y's update.
        assert info.scalar_class("x") is DepClass.CROSS_ITERATION
        assert info.scalar_class("y") is DepClass.REDUCTION

    def test_subtraction_reduction_left_only(self):
        info = main_loop(
            "int main() { int s = 100; for (int i = 0; i < 5; i++) s -= i; return s; }"
        )
        assert info.scalar_class("s") is DepClass.REDUCTION
        info = main_loop(
            "int main() { int s = 100; for (int i = 0; i < 5; i++) s = i - s; return s; }"
        )
        assert info.scalar_class("s") is DepClass.CROSS_ITERATION
