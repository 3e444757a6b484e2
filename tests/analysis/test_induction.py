"""IR-level induction/reduction detection, cross-checked with lowering.

The static analyzer's detectors (``analyze_function_dependences``) are the
only IR-level induction/reduction model; lowering's AST-level
``dep_break`` marks are what HCPA consumes. Every mark lowering puts on a
variable register must get the same class from the analyzer.
"""

import glob
import os

from repro.analysis.dependence import DepClass, analyze_function_dependences
from repro.analysis.loops import find_natural_loops
from repro.bench_suite.registry import all_benchmarks
from repro.ir.instructions import BinOp, Load
from tests.conftest import compile_source
from tests.lowering.test_dep_break import CALL_WRITES_STEP_STATE

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

_KIND_CLASS = {"induction": DepClass.INDUCTION, "reduction": DepClass.REDUCTION}


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


def _sources():
    for benchmark in all_benchmarks():
        yield benchmark.name, benchmark.source
    for pattern in ("tests/fuzz/corpus/*.c", "examples/*.c"):
        for path in sorted(glob.glob(os.path.join(_REPO, pattern))):
            with open(path) as handle:
                yield os.path.basename(path), handle.read()
    yield from CALL_WRITES_STEP_STATE.items()


class TestCrossValidationWithLowering:
    def test_every_lowering_mark_is_detected_at_ir_level(self):
        """Every lowering mark whose old value is a variable register gets
        the same class from the analyzer in the mark's innermost loop.

        Memory-cell marks (global scalars, ``A[i] ⊕= e``) are excluded:
        their old value comes from a Load, has no IR-level scalar
        counterpart, and the analyzer consumes the mark itself as a cell
        reduction.
        """
        checked = 0
        for name, source in _sources():
            module = compile_source(source, name).module
            for function in module.functions.values():
                forest = find_natural_loops(function)
                infos = {
                    info.loop: info
                    for info in analyze_function_dependences(
                        function, module, forest=forest
                    )
                }
                loaded = {
                    instr.result
                    for instr in function.instructions()
                    if isinstance(instr, Load)
                }
                for block in function.blocks:
                    for instr in block.instructions:
                        if not isinstance(instr, BinOp) or not instr.dep_break:
                            continue
                        old = instr.operands[instr.break_operand]
                        if old in loaded:
                            continue  # memory-cell mark
                        scalar = infos[forest.loop_of(block)].scalars.get(old)
                        got = scalar.dep_class if scalar else None
                        assert got is _KIND_CLASS[instr.dep_break], (
                            f"{name}:{function.name}: lowering marks {old} "
                            f"{instr.dep_break}, the analyzer says {got}"
                        )
                        checked += 1
        assert checked >= 225
