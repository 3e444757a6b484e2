"""AST-level induction/reduction marking tests."""

import json

import pytest

from repro.frontend.parser import parse_program
from repro.hcpa.serialize import profile_to_json
from repro.ir.instructions import BinOp
from repro.kremlib.profiler import profile_program
from tests.conftest import compile_source

#: a called function writes the state ``v``'s step reads, through a
#: global scalar (call statement or call in a declaration) or a global
#: array, so ``v += ...`` is not an induction update
CALL_WRITES_STEP_STATE = {
    "global-call-stmt": """
        int g = 9;
        int bump(int p) { g = p % 31; return p; }
        int main() {
          int v = 3;
          for (int i = 0; i < 5; i++) { v += g; bump(v); }
          return v;
        }
    """,
    "global-call-decl": """
        int g = 9;
        int bump(int p) { g = p % 31; return p; }
        int main() {
          int v = 3;
          for (int i = 0; i < 5; i++) { v += g; int t = bump(v); }
          return v;
        }
    """,
    "global-array": """
        int ga[4];
        int bump(int p) { ga[0] = p % 31; return p; }
        int main() {
          int v = 3;
          for (int i = 0; i < 5; i++) { v += ga[0]; bump(v); }
          return v;
        }
    """,
}


def marked_binops(source, name="main"):
    program = compile_source(source)
    out = []
    for instr in program.module.function(name).instructions():
        if isinstance(instr, BinOp) and instr.dep_break is not None:
            out.append(instr)
    return out


def kinds(source, name="main"):
    return sorted(i.dep_break for i in marked_binops(source, name))


class TestInductionMarking:
    def test_for_step_plus_plus(self):
        assert "induction" in kinds(
            "int main() { int s = 0; for (int i = 0; i < 5; i++) s += 1; return s; }"
        )

    def test_for_step_compound(self):
        assert "induction" in kinds(
            "int main() { int s = 0; for (int i = 0; i < 10; i += 2) s += 1; return s; }"
        )

    def test_for_step_explicit_form(self):
        assert "induction" in kinds(
            "int main() { int s = 0; for (int i = 0; i < 5; i = i + 1) s += 1; return s; }"
        )

    def test_reversed_operands(self):
        marks = marked_binops(
            "int main() { int s = 0; for (int i = 0; i < 5; i = 1 + i) s += 1; return s; }"
        )
        induction = [m for m in marks if m.dep_break == "induction"]
        assert induction and induction[0].break_operand == 1

    def test_step_with_loop_varying_amount_not_induction(self):
        source = """
        int main() {
          int step = 1;
          int s = 0;
          for (int i = 0; i < 40; i += step) { step = step + 1; s += 1; }
          return s;
        }
        """
        marks = marked_binops(source)
        # i's update reads `step`, which is written in the loop, so i is NOT
        # an induction variable and must keep its dependence. (`step` itself
        # *is* a secondary induction variable — step_k = 1 + k — and may be
        # marked.)
        for mark in marks:
            accumulator = mark.operands[mark.break_operand]
            assert getattr(accumulator, "name", "") != "i"

    def test_two_updates_disqualify(self):
        source = """
        int main() {
          int s = 0;
          for (int i = 0; i < 20; i++) {
            if (s > 5) i += 2;
            s += 1;
          }
          return s;
        }
        """
        marks = marked_binops(source)
        # i is updated twice; neither update may be induction-marked.
        for mark in marks:
            if mark.dep_break == "induction":
                accumulator = mark.operands[mark.break_operand]
                assert getattr(accumulator, "name", "") != "i"


def marks_on(source, name):
    """Marks whose old-value operand is the variable ``name``."""
    return [
        m.dep_break
        for m in marked_binops(source)
        if getattr(m.operands[m.break_operand], "name", "") == name
    ]


class TestCallWritesStepState:
    @pytest.mark.parametrize("case", sorted(CALL_WRITES_STEP_STATE))
    def test_step_read_through_call_is_not_induction(self, case):
        source = CALL_WRITES_STEP_STATE[case]
        assert marks_on(source, "v") == []
        assert marks_on(source, "i") == ["induction"]

    @pytest.mark.parametrize("case", sorted(CALL_WRITES_STEP_STATE))
    def test_tree_and_compiled_profiles_identical(self, case):
        program = compile_source(CALL_WRITES_STEP_STATE[case])
        tree, _ = profile_program(program, engine="tree")
        compiled, _ = profile_program(program, engine="compiled")
        assert json.dumps(profile_to_json(tree), sort_keys=True) == json.dumps(
            profile_to_json(compiled), sort_keys=True
        )

    def test_builtin_call_keeps_global_step_induction(self):
        # Builtins write no program state: the step still reads an
        # invariant global.
        source = """
        int g = 2;
        int main() {
          int v = 3;
          float x = 0.0;
          for (int i = 0; i < 5; i++) { v += g; x = sqrt((float) v); }
          return v + (int) x;
        }
        """
        assert marks_on(source, "v") == ["induction"]

    def test_call_in_condition_counts(self):
        source = """
        int g = 9;
        int bump(int p) { g = p % 31; return p; }
        int main() {
          int v = 3;
          while (bump(v) < 100) { v += g; }
          return v;
        }
        """
        assert "induction" not in marks_on(source, "v")


class TestReductionMarking:
    def test_scalar_sum(self):
        assert "reduction" in kinds(
            "int main() { int s = 0; for (int i = 0; i < 5; i++) s += i; return s; }"
        )

    def test_scalar_product(self):
        assert "reduction" in kinds(
            "int main() { int p = 1; for (int i = 1; i < 5; i++) p *= i; return p; }"
        )

    def test_explicit_form_either_side(self):
        assert "reduction" in kinds(
            "int main() { int s = 0; for (int i = 0; i < 5; i++) s = i + s; return s; }"
        )

    def test_global_scalar_reduction(self):
        assert "reduction" in kinds(
            "int total; int main() { for (int i = 0; i < 5; i++) total += i; return total; }"
        )

    def test_array_element_histogram(self):
        assert "reduction" in kinds(
            "int h[8]; int main() { for (int i = 0; i < 32; i++) h[i % 8] += 1; return h[0]; }"
        )

    def test_accumulator_read_elsewhere_not_reduction(self):
        source = """
        int main() {
          int s = 0;
          int t = 0;
          for (int i = 0; i < 5; i++) { s = s + i; t = s * 2; }
          return t;
        }
        """
        for mark in marked_binops(source):
            if mark.dep_break == "reduction":
                accumulator = mark.operands[mark.break_operand]
                assert getattr(accumulator, "name", "") != "s"

    def test_self_referential_rhs_not_reduction(self):
        # s = s + s reads the accumulator on both sides; cannot break.
        source = """
        int main() {
          int s = 1;
          int n = 0;
          for (int i = 0; i < 5; i++) { s = s + s; n += 1; }
          return s + n;
        }
        """
        for mark in marked_binops(source):
            if mark.dep_break == "reduction":
                accumulator = mark.operands[mark.break_operand]
                assert getattr(accumulator, "name", "") != "s"

    def test_subtraction_with_accumulator_on_right_not_marked(self):
        # s = i - s is not a sum; must not be broken.
        source = """
        int main() {
          int s = 0;
          for (int i = 0; i < 5; i++) { s = i - s; }
          return s;
        }
        """
        for mark in marked_binops(source):
            accumulator = mark.operands[mark.break_operand]
            assert getattr(accumulator, "name", "") != "s"

    def test_division_not_reduction(self):
        source = """
        int main() {
          float s = 1024.0;
          int n = 0;
          for (int i = 0; i < 5; i++) { s /= 2.0; n += 1; }
          return (int) s + n;
        }
        """
        for mark in marked_binops(source):
            assert mark.op != "/"

    def test_innermost_loop_owns_classification(self):
        # s is accumulated in the inner loop; classification belongs there.
        source = """
        int main() {
          int s = 0;
          for (int i = 0; i < 3; i++) {
            for (int j = 0; j < 3; j++) {
              s += i * j;
            }
          }
          return s;
        }
        """
        assert "reduction" in kinds(source)

    def test_histogram_with_self_referential_index_not_marked(self):
        # h[h[0]] += 1 reads the histogram to compute its own index.
        source = """
        int h[8];
        int main() {
          for (int i = 0; i < 4; i++) { h[h[0] % 8] += 1; }
          return h[0];
        }
        """
        marks = [m for m in marked_binops(source) if m.dep_break == "reduction"]
        assert not marks
