"""Interpreter semantics tests."""

import math

import pytest

from repro.interp.errors import InterpreterError
from repro.interp.interpreter import ExecutionObserver, Interpreter
from repro.kremlib.profiler import KremlinProfiler
from tests.conftest import ENGINE_MODES, compile_source, run_source


def result_of(body: str):
    return run_source("int main() {" + body + "}").value


def float_result_of(body: str):
    return run_source("float compute() {" + body + "} int main() { float r = compute(); print(r); return 0; }").value


class TestArithmetic:
    def test_integer_ops(self):
        assert result_of("return 2 + 3 * 4;") == 14
        assert result_of("return (2 + 3) * 4;") == 20
        assert result_of("return 10 - 7;") == 3

    def test_division_truncates_toward_zero(self):
        assert result_of("return 7 / 2;") == 3
        assert result_of("return -7 / 2;") == -3
        assert result_of("return 7 / -2;") == -3
        assert result_of("return -7 / -2;") == 3

    def test_modulo_c_semantics(self):
        assert result_of("return 7 % 3;") == 1
        assert result_of("return -7 % 3;") == -1
        assert result_of("return 7 % -3;") == 1

    def test_division_by_zero_raises(self):
        with pytest.raises(InterpreterError, match="division by zero"):
            result_of("int z = 0; return 1 / z;")

    def test_modulo_by_zero_raises(self):
        with pytest.raises(InterpreterError, match="modulo by zero"):
            result_of("int z = 0; return 1 % z;")

    def test_float_division(self):
        run = run_source("int main() { float x = 7.0 / 2.0; print(x); return (int) x; }")
        assert run.value == 3
        assert run.output == ["3.5"]

    def test_bitwise(self):
        assert result_of("return 12 & 10;") == 8
        assert result_of("return 12 | 10;") == 14
        assert result_of("return 12 ^ 10;") == 6
        assert result_of("return 3 << 4;") == 48
        assert result_of("return 48 >> 4;") == 3

    def test_comparisons_produce_ints(self):
        assert result_of("return 3 < 4;") == 1
        assert result_of("return 4 <= 3;") == 0
        assert result_of("return 5 == 5;") == 1
        assert result_of("return 5 != 5;") == 0

    def test_unary(self):
        assert result_of("int x = 5; return -x;") == -5
        assert result_of("int x = 0; return !x;") == 1
        assert result_of("int x = 7; return !x;") == 0

    def test_casts(self):
        assert result_of("return (int) 3.9;") == 3
        assert result_of("float f = 2; return (int) (f * 2.0);") == 4

    def test_int_to_float_promotion_in_mixed_expr(self):
        assert result_of("int n = 3; float f = 0.5; return (int) (n * f * 2.0);") == 3


class TestShortCircuit:
    def test_and_short_circuits(self):
        # If && did not short-circuit, 1/z would trap.
        assert result_of("int z = 0; return z != 0 && 1 / z > 0;") == 0

    def test_or_short_circuits(self):
        assert result_of("int z = 0; return z == 0 || 1 / z > 0;") == 1

    def test_logical_results_normalized(self):
        assert result_of("return 5 && 7;") == 1
        assert result_of("return 0 || 9;") == 1

    def test_ternary(self):
        assert result_of("int x = 3; return x > 2 ? 10 : 20;") == 10
        assert result_of("int x = 1; return x > 2 ? 10 : 20;") == 20

    def test_ternary_mixed_types_promote(self):
        assert (
            result_of("int c = 1; float r = c ? 1 : 2.5; return (int) (r * 2.0);")
            == 2
        )


class TestControlFlow:
    def test_if_else_chain(self):
        source = """
        int classify(int x) {
          if (x < 0) return 0 - 1;
          else if (x == 0) return 0;
          else return 1;
        }
        int main() { return classify(0 - 5) + classify(0) * 10 + classify(9) * 100; }
        """
        assert run_source(source).value == -1 + 0 + 100

    def test_while_loop(self):
        assert result_of("int i = 0; int s = 0; while (i < 5) { s += i; i++; } return s;") == 10

    def test_do_while_executes_at_least_once(self):
        assert result_of("int i = 10; int n = 0; do { n++; i++; } while (i < 5); return n;") == 1

    def test_for_loop(self):
        assert result_of("int s = 0; for (int i = 1; i <= 4; i++) s += i; return s;") == 10

    def test_nested_loops(self):
        assert (
            result_of(
                "int s = 0; for (int i = 0; i < 3; i++) for (int j = 0; j < 3; j++) s += i * j; return s;"
            )
            == sum(i * j for i in range(3) for j in range(3))
        )

    def test_break(self):
        assert result_of("int i = 0; while (1) { i++; if (i == 7) break; } return i;") == 7

    def test_continue(self):
        expected = sum(i for i in range(10) if i % 2)
        assert (
            result_of(
                "int s = 0; for (int i = 0; i < 10; i++) { if (i % 2 == 0) continue; s += i; } return s;"
            )
            == expected
        )

    def test_break_inner_loop_only(self):
        body = """
        int count = 0;
        for (int i = 0; i < 3; i++) {
          for (int j = 0; j < 10; j++) {
            if (j == 2) break;
            count++;
          }
        }
        return count;
        """
        assert result_of(body) == 6

    def test_instruction_budget(self):
        program = compile_source("int main() { int i = 0; while (1) { i++; } return i; }")
        with pytest.raises(InterpreterError, match="budget"):
            Interpreter(program, max_instructions=10000).run()


class TestFunctions:
    def test_recursion(self):
        source = """
        int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
        int main() { return fib(12); }
        """
        assert run_source(source).value == 144

    def test_mutual_recursion(self):
        source = """
        int even_check(int n) { if (n == 0) return 1; return odd_check(n - 1); }
        int odd_check(int n) { if (n == 0) return 0; return even_check(n - 1); }
        int main() { return even_check(10) + odd_check(7) * 10; }
        """
        assert run_source(source).value == 11

    def test_runaway_recursion_trapped(self):
        source = "int f(int n) { return f(n + 1); } int main() { return f(0); }"
        with pytest.raises(InterpreterError, match="stack"):
            run_source(source)

    def test_array_by_reference_mutation(self):
        source = """
        void fill(int v[4]) { for (int i = 0; i < 4; i++) v[i] = i * i; }
        int main() {
          int data[4];
          fill(data);
          return data[0] + data[1] + data[2] + data[3];
        }
        """
        assert run_source(source).value == 0 + 1 + 4 + 9

    def test_return_type_conversion(self):
        source = "int trunc2(float f) { return f; } int main() { return trunc2(3.99); }"
        assert run_source(source).value == 3

    def test_entry_with_arguments(self):
        program = compile_source("int add(int a, int b) { return a + b; } int main() { return 0; }")
        result = Interpreter(program).run(entry="add", args=(30, 12))
        assert result.value == 42


class TestMemory:
    def test_global_scalar_init_and_update(self):
        source = "int counter = 5; int main() { counter += 3; return counter; }"
        assert run_source(source).value == 8

    def test_global_array_zero_initialized(self):
        source = "float a[4]; int main() { return (int) (a[0] + a[3]); }"
        assert run_source(source).value == 0

    def test_2d_array_row_major(self):
        source = """
        int m[3][4];
        int main() {
          for (int i = 0; i < 3; i++)
            for (int j = 0; j < 4; j++)
              m[i][j] = i * 10 + j;
          return m[2][3];
        }
        """
        assert run_source(source).value == 23

    def test_out_of_bounds_read_raises(self):
        with pytest.raises(InterpreterError, match="out of bounds"):
            run_source("int a[4]; int main() { int i = 9; return a[i]; }")

    def test_out_of_bounds_write_raises(self):
        with pytest.raises(InterpreterError, match="out of bounds"):
            run_source("int a[4]; int main() { int i = 0 - 1; a[i] = 5; return 0; }")

    def test_int_array_stores_truncate(self):
        source = "int a[2]; int main() { a[0] = (int) 3.7; return a[0]; }"
        assert run_source(source).value == 3

    def test_local_arrays_fresh_per_call(self):
        source = """
        int probe() {
          int buf[4];
          int old = buf[2];
          buf[2] = 99;
          return old;
        }
        int main() { probe(); return probe(); }
        """
        # The second call must see a fresh zeroed array, not 99.
        assert run_source(source).value == 0


class TestDeterminism:
    def test_rand_is_deterministic(self):
        source = "int main() { srand(7); return rand() % 1000; }"
        assert run_source(source).value == run_source(source).value

    def test_whole_run_reproducible(self):
        source = """
        float acc;
        int main() {
          srand(3);
          for (int i = 0; i < 50; i++) acc += randf();
          return (int) (acc * 1000.0);
        }
        """
        first = run_source(source)
        second = run_source(source)
        assert first.value == second.value
        assert first.instructions_retired == second.instructions_retired
        assert first.total_cost == second.total_cost


class TestCounters:
    def test_instruction_count_positive_and_stable(self):
        result = run_source("int main() { int s = 0; for (int i = 0; i < 10; i++) s += i; return s; }")
        assert result.instructions_retired > 30
        # Copies, jumps, and region markers are free; real ops are not.
        assert 0 < result.total_cost < 3 * result.instructions_retired

    def test_print_output_order(self):
        source = """
        int main() {
          print("first", 1);
          print("second", 2.5);
          return 0;
        }
        """
        assert run_source(source).output == ["first 1", "second 2.5"]


class TestEngineSelection:
    """Only observers whose hooks codegen bakes into the generated code
    (``fused_codegen``) keep the compiled engine; any other observer
    needs the per-instruction hooks that only the tree engine fires."""

    SOURCE = """
    int main() { int s = 0; for (int i = 0; i < 4; i++) s += i; return s; }
    """

    def test_plain_observer_falls_back_to_tree(self):
        class CountingObserver(ExecutionObserver):
            computes = 0

            def on_compute(self, instr, frame):
                self.computes += 1

        observer = CountingObserver()
        interp = Interpreter(
            compile_source(self.SOURCE), observer=observer, engine="compiled"
        )
        assert interp.engine == "tree"
        assert interp.run("main").value == 6
        assert interp._compiled is None
        assert observer.computes > 0

    def test_profiler_keeps_compiled_engine(self):
        program = compile_source(self.SOURCE)
        interp = Interpreter(
            program, observer=KremlinProfiler(program), engine="compiled"
        )
        assert interp.engine == "compiled"
        assert interp.run("main").value == 6
        assert interp._compiled is not None


_REPRO = "int g; int main() { print(g); g = g + 1; return g; }"


def _interp(program, mode, **kwargs):
    """An interpreter in one of conftest's ENGINE_MODES."""
    if mode == "fused":
        profiler = KremlinProfiler(program)
        return Interpreter(
            program, observer=profiler, engine="compiled", **kwargs
        )
    return Interpreter(program, engine=mode, **kwargs)


@pytest.mark.parametrize("mode", ENGINE_MODES)
class TestRunLifecycle:
    """Every run starts from fresh run state, as a binary starts every
    execution from its initializers."""

    def test_repeated_runs_are_identical(self, mode):
        interp = _interp(compile_source(_REPRO), mode)
        for _ in range(3):
            result = interp.run("main")
            assert result.value == 1
            assert result.output == ["0"]
            assert result.instructions_retired == 9

    def test_rand_sequence_repeats(self, mode):
        source = """
        int main() {
          print(rand(), randf());
          srand(7);
          print(rand(), rand());
          return 0;
        }
        """
        interp = _interp(compile_source(source), mode)
        outputs = [interp.run("main").output for _ in range(3)]
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(outputs[0]) == 2

    def test_global_array_starts_zeroed(self, mode):
        source = """
        int buf[4];
        int main() { int old = buf[2]; buf[2] = 99; return old; }
        """
        interp = _interp(compile_source(source), mode)
        assert interp.run("main").value == 0
        assert interp.run("main").value == 0
        assert interp.state.arrays["buf"].data[2] == 99

    def test_budget_applies_per_run(self, mode):
        interp = _interp(compile_source(_REPRO), mode, max_instructions=12)
        for _ in range(3):
            assert interp.run("main").value == 1

    def test_starting_globals_overlay_initializers(self, mode):
        interp = _interp(compile_source(_REPRO), mode)
        assert interp.run("main", scalars={"g": 5}).value == 6
        assert interp.state.scalars["g"] == 6
        assert interp.run("main").value == 1


@pytest.mark.parametrize("engine", ["tree", "compiled"])
def test_rejected_call_keeps_last_run(engine):
    """Entry lookup and the argument check come before any observer hook,
    so a bad call leaves the last run's state and profile intact."""
    program = compile_source(_REPRO)
    profiler = KremlinProfiler(program)
    interp = Interpreter(program, observer=profiler, engine=engine)
    interp.run("main")
    profile = profiler.profile
    with pytest.raises(InterpreterError, match="expects 0 arguments"):
        interp.run("main", (1,))
    with pytest.raises(KeyError):
        interp.run("no_such_function")
    assert profiler.profile is profile
    state = interp.state
    with pytest.raises(InterpreterError, match="expects 0 arguments"):
        interp.run("main", (1,))
    assert interp.state is state
