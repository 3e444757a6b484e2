"""Differential property tests: the interpreter vs Python semantics."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from tests.conftest import ENGINE_MODES, run_source


#: run every differential property under all three execution paths:
#: tree reference, compiled engine, and compiled + fused profiling.
#: (pytest parametrization, not a fixture — Hypothesis forbids combining
#: @given with function-scoped fixtures)
all_engines = pytest.mark.parametrize("engine_mode", ENGINE_MODES)

# ----------------------------------------------------------------------
# Random integer expressions, evaluated both by MiniC and by Python.
# ----------------------------------------------------------------------


def c_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def c_mod(a: int, b: int) -> int:
    return a - c_div(a, b) * b


@st.composite
def int_exprs(draw, depth=0):
    """Generate (minic_text, python_value) pairs for integer expressions."""
    if depth >= 3 or draw(st.booleans()):
        value = draw(st.integers(min_value=-99, max_value=99))
        if value < 0:
            return f"(0 - {-value})", value
        return str(value), value
    op = draw(st.sampled_from(["+", "-", "*", "/", "%", "&", "|", "^"]))
    left_text, left_value = draw(int_exprs(depth=depth + 1))
    right_text, right_value = draw(int_exprs(depth=depth + 1))
    if op in ("/", "%") and right_value == 0:
        op = "+"
    if op == "+":
        value = left_value + right_value
    elif op == "-":
        value = left_value - right_value
    elif op == "*":
        value = left_value * right_value
    elif op == "/":
        value = c_div(left_value, right_value)
    elif op == "%":
        value = c_mod(left_value, right_value)
    elif op == "&":
        value = left_value & right_value
    elif op == "|":
        value = left_value | right_value
    else:
        value = left_value ^ right_value
    return f"({left_text} {op} {right_text})", value


@all_engines
@given(int_exprs())
@settings(max_examples=60, deadline=None)
def test_integer_expression_evaluation(engine_mode, pair):
    text, expected = pair
    result = run_source(
        f"int main() {{ return {text}; }}", engine_mode=engine_mode
    )
    assert result.value == expected


@all_engines
@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=25, deadline=None)
def test_counted_loop_sum(engine_mode, n, step):
    expected = sum(range(0, n, step))
    result = run_source(
        f"int main() {{ int s = 0; for (int i = 0; i < {n}; i += {step}) s += i; return s; }}",
        engine_mode=engine_mode,
    )
    assert result.value == expected


@all_engines
@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=16))
@settings(max_examples=25, deadline=None)
def test_array_fill_and_reduce(engine_mode, values):
    n = len(values)
    writes = "\n".join(f"a[{i}] = {v if v >= 0 else f'(0 - {-v})'};" for i, v in enumerate(values))
    source = f"""
    int a[{n}];
    int main() {{
      {writes}
      int s = 0;
      for (int i = 0; i < {n}; i++) s += a[i];
      return s;
    }}
    """
    assert run_source(source, engine_mode=engine_mode).value == sum(values)


@all_engines
@given(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20))
@settings(max_examples=25, deadline=None)
def test_conditional_max(engine_mode, a, b):
    source = f"int main() {{ int a = {a}; int b = {b}; if (a > b) return a; else return b; }}"
    assert run_source(source, engine_mode=engine_mode).value == max(a, b)


@all_engines
@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=12, deadline=None)
def test_recursive_factorial(engine_mode, n):
    import math

    source = f"""
    int fact(int n) {{ if (n < 2) return 1; return n * fact(n - 1); }}
    int main() {{ return fact({n}); }}
    """
    assert run_source(source, engine_mode=engine_mode).value == math.factorial(n)


@all_engines
@given(st.integers(min_value=2, max_value=40))
@settings(max_examples=20, deadline=None)
def test_while_equivalent_to_for(engine_mode, n):
    for_result = run_source(
        f"int main() {{ int s = 0; for (int i = 0; i < {n}; i++) s += i * i; return s; }}",
        engine_mode=engine_mode,
    )
    while_result = run_source(
        f"int main() {{ int s = 0; int i = 0; while (i < {n}) {{ s += i * i; i++; }} return s; }}",
        engine_mode=engine_mode,
    )
    assert for_result.value == while_result.value == sum(i * i for i in range(n))
