"""Property-based tests for the front end and end-to-end pipeline."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.frontend.lexer import tokenize
from repro.frontend.tokens import TokenKind
from repro.instrument.compile import kremlin_cc
from repro.kremlib.profiler import profile_program

identifiers = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,10}", fullmatch=True).filter(
    lambda s: s
    not in {
        "int", "float", "double", "void", "if", "else", "while", "do",
        "for", "return", "break", "continue",
    }
)


@given(identifiers)
@settings(max_examples=80, deadline=None)
def test_identifier_lexing_roundtrip(name):
    tokens = tokenize(name)
    assert tokens[0].kind is TokenKind.IDENT
    assert tokens[0].value == name


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=80, deadline=None)
def test_int_literal_roundtrip(value):
    tokens = tokenize(str(value))
    assert tokens[0].kind is TokenKind.INT_LITERAL
    assert tokens[0].value == value


@given(
    st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
    )
)
@settings(max_examples=80, deadline=None)
def test_float_literal_roundtrip(value):
    text = repr(float(value))
    tokens = tokenize(text)
    assert tokens[0].kind is TokenKind.FLOAT_LITERAL
    assert tokens[0].value == float(text)


@given(st.lists(st.sampled_from("+-*/%()[]{};,<>=!&|"), max_size=30))
@settings(max_examples=80, deadline=None)
def test_lexer_never_crashes_on_operator_soup(chars):
    from repro.frontend.errors import LexError

    try:
        tokens = tokenize("".join(chars))
        assert tokens[-1].kind is TokenKind.EOF
    except LexError:
        pass  # rejecting is fine; crashing is not


@st.composite
def random_loop_programs(draw):
    """Well-formed single-function programs with random loop nests."""
    depth = draw(st.integers(min_value=1, max_value=3))
    bounds = [draw(st.integers(min_value=1, max_value=6)) for _ in range(depth)]
    body = "s += " + " + ".join(f"i{k}" for k in range(depth)) + ";"
    for level in range(depth - 1, -1, -1):
        body = (
            f"for (int i{level} = 0; i{level} < {bounds[level]}; i{level}++) "
            f"{{ {body} }}"
        )
    source = f"int main() {{ int s = 0; {body} return s; }}"
    expected = 0
    import itertools

    for idx in itertools.product(*(range(b) for b in bounds)):
        expected += sum(idx)
    return source, expected, depth, bounds


@given(random_loop_programs())
@settings(max_examples=30, deadline=None)
def test_random_loop_nests_profile_cleanly(params):
    """Every well-formed loop nest must (a) compute the right answer under
    profiling, (b) balance its regions, and (c) satisfy work/cp sanity."""
    source, expected, depth, bounds = params
    program = kremlin_cc(source, "prop.c")
    profile, run = profile_program(program)
    assert run.value == expected
    assert len(program.regions.loops()) == depth
    for entry in profile.dictionary.entries:
        assert 0 <= entry.cp <= entry.work
    # iteration structure: loop k has prod(bounds[:k]) instances
    counts = profile.char_counts()
    per_region: dict[str, int] = {}
    for char, entry in enumerate(profile.dictionary.entries):
        name = program.regions.region(entry.static_id).name
        per_region[name] = per_region.get(name, 0) + counts[char]
    instances = 1
    for level, bound in enumerate(bounds, start=1):
        assert per_region[f"main#loop{level}"] == instances
        instances *= bound


@pytest.mark.parametrize("plain_engine", ("tree", "compiled"))
@given(random_loop_programs())
@settings(max_examples=15, deadline=None)
def test_profiling_never_changes_program_output(plain_engine, params):
    """Holds for both engines: the profiler (run on the compiled engine's
    fused flavor) must not perturb execution."""
    source, expected, _, _ = params
    from repro.interp.interpreter import Interpreter

    program = kremlin_cc(source, "prop.c")
    plain = Interpreter(program, engine=plain_engine).run()
    _, profiled = profile_program(program)
    assert plain.value == profiled.value == expected
    assert plain.instructions_retired == profiled.instructions_retired
