"""Parser unit tests."""

import pytest

from repro.frontend.ast_nodes import (
    AssignStmt,
    BinaryExpr,
    BlockStmt,
    BreakStmt,
    CallExpr,
    CastExpr,
    CondExpr,
    ContinueStmt,
    DeclStmt,
    DoWhileStmt,
    ExprStmt,
    FloatLiteral,
    ForStmt,
    IfStmt,
    IndexExpr,
    IntLiteral,
    NameExpr,
    ReturnStmt,
    UnaryExpr,
    WhileStmt,
)
from repro.frontend.errors import ParseError
from repro.frontend.parser import parse_program


def parse_main_body(body: str):
    program = parse_program("int main() {\n" + body + "\n}")
    return program.function("main").body.body


def parse_expr(expr: str):
    stmts = parse_main_body(f"x = {expr};")
    assert isinstance(stmts[0], AssignStmt)
    return stmts[0].value


class TestTopLevel:
    def test_empty_main(self):
        program = parse_program("int main() { return 0; }")
        assert program.function_names == ["main"]

    def test_globals_and_functions(self):
        program = parse_program(
            """
            int n = 10;
            float data[8];
            float g1, g2 = 1.5;
            void helper() { }
            int main() { return 0; }
            """
        )
        assert [g.name for g in program.globals] == ["n", "data", "g1", "g2"]
        assert program.function_names == ["helper", "main"]
        assert program.globals[1].type.dims == (8,)
        assert isinstance(program.globals[3].init, FloatLiteral)

    def test_function_with_params(self):
        program = parse_program("int f(int a, float b, float m[4][4]) { return a; } int main(){return 0;}")
        params = program.function("f").params
        assert [p.name for p in params] == ["a", "b", "m"]
        assert params[2].type.dims == (4, 4)

    def test_unsized_first_param_dimension(self):
        program = parse_program("void f(float v[]) { } int main(){return 0;}")
        assert program.function("f").params[0].type.dims == (None,)

    def test_unsized_inner_dimension_rejected(self):
        with pytest.raises(ParseError):
            parse_program("void f(float v[4][]) { } int main(){return 0;}")

    def test_void_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_program("void x; int main(){return 0;}")

    def test_array_initializer_rejected(self):
        with pytest.raises(ParseError):
            parse_program("int a[4] = 0; int main(){return 0;}")

    def test_zero_array_dim_rejected(self):
        with pytest.raises(ParseError):
            parse_program("int a[0]; int main(){return 0;}")

    def test_stray_token_at_top_level(self):
        with pytest.raises(ParseError):
            parse_program("42; int main(){return 0;}")


class TestStatements:
    def test_declaration_with_init(self):
        stmts = parse_main_body("int x = 5;")
        assert isinstance(stmts[0], DeclStmt)
        decl = stmts[0].decls[0]
        assert decl.name == "x"
        assert isinstance(decl.init, IntLiteral)

    def test_multi_declarator(self):
        stmts = parse_main_body("int a, b = 2, c;")
        assert [d.name for d in stmts[0].decls] == ["a", "b", "c"]

    def test_assignment_ops(self):
        for op in ("=", "+=", "-=", "*=", "/="):
            stmts = parse_main_body(f"x {op} 3;")
            assert isinstance(stmts[0], AssignStmt)
            assert stmts[0].op == op

    def test_increment_desugars(self):
        stmts = parse_main_body("i++;")
        assert isinstance(stmts[0], AssignStmt)
        assert stmts[0].op == "+="
        assert isinstance(stmts[0].value, IntLiteral)

    def test_decrement_desugars(self):
        stmts = parse_main_body("i--;")
        assert stmts[0].op == "-="

    def test_array_element_assignment(self):
        stmts = parse_main_body("a[1][2] = 3;")
        target = stmts[0].target
        assert isinstance(target, IndexExpr)
        assert target.name == "a"
        assert len(target.indices) == 2

    def test_assignment_to_literal_rejected(self):
        with pytest.raises(ParseError):
            parse_main_body("3 = x;")

    def test_if_else(self):
        stmts = parse_main_body("if (x) y = 1; else y = 2;")
        node = stmts[0]
        assert isinstance(node, IfStmt)
        assert node.else_body is not None

    def test_dangling_else_binds_to_nearest_if(self):
        stmts = parse_main_body("if (a) if (b) x = 1; else x = 2;")
        outer = stmts[0]
        assert isinstance(outer, IfStmt)
        assert outer.else_body is None
        inner = outer.then_body
        assert isinstance(inner, IfStmt)
        assert inner.else_body is not None

    def test_while(self):
        stmts = parse_main_body("while (x > 0) x = x - 1;")
        assert isinstance(stmts[0], WhileStmt)

    def test_do_while(self):
        stmts = parse_main_body("do { x = 1; } while (x < 3);")
        assert isinstance(stmts[0], DoWhileStmt)

    def test_for_full_header(self):
        stmts = parse_main_body("for (int i = 0; i < 10; i++) x = i;")
        node = stmts[0]
        assert isinstance(node, ForStmt)
        assert isinstance(node.init, DeclStmt)
        assert node.cond is not None
        assert isinstance(node.step, AssignStmt)

    def test_for_empty_header(self):
        stmts = parse_main_body("for (;;) break;")
        node = stmts[0]
        assert node.init is None and node.cond is None and node.step is None

    def test_for_with_assignment_init(self):
        stmts = parse_main_body("for (i = 0; i < 3; i += 1) { }")
        assert isinstance(stmts[0].init, AssignStmt)

    def test_break_continue(self):
        stmts = parse_main_body("while (1) { break; }")
        body = stmts[0].body
        assert isinstance(body.body[0], BreakStmt)
        stmts = parse_main_body("while (1) { continue; }")
        assert isinstance(stmts[0].body.body[0], ContinueStmt)

    def test_return_value_and_void(self):
        stmts = parse_main_body("return 5;")
        assert isinstance(stmts[0], ReturnStmt)
        assert stmts[0].value is not None
        program = parse_program("void f() { return; } int main(){return 0;}")
        ret = program.function("f").body.body[0]
        assert isinstance(ret, ReturnStmt) and ret.value is None

    def test_empty_statement(self):
        stmts = parse_main_body(";")
        assert isinstance(stmts[0], BlockStmt) and not stmts[0].body

    def test_nested_blocks(self):
        stmts = parse_main_body("{ { int x = 1; } }")
        assert isinstance(stmts[0], BlockStmt)

    def test_expression_statement(self):
        stmts = parse_main_body("f(1, 2);")
        assert isinstance(stmts[0], ExprStmt)
        assert isinstance(stmts[0].expr, CallExpr)

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_main_body("x = 1")


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expr("1 + 2 * 3")
        assert isinstance(expr, BinaryExpr) and expr.op == "+"
        assert isinstance(expr.right, BinaryExpr) and expr.right.op == "*"

    def test_left_associativity(self):
        expr = parse_expr("10 - 4 - 3")
        assert expr.op == "-"
        assert isinstance(expr.left, BinaryExpr)
        assert expr.left.op == "-"

    def test_parentheses_override(self):
        expr = parse_expr("(1 + 2) * 3")
        assert expr.op == "*"
        assert isinstance(expr.left, BinaryExpr) and expr.left.op == "+"

    def test_comparison_below_logic(self):
        expr = parse_expr("a < b && c > d")
        assert expr.op == "&&"
        assert expr.left.op == "<" and expr.right.op == ">"

    def test_or_below_and(self):
        expr = parse_expr("a || b && c")
        assert expr.op == "||"
        assert expr.right.op == "&&"

    def test_shift_below_relational(self):
        expr = parse_expr("a << 2 < b")
        assert expr.op == "<"
        assert expr.left.op == "<<"

    def test_bitwise_precedence_chain(self):
        expr = parse_expr("a | b ^ c & d")
        assert expr.op == "|"
        assert expr.right.op == "^"
        assert expr.right.right.op == "&"

    def test_unary_minus(self):
        expr = parse_expr("-x * 2")
        assert expr.op == "*"
        assert isinstance(expr.left, UnaryExpr)

    def test_unary_plus_is_noop(self):
        expr = parse_expr("+x")
        assert isinstance(expr, NameExpr)

    def test_logical_not(self):
        expr = parse_expr("!x")
        assert isinstance(expr, UnaryExpr) and expr.op == "!"

    def test_double_negation(self):
        expr = parse_expr("- -x")
        assert isinstance(expr, UnaryExpr)
        assert isinstance(expr.operand, UnaryExpr)

    def test_ternary(self):
        expr = parse_expr("a ? b : c")
        assert isinstance(expr, CondExpr)

    def test_ternary_right_associative(self):
        expr = parse_expr("a ? b : c ? d : e")
        assert isinstance(expr, CondExpr)
        assert isinstance(expr.otherwise, CondExpr)

    def test_cast(self):
        expr = parse_expr("(int) 3.5")
        assert isinstance(expr, CastExpr) and expr.target == "int"
        expr = parse_expr("(float) n")
        assert isinstance(expr, CastExpr) and expr.target == "float"

    def test_parenthesized_name_is_not_cast(self):
        expr = parse_expr("(n) + 1")
        assert isinstance(expr, BinaryExpr)
        assert isinstance(expr.left, NameExpr)

    def test_call_with_args(self):
        expr = parse_expr("f(1, g(2), a[3])")
        assert isinstance(expr, CallExpr)
        assert len(expr.args) == 3
        assert isinstance(expr.args[1], CallExpr)

    def test_call_no_args(self):
        expr = parse_expr("rand()")
        assert isinstance(expr, CallExpr) and expr.args == []

    def test_multi_dim_index(self):
        expr = parse_expr("m[i + 1][j * 2]")
        assert isinstance(expr, IndexExpr)
        assert len(expr.indices) == 2

    def test_index_of_call_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("f()[0]")

    def test_unclosed_paren(self):
        with pytest.raises(ParseError):
            parse_expr("(1 + 2")


class TestSpans:
    def test_function_span_covers_body(self):
        program = parse_program("int main() {\n  return 0;\n}")
        span = program.function("main").span
        assert span.start.line == 1
        assert span.end.line == 3

    def test_loop_span(self):
        program = parse_program(
            "int main() {\n  for (int i = 0; i < 3; i++) {\n    i = i;\n  }\n  return 0;\n}"
        )
        loop = program.function("main").body.body[0]
        assert isinstance(loop, ForStmt)
        assert loop.span.line_range == (2, 4)


def nested_parens(depth: int) -> str:
    """``main`` returning ``n`` inside ``depth`` parentheses."""
    return (
        "int main() {\n  int n = 41;\n  return "
        + "(" * depth + "n" + ")" * depth
        + ";\n}\n"
    )


def nested_ifs(depth: int) -> str:
    """``depth`` nested ``if`` blocks, each counting one level into ``s``
    (the innermost body is at the deepest level, so it assigns plainly)."""
    lines = ["int main() {", "  int n = 500;", "  int s = 0;"]
    for level in range(1, depth + 1):
        lines.append(f"if (n > {level}) {{")
        lines.append("n = s;" if level == depth else "s = s + 1;")
    lines.append("}" * depth)
    lines.append("  return n;")
    lines.append("}")
    return "\n".join(lines) + "\n"


class TestNestingLimit:
    """127 levels are accepted (C11's block nesting guarantee); level 128
    is a ParseError, never a RecursionError."""

    @pytest.mark.parametrize(
        "source, expected",
        [(nested_parens(127), 41), (nested_ifs(127), 126)],
        ids=["parens", "ifs"],
    )
    def test_deepest_accepted_program_runs_alike_on_every_engine(
        self, source, expected
    ):
        from repro import KremlinSession
        from repro.api import ProfileOptions
        from repro.hcpa.serialize import profile_to_json

        results = {}
        for engine in ("tree", "compiled"):
            session = KremlinSession(
                profile_options=ProfileOptions(engine=engine)
            )
            assert session.check(source).verdicts is not None
            report = session.analyze(source)
            results[engine] = (
                report.run.value,
                profile_to_json(report.profile),
            )
        assert results["tree"][0] == expected
        assert results["tree"] == results["compiled"]

    @pytest.mark.parametrize("depth", [128, 1000])
    def test_too_deep_parens_are_a_parse_error(self, depth):
        source = nested_parens(depth)
        with pytest.raises(ParseError) as caught:
            parse_program(source)
        # the span is the 128th parenthesis, the one that reaches the limit
        column = source.splitlines()[2].index("(") + 128
        assert caught.value.span.start.line == 3
        assert caught.value.span.start.column == column
        assert "nesting" in caught.value.message

    @pytest.mark.parametrize("depth", [128, 1000])
    def test_too_deep_ifs_are_a_parse_error(self, depth):
        source = nested_ifs(depth)
        with pytest.raises(ParseError) as caught:
            parse_program(source)
        # the first level-128 construct is the '+' of ``s = s + 1`` in
        # the body of the 127th if
        span = caught.value.span
        assert span.start.line == 3 + 2 * 127
        assert source.splitlines()[span.start.line - 1] == "s = s + 1;"
        assert span.start.column == len("s = s ") + 1

    def test_long_operator_chain_is_a_parse_error(self):
        # a + a + ... builds a left-deep tree as deep as the chain is long
        terms = "+".join(["n"] * 1000)
        with pytest.raises(ParseError):
            parse_program(f"int main() {{ int n = 1; return {terms}; }}")

    @pytest.mark.parametrize(
        "expr",
        ["- " * 200 + "n", "(int)" * 200 + "n", "n ? " * 200 + "1" + " : 0" * 200,
         "a[" * 200 + "0" + "]" * 200],
        ids=["unary", "cast", "conditional", "subscript"],
    )
    def test_every_recursive_expression_form_is_bounded(self, expr):
        with pytest.raises(ParseError):
            parse_program(
                f"int a[4];\nint main() {{ int n = 1; return {expr}; }}"
            )

    def test_kremlin_cc_reports_the_parse_error(self):
        from repro.frontend.errors import MiniCError
        from repro.instrument.compile import kremlin_cc

        with pytest.raises(MiniCError):
            kremlin_cc(nested_ifs(400), "deep.c")
