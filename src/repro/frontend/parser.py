"""Recursive-descent parser for MiniC with C-style operator precedence.

Nesting is bounded. Every sub-statement of a control statement, every
block inside a block, and every nested sub-expression (parenthesized,
unary or cast operand, conditional arm, subscript, call argument) is one
level, as is every operator of a binary chain (``a + b + c`` is a tree
two deep); statement and expression levels add up. The parser stops with
a :class:`ParseError` at level :data:`MAX_NESTING`, so nesting that would
overflow the Python stack here or in the recursive passes after it
(lowering, analysis, code generation) is a diagnostic, never a bare
``RecursionError``. C11 guarantees 127 nested blocks and 63 nested
parenthesized expressions; MiniC accepts 127 levels of both together.
"""

from __future__ import annotations

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
    Expr,
    ExprStmt,
    FloatLiteral,
    ForStmt,
    FuncDecl,
    IfStmt,
    IndexExpr,
    IntLiteral,
    NameExpr,
    Param,
    Program,
    ReturnStmt,
    Stmt,
    StringLiteral,
    TypeName,
    UnaryExpr,
    VarDecl,
    WhileStmt,
)
from repro.frontend.errors import ParseError
from repro.frontend.lexer import Lexer
from repro.frontend.source import SourceFile, SourceSpan
from repro.frontend.tokens import Token, TokenKind

# Binary operator precedence, higher binds tighter. Mirrors C.
_BINARY_PRECEDENCE: dict[TokenKind, tuple[int, str]] = {
    TokenKind.PIPE_PIPE: (1, "||"),
    TokenKind.AMP_AMP: (2, "&&"),
    TokenKind.PIPE: (3, "|"),
    TokenKind.CARET: (4, "^"),
    TokenKind.AMP: (5, "&"),
    TokenKind.EQ: (6, "=="),
    TokenKind.NE: (6, "!="),
    TokenKind.LT: (7, "<"),
    TokenKind.GT: (7, ">"),
    TokenKind.LE: (7, "<="),
    TokenKind.GE: (7, ">="),
    TokenKind.LSHIFT: (8, "<<"),
    TokenKind.RSHIFT: (8, ">>"),
    TokenKind.PLUS: (9, "+"),
    TokenKind.MINUS: (9, "-"),
    TokenKind.STAR: (10, "*"),
    TokenKind.SLASH: (10, "/"),
    TokenKind.PERCENT: (10, "%"),
}

_TYPE_KEYWORDS = (TokenKind.KW_INT, TokenKind.KW_FLOAT, TokenKind.KW_VOID)

#: the first nesting level the parser rejects
MAX_NESTING = 128

_ASSIGN_OPS: dict[TokenKind, str] = {
    TokenKind.ASSIGN: "=",
    TokenKind.PLUS_ASSIGN: "+=",
    TokenKind.MINUS_ASSIGN: "-=",
    TokenKind.STAR_ASSIGN: "*=",
    TokenKind.SLASH_ASSIGN: "/=",
}


class Parser:
    """Parses a token stream into a :class:`Program`."""

    def __init__(self, source: SourceFile):
        self.source = source
        self.tokens = Lexer(source).tokens()
        self.pos = 0
        #: statement + expression nesting level of the construct being
        #: parsed (a failed parse discards the parser, so a raise need
        #: not restore it)
        self.depth = 0

    # ------------------------------------------------------------------
    # Token-stream helpers
    # ------------------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self.current
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def _check(self, *kinds: TokenKind) -> bool:
        return self.current.kind in kinds

    def _accept(self, *kinds: TokenKind) -> Token | None:
        if self._check(*kinds):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, context: str = "") -> Token:
        if self.current.kind is kind:
            return self._advance()
        where = f" in {context}" if context else ""
        raise ParseError(
            f"expected {kind.value!r}{where}, found {self.current}",
            self.current.span,
        )

    def _descend(self, token: Token) -> None:
        """Enter one nesting level at ``token``."""
        self.depth += 1
        if self.depth >= MAX_NESTING:
            raise ParseError(
                f"nesting reaches {MAX_NESTING} levels; at most "
                f"{MAX_NESTING - 1} nested statements and expressions "
                "are supported",
                token.span,
            )

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def parse_program(self) -> Program:
        globals_: list[VarDecl] = []
        functions: list[FuncDecl] = []
        start_span = self.current.span
        while not self._check(TokenKind.EOF):
            if not self._check(*_TYPE_KEYWORDS):
                raise ParseError(
                    f"expected a declaration, found {self.current}",
                    self.current.span,
                )
            # type ident '(' → function; anything else → global variable(s).
            if (
                self._peek(1).kind is TokenKind.IDENT
                and self._peek(2).kind is TokenKind.LPAREN
            ):
                functions.append(self._parse_function())
            else:
                globals_.extend(self._parse_var_decl_list())
        end_span = self.tokens[-1].span
        return Program(
            span=start_span.merge(end_span),
            globals=globals_,
            functions=functions,
            filename=self.source.name,
        )

    def _parse_base_type(self) -> tuple[str, Token]:
        token = self._advance()
        if token.kind is TokenKind.KW_INT:
            return "int", token
        if token.kind is TokenKind.KW_FLOAT:
            return "float", token
        if token.kind is TokenKind.KW_VOID:
            return "void", token
        raise ParseError(f"expected a type, found {token}", token.span)

    def _parse_array_dims(self, allow_unsized_first: bool = False) -> tuple[int | None, ...]:
        dims: list[int | None] = []
        while self._accept(TokenKind.LBRACKET):
            if self._check(TokenKind.RBRACKET):
                if not (allow_unsized_first and not dims):
                    raise ParseError(
                        "only the first parameter dimension may be unsized",
                        self.current.span,
                    )
                dims.append(None)
            else:
                size_token = self._expect(TokenKind.INT_LITERAL, "array dimension")
                size = int(size_token.value)  # type: ignore[arg-type]
                if size <= 0:
                    raise ParseError("array dimension must be positive", size_token.span)
                dims.append(size)
            self._expect(TokenKind.RBRACKET, "array dimension")
        return tuple(dims)

    def _parse_function(self) -> FuncDecl:
        base, type_token = self._parse_base_type()
        name_token = self._expect(TokenKind.IDENT, "function declaration")
        self._expect(TokenKind.LPAREN, "parameter list")
        params: list[Param] = []
        if not self._check(TokenKind.RPAREN):
            while True:
                params.append(self._parse_param())
                if not self._accept(TokenKind.COMMA):
                    break
        self._expect(TokenKind.RPAREN, "parameter list")
        body = self._parse_block()
        return FuncDecl(
            span=type_token.span.merge(body.span),
            name=str(name_token.value),
            return_type=TypeName(base),
            params=params,
            body=body,
        )

    def _parse_param(self) -> Param:
        if self._check(TokenKind.KW_VOID) and self._peek(1).kind is TokenKind.RPAREN:
            # C-style `f(void)`: consume and treat as empty — handled by caller
            # never reaching here because caller checks RPAREN first; keep for
            # robustness with `(void)` written explicitly.
            token = self._advance()
            raise ParseError("'void' parameter lists are written as '()'", token.span)
        base, type_token = self._parse_base_type()
        if base == "void":
            raise ParseError("parameters cannot have type 'void'", type_token.span)
        name_token = self._expect(TokenKind.IDENT, "parameter")
        dims = self._parse_array_dims(allow_unsized_first=True)
        return Param(
            span=type_token.span.merge(name_token.span),
            name=str(name_token.value),
            type=TypeName(base, dims),
        )

    def _parse_var_decl_list(self) -> list[VarDecl]:
        """Parse ``type name [dims] [= init] (, name [dims] [= init])* ;``."""
        base, type_token = self._parse_base_type()
        if base == "void":
            raise ParseError("variables cannot have type 'void'", type_token.span)
        decls: list[VarDecl] = []
        while True:
            name_token = self._expect(TokenKind.IDENT, "variable declaration")
            dims = self._parse_array_dims()
            init: Expr | None = None
            if self._accept(TokenKind.ASSIGN):
                if dims:
                    raise ParseError(
                        "array initializers are not supported; assign in code",
                        self.current.span,
                    )
                init = self._parse_expr()
            end_span = init.span if init is not None else name_token.span
            decls.append(
                VarDecl(
                    span=type_token.span.merge(end_span),
                    name=str(name_token.value),
                    type=TypeName(base, dims),
                    init=init,
                )
            )
            if not self._accept(TokenKind.COMMA):
                break
        self._expect(TokenKind.SEMICOLON, "variable declaration")
        return decls

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _parse_block(self) -> BlockStmt:
        open_token = self._expect(TokenKind.LBRACE, "block")
        body: list[Stmt] = []
        while not self._check(TokenKind.RBRACE, TokenKind.EOF):
            body.append(self._parse_stmt())
        close_token = self._expect(TokenKind.RBRACE, "block")
        return BlockStmt(span=open_token.span.merge(close_token.span), body=body)

    def _parse_body(self) -> Stmt:
        """The sub-statement of a control statement: one nesting level,
        braced or not."""
        self._descend(self.current)
        if self._check(TokenKind.LBRACE):
            body: Stmt = self._parse_block()
        else:
            body = self._parse_stmt()
        self.depth -= 1
        return body

    def _parse_stmt(self) -> Stmt:
        kind = self.current.kind
        if kind is TokenKind.LBRACE:
            self._descend(self.current)
            block = self._parse_block()
            self.depth -= 1
            return block
        if kind in (TokenKind.KW_INT, TokenKind.KW_FLOAT):
            decls = self._parse_var_decl_list()
            span = decls[0].span.merge(decls[-1].span)
            return DeclStmt(span=span, decls=decls)
        if kind is TokenKind.KW_IF:
            return self._parse_if()
        if kind is TokenKind.KW_WHILE:
            return self._parse_while()
        if kind is TokenKind.KW_DO:
            return self._parse_do_while()
        if kind is TokenKind.KW_FOR:
            return self._parse_for()
        if kind is TokenKind.KW_RETURN:
            return self._parse_return()
        if kind is TokenKind.KW_BREAK:
            token = self._advance()
            self._expect(TokenKind.SEMICOLON, "break")
            return BreakStmt(span=token.span)
        if kind is TokenKind.KW_CONTINUE:
            token = self._advance()
            self._expect(TokenKind.SEMICOLON, "continue")
            return ContinueStmt(span=token.span)
        if kind is TokenKind.SEMICOLON:
            token = self._advance()
            return BlockStmt(span=token.span, body=[])
        stmt = self._parse_simple_stmt()
        self._expect(TokenKind.SEMICOLON, "statement")
        return stmt

    def _parse_simple_stmt(self) -> Stmt:
        """An assignment, increment/decrement, or expression statement,
        without the trailing semicolon (shared by `for` headers)."""
        expr = self._parse_expr()
        op_token = self._accept(*_ASSIGN_OPS.keys())
        if op_token is not None:
            if not isinstance(expr, (NameExpr, IndexExpr)):
                raise ParseError("assignment target must be a variable or element", expr.span)
            value = self._parse_expr()
            return AssignStmt(
                span=expr.span.merge(value.span),
                target=expr,
                op=_ASSIGN_OPS[op_token.kind],
                value=value,
            )
        incdec = self._accept(TokenKind.PLUS_PLUS, TokenKind.MINUS_MINUS)
        if incdec is not None:
            if not isinstance(expr, (NameExpr, IndexExpr)):
                raise ParseError("++/-- target must be a variable or element", expr.span)
            one = IntLiteral(span=incdec.span, value=1)
            op = "+=" if incdec.kind is TokenKind.PLUS_PLUS else "-="
            return AssignStmt(
                span=expr.span.merge(incdec.span), target=expr, op=op, value=one
            )
        return ExprStmt(span=expr.span, expr=expr)

    def _parse_if(self) -> IfStmt:
        if_token = self._advance()
        self._expect(TokenKind.LPAREN, "if condition")
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN, "if condition")
        then_body = self._parse_body()
        else_body: Stmt | None = None
        if self._accept(TokenKind.KW_ELSE):
            else_body = self._parse_body()
        end = else_body.span if else_body is not None else then_body.span
        return IfStmt(
            span=if_token.span.merge(end),
            cond=cond,
            then_body=then_body,
            else_body=else_body,
        )

    def _parse_while(self) -> WhileStmt:
        while_token = self._advance()
        self._expect(TokenKind.LPAREN, "while condition")
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN, "while condition")
        body = self._parse_body()
        return WhileStmt(span=while_token.span.merge(body.span), cond=cond, body=body)

    def _parse_do_while(self) -> DoWhileStmt:
        do_token = self._advance()
        body = self._parse_body()
        self._expect(TokenKind.KW_WHILE, "do-while")
        self._expect(TokenKind.LPAREN, "do-while condition")
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN, "do-while condition")
        semi = self._expect(TokenKind.SEMICOLON, "do-while")
        return DoWhileStmt(span=do_token.span.merge(semi.span), body=body, cond=cond)

    def _parse_for(self) -> ForStmt:
        for_token = self._advance()
        self._expect(TokenKind.LPAREN, "for header")

        init: Stmt | None = None
        if not self._check(TokenKind.SEMICOLON):
            if self._check(TokenKind.KW_INT, TokenKind.KW_FLOAT):
                decls = self._parse_var_decl_list()  # consumes the semicolon
                init = DeclStmt(span=decls[0].span.merge(decls[-1].span), decls=decls)
            else:
                init = self._parse_simple_stmt()
                self._expect(TokenKind.SEMICOLON, "for header")
        else:
            self._advance()

        cond: Expr | None = None
        if not self._check(TokenKind.SEMICOLON):
            cond = self._parse_expr()
        self._expect(TokenKind.SEMICOLON, "for header")

        step: Stmt | None = None
        if not self._check(TokenKind.RPAREN):
            step = self._parse_simple_stmt()
        self._expect(TokenKind.RPAREN, "for header")

        body = self._parse_body()
        return ForStmt(
            span=for_token.span.merge(body.span),
            init=init,
            cond=cond,
            step=step,
            body=body,
        )

    def _parse_return(self) -> ReturnStmt:
        return_token = self._advance()
        value: Expr | None = None
        if not self._check(TokenKind.SEMICOLON):
            value = self._parse_expr()
        semi = self._expect(TokenKind.SEMICOLON, "return")
        return ReturnStmt(span=return_token.span.merge(semi.span), value=value)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _parse_expr(self) -> Expr:
        return self._parse_ternary()

    def _parse_nested(self, token: Token) -> Expr:
        """A full sub-expression one nesting level down, at ``token``."""
        self._descend(token)
        expr = self._parse_ternary()
        self.depth -= 1
        return expr

    def _parse_ternary(self) -> Expr:
        cond = self._parse_binary(0)
        question = self._accept(TokenKind.QUESTION)
        if question is not None:
            then = self._parse_nested(question)
            colon = self._expect(TokenKind.COLON, "conditional expression")
            self._descend(colon)
            otherwise = self._parse_ternary()
            self.depth -= 1
            return CondExpr(
                span=cond.span.merge(otherwise.span),
                cond=cond,
                then=then,
                otherwise=otherwise,
            )
        return cond

    def _parse_binary(self, min_precedence: int) -> Expr:
        left = self._parse_unary()
        # each operator of a chain nests the tree built so far one deeper
        levels = 0
        while True:
            entry = _BINARY_PRECEDENCE.get(self.current.kind)
            if entry is None or entry[0] < min_precedence:
                self.depth -= levels
                return left
            precedence, op = entry
            self._descend(self._advance())
            levels += 1
            right = self._parse_binary(precedence + 1)
            left = BinaryExpr(
                span=left.span.merge(right.span), op=op, left=left, right=right
            )

    def _parse_unary(self) -> Expr:
        token = self.current
        if token.kind in (TokenKind.MINUS, TokenKind.PLUS, TokenKind.BANG):
            self._advance()
            self._descend(token)
            operand = self._parse_unary()
            self.depth -= 1
            op = {"-": "-", "+": "+", "!": "!"}[token.kind.value]
            if op == "+":
                return operand
            return UnaryExpr(span=token.span.merge(operand.span), op=op, operand=operand)
        # Cast: '(' 'int'|'float' ')' unary
        if (
            token.kind is TokenKind.LPAREN
            and self._peek(1).kind in (TokenKind.KW_INT, TokenKind.KW_FLOAT)
            and self._peek(2).kind is TokenKind.RPAREN
        ):
            self._advance()
            type_token = self._advance()
            self._advance()
            self._descend(token)
            operand = self._parse_unary()
            self.depth -= 1
            target = "int" if type_token.kind is TokenKind.KW_INT else "float"
            return CastExpr(
                span=token.span.merge(operand.span), target=target, operand=operand
            )
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while self._check(TokenKind.LBRACKET):
            if not isinstance(expr, (NameExpr, IndexExpr)):
                raise ParseError("only named arrays can be indexed", expr.span)
            index = self._parse_nested(self._advance())
            close = self._expect(TokenKind.RBRACKET, "index expression")
            if isinstance(expr, NameExpr):
                expr = IndexExpr(
                    span=expr.span.merge(close.span), name=expr.name, indices=[index]
                )
            else:
                expr = IndexExpr(
                    span=expr.span.merge(close.span),
                    name=expr.name,
                    indices=[*expr.indices, index],
                )
        return expr

    def _parse_primary(self) -> Expr:
        token = self.current
        if token.kind is TokenKind.INT_LITERAL:
            self._advance()
            return IntLiteral(span=token.span, value=int(token.value))  # type: ignore[arg-type]
        if token.kind is TokenKind.FLOAT_LITERAL:
            self._advance()
            return FloatLiteral(span=token.span, value=float(token.value))  # type: ignore[arg-type]
        if token.kind is TokenKind.STRING_LITERAL:
            self._advance()
            return StringLiteral(span=token.span, value=str(token.value))
        if token.kind is TokenKind.IDENT:
            self._advance()
            name = str(token.value)
            if self._check(TokenKind.LPAREN):
                open_token = self._advance()
                args: list[Expr] = []
                if not self._check(TokenKind.RPAREN):
                    while True:
                        args.append(self._parse_nested(open_token))
                        if not self._accept(TokenKind.COMMA):
                            break
                close = self._expect(TokenKind.RPAREN, "call")
                return CallExpr(span=token.span.merge(close.span), callee=name, args=args)
            return NameExpr(span=token.span, name=name)
        if token.kind is TokenKind.LPAREN:
            self._advance()
            expr = self._parse_nested(token)
            self._expect(TokenKind.RPAREN, "parenthesized expression")
            return expr
        raise ParseError(f"expected an expression, found {token}", token.span)


def parse_program(text: str, filename: str = "<input>") -> Program:
    """Parse MiniC source text into a :class:`Program`."""
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    # Lexing is eager in the Parser constructor, so the "lex" span wraps
    # construction and "parse" wraps the grammar walk proper.
    with tracer.span("lex"):
        parser = Parser(SourceFile(filename, text))
    with tracer.span("parse"):
        return parser.parse_program()
