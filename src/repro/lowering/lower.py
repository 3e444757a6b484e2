"""AST → IR lowering for MiniC.

Responsibilities beyond plain code generation:

* build the :class:`~repro.instrument.regions.StaticRegionTree` (function,
  loop, and loop-body regions) and emit ``region_enter``/``region_exit``
  markers with proper dynamic nesting, including early exits via ``break``,
  ``continue``, and ``return``;
* keep exactly one virtual register per scalar source variable (assignments
  are ``copy`` instructions), so the shadow register table corresponds to
  source variables.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    Program,
    ReturnStmt,
    Stmt,
    StringLiteral,
    TypeName,
    UnaryExpr,
    VarDecl,
    WhileStmt,
)
from repro.frontend.errors import SemanticError
from repro.frontend.source import SourceSpan
from repro.instrument.regions import RegionKind, StaticRegionTree
from repro.interp.builtins import BUILTINS
from repro.ir.basicblock import BasicBlock
from repro.ir.builder import IRBuilder
from repro.ir.function import Function
from repro.ir.module import GlobalVar, Module
from repro.ir.types import FLOAT, INT, VOID, ArrayType, ScalarType, Type, common_type, scalar
from repro.ir.values import Constant, GlobalRef, Register, StringConst, Value


def _ast_type_to_ir(type_name: TypeName) -> Type:
    base = scalar(type_name.base)
    if type_name.dims:
        return ArrayType(base, tuple(type_name.dims))
    return base


@dataclass
class _LoopContext:
    """Lowering state for one active loop: where break/continue go and which
    regions must be exited on the way."""

    loop_region_id: int
    body_region_id: int
    latch: BasicBlock
    exit: BasicBlock
    span: SourceSpan


@dataclass(frozen=True)
class _FuncSig:
    name: str
    return_type: ScalarType
    param_types: tuple[Type, ...]
    span: SourceSpan


class Lowerer:
    """Lowers one :class:`Program` into a :class:`Module`."""

    def __init__(self, program: Program):
        self.program = program
        self.module = Module(name=program.filename)
        self.regions = StaticRegionTree()
        self.module.regions = self.regions
        self.signatures: dict[str, _FuncSig] = {}

        # Per-function state.
        self.function: Function | None = None
        self.builder: IRBuilder | None = None
        self.scopes: list[dict[str, Value]] = []
        self.loop_stack: list[_LoopContext] = []
        self.region_stack: list[int] = []
        self._loop_counter = 0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def lower(self) -> Module:
        for decl in self.program.globals:
            self._lower_global(decl)
        for func in self.program.functions:
            if func.name in BUILTINS:
                raise SemanticError(
                    f"function {func.name!r} shadows a builtin", func.span
                )
            if func.name in self.signatures:
                raise SemanticError(f"duplicate function {func.name!r}", func.span)
            self.signatures[func.name] = _FuncSig(
                name=func.name,
                return_type=scalar(func.return_type.base),
                param_types=tuple(_ast_type_to_ir(p.type) for p in func.params),
                span=func.span,
            )
        if "main" not in self.signatures:
            raise SemanticError("program has no main function", self.program.span)
        for func in self.program.functions:
            self._lower_function(func)
        return self.module

    # ------------------------------------------------------------------
    # Globals
    # ------------------------------------------------------------------

    def _lower_global(self, decl: VarDecl) -> None:
        if decl.name in self.module.globals:
            raise SemanticError(f"duplicate global {decl.name!r}", decl.span)
        var_type = _ast_type_to_ir(decl.type)
        init: int | float | None = None
        if decl.init is not None:
            folded = _const_fold(decl.init)
            if folded is None:
                raise SemanticError(
                    "global initializers must be constant expressions", decl.init.span
                )
            init = int(folded) if var_type == INT else float(folded)
        if isinstance(var_type, ArrayType) and var_type.element_count is None:
            raise SemanticError("global arrays must be fully sized", decl.span)
        self.module.add_global(GlobalVar(decl.name, var_type, init))

    # ------------------------------------------------------------------
    # Functions
    # ------------------------------------------------------------------

    def _lower_function(self, decl: FuncDecl) -> None:
        return_type = scalar(decl.return_type.base)
        function = Function(name=decl.name, return_type=return_type, span=decl.span)
        self.module.add_function(function)

        region = self.regions.add(
            RegionKind.FUNCTION, decl.name, decl.span, None, decl.name
        )
        function.region_id = region.id

        self.function = function
        self.builder = IRBuilder(function)
        self.scopes = [{}]
        self.loop_stack = []
        self.region_stack = [region.id]
        self._loop_counter = 0

        entry = self._new_block("entry")
        self.builder.set_block(entry)
        self.builder.region_enter(region.id, decl.span)

        for param in decl.params:
            param_type = _ast_type_to_ir(param.type)
            register = function.new_register(param_type, name=param.name)
            function.params.append(register)
            self._declare(param.name, register, param.span)

        self._lower_stmt(decl.body)

        # Implicit return when control falls off the end.
        if not self.builder.is_terminated:
            self._emit_return(None, decl.span)

        _prune_unreachable(function)
        self.function = None
        self.builder = None

    # ------------------------------------------------------------------
    # Scope helpers
    # ------------------------------------------------------------------

    def _declare(self, name: str, value: Value, span: SourceSpan) -> None:
        scope = self.scopes[-1]
        if name in scope:
            raise SemanticError(f"redeclaration of {name!r} in the same scope", span)
        scope[name] = value

    def _lookup(self, name: str, span: SourceSpan) -> Value:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        global_var = self.module.globals.get(name)
        if global_var is not None:
            return GlobalRef(global_var.name, global_var.type)
        raise SemanticError(f"use of undeclared variable {name!r}", span)

    def _new_block(self, hint: str = "bb") -> BasicBlock:
        block = self.function.new_block(hint)
        block.region_id = self.region_stack[-1] if self.region_stack else -1
        return block

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _lower_stmt(self, stmt: Stmt) -> None:
        builder = self.builder
        if builder.is_terminated:
            # Unreachable code (after return/break): lower into a dead block
            # so diagnostics still fire; pruned afterwards.
            builder.set_block(self._new_block("dead"))

        if isinstance(stmt, BlockStmt):
            self.scopes.append({})
            try:
                for child in stmt.body:
                    self._lower_stmt(child)
            finally:
                self.scopes.pop()
        elif isinstance(stmt, DeclStmt):
            for decl in stmt.decls:
                self._lower_local_decl(decl)
        elif isinstance(stmt, AssignStmt):
            self._lower_assign(stmt)
        elif isinstance(stmt, ExprStmt):
            self._lower_expr(stmt.expr)
        elif isinstance(stmt, IfStmt):
            self._lower_if(stmt)
        elif isinstance(stmt, WhileStmt):
            self._lower_loop(stmt, init=None, cond=stmt.cond, step=None, body=stmt.body)
        elif isinstance(stmt, ForStmt):
            self._lower_loop(
                stmt, init=stmt.init, cond=stmt.cond, step=stmt.step, body=stmt.body
            )
        elif isinstance(stmt, DoWhileStmt):
            self._lower_do_while(stmt)
        elif isinstance(stmt, ReturnStmt):
            self._lower_return(stmt)
        elif isinstance(stmt, BreakStmt):
            self._lower_break(stmt)
        elif isinstance(stmt, ContinueStmt):
            self._lower_continue(stmt)
        else:
            raise SemanticError(f"cannot lower statement {type(stmt).__name__}", stmt.span)

    def _lower_local_decl(self, decl: VarDecl) -> None:
        var_type = _ast_type_to_ir(decl.type)
        if isinstance(var_type, ArrayType):
            if var_type.element_count is None:
                raise SemanticError("local arrays must be fully sized", decl.span)
            register = self.builder.alloca(var_type, decl.name, decl.span)
            self._declare(decl.name, register, decl.span)
            return
        register = self.function.new_register(var_type, name=decl.name)
        self._declare(decl.name, register, decl.span)
        if decl.init is not None:
            value = self._lower_expr(decl.init)
            value = self._require_scalar(value, decl.init.span)
            value = self.builder.coerce(value, var_type, decl.span)
            self.builder.copy(value, register, decl.span)
        else:
            zero = Constant(0, INT) if var_type == INT else Constant(0.0, FLOAT)
            self.builder.copy(zero, register, decl.span)

    def _lower_assign(self, stmt: AssignStmt) -> None:
        if isinstance(stmt.target, NameExpr):
            slot = self._lookup(stmt.target.name, stmt.target.span)
            if isinstance(slot.type, ArrayType):
                raise SemanticError("cannot assign to a whole array", stmt.target.span)
            if isinstance(slot, Register):
                self._lower_scalar_assign_register(stmt, slot)
            else:
                self._lower_scalar_assign_global(stmt, slot)
            return
        self._lower_element_assign(stmt)

    def _lower_scalar_assign_register(
        self, stmt: AssignStmt, register: Register
    ) -> None:
        builder = self.builder
        value = self._require_scalar(self._lower_expr(stmt.value), stmt.value.span)
        if stmt.op == "=":
            value = builder.coerce(value, register.type, stmt.span)
            builder.copy(value, register, stmt.span)
            return
        op = stmt.op[0]
        result = self._emit_binop(op, register, value, stmt.span)
        result = builder.coerce(result, register.type, stmt.span)
        builder.copy(result, register, stmt.span)

    def _lower_scalar_assign_global(self, stmt: AssignStmt, ref: GlobalRef) -> None:
        builder = self.builder
        value = self._require_scalar(self._lower_expr(stmt.value), stmt.value.span)
        if stmt.op == "=":
            value = builder.coerce(value, ref.type, stmt.span)
            builder.store(ref, None, value, stmt.span)
            return
        op = stmt.op[0]
        old = builder.load(ref, None, stmt.span)
        result = self._emit_binop(op, old, value, stmt.span)
        result = builder.coerce(result, ref.type, stmt.span)
        builder.store(ref, None, result, stmt.span)

    def _lower_element_assign(self, stmt: AssignStmt) -> None:
        builder = self.builder
        target = stmt.target
        assert isinstance(target, IndexExpr)
        mem, index, element_type = self._lower_address(target)
        value = self._require_scalar(self._lower_expr(stmt.value), stmt.value.span)
        if stmt.op == "=":
            value = builder.coerce(value, element_type, stmt.span)
            builder.store(mem, index, value, stmt.span)
            return
        op = stmt.op[0]
        old = builder.load(mem, index, stmt.span)
        result = self._emit_binop(op, old, value, stmt.span)
        result = builder.coerce(result, element_type, stmt.span)
        builder.store(mem, index, result, stmt.span)

    def _emit_binop(
        self, op: str, lhs: Value, rhs: Value, span: SourceSpan
    ) -> Value:
        lhs, rhs = self._unify_arith(lhs, rhs, span)
        return self.builder.binop(op, lhs, rhs, span)

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------

    def _lower_if(self, stmt: IfStmt) -> None:
        builder = self.builder
        cond = self._lower_condition(stmt.cond)
        then_block = self._new_block("if.then")
        join_block = self._new_block("if.join")
        else_block = join_block
        if stmt.else_body is not None:
            else_block = self._new_block("if.else")
        builder.branch(cond, then_block, else_block, stmt.cond.span)

        builder.set_block(then_block)
        self._lower_stmt(stmt.then_body)
        if not builder.is_terminated:
            builder.jump(join_block, stmt.span)

        if stmt.else_body is not None:
            builder.set_block(else_block)
            self._lower_stmt(stmt.else_body)
            if not builder.is_terminated:
                builder.jump(join_block, stmt.span)

        builder.set_block(join_block)

    def _lower_loop(
        self,
        stmt: Stmt,
        init: Stmt | None,
        cond: Expr | None,
        step: Stmt | None,
        body: Stmt,
    ) -> None:
        builder = self.builder
        self.scopes.append({})  # for-init declarations scope
        try:
            if init is not None:
                self._lower_stmt(init)

            loop_region, body_region = self._make_loop_regions(stmt, body)
            builder.region_enter(loop_region, stmt.span)

            self.region_stack.append(loop_region)
            header = self._new_block("loop.header")
            latch = self._new_block("loop.latch")
            exit_block = self._new_block("loop.exit")
            self.region_stack.append(body_region)
            body_entry = self._new_block("loop.body")
            self.region_stack.pop()

            builder.jump(header, stmt.span)
            builder.set_block(header)
            if cond is not None:
                cond_value = self._lower_condition(cond)
                builder.branch(cond_value, body_entry, exit_block, cond.span)
            else:
                builder.jump(body_entry, stmt.span)

            builder.set_block(body_entry)
            builder.region_enter(body_region, body.span)
            self.loop_stack.append(
                _LoopContext(loop_region, body_region, latch, exit_block, stmt.span)
            )
            self.region_stack.append(body_region)
            self._lower_stmt(body)
            self.region_stack.pop()
            self.loop_stack.pop()
            if not builder.is_terminated:
                builder.region_exit(body_region, body.span)
                builder.jump(latch, stmt.span)

            builder.set_block(latch)
            if step is not None:
                self._lower_stmt(step)
            builder.jump(header, stmt.span)

            builder.set_block(exit_block)
            builder.region_exit(loop_region, stmt.span)
            self.region_stack.pop()
            after = self._new_block("loop.after")
            builder.jump(after, stmt.span)
            builder.set_block(after)
        finally:
            self.scopes.pop()

    def _lower_do_while(self, stmt: DoWhileStmt) -> None:
        builder = self.builder
        loop_region, body_region = self._make_loop_regions(stmt, stmt.body)
        builder.region_enter(loop_region, stmt.span)

        self.region_stack.append(loop_region)
        latch = self._new_block("loop.latch")
        exit_block = self._new_block("loop.exit")
        self.region_stack.append(body_region)
        body_entry = self._new_block("loop.body")
        self.region_stack.pop()

        builder.jump(body_entry, stmt.span)
        builder.set_block(body_entry)
        builder.region_enter(body_region, stmt.body.span)
        self.loop_stack.append(
            _LoopContext(loop_region, body_region, latch, exit_block, stmt.span)
        )
        self.region_stack.append(body_region)
        self._lower_stmt(stmt.body)
        self.region_stack.pop()
        self.loop_stack.pop()
        if not builder.is_terminated:
            builder.region_exit(body_region, stmt.body.span)
            builder.jump(latch, stmt.span)

        builder.set_block(latch)
        cond_value = self._lower_condition(stmt.cond)
        builder.branch(cond_value, body_entry, exit_block, stmt.cond.span)
        # NOTE: branching back to body_entry re-enters the body region, and
        # region_enter there handles starting a new dynamic body instance.

        builder.set_block(exit_block)
        builder.region_exit(loop_region, stmt.span)
        self.region_stack.pop()
        after = self._new_block("loop.after")
        builder.jump(after, stmt.span)
        builder.set_block(after)

    def _make_loop_regions(self, stmt: Stmt, body: Stmt) -> tuple[int, int]:
        self._loop_counter += 1
        func_name = self.function.name
        depth = 1 + sum(1 for r in self.region_stack if self.regions.region(r).is_loop)
        parent = self.region_stack[-1]
        loop = self.regions.add(
            RegionKind.LOOP,
            f"{func_name}#loop{self._loop_counter}",
            stmt.span,
            parent,
            func_name,
            loop_depth=depth,
        )
        body_region = self.regions.add(
            RegionKind.BODY,
            f"{func_name}#loop{self._loop_counter}.body",
            body.span,
            loop.id,
            func_name,
            loop_depth=depth,
        )
        return loop.id, body_region.id

    def _lower_return(self, stmt: ReturnStmt) -> None:
        value: Value | None = None
        if stmt.value is not None:
            if self.function.return_type.is_void:
                raise SemanticError("void function cannot return a value", stmt.span)
            value = self._require_scalar(self._lower_expr(stmt.value), stmt.value.span)
            value = self.builder.coerce(value, self.function.return_type, stmt.span)
        elif not self.function.return_type.is_void:
            raise SemanticError("non-void function must return a value", stmt.span)
        self._emit_return(value, stmt.span)

    def _emit_return(self, value: Value | None, span: SourceSpan) -> None:
        builder = self.builder
        # Exit every active loop-body and loop region, innermost first.
        for context in reversed(self.loop_stack):
            builder.region_exit(context.body_region_id, span)
            builder.region_exit(context.loop_region_id, span)
        builder.region_exit(self.function.region_id, span)
        if value is None and not self.function.return_type.is_void:
            zero = (
                Constant(0, INT)
                if self.function.return_type == INT
                else Constant(0.0, FLOAT)
            )
            value = zero
        builder.ret(value, span)

    def _lower_break(self, stmt: BreakStmt) -> None:
        if not self.loop_stack:
            raise SemanticError("break outside of a loop", stmt.span)
        context = self.loop_stack[-1]
        self.builder.region_exit(context.body_region_id, stmt.span)
        self.builder.jump(context.exit, stmt.span)

    def _lower_continue(self, stmt: ContinueStmt) -> None:
        if not self.loop_stack:
            raise SemanticError("continue outside of a loop", stmt.span)
        context = self.loop_stack[-1]
        self.builder.region_exit(context.body_region_id, stmt.span)
        self.builder.jump(context.latch, stmt.span)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _lower_expr(self, expr: Expr) -> Value:
        builder = self.builder
        if isinstance(expr, IntLiteral):
            return Constant(expr.value, INT)
        if isinstance(expr, FloatLiteral):
            return Constant(expr.value, FLOAT)
        if isinstance(expr, StringLiteral):
            raise SemanticError(
                "string literals are only allowed as print() arguments", expr.span
            )
        if isinstance(expr, NameExpr):
            slot = self._lookup(expr.name, expr.span)
            if isinstance(slot, GlobalRef) and isinstance(slot.type, ScalarType):
                return builder.load(slot, None, expr.span)
            return slot
        if isinstance(expr, IndexExpr):
            mem, index, _ = self._lower_address(expr)
            return builder.load(mem, index, expr.span)
        if isinstance(expr, UnaryExpr):
            operand = self._require_scalar(self._lower_expr(expr.operand), expr.span)
            return builder.unop(expr.op, operand, expr.span)
        if isinstance(expr, BinaryExpr):
            return self._lower_binary(expr)
        if isinstance(expr, CallExpr):
            return self._lower_call(expr)
        if isinstance(expr, CondExpr):
            return self._lower_ternary(expr)
        if isinstance(expr, CastExpr):
            operand = self._require_scalar(self._lower_expr(expr.operand), expr.span)
            return builder.cast(scalar(expr.target), operand, expr.span)
        raise SemanticError(f"cannot lower expression {type(expr).__name__}", expr.span)

    def _lower_binary(self, expr: BinaryExpr) -> Value:
        if expr.op in ("&&", "||"):
            return self._lower_short_circuit(expr)
        builder = self.builder
        lhs = self._require_scalar(self._lower_expr(expr.left), expr.left.span)
        rhs = self._require_scalar(self._lower_expr(expr.right), expr.right.span)
        if expr.op in ("%", "&", "|", "^", "<<", ">>"):
            if lhs.type != INT or rhs.type != INT:
                raise SemanticError(
                    f"operator {expr.op!r} requires integer operands", expr.span
                )
            return builder.binop(expr.op, lhs, rhs, expr.span)
        lhs, rhs = self._unify_arith(lhs, rhs, expr.span)
        return builder.binop(expr.op, lhs, rhs, expr.span)

    def _lower_short_circuit(self, expr: BinaryExpr) -> Value:
        builder = self.builder
        result = self.function.new_register(INT, name="sc")
        rhs_block = self._new_block("sc.rhs")
        short_block = self._new_block("sc.short")
        join_block = self._new_block("sc.join")

        lhs = self._require_scalar(self._lower_expr(expr.left), expr.left.span)
        if expr.op == "&&":
            builder.branch(lhs, rhs_block, short_block, expr.span)
            short_value = Constant(0, INT)
        else:
            builder.branch(lhs, short_block, rhs_block, expr.span)
            short_value = Constant(1, INT)

        builder.set_block(rhs_block)
        rhs = self._require_scalar(self._lower_expr(expr.right), expr.right.span)
        normalized = builder.binop("!=", rhs, _zero_like(rhs), expr.right.span)
        builder.copy(normalized, result, expr.span)
        builder.jump(join_block, expr.span)

        builder.set_block(short_block)
        builder.copy(short_value, result, expr.span)
        builder.jump(join_block, expr.span)

        builder.set_block(join_block)
        return result

    def _lower_ternary(self, expr: CondExpr) -> Value:
        builder = self.builder
        then_block = self._new_block("sel.then")
        else_block = self._new_block("sel.else")
        join_block = self._new_block("sel.join")

        cond = self._lower_condition(expr.cond)
        builder.branch(cond, then_block, else_block, expr.cond.span)

        builder.set_block(then_block)
        then_value = self._require_scalar(self._lower_expr(expr.then), expr.then.span)
        then_exit = builder.current

        builder.set_block(else_block)
        else_value = self._require_scalar(
            self._lower_expr(expr.otherwise), expr.otherwise.span
        )
        else_exit = builder.current

        result_type = common_type(then_value.type, else_value.type)
        result = self.function.new_register(result_type, name="sel")

        builder.set_block(then_exit)
        coerced = builder.coerce(then_value, result_type, expr.then.span)
        builder.copy(coerced, result, expr.span)
        builder.jump(join_block, expr.span)

        builder.set_block(else_exit)
        coerced = builder.coerce(else_value, result_type, expr.otherwise.span)
        builder.copy(coerced, result, expr.span)
        builder.jump(join_block, expr.span)

        builder.set_block(join_block)
        return result

    def _lower_call(self, expr: CallExpr) -> Value:
        builder = self.builder
        if expr.callee in self.signatures:
            sig = self.signatures[expr.callee]
            if len(expr.args) != len(sig.param_types):
                raise SemanticError(
                    f"{expr.callee}() expects {len(sig.param_types)} arguments, "
                    f"got {len(expr.args)}",
                    expr.span,
                )
            args: list[Value] = []
            for arg_expr, param_type in zip(expr.args, sig.param_types):
                value = self._lower_expr(arg_expr)
                if isinstance(param_type, ArrayType):
                    self._check_array_argument(value, param_type, arg_expr.span)
                    args.append(value)
                else:
                    value = self._require_scalar(value, arg_expr.span)
                    args.append(builder.coerce(value, param_type, arg_expr.span))
            result = builder.call(expr.callee, args, sig.return_type, expr.span)
            return result if result is not None else Constant(0, INT)
        if expr.callee in BUILTINS:
            return self._lower_builtin_call(expr)
        raise SemanticError(f"call to unknown function {expr.callee!r}", expr.span)

    def _lower_builtin_call(self, expr: CallExpr) -> Value:
        builder = self.builder
        spec = BUILTINS[expr.callee]
        if not spec.variadic and len(expr.args) != len(spec.params):
            raise SemanticError(
                f"{expr.callee}() expects {len(spec.params)} arguments, "
                f"got {len(expr.args)}",
                expr.span,
            )
        args: list[Value] = []
        arg_types: list[Type] = []
        for arg_expr in expr.args:
            if isinstance(arg_expr, StringLiteral):
                if not spec.variadic:
                    raise SemanticError(
                        "string arguments are only allowed for print()", arg_expr.span
                    )
                args.append(StringConst(arg_expr.value))
                arg_types.append(VOID)
                continue
            value = self._require_scalar(self._lower_expr(arg_expr), arg_expr.span)
            args.append(value)
            arg_types.append(value.type)

        if spec.returns == "same":
            scalars = [t for t in arg_types if isinstance(t, ScalarType) and not t.is_void]
            return_type: Type = FLOAT if FLOAT in scalars else INT
        elif spec.returns == "void":
            return_type = VOID
        else:
            return_type = scalar(spec.returns)

        # Math builtins take float operands.
        if not spec.variadic:
            coerced = []
            for value, tag in zip(args, spec.params):
                if tag == "num" and spec.returns == "float":
                    coerced.append(builder.coerce(value, FLOAT, expr.span))
                else:
                    coerced.append(value)
            args = coerced

        result = builder.call(expr.callee, args, return_type, expr.span, is_builtin=True)
        return result if result is not None else Constant(0, INT)

    def _check_array_argument(
        self, value: Value, param_type: ArrayType, span: SourceSpan
    ) -> None:
        if not isinstance(value.type, ArrayType):
            raise SemanticError("expected an array argument", span)
        arg_type = value.type
        if arg_type.element != param_type.element:
            raise SemanticError(
                f"array element type mismatch: {arg_type.element} vs "
                f"{param_type.element}",
                span,
            )
        if arg_type.rank != param_type.rank:
            raise SemanticError(
                f"array rank mismatch: {arg_type.rank} vs {param_type.rank}", span
            )
        for arg_dim, param_dim in zip(arg_type.dims[1:], param_type.dims[1:]):
            if param_dim is not None and arg_dim != param_dim:
                raise SemanticError(
                    f"inner array dimensions must match ({arg_dim} vs {param_dim})",
                    span,
                )
        if (
            param_type.dims[0] is not None
            and arg_type.dims[0] is not None
            and arg_type.dims[0] != param_type.dims[0]
        ):
            raise SemanticError(
                f"array extent mismatch ({arg_type.dims[0]} vs {param_type.dims[0]})",
                span,
            )

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    def _lower_address(self, expr: IndexExpr) -> tuple[Value, Value, ScalarType]:
        """Lower an array element reference into (array ref, linear index)."""
        builder = self.builder
        slot = self._lookup(expr.name, expr.span)
        if not isinstance(slot.type, ArrayType):
            raise SemanticError(f"{expr.name!r} is not an array", expr.span)
        array_type = slot.type
        if len(expr.indices) != array_type.rank:
            raise SemanticError(
                f"{expr.name!r} has rank {array_type.rank}, "
                f"got {len(expr.indices)} indices",
                expr.span,
            )
        linear: Value | None = None
        for axis, index_expr in enumerate(expr.indices):
            index = self._require_scalar(self._lower_expr(index_expr), index_expr.span)
            if index.type != INT:
                raise SemanticError("array indices must be integers", index_expr.span)
            stride = array_type.row_stride(axis)
            if linear is None:
                linear = index
                if stride != 1 and array_type.rank > 1:
                    linear = builder.binop(
                        "*", linear, Constant(stride, INT), index_expr.span
                    )
            else:
                if stride != 1:
                    index = builder.binop(
                        "*", index, Constant(stride, INT), index_expr.span
                    )
                linear = builder.binop("+", linear, index, index_expr.span)
        assert linear is not None
        return slot, linear, array_type.element

    # ------------------------------------------------------------------
    # Misc helpers
    # ------------------------------------------------------------------

    def _lower_condition(self, expr: Expr) -> Value:
        value = self._require_scalar(self._lower_expr(expr), expr.span)
        return value

    def _require_scalar(self, value: Value, span: SourceSpan) -> Value:
        if isinstance(value.type, ArrayType):
            raise SemanticError("expected a scalar value, found an array", span)
        return value

    def _unify_arith(
        self, lhs: Value, rhs: Value, span: SourceSpan
    ) -> tuple[Value, Value]:
        target = common_type(lhs.type, rhs.type)
        return (
            self.builder.coerce(lhs, target, span),
            self.builder.coerce(rhs, target, span),
        )


def _zero_like(value: Value) -> Constant:
    return Constant(0, INT) if value.type == INT else Constant(0.0, FLOAT)


def _const_fold(expr: Expr) -> int | float | None:
    """Evaluate constant expressions for global initializers."""
    if isinstance(expr, IntLiteral):
        return expr.value
    if isinstance(expr, FloatLiteral):
        return expr.value
    if isinstance(expr, UnaryExpr):
        inner = _const_fold(expr.operand)
        if inner is None:
            return None
        if expr.op == "-":
            return -inner
        if expr.op == "!":
            return 0 if inner else 1
        return None
    if isinstance(expr, BinaryExpr):
        left = _const_fold(expr.left)
        right = _const_fold(expr.right)
        if left is None or right is None:
            return None
        try:
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                if isinstance(left, int) and isinstance(right, int):
                    return int(left / right) if right else None
                return left / right if right else None
            if expr.op == "%":
                return int(left) % int(right) if right else None
        except (ZeroDivisionError, ValueError):
            return None
        return None
    if isinstance(expr, CastExpr):
        inner = _const_fold(expr.operand)
        if inner is None:
            return None
        return int(inner) if expr.target == "int" else float(inner)
    return None


def _prune_unreachable(function: Function) -> None:
    """Remove blocks unreachable from the entry block."""
    reachable: set[int] = set()
    stack = [function.entry]
    while stack:
        block = stack.pop()
        if id(block) in reachable:
            continue
        reachable.add(id(block))
        stack.extend(block.successors)
    function.blocks = [b for b in function.blocks if id(b) in reachable]


def lower_program(program: Program) -> Module:
    """Lower a parsed MiniC program to an IR module (with region tree)."""
    return Lowerer(program).lower()
